"""Differential operators on free infinite jets.

Total derivatives span the Cartan distribution; the Euler operator and
evolutionary vector fields are built on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatch, UnsupportedExpression
from .symexpr import (
    BaseVar,
    Expression,
    JetContext,
    JetCoord,
    MultiIndex,
    partial,
)

__all__ = [
    "JetContext",
    "EvolutionaryField",
    "total_derivative",
    "total_derivative_multi",
    "euler_derivative",
    "apply_evolutionary",
    "linearization",
]


def total_derivative(ctx: JetContext, i: int, e: Expression) -> Expression:
    """D_{x^i}: sends u^k_alpha to u^k_{alpha+x^i}, differentiates opaque
    symbols by the chain rule through their declared arguments.  D_{x^i} of
    each atom is computed once per context (``ctx.total_derivative_memo``)."""

    def action(atom):
        if isinstance(atom, BaseVar):
            return ctx.one() if atom.index == i else ctx.zero()
        if isinstance(atom, JetCoord):
            return ctx.expr(JetCoord(atom.dep, atom.mindex + MultiIndex.single(i)))
        return ctx.zero()

    if e.ctx is not ctx:
        raise ContextMismatch("expression belongs to a different context")
    return e.derive(action, ctx.total_derivative_memo[i])


def total_derivative_multi(ctx: JetContext, alpha: MultiIndex, e: Expression) -> Expression:
    """D_alpha: the composition of the D_{x^i}; order is immaterial."""
    out = e
    for i, count in alpha.entries:
        for _ in range(count):
            out = total_derivative(ctx, i, out)
    return out


def euler_derivative(ctx: JetContext, lam: Expression, k: int) -> Expression:
    """Variational derivative of a density with respect to dependent k:
    sum over alpha of (-1)^|alpha| D_alpha(d lam / d u^k_alpha)."""
    for a in lam.atoms():
        if hasattr(a, "args"):
            if any(isinstance(arg, JetCoord) and arg.dep == k for arg in a.args):
                raise UnsupportedExpression(
                    "euler_derivative: opaque symbol depends on jet coordinates "
                    f"of {ctx.dependents[k]!r}; the variational sum is not guaranteed finite")
    out = ctx.zero()
    for atom in lam.jet_atoms(dep=k):
        piece = partial(lam, atom)
        if piece.is_zero():
            continue
        sign = -1 if atom.mindex.order % 2 else 1
        out = out + sign * total_derivative_multi(ctx, atom.mindex, piece)
    return out


@dataclass(frozen=True)
class EvolutionaryField:
    """Characteristic of an evolutionary vector field: one component per
    dependent variable."""

    ctx: JetContext
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.ctx.m:
            raise ValueError("one component per dependent variable required")
        for c in self.components:
            if c.ctx is not self.ctx:
                raise ValueError("component context mismatch")

    def component(self, k: int) -> Expression:
        return self.components[k]


def apply_evolutionary(field: EvolutionaryField, e: Expression) -> Expression:
    """E_phi(e) = sum D_alpha(phi^k) * de/du^k_alpha over the atoms present."""
    ctx = field.ctx

    def action(atom):
        if isinstance(atom, JetCoord):
            return total_derivative_multi(ctx, atom.mindex, field.component(atom.dep))
        return ctx.zero()

    return e.derive(action)


def linearization(F, phi: EvolutionaryField):
    """Componentwise E_phi(F^j); restricting the result to an equation
    manifold gives the symmetry test."""
    return [apply_evolutionary(phi, f) for f in F]
