"""Differential operators on free infinite jets.

Total derivatives span the Cartan distribution; integration by parts, the
Euler operator and evolutionary vector fields are built on top of them.
"""

from __future__ import annotations

from .errors import ContextMismatch, UnsupportedExpression
from .symexpr import (
    BaseVar,
    Expression,
    JetContext,
    JetCoord,
    MultiIndex,
    gradient,
)

def total_derivative(ctx: JetContext, i: int, e: Expression) -> Expression:
    """D_{x^i}: sends u^k_alpha to u^k_{alpha+x^i}, differentiates opaque
    symbols by the chain rule through their declared arguments.  D_{x^i} of
    each atom is computed once per context (``ctx.total_derivative_memo``)."""

    def action(atom):
        if isinstance(atom, BaseVar):
            return ctx.one() if atom.index == i else ctx.zero()
        # a JetCoord: derive sends opaque symbols through the chain rule
        return ctx.expr(JetCoord(atom.dep, atom.mindex + MultiIndex.single(i)))

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


def integrate_by_parts(coeffs: dict, directions, derivative) -> tuple[dict, list]:
    """Integrate the pairing sum b theta^k_alpha by parts in ``directions``,
    one derivative at a time: b theta^k_alpha = D_j(b theta^k_beta) -
    D_j(b) theta^k_beta for alpha = beta + x^j.

    ``coeffs`` maps u^k_alpha to b, and ``derivative(j, b)`` is D_j.  Each
    step takes the largest coordinate (in canonical order) with a derivative in
    ``directions`` and its highest such j, records the boundary term
    (b, u^k_beta, j) and moves -derivative(j, b) onto u^k_beta.  Returns
    (residues, boundary): the coefficients left on coordinates with no
    derivative in ``directions``, and the boundary terms in peeling order.
    Largest first peels each coordinate once; any order would send every
    coefficient down the same path, so only the choice of j shapes the
    result: the residues do not depend on it when the derivatives commute,
    the boundary terms do.
    """
    coeffs = dict(coeffs)
    boundary = []

    def steps(coord):
        return [i for i in coord.mindex.indices() if i in directions]

    while pending := [coord for coord in coeffs if steps(coord)]:
        coord = max(pending)
        b = coeffs.pop(coord)
        if b.is_zero():
            continue
        j = max(steps(coord))
        lower = JetCoord(coord.dep, coord.mindex - MultiIndex.single(j))
        boundary.append((b, lower, j))
        moved = derivative(j, b)
        coeffs[lower] = coeffs[lower] - moved if lower in coeffs else -moved
    return coeffs, boundary


def first_variation(ctx: JetContext, lam: Expression) -> tuple[dict, list]:
    """Integrate d lam = sum (d lam / d u^k_alpha) theta^k_alpha by parts in
    every direction, once over every jet atom of lam: returns (residues,
    boundary) as ``integrate_by_parts`` does.  The residue on u^k is the
    Euler-Lagrange expression E_k (dependents never mix while peeling), and
    the boundary terms give omega_L: dL = E(L) + d_h omega_L."""
    coeffs = {a: d for a, d in gradient(lam).items() if isinstance(a, JetCoord)}
    return integrate_by_parts(
        coeffs, range(ctx.n), lambda j, b: total_derivative(ctx, j, b))


def refuse_opaque_of(ctx: JetContext, lam: Expression, k: int) -> None:
    """Refuse a density with an opaque symbol depending on jet coordinates
    of dependent k: its variational sum in u^k is not guaranteed finite."""
    for a in lam.atoms():
        if hasattr(a, "args"):
            if any(isinstance(arg, JetCoord) and arg.dep == k for arg in a.args):
                raise UnsupportedExpression(
                    "euler_derivative: opaque symbol depends on jet coordinates "
                    f"of {ctx.dependents[k]!r}; the variational sum is not guaranteed finite")


def euler_derivative(ctx: JetContext, lam: Expression, k: int) -> Expression:
    """Variational derivative of a density with respect to dependent k:
    sum over alpha of (-1)^|alpha| D_alpha(d lam / d u^k_alpha), the residue
    on u^k of the first variation."""
    refuse_opaque_of(ctx, lam, k)
    residues, _ = first_variation(ctx, lam)
    return residues.get(JetCoord(k), ctx.zero())


class EvolutionaryField:
    """Characteristic of an evolutionary vector field: one component per
    dependent variable."""

    def __init__(self, ctx: JetContext, components: tuple):
        if len(components) != ctx.m:
            raise ValueError("one component per dependent variable required")
        for c in components:
            if c.ctx is not ctx:
                raise ValueError("component context mismatch")
        self.ctx, self.components = ctx, components

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
