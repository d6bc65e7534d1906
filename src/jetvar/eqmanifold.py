"""Equations in solved orthonomic form and restriction to their infinite
prolongation.

A SolvedEquation is an oriented rewrite system u^k_beta -> rhs.  Principal
coordinates (heads and their derivatives) are eliminated; everything else
is an internal coordinate on the equation manifold.  Restriction is
fixpoint rewriting with lazily prolonged, cached rules.
"""

from __future__ import annotations

from .errors import ConsistencyError, OrientationError
from .forms import DifferentialForm, THETA, exterior_derivative, theta_image
from .jetcalc import (
    EvolutionaryField,
    JetContext,
    linearization,
    total_derivative,
    total_derivative_multi,
)
from .symexpr import Expression, JetCoord, MultiIndex


class SolvedEquation:
    """Oriented rewrite system defining an infinitely prolonged equation."""

    def __init__(self, ctx: JetContext, rules, integrability_order: int = 4,
                 check_integrability: bool = True):
        self.ctx = ctx
        heads: list[JetCoord] = []
        raw_rhs: list[Expression] = []
        for head, rhs in rules:
            if not isinstance(head, JetCoord):
                head = ctx.jet_atom(*head) if isinstance(head, tuple) else ctx.atom(head)
            if not isinstance(head, JetCoord):
                raise ValueError("rule head must be a jet coordinate")
            heads.append(head)
            raw_rhs.append(rhs)
        for a in heads:
            for b in heads:
                if a is not b and a.dep == b.dep and a.mindex.divides(b.mindex) \
                        and a.mindex != b.mindex:
                    raise OrientationError(
                        f"rule head {ctx.atom_name(b)} is a derivative of head "
                        f"{ctx.atom_name(a)}; the rule set is not minimal")
        if len(set(heads)) != len(heads):
            raise OrientationError("duplicate rule heads")
        self.heads = tuple(heads)
        self._cache: dict[JetCoord, Expression] = {}
        # one SpatialStructure per frame, filled by spatial.spatial_structure
        self.spatial_structures: dict = {}
        self.integrability_order = integrability_order
        # normalize declared right sides against the full rule set
        self.rhs = []
        for head, rhs in zip(heads, raw_rhs):
            self._cache[head] = rhs  # provisional, so siblings can see it
        for head, rhs in zip(heads, raw_rhs):
            normal = self.restrict(rhs, _stack=(head,))
            self._cache[head] = normal
            self.rhs.append(normal)
        self.rhs = tuple(self.rhs)
        for head, rhs in zip(self.heads, self.rhs):
            if any(a == head or (a.dep == head.dep and head.mindex.divides(a.mindex))
                   for a in rhs.jet_atoms()):
                raise OrientationError(
                    f"rule for {ctx.atom_name(head)} is not oriented", rule=head)
        if check_integrability:
            self.check_integrability(integrability_order)

    # -- rule machinery ------------------------------------------------------

    def _dividing_head(self, coord: JetCoord):
        for head in self.heads:
            if head.dep == coord.dep and head.mindex.divides(coord.mindex):
                return head
        return None

    def is_principal(self, coord: JetCoord) -> bool:
        return self._dividing_head(coord) is not None

    def is_internal(self, coord: JetCoord) -> bool:
        return not self.is_principal(coord)

    def rule_for(self, coord: JetCoord, _stack=()) -> Expression:
        """Normalized right side for a principal-derived coordinate."""
        hit = self._cache.get(coord)
        if hit is not None:
            return hit
        for busy in _stack:
            if busy.dep == coord.dep and busy.mindex.divides(coord.mindex):
                raise OrientationError(
                    f"rule set loops while normalizing {self.ctx.atom_name(coord)} "
                    f"(already rewriting {self.ctx.atom_name(busy)})", rule=coord)
        if len(_stack) > 200:
            raise OrientationError(
                f"rewrite chain too deep at {self.ctx.atom_name(coord)}", rule=coord)
        head = self._dividing_head(coord)
        if head is None:
            raise KeyError(f"{self.ctx.atom_name(coord)} is not a principal coordinate")
        gamma = coord.mindex - head.mindex
        raw = total_derivative_multi(self.ctx, gamma, self._cache[head])
        normal = self.restrict(raw, _stack=_stack + (coord,))
        return self._cache.setdefault(coord, normal)

    def prolong_rule(self, principal: JetCoord, gamma: MultiIndex):
        """Rule for the coordinate principal+gamma, derived from a declared head."""
        if principal not in self.heads:
            raise KeyError(f"{self.ctx.atom_name(principal)} is not a declared rule head")
        coord = JetCoord(principal.dep, principal.mindex + gamma)
        return coord, self.rule_for(coord)

    # -- restriction -----------------------------------------------------------

    def restrict(self, e: Expression, _stack=()) -> Expression:
        """Fixpoint rewriting into internal coordinates."""
        for _ in range(1000):
            reducible = [a for a in e.jet_atoms() if self.is_principal(a)]
            if not reducible:
                return e
            subs = {a: self.rule_for(a, _stack=_stack) for a in reducible}
            e = e.substitute(subs)
        raise OrientationError("rewriting did not terminate")

    def restrict_form(self, omega: DifferentialForm) -> DifferentialForm:
        """Restrict coefficients and rewrite principal Cartan generators via
        theta^p|_E = sum (d rhs/d u^j_beta) theta^j_beta."""
        items = []
        for gens, coeff in omega.terms.items():
            pieces = [(self.restrict(coeff), ())]
            for g in gens:
                expanded = []
                if g.is_theta():
                    coord = JetCoord(g.index, g.mindex)
                    if self.is_principal(coord):
                        for atom, d in theta_image(self.rule_for(coord)):
                            expanded.append((d, THETA(atom.dep, atom.mindex)))
                    else:
                        expanded.append((self.ctx.one(), g))
                else:
                    expanded.append((self.ctx.one(), g))
                pieces = [(c * fc, gs + (fg,)) for c, gs in pieces for fc, fg in expanded]
            items.extend(pieces)
        return DifferentialForm.from_terms(self.ctx, items)

    def restricted_total_derivative(self, i: int, e: Expression) -> Expression:
        return self.restrict(total_derivative(self.ctx, i, self.restrict(e)))

    def restricted_total_derivative_multi(self, alpha: MultiIndex, e: Expression) -> Expression:
        out = self.restrict(e)
        for i, count in alpha.entries:
            for _ in range(count):
                out = self.restrict(total_derivative(self.ctx, i, out))
        return out

    def restricted_exterior_derivative(self, omega: DifferentialForm) -> DifferentialForm:
        """de Rham differential on the equation manifold, in internal
        coordinates: d, then restriction."""
        return self.restrict_form(exterior_derivative(omega))

    # -- symmetries and sanity -----------------------------------------------

    def residuals(self):
        """F^r = principal - rhs for every declared rule."""
        return [self.ctx.expr(h) - r for h, r in zip(self.heads, self.rhs)]

    def is_symmetry(self, phi: EvolutionaryField) -> bool:
        lin = linearization(self.residuals(), phi)
        return all(self.restrict(component).is_zero() for component in lin)

    def internal_coordinates(self, max_order: int):
        """All internal jet coordinates up to the given order."""
        out = []
        for k in range(self.ctx.m):
            for alpha in iter_multi_indices(self.ctx.n, max_order):
                coord = JetCoord(k, alpha)
                if self.is_internal(coord):
                    out.append(coord)
        return out

    def check_integrability(self, max_order: int | None = None):
        """[Dbar_i, Dbar_j] must vanish on every internal coordinate."""
        order = self.integrability_order if max_order is None else max_order
        for coord in self.internal_coordinates(order):
            e = self.ctx.expr(coord)
            for i in range(self.ctx.n):
                di = self.restricted_total_derivative(i, e)
                for j in range(i + 1, self.ctx.n):
                    dij = self.restricted_total_derivative(j, di)
                    dji = self.restricted_total_derivative(
                        i, self.restricted_total_derivative(j, e))
                    if not (dij - dji).is_zero():
                        raise ConsistencyError(
                            "restricted total derivatives do not commute on "
                            f"{self.ctx.atom_name(coord)} (directions "
                            f"{self.ctx.independents[i]}, {self.ctx.independents[j]})")


def iter_multi_indices(n: int, max_order: int):
    """All multi-indices in n variables of order <= max_order."""

    def rec(i, remaining):
        if i == n - 1:
            yield (remaining,)
            return
        for c in range(remaining + 1):
            for tail in rec(i + 1, remaining - c):
                yield (c,) + tail

    for total in range(max_order + 1):
        for counts in rec(0, total):
            yield MultiIndex.of({i: c for i, c in enumerate(counts) if c})
