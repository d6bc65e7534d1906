"""Equations in solved orthonomic form and restriction to their infinite
prolongation.

A SolvedEquation is an oriented rewrite system u^k_beta -> rhs.  Principal
coordinates (heads and their derivatives) are eliminated; everything else
is an internal coordinate on the equation manifold.  The restricted total
derivatives Dbar_i are the one source of normal forms: a head's rule is its
declared right side restricted, the rule of a derived coordinate is Dbar_j
of the rule one derivative lower, and restriction substitutes rules once.
"""

from __future__ import annotations

from .errors import ConsistencyError, OrientationError
from .forms import DifferentialForm, THETA, exterior_derivative, theta_image
from .jetcalc import EvolutionaryField, JetContext, linearization
from .symexpr import BaseVar, Expression, JetCoord, MultiIndex


class SolvedEquation:
    """Oriented rewrite system defining an infinitely prolonged equation."""

    def __init__(self, ctx: JetContext, rules):
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
        # heads by dependent, in declaration order: the first dividing one wins
        self._heads_of: dict[int, list[JetCoord]] = {}
        for head in heads:
            self._heads_of.setdefault(head.dep, []).append(head)
        self._declared = dict(zip(heads, raw_rhs))
        self._cache: dict[JetCoord, Expression] = {}
        # Dbar_i of each atom by atom id, one dict per direction; the values
        # for principal steps are the cached rules themselves
        self._dbar_memo = tuple({} for _ in range(ctx.n))
        # one SpatialStructure per frame, filled by spatial.spatial_structure
        self.spatial_structures: dict = {}
        self.rhs = tuple(self.rule_for(head) for head in heads)

    # -- rule machinery ------------------------------------------------------

    def _dividing_head(self, coord: JetCoord):
        for head in self._heads_of.get(coord.dep, ()):
            if head.mindex.divides(coord.mindex):
                return head
        return None

    def is_principal(self, coord: JetCoord) -> bool:
        return self._dividing_head(coord) is not None

    def is_internal(self, coord: JetCoord) -> bool:
        return not self.is_principal(coord)

    def rule_for(self, coord: JetCoord, _stack=()) -> Expression:
        """Normal form of a principal coordinate.

        ``_stack`` holds the coordinates whose rules are being derived.  A
        coordinate divisible by one of them would derive itself again; by
        Dickson's lemma every endless chain meets one, so refusing it (and
        chains deeper than 200) guarantees termination."""
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
        stack = _stack + (coord,)
        if coord == head:
            normal = self.restrict(self._declared[head], stack)
        else:
            # step down in a direction the head uses least, where Dbar
            # mostly shifts internal coordinates
            j = min((coord.mindex - head.mindex).indices(), key=head.mindex.get)
            lower = JetCoord(coord.dep, coord.mindex - MultiIndex.single(j))
            normal = self._dbar(j, self.rule_for(lower, stack), stack)
        return self._cache.setdefault(coord, normal)

    def prolong_rule(self, principal: JetCoord, gamma: MultiIndex):
        """Rule for the coordinate principal+gamma, derived from a declared head."""
        if principal not in self.heads:
            raise KeyError(f"{self.ctx.atom_name(principal)} is not a declared rule head")
        coord = JetCoord(principal.dep, principal.mindex + gamma)
        return coord, self.rule_for(coord)

    def _dbar(self, i: int, e: Expression, _stack=()) -> Expression:
        """Dbar_i of an expression in internal coordinates, memoised per atom."""
        ctx = self.ctx

        def action(atom):
            if isinstance(atom, BaseVar):
                return ctx.one() if atom.index == i else ctx.zero()
            step = JetCoord(atom.dep, atom.mindex + MultiIndex.single(i))
            return self.rule_for(step, _stack) if self.is_principal(step) else ctx.expr(step)

        return e.derive(action, self._dbar_memo[i])

    # -- restriction -----------------------------------------------------------

    def restrict(self, e: Expression, _stack=()) -> Expression:
        """Substitute every principal coordinate by its rule, a normal form."""
        return e.substitute({a: self.rule_for(a, _stack)
                             for a in e.jet_atoms() if self.is_principal(a)})

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
        return self._dbar(i, self.restrict(e))

    def restricted_total_derivative_multi(self, alpha: MultiIndex, e: Expression) -> Expression:
        out = self.restrict(e)
        for i, count in alpha.entries:
            for _ in range(count):
                out = self._dbar(i, out)
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

    def check_integrability(self, max_order: int):
        """[Dbar_i, Dbar_j] must vanish on every internal coordinate up to
        max_order."""
        for coord in self.internal_coordinates(max_order):
            e = self.ctx.expr(coord)
            for i in range(self.ctx.n):
                di = self._dbar(i, e)
                for j in range(i + 1, self.ctx.n):
                    dij = self._dbar(j, di)
                    dji = self._dbar(i, self._dbar(j, e))
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
