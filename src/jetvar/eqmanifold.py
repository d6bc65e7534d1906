"""Equations in solved orthonomic form and restriction to their infinite
prolongation.

A SolvedEquation is an oriented rewrite system u^k_beta -> rhs.  Principal
coordinates (heads and their derivatives) are eliminated; everything else
is an internal coordinate on the equation manifold.  The restricted total
derivatives Dbar_i are the one source of normal forms: a head's rule is its
declared right side restricted, the rule of a derived coordinate is Dbar_j
of the rule one derivative lower, and restriction substitutes rules once.

Orientation is a Riquier ranking found when the equation is built: every
right-side coordinate lies below its head, so rewriting terminates, and
formal integrability is decided only at the overlaps of same-dependent heads
(Riquier-Janet; Seiler, *Involution*, ch. 2-4).  The order-by-order
commutator scan over internal coordinates lives on in tests/helpers.py as an
oracle for that decision.
"""

from __future__ import annotations

from itertools import product

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
        self._check_ranking(heads, raw_rhs)
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

    def _check_ranking(self, heads, rhs):
        """Refuse a rule set no ranking "weighted order, then lex on
        directions, then dependent" orients: each right-side coordinate must
        lie below its head.  Weights run over 1..K, K the highest order in a
        rule.  The refusal names the first rule that, with the rules before
        it, leaves no ranking."""
        n = self.ctx.n
        top, per_rule = 1, []
        for head, e in zip(heads, rhs):
            atoms = e.jet_atoms()
            top = max(top, head.mindex.order, *(a.mindex.order for a in atoms))
            per_rule.append([(tuple(head.mindex.get(i) - a.mindex.get(i) for i in range(n)),
                              head.dep, a.dep) for a in atoms])
        if _ranked([p for pairs in per_rule for p in pairs], n, top):
            return
        for k, head in enumerate(heads):
            if not _ranked([p for pairs in per_rule[:k + 1] for p in pairs], n, top):
                raise OrientationError(
                    f"rule set loops or is not oriented at rule {self.ctx.atom_name(head)} "
                    f"= {rhs[k]}: with the rules before it, no ranking (weighted order, "
                    "then directions, then dependents) puts every right-side "
                    "coordinate below its head", rule=head)

    def _dividing_head(self, coord: JetCoord):
        for head in self._heads_of.get(coord.dep, ()):
            if head.mindex.divides(coord.mindex):
                return head
        return None

    def is_principal(self, coord: JetCoord) -> bool:
        return self._dividing_head(coord) is not None

    def is_internal(self, coord: JetCoord) -> bool:
        return not self.is_principal(coord)

    def rule_for(self, coord: JetCoord, _depth=0) -> Expression:
        """Normal form of a principal coordinate.

        Under the ranking checked at build every recursive call is on a
        lower coordinate, so derivation terminates; ``_depth`` turns a chain
        deeper than 200 into a clean refusal, not a RecursionError."""
        hit = self._cache.get(coord)
        if hit is not None:
            return hit
        if _depth > 200:
            raise OrientationError(
                f"rewrite chain too deep at {self.ctx.atom_name(coord)}", rule=coord)
        head = self._dividing_head(coord)
        if head is None:
            raise KeyError(f"{self.ctx.atom_name(coord)} is not a principal coordinate")
        if coord == head:
            normal = self.restrict(self._declared[head], _depth + 1)
        else:
            # step down in a direction the head uses least, where Dbar
            # mostly shifts internal coordinates
            j = min((coord.mindex - head.mindex).indices(), key=head.mindex.get)
            lower = JetCoord(coord.dep, coord.mindex - MultiIndex.single(j))
            normal = self._dbar(j, self.rule_for(lower, _depth + 1), _depth + 1)
        return self._cache.setdefault(coord, normal)

    def prolong_rule(self, principal: JetCoord, gamma: MultiIndex):
        """Rule for the coordinate principal+gamma, derived from a declared head."""
        if principal not in self.heads:
            raise KeyError(f"{self.ctx.atom_name(principal)} is not a declared rule head")
        coord = JetCoord(principal.dep, principal.mindex + gamma)
        return coord, self.rule_for(coord)

    def _dbar(self, i: int, e: Expression, _depth=0) -> Expression:
        """Dbar_i of an expression in internal coordinates, memoised per atom."""
        ctx = self.ctx

        def action(atom):
            if isinstance(atom, BaseVar):
                return ctx.one() if atom.index == i else ctx.zero()
            step = JetCoord(atom.dep, atom.mindex + MultiIndex.single(i))
            return self.rule_for(step, _depth) if self.is_principal(step) else ctx.expr(step)

        return e.derive(action, self._dbar_memo[i])

    # -- restriction -----------------------------------------------------------

    def restrict(self, e: Expression, _depth=0) -> Expression:
        """Substitute every principal coordinate by its rule, a normal form."""
        return e.substitute({a: self.rule_for(a, _depth)
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

    def check_integrability(self):
        """Decide formal integrability: at the lcm L of every pair of
        same-dependent heads a, b, Dbar^(L-a) of a's rule must equal
        Dbar^(L-b) of b's.  Under the ranking checked at build this is
        equivalent to [Dbar_i, Dbar_j] = 0 on every internal coordinate at
        every order (Riquier-Janet), so no order-by-order scan is needed."""
        name = self.ctx.atom_name
        for k, a in enumerate(self.heads):
            for b in self.heads[k + 1:]:
                if a.dep != b.dep:
                    continue
                lcm = JetCoord(a.dep, MultiIndex.of(
                    {i: max(a.mindex.get(i), b.mindex.get(i))
                     for i in a.mindex.indices() + b.mindex.indices()}))
                residual = (
                    self.restricted_total_derivative_multi(lcm.mindex - a.mindex, self.rule_for(a))
                    - self.restricted_total_derivative_multi(lcm.mindex - b.mindex, self.rule_for(b)))
                if not residual.is_zero():
                    raise ConsistencyError(
                        f"heads {name(a)} and {name(b)} overlap at {name(lcm)}, where "
                        f"their cross-derivatives differ by {residual}")


def _ranked(pairs, n: int, top: int) -> bool:
    """Whether a ranking "weighted order, then lex on directions, then
    dependent" with integer weights 1..top puts every atom below its head.
    ``pairs`` holds (head multi-index minus atom multi-index as an n-tuple,
    head dependent, atom dependent)."""
    steps = {d for d, _, _ in pairs if any(d)}
    # dependents decide only between coordinates with the same multi-index
    outranks: dict[int, set] = {}
    for d, head_dep, atom_dep in pairs:
        if not any(d):
            outranks.setdefault(head_dep, set()).add(atom_dep)
    while outranks:
        lowest = [k for k, below in outranks.items() if not below & outranks.keys()]
        if not lowest:
            return False
        for k in lowest:
            del outranks[k]
    for largest in range(1, top + 1):
        for w in product(range(1, largest + 1), repeat=n):
            if largest not in w:
                continue
            sums = [(sum(wi * di for wi, di in zip(w, d)), d) for d in steps]
            if all(s >= 0 for s, _ in sums) and \
                    _lex_order_exists([d for s, d in sums if s == 0], n):
                return True
    return False


def _lex_order_exists(steps, n: int) -> bool:
    """Whether some order of the n directions makes the first nonzero entry
    of every step positive.  Greedy: a direction no pending step has a
    negative entry in can always come next."""
    free = set(range(n))
    while steps:
        i = next((i for i in free if all(d[i] >= 0 for d in steps)), None)
        if i is None:
            return False
        free.discard(i)
        steps = [d for d in steps if d[i] == 0]
    return True


def iter_multi_indices(n: int, top: int):
    """All multi-indices in n variables of order <= top."""

    def rec(i, remaining):
        if i == n - 1:
            yield (remaining,)
            return
        for c in range(remaining + 1):
            for tail in rec(i + 1, remaining - c):
                yield (c,) + tail

    for total in range(top + 1):
        for counts in rec(0, total):
            yield MultiIndex.of({i: c for i, c in enumerate(counts) if c})
