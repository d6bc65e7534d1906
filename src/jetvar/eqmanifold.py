"""Equations in solved orthonomic form and restriction to their infinite
prolongation.

A SolvedEquation is an oriented rewrite system u^k_beta -> rhs.  Principal
coordinates (heads and their derivatives) are eliminated; everything else
is an internal coordinate on the equation manifold.  The restricted total
derivatives Dbar_i are the one source of normal forms: a head's rule is its
declared right side restricted, the rule of a derived coordinate is Dbar_j
of the rule one derivative lower, and restriction substitutes rules once.

Orientation is a Riquier ranking, decided exactly when the equation is
built: every right-side coordinate lies below its head.  So rules derive from an explicit
stack with no depth cap, which empties, and formal integrability is decided
only at the overlaps of same-dependent heads (Riquier-Janet; Seiler,
*Involution*, ch. 2-4).  The order-by-order commutator scan over internal
coordinates lives on in tests/helpers.py as an oracle for that decision.
"""

from __future__ import annotations

from math import gcd

from .errors import ConsistencyError, ContextMismatch, OrientationError, UnsupportedExpression
from .forms import DifferentialForm, exterior_derivative, pullback
from .jetcalc import EvolutionaryField, JetContext, linearization
from .symexpr import (MAX_RULE_TERMS, BaseVar, Expression, FnPartial, JetCoord, MultiIndex,
                      OpaqueFn, _chain)


class SolvedEquation:
    """Oriented rewrite system defining an infinitely prolonged equation."""

    def __init__(self, ctx: JetContext, rules):
        self.ctx = ctx
        heads: list[JetCoord] = []
        raw_rhs: list[Expression] = []
        for head, rhs in rules:
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
                        f"{ctx.atom_name(a)}; the rule set is not minimal", rule=b)
        for k, head in enumerate(heads):
            if head in heads[:k]:
                raise OrientationError(
                    f"duplicate rule heads: {ctx.atom_name(head)} is already the head "
                    "of an earlier rule", rule=head)
        self._check_ranking(heads, raw_rhs)
        self.heads = tuple(heads)
        # heads by dependent, in declaration order: the first dividing one wins
        self._heads_of: dict[int, list[JetCoord]] = {}
        for head in heads:
            self._heads_of.setdefault(head.dep, []).append(head)
        # the directions some head uses: only a step in one of them can take
        # an internal coordinate to a principal one
        self._head_dirs = {i for head in heads for i in head.mindex.indices()}
        self._declared = dict(zip(heads, raw_rhs))
        self._cache: dict[JetCoord, Expression] = {}
        self._derived_terms = 0  # the terms of the derived rules, against MAX_RULE_TERMS
        # Dbar_i of each atom by atom id, one dict per direction; the values
        # for principal steps are the cached rules themselves
        self._dbar_memo = tuple({} for _ in range(ctx.n))
        # whether restriction changes each atom, by atom id, filled as
        # restrict meets the atoms; the heads are fixed, so an entry never changes
        self._changes: dict[int, bool] = {}
        # each generator's image under restrict_form, filled as it meets them
        self._images: dict = {}
        # one SpatialStructure per temporal index, filled by spatial.spatial_structure
        self.spatial_structures: dict = {}
        self.rhs = tuple(self.rule_for(head) for head in heads)

    # -- rule machinery ------------------------------------------------------

    def _check_ranking(self, heads, rhs):
        """Refuse a rule set no ranking "weighted order, then lex on
        directions, then dependent" orients: each right-side coordinate must
        lie below its head.  Whether a ranking exists is decided exactly, with
        no bound on the weights.  The refusal names the first rule that, with
        the rules before it, leaves no ranking."""
        n = self.ctx.n
        per_rule = [[(tuple(head.mindex.get(i) - a.mindex.get(i) for i in range(n)),
                      head.dep, a.dep) for a in e.jet_atoms()] for head, e in zip(heads, rhs)]
        if _ranked([p for pairs in per_rule for p in pairs], n):
            return
        for k, head in enumerate(heads):
            if not _ranked([p for pairs in per_rule[:k + 1] for p in pairs], n):
                raise OrientationError(
                    f"rule set loops or is not oriented at rule {self.ctx.atom_name(head)} "
                    f"= {rhs[k]}: with the rules before it, no ranking (weighted order, "
                    "then directions, then dependents) puts every right-side "
                    "coordinate below its head", rule=head)

    def _dividing_head(self, coord: JetCoord):
        _, dep, mindex = coord
        for head in self._heads_of.get(dep, ()):
            if head[2].divides(mindex):
                return head
        return None

    def is_principal(self, coord: JetCoord) -> bool:
        return self._dividing_head(coord) is not None

    def is_internal(self, coord: JetCoord) -> bool:
        return not self.is_principal(coord)

    def rule_for(self, coord: JetCoord) -> Expression:
        """Normal form of a principal coordinate: at a head, its declared
        right side restricted; elsewhere Dbar_j of the rule one step lower.
        An explicit stack takes each rule once the rules it reads are cached.
        Each lies below its reader in the ranking checked at build, and
        finitely many coordinates lie below any one, so the stack empties.

        A coordinate's reads are scanned once, and only at a head or when some
        head uses j: an internal x with x + e_j principal has a head h dividing
        x + e_j but not x, so h_j = x_j + 1.  An entry above a scanned
        coordinate is popped only once cached, so when the coordinate is back
        on top every rule it reads is cached.  The rules' terms are counted
        as they are derived, and derivation is refused once the total passes
        ``MAX_RULE_TERMS``."""
        cache, ctx, scanned = self._cache, self.ctx, set()
        stack = [coord]
        while stack:
            c = stack[-1]
            if c in cache:
                stack.pop()
                continue
            if c in self._declared:
                j, memo, shift, source = None, {}, MultiIndex(), self._declared[c]
            else:
                head = self._dividing_head(c)
                if head is None:
                    raise KeyError(f"{ctx.atom_name(c)} is not a principal coordinate")
                # step down where the head has least, so Dbar mostly shifts internal coordinates
                j = min((c.mindex - head.mindex).indices(), key=head.mindex.get)
                memo, shift = self._dbar_memo[j], MultiIndex.single(j)
                source = cache.get(lower := JetCoord(c.dep, c.mindex - shift))
                if source is None:
                    stack.append(lower)
                    continue
            if c not in scanned and (j is None or j in self._head_dirs):
                scanned.add(c)
                reads = {JetCoord(x.dep, x.mindex + shift)
                         for i in {i for m in source.terms for i, _ in m} - memo.keys()
                         for x, _ in _chain(ctx, i)
                         if isinstance(x, JetCoord)}
                missing = [r for r in reads if r not in cache and self.is_principal(r)]
                if missing:
                    stack += missing
                    continue
            rule = self.restrict(source) if j is None else self._dbar(j, source)
            self._derived_terms += len(rule.terms)
            if self._derived_terms > MAX_RULE_TERMS:
                raise UnsupportedExpression(
                    f"derived rules exceed the budget of {MAX_RULE_TERMS} terms")
            cache[c] = rule
        return cache[coord]

    def _dbar(self, i: int, e: Expression) -> Expression:
        """Dbar_i of an expression in internal coordinates, memoised per atom."""
        ctx = self.ctx

        def action(atom):
            if isinstance(atom, BaseVar):
                return ctx.one() if atom[1] == i else ctx.zero()
            _, dep, mindex = atom
            step = JetCoord(dep, mindex + MultiIndex.single(i))
            return self.rule_for(step) if self.is_principal(step) else ctx.expr(step)

        return e.derive(action, self._dbar_memo[i])

    # -- restriction -----------------------------------------------------------

    def restrict(self, e: Expression) -> Expression:
        """Substitute every principal coordinate by its rule, a normal form.
        An expression with no atom restriction changes is returned itself."""
        if e.ctx is not self.ctx:
            raise ContextMismatch("expression and equation belong to different contexts")
        changes, atoms = self._changes, self.ctx._atoms
        for m in e.terms:
            for i, _ in m:
                hit = changes.get(i)
                if hit is None:
                    hit = changes[i] = self._changed_by_restriction(atoms[i])
                if hit:
                    return e.substitute({a: self.rule_for(a)
                                         for a in e.jet_atoms() if self.is_principal(a)})
        return e

    def _changed_by_restriction(self, atom) -> bool:
        """A principal coordinate, or an opaque symbol or partial with one
        among its arguments."""
        if isinstance(atom, JetCoord):
            return self.is_principal(atom)
        if isinstance(atom, (OpaqueFn, FnPartial)):
            return any(map(self._changed_by_restriction, atom.args))
        return False

    def restrict_form(self, omega: DifferentialForm) -> DifferentialForm:
        """Restrict coefficients and pull each generator back along the
        equation: a principal theta^p maps to sum (d rhs/d u^j_beta)
        theta^j_beta, any other generator to itself.  The images are kept
        per generator in the equation's _images."""
        return pullback(omega, self.restrict,
                        lambda c: self.rule_for(c) if self.is_principal(c) else None,
                        self._images)

    def restricted_total_derivative(self, i: int, e: Expression) -> Expression:
        return self._dbar(i, self.restrict(e))

    def restricted_total_derivative_multi(self, alpha: MultiIndex, e: Expression) -> Expression:
        out = self.restrict(e)
        for i in alpha.expand():
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
        every order (Riquier-Janet), so no order-by-order scan is needed.  The
        pairs go by the heads' printed names, not by declaration order."""
        name = self.ctx.atom_name
        heads = sorted(self.heads, key=name)
        for k, a in enumerate(heads):
            for b in heads[k + 1:]:
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


def _ranked(pairs, n: int) -> bool:
    """Whether a ranking "weighted order, then lex on directions, then
    dependent" puts every atom below its head.  ``pairs`` holds (head
    multi-index minus atom multi-index as an n-tuple, head dependent, atom
    dependent).  Weights w >= 1 with a lex tie-break (perturb w along it)
    orient the nonzero steps d exactly when some u > 0 has u.d > 0 on every d.
    Integer Fourier-Motzkin elimination (Schrijver, *Theory of Linear and
    Integer Programming*, ch. 12) finds none exactly when a nonnegative
    combination of the rows {d} and {e_j} is zero."""
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
    # each row maps to a mask of the original rows it combines; after k
    # eliminations a row combining more than k + 1 is implied by the rest
    # (Chernikov), and a row derived twice keeps the intersection of its masks
    units = {tuple(int(i == j) for i in range(n)) for j in range(n)}
    rows = {r: 1 << k for k, r in enumerate({d for d, _, _ in pairs if any(d)} | units)}
    free = set(range(n))
    while rows:
        j = min(free, key=lambda j: sum(r[j] > 0 for r in rows) * sum(r[j] < 0 for r in rows))
        free.discard(j)
        kept = {r: m for r, m in rows.items() if not r[j]}
        below = [(q, m) for q, m in rows.items() if q[j] < 0]
        for p, pm in ((p, m) for p, m in rows.items() if p[j] > 0):
            for q, qm in below:
                if (m := pm | qm).bit_count() <= n - len(free) + 1:
                    r = [p[j] * b - q[j] * a for a, b in zip(p, q)]
                    if not (g := gcd(*r)):
                        return False  # 0 > 0
                    r = tuple(x // g for x in r)
                    kept[r] = kept.get(r, m) & m
        rows = kept
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
