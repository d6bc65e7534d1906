"""Spatial gradings and the (internal-Lagrangian, spatial-frame) gauge
triviality oracle.

A frame is the index t of the temporal base coordinate; the lift of ker dx^t
is spanned by the spatial restricted total derivatives.  Contact forms of
any order together with dx^t annihilate it, which grades every form by
spatial degree.  The spatial equation, an equation with its t, is one
SpatialStructure, and everything built over an equation takes it.
Triviality of a degree-n form modulo the grading and exact terms is decided
by spatial integration by parts plus a spatial-divergence test.  Families
of generating coordinates are classified, and S-symmetries and constraint
resolutions checked, at the minimal constraint points read off the rule
heads; that this decides assumes formal integrability.
"""

from __future__ import annotations

from itertools import combinations

from .eqmanifold import SolvedEquation
from .errors import SSymmetryError, UnresolvedConstraint, UnsupportedExpression
from .forms import DifferentialForm, interior_product, pullback
from .jetcalc import integrate_by_parts
from .symexpr import BaseVar, Expression, JetCoord, MultiIndex, gradient

FREE = "free"
NULL = "null"
CONSTRAINED = "constrained"


def s_degree(t: int, gens) -> int:
    """Number of annihilating factors: every theta, plus dx^t."""
    temporal = BaseVar(t)
    return sum(1 for g in gens if g == temporal or isinstance(g, JetCoord))


def s_degree_filter(t: int, omega: DifferentialForm, p: int) -> DifferentialForm:
    kept = {g: c for g, c in omega.terms.items() if s_degree(t, g) >= p}
    return DifferentialForm(omega.ctx, kept)


def _s_degree_below(t: int, omega: DifferentialForm, p: int) -> DifferentialForm:
    """Sub-sum of terms of spatial degree below p: omega minus
    s_degree_filter(t, omega, p), with no arithmetic."""
    kept = {g: c for g, c in omega.terms.items() if s_degree(t, g) < p}
    return DifferentialForm(omega.ctx, kept)


def reduce_mod_S2(t: int, omega: DifferentialForm) -> DifferentialForm:
    """Normal form of a degree-n form modulo the square of the spatial ideal:
    a * vol plus first-order theta terms over the spatial volume."""
    if not omega.is_zero() and omega.degree != omega.ctx.n:
        raise ValueError("reduce_mod_S2 expects a form of degree n")
    return _s_degree_below(t, omega, 2)


def s_presymplectic_representative(t: int, d_rep: DifferentialForm) -> DifferentialForm:
    """Representative of the spatial presymplectic class of a degree-(n+1)
    form: drop everything of spatial degree >= 3."""
    return _s_degree_below(t, d_rep, 3)


# ---------------------------------------------------------------------------
# spatial-jet structure of an equation


class SpatialStructure:
    """The spatial equation: eq with the temporal index t, and how its
    internal coordinates organize over the spatial directions ``spatial``.

    Every internal coordinate is spatial derivatives of a generator (an
    internal coordinate with a purely temporal multi-index): its family
    (d, tau).  A constraint point (c, j) is an internal c with c+e_j
    principal.  The spatial parts of the heads of d with temporal count at
    most tau's generate the ideal of principal steps; a minimal generator g
    and j in supp g give the minimal point (d, tau+g-e_j), right side
    rule(d, tau+g).  A family is free without minimal points, null when
    their right sides are all zero, else constrained, as it is when another
    family's minimal right side names it.

    The structure keeps what its equation fixes: each family's minimal
    points and status, the families up to each height, and the
    S-presymplectic representative of each presymplectic form a gauge
    decision contracts.  Its equation keeps it, so all of that goes with
    the equation.

    The minimal points decide.  At a non-minimal point (c, j), p = c+e_j
    has spatial part g+rho, rho != 0; k in supp rho has k != j, c-e_k is
    internal, and with r = rule(p-e_k), for X an extended S-symmetry or a
    substitution (then dr/da is substituted too):

        [Dbar_j, X](c) = Dbar_k([Dbar_j, X](c-e_k)) + sum_a dr/da [Dbar_k, X](a)

    where [Dbar_j, X](c) = Dbar_j X(c) - X(rule(c+e_j)).  Each nonzero term
    is a constraint point with target below p in the build-time ranking, so
    induction carries a check from the minimal points to all.  The step
    X(c) = Dbar_k X(c-e_k) needs [Dbar_i, Dbar_j] = 0: the runner checks
    integrability first.  Families are looked at up to the highest temporal
    count touched plus the reach, the sum over dependents of their heads'
    highest temporal count: a right side may fall through each dependent's
    temporal heads once.  Beyond that the bound is not a proof.
    """

    def __init__(self, eq: SolvedEquation, t: int):
        self.eq, self.ctx, self.temporal = eq, eq.ctx, t
        self.spatial = tuple(i for i in range(self.ctx.n) if i != t)
        # per dependent k, the order of its lowest purely temporal head (None
        # without one): u^k_{t^h} is internal exactly when h is below it
        self._reach, self._temporal_head = 0, []
        for k in range(self.ctx.m):
            alphas = [h.mindex for h in eq.heads if h.dep == k]
            self._reach += max((a.get(t) for a in alphas), default=0)
            self._temporal_head.append(min((a.order for a in alphas if a.get(t) == a.order),
                                           default=None))
        # what the equation fixes, kept as the class docstring says
        self._minimal: dict[tuple[int, MultiIndex], tuple] = {}
        self._status: dict[tuple[int, MultiIndex], str] = {}
        self._by_height: dict[int, tuple] = {}
        self._sigma: dict[DifferentialForm, DifferentialForm] = {}

    # family = (dependent, temporal part of the multi-index)

    def family_of(self, coord: JetCoord) -> tuple[int, MultiIndex]:
        tau = MultiIndex.single(self.temporal, coord.mindex.get(self.temporal))
        return (coord.dep, tau)

    def spatial_part(self, coord: JetCoord) -> MultiIndex:
        return MultiIndex(tuple(e for e in coord.mindex.entries if e[0] != self.temporal))

    def generator_coord(self, family) -> JetCoord:
        return JetCoord(family[0], family[1])

    def decompose(self, coord: JetCoord):
        """Internal coordinate as (generator coordinate, spatial multi-index)."""
        return self.generator_coord(self.family_of(coord)), self.spatial_part(coord)

    def is_generator(self, coord: JetCoord) -> bool:
        return self.eq.is_internal(coord) and self.spatial_part(coord).order == 0

    def _minimal_points(self, family):
        """The family's minimal points (coordinate, direction, right side)
        and the families their right sides name."""
        hit = self._minimal.get(family)
        if hit is None:
            (dep, tau), t = family, self.temporal
            ideal = {self.spatial_part(h) for h in self.eq.heads
                     if h.dep == dep and h.mindex.get(t) <= tau.get(t)}
            points, names = [], set()
            for g in sorted(ideal):
                if not any(o != g and o.divides(g) for o in ideal):
                    rhs = self.eq.rule_for(JetCoord(dep, tau + g))
                    names.update(self.family_of(a) for a in rhs.jet_atoms())
                    points += [(JetCoord(dep, tau + g - MultiIndex.single(j)), j, rhs)
                               for j in g.indices()]
            hit = self._minimal[family] = (points, names)
        return hit

    def _families(self, top: int) -> tuple:
        """Families with temporal count at most top plus the reach."""
        families = self._by_height.get(top)
        if families is None:
            t, stop = self.temporal, top + self._reach + 1
            families = self._by_height[top] = tuple(
                (dep, MultiIndex.single(t, h)) for dep, head in enumerate(self._temporal_head)
                for h in range(stop if head is None else min(stop, head)))
        return families

    def _s_presymplectic(self, d_rep: DifferentialForm) -> DifferentialForm:
        """s_presymplectic_representative of a presymplectic form, kept per
        form: two internal Lagrangians over one equation keep one each."""
        sigma = self._sigma.get(d_rep)
        if sigma is None:
            sigma = self._sigma[d_rep] = s_presymplectic_representative(self.temporal, d_rep)
        return sigma

    def status(self, family) -> str:
        st = self._status.get(family)
        if st is None:
            points, _ = self._minimal_points(family)
            constrained = any(not rhs.is_zero() for _, _, rhs in points) or any(
                family in self._minimal_points(other)[1]
                for other in self._families(family[1].order))
            st = self._status[family] = CONSTRAINED if constrained else NULL if points else FREE
        return st

    def _first_defect(self, touched, top: int, value, image):
        """(c+e_j, residual) at the first minimal point where Dbar_j value(c)
        and image(rule(c+e_j)) differ, or None.  An untouched family is
        checked only where a right side names a touched one."""
        for fam in self._families(top):
            points, names = self._minimal_points(fam)
            if touched(fam) or any(map(touched, names)):
                for coord, j, rhs in points:
                    residual = self.eq.restricted_total_derivative(j, value(coord)) - image(rhs)
                    if not residual.is_zero():
                        return JetCoord(coord.dep, coord.mindex + MultiIndex.single(j)), residual
        return None

    # -- spatial variational calculus ---------------------------------------

    def spatial_euler(self, f: Expression, family) -> Expression:
        """Variational derivative of a normal form f in the spatial directions
        with respect to one generator family: the residue on its generator of
        integrating by parts with Dbar.  Temporal-pure coordinates act as
        parameters."""
        coeffs = {a: d for a, d in gradient(f).items()
                  if isinstance(a, JetCoord) and self.family_of(a) == family}
        residues, _ = integrate_by_parts(coeffs, self.spatial, self.eq.restricted_total_derivative)
        return residues.get(self.generator_coord(family), self.ctx.zero())

    def is_spatial_divergence(self, f: Expression) -> bool:
        """Euler-vanishing criterion for membership in the image of the
        spatial total derivatives (contractible base).  A constrained family
        refuses the test, whatever the Euler tests of the others give."""
        families = sorted({self.family_of(a) for a in f.jet_atoms()})
        for fam in families:
            if self.status(fam) == CONSTRAINED:
                raise UnresolvedConstraint(
                    "divergence test touches the constrained family of "
                    f"{self.ctx.atom_name(self.generator_coord(fam))}")
        # a null family is spatially constant: a parameter, not varied
        return all(self.spatial_euler(f, fam).is_zero()
                   for fam in families if self.status(fam) != NULL)


def spatial_structure(eq: SolvedEquation, t: int) -> SpatialStructure:
    """The SpatialStructure of (eq, t), built once and kept by eq."""
    structure = eq.spatial_structures.get(t)
    if structure is None:
        structure = eq.spatial_structures[t] = SpatialStructure(eq, t)
    return structure


# ---------------------------------------------------------------------------
# spatial symmetries


class ExtendedSSymmetry:
    """Action of an S-symmetry on every internal coordinate.  The candidate
    is a vertical field given by its components {generator: value} on
    generating internal coordinates; everything else follows by commuting
    with the spatial total derivatives."""

    def __init__(self, structure: SpatialStructure, components: dict):
        self.structure = structure
        eq, ctx = structure.eq, structure.ctx
        self._components = {}
        for coord, value in components.items():
            if not isinstance(coord, JetCoord):
                raise ValueError("candidate targets must be jet coordinates")
            if not eq.is_internal(coord):
                raise SSymmetryError(
                    f"candidate component on non-internal coordinate "
                    f"{ctx.atom_name(coord)}", coordinate=coord)
            if not structure.is_generator(coord):
                raise SSymmetryError(
                    f"candidate component target {ctx.atom_name(coord)} "
                    "is not a generating coordinate", coordinate=coord)
            self._components[coord] = eq.restrict(value)
        self._verify()

    def apply_coord(self, coord: JetCoord) -> Expression:
        """Component on one internal coordinate."""
        gen, sigma = self.structure.decompose(coord)
        base = self._components.get(gen, self.structure.ctx.zero())
        return self.structure.eq.restricted_total_derivative_multi(sigma, base)

    def apply(self, e: Expression) -> Expression:
        """Derivation action on an expression, restricted first; the result
        is a normal form because every component is."""
        zero = self.structure.ctx.zero()

        def action(atom):
            return self.apply_coord(atom) if isinstance(atom, JetCoord) else zero

        return self.structure.eq.restrict(e).derive(action)

    def contract(self, omega: DifferentialForm) -> DifferentialForm:
        """Interior product: dx -> 0, theta of an internal coordinate -> its
        component."""
        return interior_product(omega, self.apply_coord)

    def _verify(self):
        """Commutation with the spatial total derivatives must hold across
        the rewrite relations (e.g. divergence-type constraints); it is
        checked at the minimal constraint points (see SpatialStructure)."""
        touched = {self.structure.family_of(c) for c in self._components}
        defect = self.structure._first_defect(
            touched.__contains__, max((fam[1].order for fam in touched), default=0),
            self.apply_coord, self.apply)
        if defect is not None:
            step, residual = defect
            raise SSymmetryError(
                "candidate does not commute with the spatial total "
                f"derivatives at {self.structure.ctx.atom_name(step)}: residual {residual}",
                coordinate=step, residual=residual)


def extend_S_symmetry(structure: SpatialStructure, components: dict) -> ExtendedSSymmetry:
    return ExtendedSSymmetry(structure, components)


# ---------------------------------------------------------------------------
# constraint resolutions


_DIVERGENCE_ONLY = ("antisymmetric potentials resolve only the relation "
                    "sum_i D_i(target_i) = 0, targets in spatial order")


class ConstraintResolution:
    """Substitution resolving an under-determined constraint of a spatial
    equation by potentials, e.g. divergence-free fields as curls of
    antisymmetric potentials.  Maps resolved dependent indices, in spatial
    order, to expressions in the potential coordinates; verified when
    constructed.  It keeps each coordinate's value after substitution in
    _values and each generator's image under pullback in _images, which
    forms.pullback fills, so the build check, apply_to_expression and every
    gauge decision derive each once; they go with the resolution.  A
    pulled-back vol_s ^ theta keeps that order."""

    def __init__(self, structure: SpatialStructure, substitutions: dict):
        self.structure, self.substitutions = structure, substitutions
        self._values: dict[JetCoord, Expression] = {}
        self._images: dict = {}
        self.verify()

    def coordinate_value(self, coord: JetCoord) -> Expression:
        """A coordinate after substitution: itself when not resolved."""
        value = self._values.get(coord)
        if value is None:
            base = self.substitutions.get(coord.dep)
            value = self._values[coord] = self.structure.ctx.expr(coord) if base is None \
                else self.structure.eq.restricted_total_derivative_multi(coord.mindex, base)
        return value

    def pullback(self, omega: DifferentialForm) -> DifferentialForm:
        """A form after substitution, coefficients and generators alike."""
        return pullback(omega, self.apply_to_expression,
                        lambda c: self.coordinate_value(c) if c.dep in self.substitutions
                        else None, self._images)

    def apply_to_expression(self, e: Expression) -> Expression:
        rules = {}
        for atom in e.jet_atoms():
            if atom.dep in self.substitutions:
                rules[atom] = self.coordinate_value(atom)
        return e.substitute(rules) if rules else e

    def verify(self):
        """The targets, listed in spatial order, must carry exactly the one
        divergence relation sum_i Dbar_i g^i = 0, which antisymmetric
        potentials parametrise on a contractible domain (Poincare lemma): at
        each temporal count tau, every target family is constrained, and
        their minimal points are the one first-order head g^i_{tau+x_i} with
        right side -sum_{j != i} g^j_{tau+x_j}.  On any other family a
        substitution may pass the check below and still narrow the
        solutions.  Substituted expressions must then satisfy the constraint
        identically, checked at the minimal constraint points (see
        SpatialStructure)."""
        structure, subs, ctx = self.structure, self.substitutions, self.structure.ctx
        direction = dict(zip(subs, structure.spatial))

        def refuse(fam, why):
            raise UnsupportedExpression(
                f"resolve target family of {ctx.atom_name(structure.generator_coord(fam))} {why}")

        top = max((a.mindex.get(structure.temporal)
                   for e in subs.values() for a in e.jet_atoms()), default=0)
        by_count: dict[MultiIndex, list] = {}
        for fam in structure._families(top):
            if fam[0] in subs:
                status = structure.status(fam)
                if status != CONSTRAINED:
                    refuse(fam, f"is {status}, not constrained; only a constrained "
                                "family can be resolved")
                by_count.setdefault(fam[1], []).append(fam)
        for tau, fams in by_count.items():
            points = [p for fam in fams for p in structure._minimal_points(fam)[0]]
            if not points:
                refuse(fams[0], f"has no minimal head; {_DIVERGENCE_ONLY}")
            for k, (coord, j, rhs) in enumerate(points):
                divergence = -sum((ctx.expr(JetCoord(d, tau + MultiIndex.single(x)))
                                   for d, x in direction.items() if d != coord.dep), ctx.zero())
                if k or coord.mindex != tau or j != direction[coord.dep] or rhs != divergence:
                    head = JetCoord(coord.dep, coord.mindex + MultiIndex.single(j))
                    refuse(structure.family_of(coord), f"has minimal head "
                           f"{ctx.atom_name(head)} = {rhs}; {_DIVERGENCE_ONLY}")
        defect = structure._first_defect(
            lambda fam: fam[0] in subs, top, self.coordinate_value, self.apply_to_expression)
        if defect is not None:
            raise UnsupportedExpression(
                f"resolution violates the constraint at {ctx.atom_name(defect[0])}")


def antisymmetric_potential_resolution(structure: SpatialStructure, resolved: list[int],
                                       potentials: dict) -> ConstraintResolution:
    """Resolve a divergence-free family g^i by g^i = sum_j d r^{ij}/dx^j with
    antisymmetric r.  ``resolved`` lists the dependents g^1..g^{n-1} in
    spatial order; ``potentials[(i, j)]`` (i < j, spatial positions 1-based)
    is the name of the dependent holding r^{ij}.  A frame with fewer than
    two spatial directions has no antisymmetric potentials, so it is refused."""
    ctx, spatial = structure.ctx, structure.spatial
    if len(spatial) < 2:
        raise UnresolvedConstraint(
            "antisymmetric potentials need a frame with at least two spatial "
            f"directions; this frame has {len(spatial)}")
    subs = {}
    for pos, dep in enumerate(resolved, start=1):
        total = ctx.zero()
        for other in range(1, len(spatial) + 1):
            if other != pos:
                r = potentials[(min(pos, other), max(pos, other))]
                term = ctx.jet(r, MultiIndex.single(spatial[other - 1]))
                total = total + (1 if pos < other else -1) * term
        subs[dep] = total
    return ConstraintResolution(structure, subs)


# ---------------------------------------------------------------------------
# the triviality oracle


def is_gauge_trivial(structure: SpatialStructure, omega1: DifferentialForm,
                     resolution: ConstraintResolution | None = None) -> bool:
    """Decide triviality of a spatial variational 1-form, read in its
    reduce_mod_S2 normal form as stored: a*vol + sum b vol_s ^ theta^k_alpha.

    Written theta ^ vol_s, every b takes the sign (-1)^(n-1), which no
    verdict reads: each residue is tested on its own (zero, a spatial
    divergence, or refused), alike on -b and b, and the horizontal apart.

    Spatial integration by parts moves every theta to a generating
    coordinate; the residue must vanish on free generators, and the
    horizontal remainder (plus residues on spatially constant generators)
    must be a spatial divergence.  Constrained generators require a
    resolution and are substituted away first: without one, a nonzero residue
    on a constrained family refuses the decision, whatever the other residues
    are, since the resolution could cancel it against them.
    """
    eq, ctx, t = structure.eq, structure.ctx, structure.temporal
    if resolution is not None and (resolution.structure.eq is not eq
                                   or resolution.structure.temporal != t):
        raise ValueError("constraint resolution was built for a different equation or frame")
    omega1 = reduce_mod_S2(t, omega1)
    if resolution is not None:
        omega1 = resolution.pullback(omega1)
    # of degree n and spatial degree below 2, a term is vol or vol_s ^ theta
    vol = tuple(BaseVar(i) for i in range(ctx.n))
    horizontal = omega1.terms.get(vol, ctx.zero())
    thetas = {gens[-1]: c for gens, c in omega1.terms.items() if gens != vol}

    # spatial integration by parts down to generating coordinates
    residues, _ = integrate_by_parts(thetas, structure.spatial, eq.restricted_total_derivative)
    nontrivial, unresolved = False, []
    for coord in sorted(residues):
        if nontrivial and structure.status(structure.family_of(coord)) != CONSTRAINED:
            continue
        b = eq.restrict(residues[coord])
        if b.is_zero():
            continue
        st = structure.status(structure.family_of(coord))
        if st == CONSTRAINED:
            unresolved.append(coord)
        # a spatially constant generator's coefficient need only be a spatial
        # divergence
        elif st == FREE or not structure.is_spatial_divergence(b):
            nontrivial = True
    if unresolved:
        names = ", ".join(ctx.atom_name(c) for c in unresolved)
        raise UnresolvedConstraint(
            f"residue on constrained coordinates ({names}); supply a "
            "constraint resolution")
    return not nontrivial and structure.is_spatial_divergence(eq.restrict(horizontal))


def is_gauge_symmetry(rep, extended: ExtendedSSymmetry,
                      resolution: ConstraintResolution | None = None) -> bool:
    """Substitute an extended S-symmetry into the spatial presymplectic
    structure and test the resulting spatial variational 1-form for
    triviality.  A vertical contraction removes exactly one theta, so a
    term of spatial degree >= 3 contracts to spatial degree >= 2, which
    reduce_mod_S2 drops: only the s_presymplectic_representative is
    contracted."""
    structure = extended.structure
    if rep.equation is not structure.eq:
        raise ValueError("internal Lagrangian was built over a different equation")
    return is_gauge_trivial(structure, extended.contract(
        structure._s_presymplectic(rep.presymplectic)), resolution)


def is_spatial_gradient(structure: SpatialStructure, chi: dict) -> bool:
    """chi maps spatial indices to components; true iff the spatial 1-form
    chi_i dx^i is spatially closed (hence locally exact)."""
    eq = structure.eq
    comps = {i: eq.restrict(chi.get(i, eq.ctx.zero())) for i in structure.spatial}
    for a, b in combinations(structure.spatial, 2):
        curl = eq.restricted_total_derivative(a, comps[b]) - \
            eq.restricted_total_derivative(b, comps[a])
        if not curl.is_zero():
            return False
    return True
