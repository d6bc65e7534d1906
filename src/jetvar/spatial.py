"""Spatial gradings and the (internal-Lagrangian, spatial-frame) gauge
triviality oracle.

A frame singles out one base coordinate as temporal; the lift of the
complementary hyperplane distribution is spanned by the spatial restricted
total derivatives.  Contact forms of any order together with the temporal
covector annihilate that distribution, which grades every form by spatial
degree.  Triviality of a degree-n form modulo that grading and exact terms
is decided by spatial integration by parts plus a spatial-divergence test.
Generator families are classified, and S-symmetries and constraint
resolutions checked, at the minimal constraint points read off the rule
heads (SpatialStructure); that this decides assumes formal integrability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .eqmanifold import SolvedEquation
from .errors import SSymmetryError, UnresolvedConstraint, UnsupportedExpression
from .forms import DX, DifferentialForm, interior_product, theta_image
from .jetcalc import integrate_by_parts
from .symexpr import Expression, JetCoord, MultiIndex, atom_key, partial

FREE = "free"
NULL = "null"
CONSTRAINED = "constrained"


@dataclass(frozen=True)
class SpatialFrame:
    """ker dx^a lifted to the equation manifold; a is the temporal index."""

    temporal: int

    def spatial_indices(self, ctx) -> tuple[int, ...]:
        return tuple(i for i in range(ctx.n) if i != self.temporal)


def s_degree(frame: SpatialFrame, gens) -> int:
    """Number of annihilating factors: every theta, plus dx^temporal."""
    return sum(1 for g in gens if g.is_theta() or g.index == frame.temporal)


def s_degree_filter(frame: SpatialFrame, omega: DifferentialForm, p: int) -> DifferentialForm:
    kept = {g: c for g, c in omega.terms.items() if s_degree(frame, g) >= p}
    return DifferentialForm(omega.ctx, kept)


def reduce_mod_S2(frame: SpatialFrame, omega: DifferentialForm) -> DifferentialForm:
    """Normal form of a degree-n form modulo the square of the spatial ideal:
    a * vol plus first-order theta terms over the spatial volume."""
    if not omega.is_zero() and omega.degree != omega.ctx.n:
        raise ValueError("reduce_mod_S2 expects a form of degree n")
    return omega - s_degree_filter(frame, omega, 2)


def s_presymplectic_representative(frame: SpatialFrame, d_rep: DifferentialForm) -> DifferentialForm:
    """Representative of the spatial presymplectic class of a degree-(n+1)
    form: drop everything of spatial degree >= 3."""
    return d_rep - s_degree_filter(frame, d_rep, 3)


# ---------------------------------------------------------------------------
# spatial-jet structure of an equation


class SpatialStructure:
    """How the internal coordinates organize over a frame.

    Every internal coordinate is spatial derivatives of a generator (an
    internal coordinate with a purely temporal multi-index): its family
    (d, tau).  A constraint point (c, j) is an internal c with c+e_j
    principal.  The spatial parts of the heads of d with temporal count at
    most tau's generate the ideal of principal steps; a minimal generator g
    and j in supp g give the minimal point (d, tau+g-e_j), right side
    rule(d, tau+g).  A family is free without minimal points, null when
    their right sides are all zero, else constrained, as it is when another
    family's minimal right side names it.

    They decide.  At a non-minimal point (c, j), p = c+e_j has spatial part
    g+rho, rho != 0; k in supp rho has k != j, c-e_k is internal, and with
    r = rule(p-e_k), for X an extended S-symmetry or a substitution (then
    dr/da is substituted too):

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

    def __init__(self, eq: SolvedEquation, frame: SpatialFrame):
        self.eq = eq
        self.frame = frame
        self.ctx = eq.ctx
        self._reach = sum(max((h.mindex.get(frame.temporal) for h in eq.heads if h.dep == k),
                              default=0) for k in range(self.ctx.m))
        self._minimal: dict[tuple[int, MultiIndex], tuple] = {}

    # family = (dependent, temporal part of the multi-index)

    def family_of(self, coord: JetCoord) -> tuple[int, MultiIndex]:
        tau = MultiIndex.single(self.frame.temporal, coord.mindex.get(self.frame.temporal))
        return (coord.dep, tau)

    def spatial_part(self, coord: JetCoord) -> MultiIndex:
        return MultiIndex(tuple(e for e in coord.mindex.entries if e[0] != self.frame.temporal))

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
            (dep, tau), t = family, self.frame.temporal
            ideal = {self.spatial_part(h) for h in self.eq.heads
                     if h.dep == dep and h.mindex.get(t) <= tau.get(t)}
            points, names = [], set()
            for g in sorted(ideal, key=MultiIndex.key):
                if not any(o != g and o.divides(g) for o in ideal):
                    rhs = self.eq.rule_for(JetCoord(dep, tau + g))
                    names.update(self.family_of(a) for a in rhs.jet_atoms())
                    points += [(JetCoord(dep, tau + g - MultiIndex.single(j)), j, rhs)
                               for j in g.indices()]
            hit = self._minimal[family] = (points, names)
        return hit

    def _families(self, top: int):
        """Families with temporal count at most top plus the reach."""
        for dep in range(self.ctx.m):
            for k in range(top + self._reach + 1):
                tau = MultiIndex.single(self.frame.temporal, k)
                if self.eq.is_internal(JetCoord(dep, tau)):
                    yield dep, tau

    def status(self, family) -> str:
        points, _ = self._minimal_points(family)
        if any(not rhs.is_zero() for _, _, rhs in points) or any(
                family in self._minimal_points(other)[1]
                for other in self._families(family[1].order)):
            return CONSTRAINED
        return NULL if points else FREE

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
        coeffs = {atom: partial(f, atom) for atom in f.jet_atoms(dep=family[0])
                  if self.family_of(atom) == family}
        residues, _ = integrate_by_parts(coeffs, self.frame.spatial_indices(self.ctx),
                                         self.eq.restricted_total_derivative)
        return residues.get(self.generator_coord(family), self.ctx.zero())

    def is_spatial_divergence(self, f: Expression) -> bool:
        """Euler-vanishing criterion for membership in the image of the
        spatial total derivatives (contractible base)."""
        for fam in {self.family_of(a) for a in f.jet_atoms()}:
            st = self.status(fam)
            if st == CONSTRAINED:
                raise UnresolvedConstraint(
                    "divergence test touches the constrained family of "
                    f"{self.ctx.atom_name(self.generator_coord(fam))}")
            if st == NULL:
                continue  # spatial constant: a parameter, not varied
            if not self.spatial_euler(f, fam).is_zero():
                return False
        return True


def spatial_structure(eq: SolvedEquation, frame: SpatialFrame) -> SpatialStructure:
    """The SpatialStructure of (eq, frame), built once and kept by eq."""
    structure = eq.spatial_structures.get(frame)
    if structure is None:
        structure = eq.spatial_structures[frame] = SpatialStructure(eq, frame)
    return structure


# ---------------------------------------------------------------------------
# spatial symmetries


@dataclass(frozen=True)
class SSymmetryCandidate:
    """Vertical field on the equation manifold given by its components on
    generating internal coordinates; everything else follows by commuting
    with the spatial total derivatives."""

    components: dict

    def normalized(self, ctx) -> dict:
        out = {}
        for key, value in self.components.items():
            coord = key if isinstance(key, JetCoord) else ctx.atom(key)
            if not isinstance(coord, JetCoord):
                raise ValueError("candidate targets must be jet coordinates")
            out[coord] = value
        return out


class ExtendedSSymmetry:
    """Action of an S-symmetry on every internal coordinate."""

    def __init__(self, eq: SolvedEquation, frame: SpatialFrame,
                 candidate: SSymmetryCandidate):
        self.eq = eq
        self.frame = frame
        self.ctx = eq.ctx
        self.structure = spatial_structure(eq, frame)
        self._components = candidate.normalized(self.ctx)
        self._cache: dict[JetCoord, Expression] = {}
        for coord, value in self._components.items():
            if not eq.is_internal(coord):
                raise SSymmetryError(
                    f"candidate component on non-internal coordinate "
                    f"{self.ctx.atom_name(coord)}", coordinate=coord)
            if not self.structure.is_generator(coord):
                raise SSymmetryError(
                    f"candidate component target {self.ctx.atom_name(coord)} "
                    "is not a generating coordinate", coordinate=coord)
            self._components[coord] = eq.restrict(value)
        self._verify()

    def apply_coord(self, coord: JetCoord) -> Expression:
        """Component on one internal coordinate."""
        hit = self._cache.get(coord)
        if hit is None:
            gen, sigma = self.structure.decompose(coord)
            base = self._components.get(gen, self.ctx.zero())
            hit = self._cache[coord] = self.eq.restricted_total_derivative_multi(sigma, base)
        return hit

    def apply(self, e: Expression) -> Expression:
        """Derivation action on an expression, restricted first; the result
        is a normal form because every component is."""

        def action(atom):
            return self.apply_coord(atom) if isinstance(atom, JetCoord) else self.ctx.zero()

        return self.eq.restrict(e).derive(action)

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
                f"derivatives at {self.ctx.atom_name(step)}: residual {residual}",
                coordinate=step, residual=residual)


def extend_S_symmetry(eq: SolvedEquation, frame: SpatialFrame,
                      candidate: SSymmetryCandidate) -> ExtendedSSymmetry:
    return ExtendedSSymmetry(eq, frame, candidate)


# ---------------------------------------------------------------------------
# constraint resolutions


@dataclass(frozen=True)
class ConstraintResolution:
    """Substitution resolving an under-determined spatial constraint of
    (eq, frame) by potentials, e.g. divergence-free fields as curls of
    antisymmetric potentials.  Maps resolved dependent indices to expressions
    in the potential coordinates; verified when constructed."""

    eq: SolvedEquation
    frame: SpatialFrame
    substitutions: dict

    def __post_init__(self):
        self.verify()

    def coordinate_value(self, coord: JetCoord) -> Expression:
        """A coordinate after substitution: itself when not resolved."""
        base = self.substitutions.get(coord.dep)
        if base is None:
            return self.eq.ctx.expr(coord)
        return self.eq.restricted_total_derivative_multi(coord.mindex, base)

    def apply_to_expression(self, e: Expression) -> Expression:
        rules = {}
        for atom in e.jet_atoms():
            if atom.dep in self.substitutions:
                rules[atom] = self.coordinate_value(atom)
        return e.substitute(rules) if rules else e

    def verify(self):
        """Substituted expressions must satisfy the constraint identically,
        checked at the minimal constraint points (see SpatialStructure)."""
        eq, subs = self.eq, self.substitutions
        top = max((a.mindex.get(self.frame.temporal)
                   for e in subs.values() for a in e.jet_atoms()), default=0)
        defect = spatial_structure(eq, self.frame)._first_defect(
            lambda fam: fam[0] in subs, top, self.coordinate_value, self.apply_to_expression)
        if defect is not None:
            raise UnsupportedExpression(
                f"resolution violates the constraint at {eq.ctx.atom_name(defect[0])}")


def antisymmetric_potential_resolution(eq: SolvedEquation, frame: SpatialFrame,
                                       resolved: list[int], potentials: dict) -> ConstraintResolution:
    """Resolve a divergence-free family g^i by g^i = sum_j d r^{ij}/dx^j with
    antisymmetric r.  ``resolved`` lists the dependents g^1..g^{n-1} in
    spatial order; ``potentials[(i, j)]`` (i < j, spatial positions 1-based)
    names the dependent holding r^{ij}.  A frame with fewer than two spatial
    directions has no antisymmetric potentials, so it is refused."""
    ctx = eq.ctx
    spatial = frame.spatial_indices(ctx)
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
                term = ctx.jet(ctx.dependents[r] if isinstance(r, int) else r,
                               MultiIndex.single(spatial[other - 1]))
                total = total + (1 if pos < other else -1) * term
        subs[dep] = total
    return ConstraintResolution(eq, frame, subs)


# ---------------------------------------------------------------------------
# the triviality oracle


def _normal_form_parts(frame: SpatialFrame, omega: DifferentialForm):
    """Split a reduce_mod_S2 normal form into the horizontal coefficient and
    the theta coefficients over the spatial volume."""
    ctx = omega.ctx
    n = ctx.n
    spatial_sorted = tuple(DX(i) for i in sorted(frame.spatial_indices(ctx)))
    vol_gens = tuple(DX(i) for i in range(n))
    horizontal = ctx.zero()
    thetas: dict[JetCoord, Expression] = {}
    for gens, coeff in omega.terms.items():
        if len(gens) != n:
            raise ValueError("normal form must be a degree-n form")
        if gens == vol_gens:
            horizontal = horizontal + coeff
            continue
        theta_gens = [g for g in gens if g.is_theta()]
        dx_gens = tuple(g for g in gens if g.is_dx())
        if len(theta_gens) == 1 and dx_gens == spatial_sorted:
            # canonical order stores dx-part first: theta ^ vol_s picks up
            # (-1)^(n-1) moving theta past n-1 spatial covectors
            sign = (-1) ** (n - 1)
            coord = JetCoord(theta_gens[0].index, theta_gens[0].mindex)
            thetas[coord] = thetas.get(coord, ctx.zero()) + sign * coeff
        else:
            raise ValueError(f"unexpected term of spatial degree >= 2 in a normal form: {gens}")
    return horizontal, thetas


def is_gauge_trivial(frame: SpatialFrame, eq: SolvedEquation,
                     omega1: DifferentialForm,
                     resolution: ConstraintResolution | None = None) -> bool:
    """Decide triviality of a spatial variational 1-form given in
    reduce_mod_S2 normal form a*vol + sum b theta^k_alpha ^ vol_s.

    Spatial integration by parts moves every theta to a generating
    coordinate; the residue must vanish on free generators, and the
    horizontal remainder (plus residues on spatially constant generators)
    must be a spatial divergence.  Constrained generators require a
    resolution and are substituted away first.
    """
    if resolution is not None and (resolution.eq is not eq or resolution.frame != frame):
        raise ValueError("constraint resolution was built for a different equation or frame")
    omega1 = reduce_mod_S2(frame, omega1)
    structure = spatial_structure(eq, frame)
    ctx = eq.ctx
    horizontal, thetas = _normal_form_parts(frame, omega1)

    if resolution is not None:
        horizontal = resolution.apply_to_expression(horizontal)
        new_thetas: dict[JetCoord, Expression] = {}
        for coord, b in thetas.items():
            b = resolution.apply_to_expression(b)
            for atom, d in theta_image(resolution.coordinate_value(coord)):
                new_thetas[atom] = new_thetas.get(atom, ctx.zero()) + b * d
        thetas = new_thetas

    # spatial integration by parts down to generating coordinates
    residues, _ = integrate_by_parts(thetas, frame.spatial_indices(ctx),
                                     eq.restricted_total_derivative)
    unresolved = []
    for coord in sorted(residues, key=atom_key):
        b = eq.restrict(residues[coord])
        if b.is_zero():
            continue
        fam = structure.family_of(coord)
        st = structure.status(fam)
        if st == FREE:
            return False
        if st == CONSTRAINED:
            unresolved.append(coord)
            continue
        # spatially constant generator: the coefficient only needs to be a
        # spatial divergence
        if not structure.is_spatial_divergence(b):
            return False
    if unresolved:
        names = ", ".join(ctx.atom_name(c) for c in unresolved)
        raise UnresolvedConstraint(
            f"residue on constrained coordinates ({names}); supply a "
            "constraint resolution")
    return structure.is_spatial_divergence(eq.restrict(horizontal))


def is_gauge_symmetry(rep, extended: ExtendedSSymmetry,
                      resolution: ConstraintResolution | None = None) -> bool:
    """Substitute an extended S-symmetry into the spatial presymplectic
    structure and test the resulting spatial variational 1-form for
    triviality."""
    if rep.equation is not extended.eq:
        raise ValueError("internal Lagrangian was built over a different equation")
    return is_gauge_trivial(extended.frame, extended.eq,
                            extended.contract(rep.presymplectic), resolution)


def is_spatial_gradient(frame: SpatialFrame, eq: SolvedEquation, chi: dict) -> bool:
    """chi maps spatial indices to components; true iff the spatial 1-form
    chi_i dx^i is spatially closed (hence locally exact)."""
    spatial = frame.spatial_indices(eq.ctx)
    comps = {i: eq.restrict(chi.get(i, eq.ctx.zero())) for i in spatial}
    for a, b in combinations(spatial, 2):
        curl = eq.restricted_total_derivative(a, comps[b]) - \
            eq.restricted_total_derivative(b, comps[a])
        if not curl.is_zero():
            return False
    return True
