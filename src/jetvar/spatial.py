"""Spatial gradings and the (internal-Lagrangian, spatial-frame) gauge
triviality oracle.

A frame singles out one base coordinate as temporal; the lift of the
complementary hyperplane distribution is spanned by the spatial restricted
total derivatives.  Contact forms of any order together with the temporal
covector annihilate that distribution, which grades every form by spatial
degree.  Triviality of a degree-n form modulo that grading and exact terms
is decided by spatial integration by parts plus a spatial-divergence test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eqmanifold import SolvedEquation
from .errors import SSymmetryError, UnresolvedConstraint, UnsupportedExpression
from .forms import DX, DifferentialForm, interior_product, theta_image
from .symexpr import Expression, JetCoord, MultiIndex, atom_key, partial

FREE = "free"
NULL = "null"
CONSTRAINED = "constrained"

# Depth of the constraint-point scan that classifies generator families
# (raised to one past the highest rule head).
SCAN_ORDER = 6
# Depth to which an S-symmetry's commutation with the spatial total
# derivatives, and a constraint resolution, are checked.
EXTENSION_CHECK_ORDER = 3
RESOLUTION_CHECK_ORDER = 2


@dataclass(frozen=True)
class SpatialFrame:
    """ker dx^a lifted to the equation manifold; a is the temporal index."""

    temporal: int

    def spatial_indices(self, ctx) -> tuple[int, ...]:
        return tuple(i for i in range(ctx.n) if i != self.temporal)


def s_degree(frame: SpatialFrame, gens) -> int:
    """Number of annihilating factors: every theta, plus dx^temporal."""
    count = 0
    for g in gens:
        if g.is_theta() or g.index == frame.temporal:
            count += 1
    return count


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

    Every internal coordinate splits uniquely as spatial derivatives of a
    generator (an internal coordinate with a purely temporal multi-index).
    Generators are classified free (all spatial derivatives stay internal),
    null (spatial derivatives rewrite to zero: spatial constants), or
    constrained (tied to other coordinates by a spatial relation).
    """

    def __init__(self, eq: SolvedEquation, frame: SpatialFrame):
        self.eq = eq
        self.frame = frame
        self.ctx = eq.ctx
        self._status: dict[tuple[int, MultiIndex], str] = {}
        self._scan()

    # family = (dependent, temporal part of the multi-index)

    def family_of(self, coord: JetCoord) -> tuple[int, MultiIndex]:
        tau = MultiIndex.single(self.frame.temporal, coord.mindex.get(self.frame.temporal))
        return (coord.dep, tau)

    def spatial_part(self, coord: JetCoord) -> MultiIndex:
        counts = coord.mindex.counts()
        counts.pop(self.frame.temporal, None)
        return MultiIndex.of(counts)

    def generator_coord(self, family) -> JetCoord:
        return JetCoord(family[0], family[1])

    def decompose(self, coord: JetCoord):
        """Internal coordinate as (generator coordinate, spatial multi-index)."""
        fam = self.family_of(coord)
        return self.generator_coord(fam), self.spatial_part(coord)

    def is_generator(self, coord: JetCoord) -> bool:
        return self.eq.is_internal(coord) and self.spatial_part(coord).order == 0

    def _scan(self):
        """Classify families by scanning constraint points: internal c whose
        spatial derivative rewrites."""
        eq, ctx, frame = self.eq, self.ctx, self.frame
        max_head = max((h.mindex.order for h in eq.heads), default=0)
        order = max(SCAN_ORDER, max_head + 1)
        spatial = frame.spatial_indices(ctx)
        for coord in eq.internal_coordinates(order):
            fam = self.family_of(coord)
            self._status.setdefault(fam, FREE)
            for j in spatial:
                step = JetCoord(coord.dep, coord.mindex + MultiIndex.single(j))
                if eq.is_internal(step):
                    continue
                rhs = eq.rule_for(step)
                if rhs.is_zero():
                    if self._status[fam] == FREE:
                        self._status[fam] = NULL
                else:
                    self._status[fam] = CONSTRAINED
                    for atom in rhs.jet_atoms():
                        other = self.family_of(atom)
                        self._status[other] = CONSTRAINED

    def status(self, family) -> str:
        if family in self._status:
            return self._status[family]
        # outside the scanned range: fall back to a direct probe
        coord = self.generator_coord(family)
        for j in self.frame.spatial_indices(self.ctx):
            step = JetCoord(coord.dep, coord.mindex + MultiIndex.single(j))
            if not self.eq.is_internal(step):
                return NULL if self.eq.rule_for(step).is_zero() else CONSTRAINED
        return FREE

    def constraint_points(self, max_order: int):
        """(coordinate, spatial direction, rewritten value) triples."""
        out = []
        spatial = self.frame.spatial_indices(self.ctx)
        for coord in self.eq.internal_coordinates(max_order):
            for j in spatial:
                step = JetCoord(coord.dep, coord.mindex + MultiIndex.single(j))
                if not self.eq.is_internal(step):
                    out.append((coord, j, self.eq.rule_for(step)))
        return out

    # -- spatial variational calculus ---------------------------------------

    def spatial_euler(self, f: Expression, family) -> Expression:
        """Variational derivative of f in the spatial directions with respect
        to one generator family; temporal-pure coordinates act as parameters."""
        eq, ctx = self.eq, self.ctx
        k, tau = family
        out = ctx.zero()
        for atom in f.jet_atoms(dep=k):
            if self.family_of(atom) != family:
                continue
            sigma = self.spatial_part(atom)
            piece = partial(f, atom)
            if piece.is_zero():
                continue
            sign = -1 if sigma.order % 2 else 1
            out = out + sign * eq.restricted_total_derivative_multi(sigma, piece)
        return eq.restrict(out)

    def is_spatial_divergence(self, f: Expression) -> bool:
        """Euler-vanishing criterion for membership in the image of the
        spatial total derivatives (contractible base)."""
        families = {self.family_of(a) for a in f.jet_atoms()}
        for fam in families:
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
            value = eq.restrict(value)
            self._components[coord] = value
        self._verify()

    def apply_coord(self, coord: JetCoord) -> Expression:
        """Component on one internal coordinate."""
        hit = self._cache.get(coord)
        if hit is not None:
            return hit
        gen, sigma = self.structure.decompose(coord)
        base = self._components.get(gen, self.ctx.zero())
        value = self.eq.restricted_total_derivative_multi(sigma, base)
        self._cache[coord] = value
        return value

    def apply(self, e: Expression) -> Expression:
        """Derivation action on an internal-coordinate expression."""
        eq = self.eq

        def action(atom):
            if isinstance(atom, JetCoord):
                if not eq.is_internal(atom):
                    return self.apply(eq.rule_for(atom))
                return self.apply_coord(atom)
            return self.ctx.zero()

        return eq.restrict(eq.restrict(e).derive(action))

    def contract(self, omega: DifferentialForm) -> DifferentialForm:
        """Interior product: dx -> 0, theta of an internal coordinate -> its
        component."""
        return interior_product(omega, self.apply_coord)

    def _verify(self):
        """Commutation with spatial derivatives must be consistent across the
        rewrite relations (e.g. divergence-type constraints)."""
        for coord, j, rhs in self.structure.constraint_points(EXTENSION_CHECK_ORDER):
            left = self.eq.restrict(
                self.eq.restricted_total_derivative(j, self.apply_coord(coord)))
            right = self.apply(rhs)
            if not (left - right).is_zero():
                step = JetCoord(coord.dep, coord.mindex + MultiIndex.single(j))
                raise SSymmetryError(
                    "candidate does not commute with the spatial total "
                    f"derivatives at {self.ctx.atom_name(step)}: residual "
                    f"{left - right}",
                    coordinate=step, residual=left - right)


def extend_S_symmetry(eq: SolvedEquation, frame: SpatialFrame,
                      candidate: SSymmetryCandidate) -> ExtendedSSymmetry:
    return ExtendedSSymmetry(eq, frame, candidate)


# ---------------------------------------------------------------------------
# constraint resolutions


@dataclass(frozen=True)
class ConstraintResolution:
    """Substitution resolving an under-determined spatial constraint by
    potentials, e.g. divergence-free fields as curls of antisymmetric
    potentials.  Maps resolved dependent indices to expressions in the
    potential coordinates."""

    substitutions: dict

    def resolved_dependents(self):
        return set(self.substitutions)

    def coordinate_value(self, eq: SolvedEquation, coord: JetCoord) -> Expression:
        base = self.substitutions[coord.dep]
        return eq.restricted_total_derivative_multi(coord.mindex, base)

    def apply_to_expression(self, eq: SolvedEquation, e: Expression) -> Expression:
        rules = {}
        for atom in e.jet_atoms():
            if atom.dep in self.substitutions:
                rules[atom] = self.coordinate_value(eq, atom)
        return e.substitute(rules) if rules else e

    def verify(self, eq: SolvedEquation, frame: SpatialFrame):
        """Substituted expressions must satisfy the constraint identically."""
        structure = spatial_structure(eq, frame)
        for coord, j, rhs in structure.constraint_points(RESOLUTION_CHECK_ORDER):
            if coord.dep not in self.substitutions:
                continue
            left = eq.restricted_total_derivative(j, self.coordinate_value(eq, coord))
            right = self.apply_to_expression(eq, rhs)
            if not (left - right).is_zero():
                raise UnsupportedExpression(
                    "resolution violates the constraint at "
                    f"{eq.ctx.atom_name(JetCoord(coord.dep, coord.mindex + MultiIndex.single(j)))}")


def antisymmetric_potential_resolution(eq: SolvedEquation, frame: SpatialFrame,
                                       resolved: list[int], potentials: dict) -> ConstraintResolution:
    """Resolve a divergence-free family g^i by g^i = sum_j d r^{ij}/dx^j with
    antisymmetric r.  ``resolved`` lists the dependents g^1..g^{n-1} in
    spatial order; ``potentials[(i, j)]`` (i < j, spatial positions 1-based)
    names the dependent holding r^{ij}."""
    ctx = eq.ctx
    spatial = frame.spatial_indices(ctx)
    subs = {}
    for pos, dep in enumerate(resolved, start=1):
        total = ctx.zero()
        for other in range(1, len(spatial) + 1):
            if other == pos:
                continue
            i, j = min(pos, other), max(pos, other)
            r = potentials[(i, j)]
            sign = 1 if pos < other else -1
            term = ctx.jet(ctx.dependents[r] if isinstance(r, int) else r,
                           MultiIndex.single(spatial[other - 1]))
            total = total + sign * term
        subs[dep] = total
    res = ConstraintResolution(subs)
    res.verify(eq, frame)
    return res


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
            raise ValueError(
                "unexpected term of spatial degree >= 2 in a normal form: "
                f"{gens}")
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
    omega1 = reduce_mod_S2(frame, omega1)
    structure = spatial_structure(eq, frame)
    ctx = eq.ctx
    horizontal, thetas = _normal_form_parts(frame, omega1)

    if resolution is not None:
        resolution.verify(eq, frame)
        horizontal = resolution.apply_to_expression(eq, horizontal)
        new_thetas: dict[JetCoord, Expression] = {}
        for coord, b in thetas.items():
            b = resolution.apply_to_expression(eq, b)
            if coord.dep in resolution.resolved_dependents():
                for atom, d in theta_image(resolution.coordinate_value(eq, coord)):
                    new_thetas[atom] = new_thetas.get(atom, ctx.zero()) + b * d
            else:
                new_thetas[coord] = new_thetas.get(coord, ctx.zero()) + b
        thetas = new_thetas

    # spatial integration by parts down to generating coordinates
    spatial = frame.spatial_indices(ctx)
    while True:
        target = None
        for coord in sorted(thetas, key=atom_key):
            if structure.spatial_part(coord).order >= 1:
                target = coord
                break
        if target is None:
            break
        b = thetas.pop(target)
        if b.is_zero():
            continue
        j = max(i for i in spatial if target.mindex.get(i) > 0)
        lower = JetCoord(target.dep, target.mindex - MultiIndex.single(j))
        moved = -eq.restricted_total_derivative(j, b)
        thetas[lower] = thetas.get(lower, ctx.zero()) + moved

    unresolved = []
    for coord in sorted(thetas, key=atom_key):
        b = eq.restrict(thetas[coord])
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


def is_gauge_symmetry(frame: SpatialFrame, eq: SolvedEquation, rep,
                      candidate: SSymmetryCandidate,
                      resolution: ConstraintResolution | None = None) -> bool:
    """Substitute an S-symmetry into the spatial presymplectic structure and
    test the resulting spatial variational 1-form for triviality."""
    if rep.equation is not eq:
        raise ValueError("internal Lagrangian was built over a different equation")
    extended = extend_S_symmetry(eq, frame, candidate)
    contracted = extended.contract(rep.presymplectic)
    return is_gauge_trivial(frame, eq, reduce_mod_S2(frame, contracted), resolution)


def is_spatial_gradient(frame: SpatialFrame, eq: SolvedEquation, chi: dict) -> bool:
    """chi maps spatial indices to components; true iff the spatial 1-form
    chi_i dx^i is spatially closed (hence locally exact)."""
    spatial = frame.spatial_indices(eq.ctx)
    comps = {i: eq.restrict(chi.get(i, eq.ctx.zero())) for i in spatial}
    for a in spatial:
        for b in spatial:
            if a >= b:
                continue
            curl = eq.restricted_total_derivative(a, comps[b]) - \
                eq.restricted_total_derivative(b, comps[a])
            if not curl.is_zero():
                return False
    return True
