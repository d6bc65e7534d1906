import pytest

import random
import re
from pathlib import Path

from jetvar import (
    ConstraintResolution,
    JetContext,
    Lagrangian,
    SolvedEquation,
    extend_S_symmetry,
    internal_lagrangian,
    is_gauge_symmetry,
    is_gauge_trivial,
    is_spatial_gradient,
    reduce_mod_S2,
    s_degree_filter,
    s_presymplectic_representative,
)
from jetvar.eqmanifold import iter_multi_indices
from jetvar.errors import (
    ConsistencyError,
    SSymmetryError,
    UnresolvedConstraint,
    UnsupportedExpression,
)
from jetvar.forms import DifferentialForm, interior_product
from jetvar import spatial
from jetvar.frontend import parse, reproduce
from jetvar.frontend.cli import main as cli_main
from jetvar.frontend.runner import build, bundled_fixture_names, fixture_text
from jetvar.jetcalc import integrate_by_parts
from jetvar.spatial import (
    ExtendedSSymmetry,
    SpatialStructure,
    s_degree,
    spatial_structure,
)
from jetvar.symexpr import BaseVar, JetCoord, MultiIndex, partial

from helpers import (
    E,
    F,
    default_pool,
    direct_constraint_points,
    internal_coordinates,
    laplace_equation,
    pkdv_equation,
    random_expression,
    random_form,
    sampled_extension_commutes,
    sampled_resolution_holds,
    scan_statuses,
    scanned_families,
    split_and_substitute_normal_form,
    subtracted_reduce_mod_S2,
    subtracted_s_presymplectic_representative,
    unmemoised_status,
    wave_equation,
)


@pytest.fixture
def laplace():
    ctx, eq = laplace_equation()
    return ctx, eq, spatial_structure(eq, 1)


def test_s_degree_counts(laplace):
    ctx, eq, st = laplace
    high = F("theta(u[x])*theta(u)*d(y)", ctx)
    assert s_degree(st.temporal, next(iter(high.terms))) == 3
    assert s_degree_filter(st.temporal, high, 3) == high
    horizontal = F("d(x)*d(y)", ctx)
    assert s_degree(st.temporal, next(iter(horizontal.terms))) == 1
    mid = F("theta(u[y])*theta(u)*d(x)", ctx)
    assert s_degree(st.temporal, next(iter(mid.terms))) == 2
    assert s_degree_filter(st.temporal, mid, 3).is_zero()


def test_reduce_mod_s2(laplace):
    ctx, eq, st = laplace
    vol = F("d(x)*d(y)", ctx)
    assert reduce_mod_S2(st.temporal, vol) == vol
    dropped = F("theta(u)*theta(u[y])", ctx)
    assert reduce_mod_S2(st.temporal, dropped).is_zero()
    # t-frame over (t, x): theta ^ theta ^ dt has spatial degree 3
    ctx2, eq2 = pkdv_equation()
    assert reduce_mod_S2(0, F("theta(u)*theta(u[x])", ctx2)).is_zero()


def test_filter_truncations_match_subtraction():
    # keeping the terms below an S-degree bound equals subtracting the terms
    # at or above it; and a vertical contraction of the terms of S-degree >= 3
    # vanishes modulo S^2, so contracting the representative suffices
    rng = random.Random(20261018)
    for names in (["x", "y"], ["t", "x", "y"]):
        ctx = JetContext(names, ["u", "v"])
        pool = default_pool(ctx)
        for _ in range(40):
            t = rng.randrange(ctx.n)
            omega = random_form(rng, ctx, pool, ctx.n, max_terms=4)
            assert reduce_mod_S2(t, omega) == subtracted_reduce_mod_S2(t, omega)
            d_rep = random_form(rng, ctx, pool, ctx.n + 1, max_terms=4)
            sigma = s_presymplectic_representative(t, d_rep)
            assert sigma == subtracted_s_presymplectic_representative(t, d_rep)
            values = {}

            def value(coord):
                if coord not in values:
                    values[coord] = random_expression(rng, ctx, pool)
                return values[coord]

            assert reduce_mod_S2(t, interior_product(d_rep, value)) == \
                reduce_mod_S2(t, interior_product(sigma, value))


def test_s_presymplectic_wave():
    ctx, eq = wave_equation()
    lag = Lagrangian(ctx, E("-(u[x]*u[y])/2", ctx))
    rep = internal_lagrangian(lag, eq)
    dl = eq.restricted_exterior_derivative(rep.form)
    assert s_presymplectic_representative(1, dl) == \
        F("(theta(u[x])*theta(u)*d(x))/2", ctx)


def test_structure_classification_wave():
    ctx, eq = wave_equation()
    st = SpatialStructure(eq, 1)
    assert st.status(JetCoord(0)) == "free"
    assert st.status(JetCoord(0, MultiIndex.single(1))) == "null"
    assert st.status(JetCoord(0, MultiIndex.single(1, 3))) == "null"


def test_structure_classification_maxwell(maxwell_built):
    eq, ctx = maxwell_built.eq, maxwell_built.ctx
    st = SpatialStructure(eq, maxwell_built.temporal)
    a1 = JetCoord(ctx.dependent_index("A1"))
    f01 = JetCoord(ctx.dependent_index("F01"))
    f02 = JetCoord(ctx.dependent_index("F02"))
    r12 = JetCoord(ctx.dependent_index("r12"))
    assert st.status(a1) == "free"
    assert st.status(f01) == "constrained"
    assert st.status(f02) == "constrained"
    assert st.status(r12) == "free"
    a0_tower = JetCoord(ctx.dependent_index("A0"), MultiIndex.single(0, 2))
    assert st.status(a0_tower) == "free"


def test_build_makes_a_spatial_structure_only_for_a_resolve():
    # prolongation and the stages before the candidates need no spatial
    # equation; Maxwell's resolve builds the one of its frame, keyed by the
    # temporal index 0 (so a test for falsiness would drop it)
    pkdv = build(parse(fixture_text("pkdv")))
    assert pkdv.temporal == 0 and pkdv.eq.spatial_structures == {}
    maxwell = build(parse(fixture_text("maxwell")))
    assert maxwell.temporal == 0
    assert list(maxwell.eq.spatial_structures) == [0]
    assert maxwell.resolution.structure is maxwell.eq.spatial_structures[0]


def test_readme_quick_tour_runs_and_ends_false():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A quick tour:\n\n```python\n", 1)[1].split("```", 1)[0]
    *body, last = block.strip().splitlines()
    scope = {}
    exec("\n".join(body), scope)
    assert scope["omega"] == F("theta(u[y])*theta(u)*d(x)", scope["ctx"])
    assert last.endswith("# False: a real symmetry")
    assert eval(last.split("#")[0], scope) is False


def test_structure_built_once_per_equation_and_frame(laplace):
    ctx, eq, shared = laplace
    a = {ctx.jet_atom("u"): E("u[x]", ctx), ctx.jet_atom("u", "y"): E("u[xy]", ctx)}
    b = {ctx.jet_atom("u"): E("u*u[y]", ctx), ctx.jet_atom("u", "y"): E("u[x]^2", ctx)}
    assert extend_S_symmetry(shared, a).structure is shared
    assert extend_S_symmetry(spatial_structure(eq, 1), b).structure is shared
    # the equation keeps one structure per temporal index, keyed by that index
    assert spatial_structure(eq, 0) is not shared
    assert eq.spatial_structures == {0: spatial_structure(eq, 0), 1: shared}
    _, other_eq = laplace_equation(ctx)
    assert spatial_structure(other_eq, 1) is not shared
    direct = SpatialStructure(eq, 1)
    assert direct is not shared and direct.status(JetCoord(0)) == "free"


@pytest.mark.parametrize("name, extensions, resolutions",
                         [("maxwell", 9, 1), ("laplace", 5, 0), ("wave", 7, 0), ("pkdv", 5, 0)])
def test_reproduce_verifies_each_candidate_and_resolution_once(
        monkeypatch, name, extensions, resolutions):
    calls = {"extension": 0, "resolution": 0}

    def counting(key, method):
        def wrapper(self, *args):
            calls[key] += 1
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(ExtendedSSymmetry, "_verify",
                        counting("extension", ExtendedSSymmetry._verify))
    monkeypatch.setattr(ConstraintResolution, "verify",
                        counting("resolution", ConstraintResolution.verify))
    assert reproduce(name).exit_code == 0
    assert calls == {"extension": extensions, "resolution": resolutions}


@pytest.mark.parametrize("name", ["maxwell", "laplace", "wave", "pkdv"])
def test_reproduce_takes_the_s_presymplectic_representative_once(monkeypatch, name):
    """The s_presymplectic golden and every gauge decision read the one
    representative the spatial structure keeps."""
    calls = []

    def counting(t, d_rep):
        calls.append(d_rep)
        return s_presymplectic_representative(t, d_rep)

    monkeypatch.setattr(spatial, "s_presymplectic_representative", counting)
    assert reproduce(name).exit_code == 0
    assert len(calls) == 1


def test_maxwell_resolution_derives_each_substituted_coordinate_once(monkeypatch):
    """The Gauss resolution's build check and gauge decisions read 8
    distinct resolved coordinates; each is differentiated out once."""
    bases, derived = [], []
    init, multi = ConstraintResolution.__init__, SolvedEquation.restricted_total_derivative_multi

    def counting_init(self, structure, substitutions):
        bases.extend(substitutions.values())
        init(self, structure, substitutions)

    def counting_multi(self, alpha, e):
        if any(e is base for base in bases):
            derived.append((alpha, id(e)))
        return multi(self, alpha, e)

    monkeypatch.setattr(ConstraintResolution, "__init__", counting_init)
    monkeypatch.setattr(SolvedEquation, "restricted_total_derivative_multi", counting_multi)
    assert reproduce("maxwell").exit_code == 0
    assert len(derived) == len(set(derived)) == 8


def test_s_presymplectic_representative_kept_per_form_not_per_structure():
    """On one shared structure a null Lagrangian (representative 0) decides
    Ybad trivial and the fixture's Lagrangian, decided after it, still
    nontrivial: each verdict is the one a fresh structure gives."""
    built = build(parse(fixture_text("wave")))
    ctx, eq, t = built.ctx, built.eq, built.temporal
    null = internal_lagrangian(Lagrangian(ctx, E("u[x]*u[y] + u*u[xy]", ctx)), eq)
    fixture = internal_lagrangian(built.lagrangian, eq)
    assert s_presymplectic_representative(t, null.presymplectic).is_zero()
    assert s_presymplectic_representative(t, fixture.presymplectic) == \
        F("(theta(u[x])*theta(u)*d(x))/2", ctx)
    ybad, shared = built.candidates["Ybad"], spatial_structure(eq, t)
    verdicts = [is_gauge_symmetry(rep, extend_S_symmetry(shared, ybad))
                for rep in (null, fixture)]
    assert verdicts == [True, False]
    assert verdicts == [is_gauge_symmetry(rep, extend_S_symmetry(SpatialStructure(eq, t), ybad))
                        for rep in (null, fixture)]


def _families(structure, top):
    """Families with an internal generator and temporal count at most top."""
    t = structure.temporal
    return [fam for dep in range(structure.ctx.m) for k in range(top + 1)
            if structure.eq.is_internal(fam := JetCoord(dep, MultiIndex.single(t, k)))]


def _highest_head_order(eq):
    return max(h.mindex.order for h in eq.heads)


def _minimal_direct_points(structure, direct, family):
    """The points of ``direct`` in the family whose target is minimal there."""

    def target(point):
        coord, j, _ = point
        return structure.spatial_part(coord) + MultiIndex.single(j)

    points = [p for p in direct if structure.family_of(p[0]) == family]
    targets = {target(p) for p in points}
    return [p for p in points
            if not any(o != target(p) and o.divides(target(p)) for o in targets)]


def _point_keys(points):
    return sorted((c, j, str(rhs)) for c, j, rhs in points)


def test_constraint_points_match_direct_loop(all_built):
    """The minimal points read off the heads are the points, among those a
    probe of every spatial step finds, whose target is minimal in its
    family."""
    seen = 0
    for name, built in all_built.items():
        structure = spatial_structure(built.eq, built.temporal)
        direct = direct_constraint_points(structure, 4 + _highest_head_order(built.eq) + 1)
        for fam in _families(structure, 4):
            got = structure._minimal_points(fam)[0]
            assert _point_keys(got) == _point_keys(
                _minimal_direct_points(structure, direct, fam)), (name, fam)
            seen += len(got)
    assert seen > 0


_U_XX_EQ_U = "independents t x\ndependents u\nequation u[xx] = u\nspatial t\n"


def test_classification_matches_scan():
    """Every family with temporal count <= 4 is classified as the old scan,
    run to that count plus the highest head order plus one, classifies it."""
    seen = set()
    for text in [fixture_text(name) for name in bundled_fixture_names()] + [_U_XX_EQ_U]:
        built = build(parse(text))
        structure = SpatialStructure(built.eq, built.temporal)
        scans = {}
        for fam in _families(structure, 4):
            order = fam.mindex.order + _highest_head_order(built.eq) + 1
            if order not in scans:
                scans[order] = scan_statuses(structure, order)
            assert structure.status(fam) == scans[order][fam], (text, fam)
            seen.add(structure.status(fam))
    assert seen == {"free", "null", "constrained"}


def test_tower_of_u_xx_eq_u_constrained_at_every_height():
    built = build(parse(_U_XX_EQ_U))
    structure = spatial_structure(built.eq, built.temporal)
    for k in range(9):
        assert structure.status(JetCoord(0, MultiIndex.single(0, k))) == "constrained", k


@pytest.mark.parametrize("target, step", [("yyyy", "u[x,y,y,y,y]"), ("yy", "u[x,y,y]")])
def test_extension_refused_where_commutation_breaks_on_wave_tower(target, step):
    # the family of u[y^k] is null: its component may not see x
    ctx, eq = wave_equation()
    cand = {ctx.jet_atom("u", target): ctx.var("u")}
    with pytest.raises(SSymmetryError, match=rf"derivatives at {re.escape(step)}: residual "):
        extend_S_symmetry(spatial_structure(eq, 1), cand)


def _extends(structure, candidate):
    try:
        extend_S_symmetry(structure, candidate)
    except SSymmetryError:
        return False
    return True


@pytest.fixture(scope="module")
def oracle_points(all_built):
    """Every constraint point to order 6 of each fixture's structure."""
    return {name: direct_constraint_points(spatial_structure(b.eq, b.temporal), 6)
            for name, b in all_built.items()}


def test_extension_verdicts_match_sampled_check_on_fixture_candidates(all_built, oracle_points):
    for name, built in all_built.items():
        structure = spatial_structure(built.eq, built.temporal)
        for cname, cand in built.candidates.items():
            assert _extends(structure, cand) == sampled_extension_commutes(
                structure, cand, oracle_points[name]), (name, cname)


def _random_candidate(rng, structure, max_targets, **shape):
    """Components on up to max_targets generators of order <= 2, valued in
    the independents and the internal coordinates of order <= 2."""
    ctx = structure.ctx
    generators = _families(structure, 2)
    pool = [ctx.base_atom(x) for x in ctx.independents] + internal_coordinates(structure.eq, 2)
    targets = rng.sample(generators, rng.randint(1, min(max_targets, len(generators))))
    return {g: random_expression(rng, ctx, pool, **shape) for g in targets}


def test_extension_verdicts_match_sampled_check_on_random_candidates(all_built, oracle_points):
    rng = random.Random(20261018)
    for name, built in all_built.items():
        structure = spatial_structure(built.eq, built.temporal)
        verdicts = []
        for _ in range(100):
            cand = _random_candidate(rng, structure, 3)
            verdict = _extends(structure, cand)
            assert verdict == sampled_extension_commutes(
                structure, cand, oracle_points[name]), (name, cand)
            verdicts.append(verdict)
        if oracle_points[name]:
            assert len(set(verdicts)) == 2, name


def _random_integrable_system(rng):
    """1-3 minimal heads of order <= 2 over t, x, y and 1-2 dependents with
    linear right sides below their heads in the fixed ranking (order, then
    t, y, x, then dependent); None when the system is not integrable."""
    ctx = JetContext(["t", "x", "y"], ["u", "v"][:rng.randint(1, 2)])
    coords = [JetCoord(k, a) for k in range(ctx.m) for a in iter_multi_indices(3, 2)]

    def rank(c):
        return (c.mindex.order, c.mindex.get(0), c.mindex.get(2), c.mindex.get(1), c.dep)

    heads = []
    for _ in range(rng.randint(1, 3)):
        h = rng.choice(coords[1:])
        if all(g.dep != h.dep or not (g.mindex.divides(h.mindex) or h.mindex.divides(g.mindex))
               for g in heads):
            heads.append(h)
    rules = []
    for h in heads:
        pool = [ctx.base_atom("x")] + [c for c in coords if rank(c) < rank(h)]
        rules.append((h, random_expression(rng, ctx, pool, max_terms=2, max_factors=1,
                                           max_power=1)))
    eq = SolvedEquation(ctx, rules)
    try:
        eq.check_integrability()
    except ConsistencyError:
        return None
    return eq


def test_spatial_decisions_match_oracles_on_random_systems():
    rng = random.Random(20261018)
    systems = 0
    statuses, verdicts = set(), set()
    while systems < 40:
        eq = _random_integrable_system(rng)
        if eq is None:
            continue
        systems += 1
        structure = SpatialStructure(eq, 0)
        top = 2 + _highest_head_order(eq) + 1
        direct = direct_constraint_points(structure, top)
        for fam in _families(structure, 2):
            assert _point_keys(structure._minimal_points(fam)[0]) == _point_keys(
                _minimal_direct_points(structure, direct, fam))
            order = fam.mindex.order + _highest_head_order(eq) + 1
            assert structure.status(fam) == scan_statuses(structure, order)[fam]
            statuses.add(structure.status(fam))
        for _ in range(5):
            cand = _random_candidate(rng, structure, 2, max_terms=2)
            verdict = _extends(structure, cand)
            assert verdict == sampled_extension_commutes(structure, cand, direct)
            verdicts.add(verdict)
    assert statuses == {"free", "null", "constrained"} and verdicts == {True, False}


def test_families_and_statuses_match_scan_and_unmemoised_status():
    """The families read off the lowest purely temporal heads are those an
    is_internal scan finds, and each memoised status is the one read afresh,
    on the fixtures, u[xx] = u, and seeded random systems in every frame."""
    structures = [SpatialStructure(b.eq, b.temporal) for b in map(build, map(parse, [
        fixture_text(name) for name in bundled_fixture_names()] + [_U_XX_EQ_U]))]
    rng = random.Random(20261018)
    while len(structures) < 5 + 3 * 40:
        eq = _random_integrable_system(rng)
        if eq is not None:
            structures += [SpatialStructure(eq, t) for t in range(3)]
    statuses = set()
    for structure in structures:
        for top in range(4):
            families = list(structure._families(top))
            assert families == list(scanned_families(structure, top))
            for fam in families:
                assert structure.status(fam) == unmemoised_status(structure, fam)
                statuses.add(structure.status(fam))
    assert statuses == {"free", "null", "constrained"}


@pytest.mark.parametrize("dependents", ["u v", "v u"])
def test_divergence_test_refuses_any_constrained_family_whatever_the_order(dependents):
    """A free family whose Euler test fails and a constrained family: the
    test refuses, whichever dependent, and so family, comes first."""
    built = build(parse(_U_XX_EQ_U.replace("dependents u", f"dependents {dependents}")))
    structure, ctx = spatial_structure(built.eq, built.temporal), built.ctx
    u, v = ctx.dependent_index("u"), ctx.dependent_index("v")
    assert structure.status(JetCoord(v)) == "free"
    assert structure.status(JetCoord(u)) == "constrained"
    with pytest.raises(UnresolvedConstraint, match="constrained family of u"):
        structure.is_spatial_divergence(E("v + u", ctx))


def test_resolution_verdicts_match_sampled_check(maxwell_built, oracle_points):
    ctx, eq = maxwell_built.ctx, maxwell_built.eq
    structure = spatial_structure(eq, maxwell_built.temporal)
    points = oracle_points["maxwell"]
    bundled = maxwell_built.resolution.substitutions
    assert sampled_resolution_holds(structure, bundled, points)
    rng = random.Random(20261018)
    terms = [E(f"{r}[{x}]", ctx) for r in ("r12", "r13", "r23") for x in ("x1", "x2", "x3")]
    verdicts = set()
    for trial in range(40):
        subs = {dep: sum((rng.choice((-1, 1)) * rng.choice(terms)
                          for _ in range(rng.randint(0, 2))), ctx.zero())
                for dep in bundled}
        if trial % 4 == 0:  # perturb the bundled resolution in one place
            subs = dict(bundled)
            dep = rng.choice(sorted(subs))
            subs[dep] = subs[dep] + rng.choice((-1, 1)) * rng.choice(terms)
        try:
            ConstraintResolution(structure, subs)
            verdict = True
        except UnsupportedExpression:
            verdict = False
        assert verdict == sampled_resolution_holds(structure, subs, points), subs
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _spatial_euler_oracle(structure, f, family):
    """The direct sum (-1)^|sigma| Dbar_sigma(d f / d a) over the coordinates
    a of the family, sigma the spatial part of a."""
    eq = structure.eq
    out = eq.ctx.zero()
    for atom in f.jet_atoms(dep=family.dep):
        if structure.family_of(atom) == family:
            sigma = structure.spatial_part(atom)
            sign = -1 if sigma.order % 2 else 1
            out = out + sign * eq.restricted_total_derivative_multi(sigma, partial(f, atom))
    return out


def test_spatial_euler_matches_direct_sum_on_gauge_families(monkeypatch):
    touched = []

    def recording(coeffs, directions, derivative):
        touched.append((derivative.__self__, set(coeffs)))
        return integrate_by_parts(coeffs, directions, derivative)

    monkeypatch.setattr(spatial, "integrate_by_parts", recording)
    rng = random.Random(20260809)
    checked = 0
    for name in bundled_fixture_names():
        touched.clear()
        assert reproduce(name).exit_code == 0
        t = build(parse(fixture_text(name))).temporal
        families = {}
        for eq, coords in touched:
            structure = spatial_structure(eq, t)
            for coord in coords:
                families[structure.family_of(coord)] = structure
        assert families, name
        for family, structure in sorted(families.items(), key=lambda kv: repr(kv[0])):
            eq, ctx = structure.eq, structure.ctx
            order = family.mindex.order + 3
            pool = [c for c in internal_coordinates(eq, order)
                    if structure.family_of(c) == family]
            pool += [ctx.base_atom(x) for x in ctx.independents] + internal_coordinates(eq, 1)
            for _ in range(10):
                f = random_expression(rng, ctx, pool)
                assert structure.spatial_euler(f, family) == \
                    _spatial_euler_oracle(structure, f, family), (name, family, f)
                checked += 1
    assert checked >= 40


@pytest.mark.parametrize("name", bundled_fixture_names())
def test_coordinate_split_matches_recomputation(name):
    # each coordinate is split once per structure, whichever of the two
    # readers asks first; every reading equals the split worked out afresh
    built = build(parse(fixture_text(name)))
    eq, t, ctx = built.eq, built.temporal, built.ctx
    coords = [JetCoord(k, a) for k in range(ctx.m) for a in iter_multi_indices(ctx.n, 3)]
    for first in ("family_of", "spatial_part"):
        structure = SpatialStructure(eq, t)
        for coord in coords:
            getattr(structure, first)(coord)
            family = JetCoord(coord.dep, MultiIndex.single(t, coord.mindex.get(t)))
            sigma = MultiIndex(tuple(e for e in coord.mindex.entries if e[0] != t))
            assert structure.family_of(coord) == family, (name, coord)
            assert structure.spatial_part(coord) == sigma, (name, coord)
            assert sigma + family.mindex == coord.mindex


def test_extension_matches_display_laplace(laplace):
    ctx, eq, st = laplace
    phi, chi = E("u*u[y]", ctx), E("u[x]^2", ctx)
    cand = {ctx.jet_atom("u"): phi, ctx.jet_atom("u", "y"): chi}
    ext = extend_S_symmetry(st, cand)
    assert ext.apply_coord(ctx.jet_atom("u", "x")) == \
        eq.restricted_total_derivative(0, phi)
    assert ext.apply_coord(ctx.jet_atom("u", "xy")) == \
        eq.restricted_total_derivative(0, chi)
    assert ext.apply_coord(ctx.jet_atom("u", "xx")) == \
        eq.restricted_total_derivative(0, eq.restricted_total_derivative(0, phi))


def test_extension_wave_tower():
    ctx, eq = wave_equation()
    st = spatial_structure(eq, 1)
    p0 = E("y*u[y]", ctx)
    cand = {ctx.jet_atom("u"): p0, ctx.jet_atom("u", "y"): E("u[yy]", ctx)}
    ext = extend_S_symmetry(st, cand)
    assert ext.apply_coord(ctx.jet_atom("u", "x")) == \
        eq.restricted_total_derivative(0, p0)
    # the y-tower entries are independent components, not D_y images
    assert ext.apply_coord(ctx.jet_atom("u", "y")) == E("u[yy]", ctx)
    assert ext.apply_coord(ctx.jet_atom("u", "yy")).is_zero()


def test_extension_rejects_x_dependence_on_wave_tower():
    ctx, eq = wave_equation()
    st = spatial_structure(eq, 1)
    cand = {ctx.jet_atom("u", "y"): ctx.var("u")}
    with pytest.raises(SSymmetryError, match=r"derivatives at u\[x,y\]: residual u\[x\]$"):
        extend_S_symmetry(st, cand)


def test_extension_rejects_divergent_eta(maxwell_built):
    eq, ctx = maxwell_built.eq, maxwell_built.ctx
    st = spatial_structure(eq, maxwell_built.temporal)
    cand = {ctx.jet_atom("F01"): ctx.var("F02")}
    with pytest.raises(SSymmetryError):
        extend_S_symmetry(st, cand)


def test_extension_accepts_divergence_free_eta(maxwell_built):
    eq, ctx = maxwell_built.eq, maxwell_built.ctx
    st = spatial_structure(eq, maxwell_built.temporal)
    cand = {
        ctx.jet_atom("F01"): E("A3[x2]", ctx),
        ctx.jet_atom("F02"): E("-A3[x1]", ctx),
    }
    ext = extend_S_symmetry(st, cand)
    # action on the eliminated coordinate follows the constraint
    spatial_div = eq.restricted_total_derivative(1, ext.apply_coord(ctx.jet_atom("F01")))
    assert spatial_div == ext.apply(E("-F02[x2] - F03[x3]", ctx))


def test_extension_commutes_with_spatial_derivatives(laplace):
    ctx, eq, st = laplace
    cand = {ctx.jet_atom("u"): E("u^2", ctx), ctx.jet_atom("u", "y"): E("x*u[y]", ctx)}
    ext = extend_S_symmetry(st, cand)
    for coord in internal_coordinates(eq, 3):
        e = ctx.expr(coord)
        lhs = ext.apply(eq.restricted_total_derivative(0, e))
        rhs = eq.restricted_total_derivative(0, ext.apply(e))
        assert lhs == rhs


def test_gauge_trivial_zero(laplace):
    ctx, eq, st = laplace
    assert is_gauge_trivial(st, DifferentialForm.zero(ctx))


def test_laplace_contraction_display_and_criterion(laplace):
    ctx, eq, st = laplace
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    rep = internal_lagrangian(lag, eq)
    omega = s_presymplectic_representative(
        st.temporal, eq.restricted_exterior_derivative(rep.form))
    phi, chi = E("u*u[x]", ctx), E("u[y]^2", ctx)
    cand = {ctx.jet_atom("u"): phi, ctx.jet_atom("u", "y"): chi}
    ext = extend_S_symmetry(st, cand)
    got = ext.contract(omega)
    assert got == chi * F("theta(u)*d(x)", ctx) - phi * F("theta(u[y])*d(x)", ctx)
    assert not is_gauge_trivial(st, reduce_mod_S2(st.temporal, got))


def test_gauge_trivial_horizontal_divergence(laplace):
    ctx, eq, st = laplace
    # Dbar_x of something is trivial; u_y alone is not
    div = eq.restricted_total_derivative(0, E("u*u[y] + x*u", ctx))
    assert is_gauge_trivial(st, div * F("d(x)*d(y)", ctx))
    assert not is_gauge_trivial(st, F("u[y]*d(x)*d(y)", ctx))


def test_gauge_trivial_invariances_randomized(laplace):
    ctx, eq, st = laplace
    rng = random.Random(20260809)
    pool = [ctx.base_atom("x"), ctx.jet_atom("u"), ctx.jet_atom("u", "x"),
            ctx.jet_atom("u", "y"), ctx.jet_atom("u", "xy")]
    from helpers import random_expression
    base_forms = [
        F("u[x]*theta(u)*d(x)", ctx),
        F("d(x)*d(y)", ctx) * E("u*u[x]", ctx),
        F("theta(u[y])*d(x)", ctx) * E("u[y]", ctx),
    ]
    for trial in range(40):
        omega = base_forms[trial % len(base_forms)]
        verdict = is_gauge_trivial(st, reduce_mod_S2(st.temporal, omega))
        # adding spatial-degree >= 2 junk must not change the verdict
        junk = random_expression(rng, ctx, pool) * F("theta(u)*theta(u[x])", ctx) \
            + random_expression(rng, ctx, pool) * F("theta(u[y])*d(y)", ctx)
        with_junk = reduce_mod_S2(st.temporal, omega + junk)
        assert is_gauge_trivial(st, with_junk) == verdict
        # adding d of a spatial-ideal 1-form must not change the verdict
        f = random_expression(rng, ctx, pool)
        rho = f * F("theta(u)", ctx)
        d_rho = eq.restricted_exterior_derivative(rho)
        perturbed = reduce_mod_S2(st.temporal, omega + d_rho)
        assert is_gauge_trivial(st, perturbed) == verdict


def test_gauge_trivial_exact_on_wave_tower():
    # d(f theta_{u_y}) leaves a divergence residue on a spatially constant
    # generator; the oracle must still call it trivial
    ctx, eq = wave_equation()
    st = spatial_structure(eq, 1)
    for f_text in ("u*u[y]", "x*u[y]", "u[x]^2"):
        rho = E(f_text, ctx) * F("theta(u[y])", ctx)
        d_rho = eq.restricted_exterior_derivative(rho)
        assert is_gauge_trivial(st, reduce_mod_S2(st.temporal, d_rho))


def test_constrained_residue_refuses_whatever_the_free_residues(maxwell_built):
    """On Maxwell, theta(F02) lies on a constrained family and the resolution
    cancels it against the free potential residues: the form is trivial with
    the resolution, and without it the decision is refused, not answered
    nontrivial at the first free residue."""
    ctx, eq = maxwell_built.ctx, maxwell_built.eq
    structure = spatial_structure(eq, maxwell_built.temporal)
    omega = F("A0*d(x1)*d(x2)*d(x3)*(theta(F02) + theta(r12[x1]) - theta(r23[x3]))", ctx, eq)
    with pytest.raises(UnresolvedConstraint, match="F02"):
        is_gauge_trivial(structure, omega)
    assert is_gauge_trivial(structure, omega, maxwell_built.resolution)


def test_resolution_pullback_matches_split_and_substitute_oracle(maxwell_built):
    """Pulled back through Maxwell's resolution and read as stored, a normal
    form has the horizontal coefficient the oracle finds and each theta
    coefficient the oracle's times (-1)^(n-1): vol_s ^ theta, not
    theta ^ vol_s."""
    ctx, eq, t = maxwell_built.ctx, maxwell_built.eq, maxwell_built.temporal
    structure, resolution = spatial_structure(eq, t), maxwell_built.resolution
    vol = tuple(BaseVar(i) for i in range(ctx.n))
    vol_s = DifferentialForm(ctx, {vol[:t] + vol[t + 1:]: ctx.one()})
    (spatial_gens,) = vol_s.terms
    pool = [ctx.base_atom(x) for x in ctx.independents] + internal_coordinates(eq, 1)
    sign = (-1) ** (ctx.n - 1)
    rng = random.Random(20261019)
    substituted = 0
    for _ in range(30):
        omega = reduce_mod_S2(t, eq.restrict_form(
            random_form(rng, ctx, pool, 4) + vol_s.wedge(random_form(rng, ctx, pool, 1, 4))))
        horizontal, thetas = split_and_substitute_normal_form(structure, omega, resolution)
        pulled = resolution.pullback(omega)
        assert pulled.terms.get(vol, ctx.zero()) == horizontal
        assert all(gens[:-1] == spatial_gens for gens in pulled.terms if gens != vol)
        assert {gens[-1]: c for gens, c in pulled.terms.items() if gens != vol} == \
            {a: sign * b for a, b in thetas.items() if not b.is_zero()}
        substituted += pulled != omega
    assert substituted >= 10


def _gauge_outcome(structure, omega, resolution=None):
    """is_gauge_trivial's verdict, or the text of its refusal."""
    try:
        return is_gauge_trivial(structure, omega, resolution)
    except UnresolvedConstraint as exc:
        return str(exc)


def _theta_flipped(omega):
    """A reduced form with the sign of every theta term flipped."""
    return DifferentialForm(omega.ctx, {gens: -c if isinstance(gens[-1], JetCoord) else c
                                        for gens, c in omega.terms.items()})


def test_gauge_verdicts_do_not_read_the_sign_of_the_theta_part(all_built):
    """Each theta residue is tested on its own and the horizontal part
    apart, so flipping every theta term of a reduced form changes no verdict
    and no refusal: every fixture candidate (n = 2 and 4), with and without
    the resolution."""
    outcomes = set()
    for name, built in all_built.items():
        structure = spatial_structure(built.eq, built.temporal)
        sigma = s_presymplectic_representative(
            built.temporal, internal_lagrangian(built.lagrangian, built.eq).presymplectic)
        for cname, cand in built.candidates.items():
            if not _extends(structure, cand):
                continue
            omega = reduce_mod_S2(built.temporal, extend_S_symmetry(structure, cand).contract(sigma))
            for resolution in {None, built.resolution}:
                outcome = _gauge_outcome(structure, omega, resolution)
                assert _gauge_outcome(structure, _theta_flipped(omega), resolution) == outcome, \
                    (name, cname, resolution)
                outcomes.add(outcome if isinstance(outcome, bool) else "refused")
    assert outcomes == {True, False, "refused"}


def test_gauge_verdicts_do_not_read_the_sign_of_the_theta_part_on_random_systems():
    """The same at n = 3, on seeded random systems in the frame t, on random
    reduced forms and on reduced exact forms."""
    rng = random.Random(20261019)
    outcomes, systems = set(), 0
    while systems < 20:
        eq = _random_integrable_system(rng)
        if eq is None:
            continue
        systems += 1
        ctx, structure = eq.ctx, SpatialStructure(eq, 0)
        pool = [ctx.base_atom("x")] + internal_coordinates(eq, 1)
        vol_s = DifferentialForm(ctx, {(BaseVar(1), BaseVar(2)): ctx.one()})
        for _ in range(3):
            forms = (random_form(rng, ctx, pool, 3) + vol_s.wedge(random_form(rng, ctx, pool, 1, 3)),
                     eq.restricted_exterior_derivative(random_form(rng, ctx, pool, 2)))
            for form in forms:
                omega = reduce_mod_S2(0, eq.restrict_form(form))
                outcome = _gauge_outcome(structure, omega)
                assert _gauge_outcome(structure, _theta_flipped(omega)) == outcome, omega
                outcomes.add(outcome if isinstance(outcome, bool) else "refused")
    assert outcomes == {True, False, "refused"}


def test_unresolved_constraint_refused(maxwell_built):
    eq, ctx = maxwell_built.eq, maxwell_built.ctx
    st = spatial_structure(eq, maxwell_built.temporal)
    omega = F("theta(F02)*d(x1)*d(x2)*d(x3)", ctx) * ctx.var("A1")
    with pytest.raises(UnresolvedConstraint):
        is_gauge_trivial(st, omega, resolution=None)
    # with the bundled resolution the verdict is decidable
    assert not is_gauge_trivial(st, omega, maxwell_built.resolution)


def test_gauge_trivial_rejects_resolution_of_other_equation_or_frame(maxwell_built):
    eq, ctx = maxwell_built.eq, maxwell_built.ctx
    res = maxwell_built.resolution
    omega = F("theta(F02)*d(x1)*d(x2)*d(x3)", ctx) * ctx.var("A1")
    with pytest.raises(ValueError, match="different equation or frame"):
        is_gauge_trivial(spatial_structure(eq, 1), omega, res)
    twin = SolvedEquation(ctx, list(zip(eq.heads, eq.rhs)))
    with pytest.raises(ValueError, match="different equation or frame"):
        is_gauge_trivial(spatial_structure(twin, maxwell_built.temporal), omega, res)


def test_gauge_symmetry_rejects_rep_of_other_equation(laplace):
    ctx, eq, st = laplace
    _, other_eq = laplace_equation(ctx)
    rep = internal_lagrangian(Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx)), other_eq)
    ext = extend_S_symmetry(st, {ctx.jet_atom("u"): ctx.zero()})
    with pytest.raises(ValueError, match="different equation"):
        is_gauge_symmetry(rep, ext)


def test_gauge_symmetry_wave_family():
    ctx, eq = wave_equation()
    st = spatial_structure(eq, 1)
    lag = Lagrangian(ctx, E("-(u[x]*u[y])/2", ctx))
    rep = internal_lagrangian(lag, eq)
    ctx.declare_opaque("q0", [ctx.atom("y"), ctx.jet_atom("u", "y")])
    good = {ctx.jet_atom("u"): ctx.expr(ctx.atom("q0")),
            ctx.jet_atom("u", "y"): E("u[yy]^2", ctx)}
    assert is_gauge_symmetry(rep, extend_S_symmetry(st, good))
    bad = {ctx.jet_atom("u"): E("u[x]", ctx)}
    assert not is_gauge_symmetry(rep, extend_S_symmetry(st, bad))


def test_gauge_symmetry_zero_characteristic(laplace):
    ctx, eq, st = laplace
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    rep = internal_lagrangian(lag, eq)
    zero = {ctx.jet_atom("u"): ctx.zero()}
    assert is_gauge_symmetry(rep, extend_S_symmetry(st, zero))


def test_spatial_gradient_examples(laplace):
    ctx, eq, st = laplace
    # explicit potential
    chi = {0: eq.restricted_total_derivative(0, E("u^2", ctx))}
    assert is_spatial_gradient(st, chi)
    assert is_spatial_gradient(st, {0: ctx.zero()})


def test_spatial_gradient_curl_detected(maxwell_built):
    eq, ctx = maxwell_built.eq, maxwell_built.ctx
    st = spatial_structure(eq, maxwell_built.temporal)
    good = {i: eq.restricted_total_derivative(i, E("F01 + A2^2", ctx))
            for i in st.spatial}
    assert is_spatial_gradient(st, good)
    bad = dict(good)
    bad[1] = bad[1] + ctx.var("A2")
    # oracle: the curl component Dbar_2 chi_1 - Dbar_1 chi_2 is A2_{x2} != 0
    assert not is_spatial_gradient(st, bad)


def test_resolution_validates(maxwell_built):
    maxwell_built.resolution.verify()


def test_resolution_violation_detected(maxwell_built):
    ctx, eq = maxwell_built.ctx, maxwell_built.eq
    bogus = {
        ctx.dependent_index("F01"): E("r12[x2]", ctx),
        ctx.dependent_index("F02"): E("r12[x1]", ctx),  # wrong sign: not antisymmetric
        ctx.dependent_index("F03"): ctx.zero(),
    }
    with pytest.raises(UnsupportedExpression):
        ConstraintResolution(spatial_structure(eq, maxwell_built.temporal), bogus)


def test_resolve_on_one_spatial_direction_refused(wave_built, tmp_path, capsys):
    # one spatial direction has no antisymmetric potentials: the resolve
    # would substitute 0 for u and make every gauge verdict trivial
    with pytest.raises(UnresolvedConstraint, match="at least two spatial directions"):
        spatial.antisymmetric_potential_resolution(
            spatial_structure(wave_built.eq, wave_built.temporal), [0], {})
    target = tmp_path / "wave_resolve.jv"
    target.write_text(fixture_text("wave") + "resolve u = antisym_potential(r)\n",
                      encoding="utf-8")
    assert cli_main(["gauge-check", str(target)]) == 2
    out = capsys.readouterr().out
    assert "[REFUSED] antisymmetric potentials need a frame with at least two " \
           "spatial directions; this frame has 1\n" in out
    assert "gauge[Ybad]" not in out


_FREE_FAMILIES = """independents t x y
dependents a b r12
equation a[t] = 0
equation b[t] = 0
lagrangian a*b[t]
spatial t
candidate K { a -> y; b -> x }
expect gauge[K] = nontrivial
"""


def test_resolve_on_free_families_refused(tmp_path, capsys):
    # a and b carry no constraint, so substituting potentials for them
    # narrows their solutions and flips gauge[K] to trivial
    target = tmp_path / "free.jv"
    target.write_text(_FREE_FAMILIES, encoding="utf-8")
    assert cli_main(["check", str(target)]) == 0
    assert "[PASS] gauge[K]" in capsys.readouterr().out
    target.write_text(_FREE_FAMILIES + "resolve a b = antisym_potential(r)\n", encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    out = capsys.readouterr().out
    assert "[REFUSED] resolve target family of a is free, not constrained" in out
    assert "gauge[K]" not in out


def test_resolve_of_targets_with_no_minimal_head_refused(tmp_path, capsys):
    # c[x] = a + b names a and b, so both families are constrained, yet
    # neither has a head of its own: no divergence relation to resolve
    target = tmp_path / "headless.jv"
    target.write_text("independents t x y\ndependents a b c r12\nequation c[x] = a + b\n"
                      "spatial t\nresolve a b = antisym_potential(r)\n", encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    assert capsys.readouterr().out.splitlines()[1] == (
        "[REFUSED] resolve target family of a has no minimal head; antisymmetric "
        "potentials resolve only the relation sum_i D_i(target_i) = 0, targets in "
        "spatial order")


def test_resolve_of_a_constraint_other_than_the_divergence_refused(tmp_path, capsys):
    # D_x(a_x + b_y) = 0 leaves a_x + b_y = g(y); the potentials a = r_y,
    # b = -r_x satisfy it but give only g = 0, and flipped gauge[K] to trivial
    target = tmp_path / "narrowed.jv"
    target.write_text(_FREE_FAMILIES.replace("lagrangian", "equation a[xx] = -b[xy]\nlagrangian")
                      + "resolve a b = antisym_potential(r)\n", encoding="utf-8")
    assert cli_main(["check", str(target)]) == 2
    out = capsys.readouterr().out
    assert "[REFUSED] resolve target family of a has minimal head a[x,x] = -b[x,y]; " \
           "antisymmetric potentials resolve only the relation" in out
    assert "gauge[K]" not in out
