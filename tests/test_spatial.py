import pytest

import random

from jetvar import (
    ConstraintResolution,
    JetContext,
    Lagrangian,
    SolvedEquation,
    SpatialFrame,
    SSymmetryCandidate,
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
from jetvar.forms import DifferentialForm
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
from jetvar.symexpr import JetCoord, MultiIndex, partial

from helpers import (
    E,
    F,
    direct_constraint_points,
    internal_coordinates,
    laplace_equation,
    pkdv_equation,
    random_expression,
    sampled_extension_commutes,
    sampled_resolution_holds,
    scan_statuses,
    wave_equation,
)


@pytest.fixture
def laplace():
    ctx, eq = laplace_equation()
    return ctx, eq, SpatialFrame(1)


def test_s_degree_counts(laplace):
    ctx, eq, frame = laplace
    high = F("theta(u[x])*theta(u)*d(y)", ctx)
    assert s_degree(frame, next(iter(high.terms))) == 3
    assert s_degree_filter(frame, high, 3) == high
    horizontal = F("d(x)*d(y)", ctx)
    assert s_degree(frame, next(iter(horizontal.terms))) == 1
    mid = F("theta(u[y])*theta(u)*d(x)", ctx)
    assert s_degree(frame, next(iter(mid.terms))) == 2
    assert s_degree_filter(frame, mid, 3).is_zero()


def test_reduce_mod_s2(laplace):
    ctx, eq, frame = laplace
    vol = F("d(x)*d(y)", ctx)
    assert reduce_mod_S2(frame, vol) == vol
    dropped = F("theta(u)*theta(u[y])", ctx)
    assert reduce_mod_S2(frame, dropped).is_zero()
    # t-frame over (t, x): theta ^ theta ^ dt has spatial degree 3
    ctx2, eq2 = pkdv_equation()
    f2 = SpatialFrame(0)
    assert reduce_mod_S2(f2, F("theta(u)*theta(u[x])", ctx2)).is_zero()


def test_s_presymplectic_wave():
    ctx, eq = wave_equation()
    frame = SpatialFrame(1)
    lag = Lagrangian(ctx, E("-(u[x]*u[y])/2", ctx))
    rep = internal_lagrangian(lag, eq)
    dl = eq.restricted_exterior_derivative(rep.form)
    assert s_presymplectic_representative(frame, dl) == \
        F("(theta(u[x])*theta(u)*d(x))/2", ctx)


def test_structure_classification_wave():
    ctx, eq = wave_equation()
    st = SpatialStructure(eq, SpatialFrame(1))
    assert st.status((0, MultiIndex.zero())) == "free"
    assert st.status((0, MultiIndex.single(1))) == "null"
    assert st.status((0, MultiIndex.single(1, 3))) == "null"


def test_structure_classification_maxwell(maxwell_built):
    eq, ctx, frame = maxwell_built.eq, maxwell_built.ctx, maxwell_built.frame
    st = SpatialStructure(eq, frame)
    a1 = (ctx.dependent_index("A1"), MultiIndex.zero())
    f01 = (ctx.dependent_index("F01"), MultiIndex.zero())
    f02 = (ctx.dependent_index("F02"), MultiIndex.zero())
    r12 = (ctx.dependent_index("r12"), MultiIndex.zero())
    assert st.status(a1) == "free"
    assert st.status(f01) == "constrained"
    assert st.status(f02) == "constrained"
    assert st.status(r12) == "free"
    a0_tower = (ctx.dependent_index("A0"), MultiIndex.single(0, 2))
    assert st.status(a0_tower) == "free"


def test_structure_built_once_per_equation_and_frame(laplace):
    ctx, eq, frame = laplace
    a = SSymmetryCandidate({ctx.jet_atom("u"): E("u[x]", ctx),
                            ctx.jet_atom("u", "y"): E("u[xy]", ctx)})
    b = SSymmetryCandidate({ctx.jet_atom("u"): E("u*u[y]", ctx),
                            ctx.jet_atom("u", "y"): E("u[x]^2", ctx)})
    shared = extend_S_symmetry(eq, frame, a).structure
    assert extend_S_symmetry(eq, frame, b).structure is shared
    assert spatial_structure(eq, frame) is shared
    assert spatial_structure(eq, SpatialFrame(0)) is not shared
    _, other_eq = laplace_equation(ctx)
    assert spatial_structure(other_eq, frame) is not shared
    direct = SpatialStructure(eq, frame)
    assert direct is not shared and direct.status((0, MultiIndex.zero())) == "free"


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


def _families(structure, top):
    """Families with an internal generator and temporal count at most top."""
    t = structure.frame.temporal
    return [fam for dep in range(structure.ctx.m) for k in range(top + 1)
            if structure.eq.is_internal(
                structure.generator_coord(fam := (dep, MultiIndex.single(t, k))))]


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
    return sorted((c.key(), j, str(rhs)) for c, j, rhs in points)


def test_constraint_points_match_direct_loop(all_built):
    """The minimal points read off the heads are the points, among those a
    probe of every spatial step finds, whose target is minimal in its
    family."""
    seen = 0
    for name, built in all_built.items():
        structure = spatial_structure(built.eq, built.frame)
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
        structure = SpatialStructure(built.eq, built.frame)
        scans = {}
        for fam in _families(structure, 4):
            order = fam[1].order + _highest_head_order(built.eq) + 1
            if order not in scans:
                scans[order] = scan_statuses(structure, order)
            assert structure.status(fam) == scans[order][fam], (text, fam)
            seen.add(structure.status(fam))
    assert seen == {"free", "null", "constrained"}


def test_tower_of_u_xx_eq_u_constrained_at_every_height():
    built = build(parse(_U_XX_EQ_U))
    structure = spatial_structure(built.eq, built.frame)
    for k in range(9):
        assert structure.status((0, MultiIndex.single(0, k))) == "constrained", k


@pytest.mark.parametrize("target, step", [("yyyy", "u[x,y,y,y,y]"), ("yy", "u[x,y,y]")])
def test_extension_refused_where_commutation_breaks_on_wave_tower(target, step):
    # the family of u[y^k] is null: its component may not see x
    ctx, eq = wave_equation()
    cand = SSymmetryCandidate({ctx.jet_atom("u", target): ctx.var("u")})
    with pytest.raises(SSymmetryError) as err:
        extend_S_symmetry(eq, SpatialFrame(1), cand)
    assert ctx.atom_name(err.value.coordinate) == step


def _extends(eq, frame, candidate):
    try:
        extend_S_symmetry(eq, frame, candidate)
    except SSymmetryError:
        return False
    return True


@pytest.fixture(scope="module")
def oracle_points(all_built):
    """Every constraint point to order 6 of each fixture's structure."""
    return {name: direct_constraint_points(spatial_structure(b.eq, b.frame), 6)
            for name, b in all_built.items()}


def test_extension_verdicts_match_sampled_check_on_fixture_candidates(all_built, oracle_points):
    for name, built in all_built.items():
        structure = spatial_structure(built.eq, built.frame)
        for cname, cand in built.candidates.items():
            assert _extends(built.eq, built.frame, cand) == sampled_extension_commutes(
                structure, cand, oracle_points[name]), (name, cname)


def _random_candidate(rng, structure, max_targets, **shape):
    """Components on up to max_targets generators of order <= 2, valued in
    the independents and the internal coordinates of order <= 2."""
    ctx = structure.ctx
    generators = [structure.generator_coord(fam) for fam in _families(structure, 2)]
    pool = [ctx.base_atom(x) for x in ctx.independents] + internal_coordinates(structure.eq, 2)
    targets = rng.sample(generators, rng.randint(1, min(max_targets, len(generators))))
    return SSymmetryCandidate({g: random_expression(rng, ctx, pool, **shape) for g in targets})


def test_extension_verdicts_match_sampled_check_on_random_candidates(all_built, oracle_points):
    rng = random.Random(20261018)
    for name, built in all_built.items():
        structure = spatial_structure(built.eq, built.frame)
        verdicts = []
        for _ in range(100):
            cand = _random_candidate(rng, structure, 3)
            verdict = _extends(built.eq, built.frame, cand)
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
        frame = SpatialFrame(0)
        structure = SpatialStructure(eq, frame)
        top = 2 + _highest_head_order(eq) + 1
        direct = direct_constraint_points(structure, top)
        for fam in _families(structure, 2):
            assert _point_keys(structure._minimal_points(fam)[0]) == _point_keys(
                _minimal_direct_points(structure, direct, fam))
            order = fam[1].order + _highest_head_order(eq) + 1
            assert structure.status(fam) == scan_statuses(structure, order)[fam]
            statuses.add(structure.status(fam))
        for _ in range(5):
            cand = _random_candidate(rng, structure, 2, max_terms=2)
            verdict = _extends(eq, frame, cand)
            assert verdict == sampled_extension_commutes(structure, cand, direct)
            verdicts.add(verdict)
    assert statuses == {"free", "null", "constrained"} and verdicts == {True, False}


def test_resolution_verdicts_match_sampled_check(maxwell_built, oracle_points):
    ctx, eq, frame = maxwell_built.ctx, maxwell_built.eq, maxwell_built.frame
    structure = spatial_structure(eq, frame)
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
            ConstraintResolution(eq, frame, subs)
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
    for atom in f.jet_atoms(dep=family[0]):
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
        frame = build(parse(fixture_text(name))).frame
        families = {}
        for eq, coords in touched:
            structure = spatial_structure(eq, frame)
            for coord in coords:
                families[structure.family_of(coord)] = structure
        assert families, name
        for family, structure in sorted(families.items(), key=lambda kv: repr(kv[0])):
            eq, ctx = structure.eq, structure.ctx
            order = family[1].order + 3
            pool = [c for c in internal_coordinates(eq, order)
                    if structure.family_of(c) == family]
            pool += [ctx.base_atom(x) for x in ctx.independents] + internal_coordinates(eq, 1)
            for _ in range(10):
                f = random_expression(rng, ctx, pool)
                assert structure.spatial_euler(f, family) == \
                    _spatial_euler_oracle(structure, f, family), (name, family, f)
                checked += 1
    assert checked >= 40


def test_extension_matches_display_laplace(laplace):
    ctx, eq, frame = laplace
    phi, chi = E("u*u[y]", ctx), E("u[x]^2", ctx)
    cand = SSymmetryCandidate({ctx.jet_atom("u"): phi, ctx.jet_atom("u", "y"): chi})
    ext = extend_S_symmetry(eq, frame, cand)
    assert ext.apply_coord(ctx.jet_atom("u", "x")) == \
        eq.restricted_total_derivative(0, phi)
    assert ext.apply_coord(ctx.jet_atom("u", "xy")) == \
        eq.restricted_total_derivative(0, chi)
    assert ext.apply_coord(ctx.jet_atom("u", "xx")) == \
        eq.restricted_total_derivative(0, eq.restricted_total_derivative(0, phi))


def test_extension_wave_tower():
    ctx, eq = wave_equation()
    frame = SpatialFrame(1)
    p0 = E("y*u[y]", ctx)
    cand = SSymmetryCandidate({ctx.jet_atom("u"): p0, ctx.jet_atom("u", "y"): E("u[yy]", ctx)})
    ext = extend_S_symmetry(eq, frame, cand)
    assert ext.apply_coord(ctx.jet_atom("u", "x")) == \
        eq.restricted_total_derivative(0, p0)
    # the y-tower entries are independent components, not D_y images
    assert ext.apply_coord(ctx.jet_atom("u", "y")) == E("u[yy]", ctx)
    assert ext.apply_coord(ctx.jet_atom("u", "yy")).is_zero()


def test_extension_rejects_x_dependence_on_wave_tower():
    ctx, eq = wave_equation()
    frame = SpatialFrame(1)
    cand = SSymmetryCandidate({ctx.jet_atom("u", "y"): ctx.var("u")})
    with pytest.raises(SSymmetryError) as err:
        extend_S_symmetry(eq, frame, cand)
    assert err.value.coordinate is not None


def test_extension_rejects_divergent_eta(maxwell_built):
    eq, ctx, frame = maxwell_built.eq, maxwell_built.ctx, maxwell_built.frame
    cand = SSymmetryCandidate({ctx.jet_atom("F01"): ctx.var("F02")})
    with pytest.raises(SSymmetryError):
        extend_S_symmetry(eq, frame, cand)


def test_extension_accepts_divergence_free_eta(maxwell_built):
    eq, ctx, frame = maxwell_built.eq, maxwell_built.ctx, maxwell_built.frame
    cand = SSymmetryCandidate({
        ctx.jet_atom("F01"): E("A3[x2]", ctx),
        ctx.jet_atom("F02"): E("-A3[x1]", ctx),
    })
    ext = extend_S_symmetry(eq, frame, cand)
    # action on the eliminated coordinate follows the constraint
    spatial_div = eq.restricted_total_derivative(1, ext.apply_coord(ctx.jet_atom("F01")))
    assert spatial_div == ext.apply(E("-F02[x2] - F03[x3]", ctx))


def test_extension_commutes_with_spatial_derivatives(laplace):
    ctx, eq, frame = laplace
    cand = SSymmetryCandidate({ctx.jet_atom("u"): E("u^2", ctx),
                               ctx.jet_atom("u", "y"): E("x*u[y]", ctx)})
    ext = extend_S_symmetry(eq, frame, cand)
    for coord in internal_coordinates(eq, 3):
        e = ctx.expr(coord)
        lhs = ext.apply(eq.restricted_total_derivative(0, e))
        rhs = eq.restricted_total_derivative(0, ext.apply(e))
        assert lhs == rhs


def test_gauge_trivial_zero(laplace):
    ctx, eq, frame = laplace
    assert is_gauge_trivial(frame, eq, DifferentialForm.zero(ctx))


def test_laplace_contraction_display_and_criterion(laplace):
    ctx, eq, frame = laplace
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    rep = internal_lagrangian(lag, eq)
    omega = s_presymplectic_representative(
        frame, eq.restricted_exterior_derivative(rep.form))
    phi, chi = E("u*u[x]", ctx), E("u[y]^2", ctx)
    cand = SSymmetryCandidate({ctx.jet_atom("u"): phi, ctx.jet_atom("u", "y"): chi})
    ext = extend_S_symmetry(eq, frame, cand)
    got = ext.contract(omega)
    assert got == chi * F("theta(u)*d(x)", ctx) - phi * F("theta(u[y])*d(x)", ctx)
    assert not is_gauge_trivial(frame, eq, reduce_mod_S2(frame, got))


def test_gauge_trivial_horizontal_divergence(laplace):
    ctx, eq, frame = laplace
    # Dbar_x of something is trivial; u_y alone is not
    div = eq.restricted_total_derivative(0, E("u*u[y] + x*u", ctx))
    assert is_gauge_trivial(frame, eq, div * F("d(x)*d(y)", ctx))
    assert not is_gauge_trivial(frame, eq, F("u[y]*d(x)*d(y)", ctx))


def test_gauge_trivial_invariances_randomized(laplace):
    ctx, eq, frame = laplace
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
        verdict = is_gauge_trivial(frame, eq, reduce_mod_S2(frame, omega))
        # adding spatial-degree >= 2 junk must not change the verdict
        junk = random_expression(rng, ctx, pool) * F("theta(u)*theta(u[x])", ctx) \
            + random_expression(rng, ctx, pool) * F("theta(u[y])*d(y)", ctx)
        with_junk = reduce_mod_S2(frame, omega + junk)
        assert is_gauge_trivial(frame, eq, with_junk) == verdict
        # adding d of a spatial-ideal 1-form must not change the verdict
        f = random_expression(rng, ctx, pool)
        rho = f * F("theta(u)", ctx)
        d_rho = eq.restricted_exterior_derivative(rho)
        perturbed = reduce_mod_S2(frame, omega + d_rho)
        assert is_gauge_trivial(frame, eq, perturbed) == verdict


def test_gauge_trivial_exact_on_wave_tower():
    # d(f theta_{u_y}) leaves a divergence residue on a spatially constant
    # generator; the oracle must still call it trivial
    ctx, eq = wave_equation()
    frame = SpatialFrame(1)
    for f_text in ("u*u[y]", "x*u[y]", "u[x]^2"):
        rho = E(f_text, ctx) * F("theta(u[y])", ctx)
        d_rho = eq.restricted_exterior_derivative(rho)
        assert is_gauge_trivial(frame, eq, reduce_mod_S2(frame, d_rho))


def test_unresolved_constraint_refused(maxwell_built):
    eq, ctx, frame = maxwell_built.eq, maxwell_built.ctx, maxwell_built.frame
    omega = F("theta(F02)*d(x1)*d(x2)*d(x3)", ctx) * ctx.var("A1")
    with pytest.raises(UnresolvedConstraint):
        is_gauge_trivial(frame, eq, omega, resolution=None)
    # with the bundled resolution the verdict is decidable
    assert not is_gauge_trivial(frame, eq, omega, maxwell_built.resolution)


def test_gauge_trivial_rejects_resolution_of_other_equation_or_frame(maxwell_built):
    eq, ctx, frame = maxwell_built.eq, maxwell_built.ctx, maxwell_built.frame
    res = maxwell_built.resolution
    omega = F("theta(F02)*d(x1)*d(x2)*d(x3)", ctx) * ctx.var("A1")
    with pytest.raises(ValueError, match="different equation or frame"):
        is_gauge_trivial(SpatialFrame(1), eq, omega, res)
    twin = SolvedEquation(ctx, list(zip(eq.heads, eq.rhs)))
    with pytest.raises(ValueError, match="different equation or frame"):
        is_gauge_trivial(frame, twin, omega, res)


def test_gauge_symmetry_rejects_rep_of_other_equation(laplace):
    ctx, eq, frame = laplace
    _, other_eq = laplace_equation(ctx)
    rep = internal_lagrangian(Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx)), other_eq)
    ext = extend_S_symmetry(eq, frame, SSymmetryCandidate({ctx.jet_atom("u"): ctx.zero()}))
    with pytest.raises(ValueError, match="different equation"):
        is_gauge_symmetry(rep, ext)


def test_gauge_symmetry_wave_family():
    ctx, eq = wave_equation()
    frame = SpatialFrame(1)
    lag = Lagrangian(ctx, E("-(u[x]*u[y])/2", ctx))
    rep = internal_lagrangian(lag, eq)
    ctx.declare_opaque("q0", [ctx.atom("y"), ctx.jet_atom("u", "y")])
    good = SSymmetryCandidate({ctx.jet_atom("u"): ctx.expr(ctx.atom("q0")),
                               ctx.jet_atom("u", "y"): E("u[yy]^2", ctx)})
    assert is_gauge_symmetry(rep, extend_S_symmetry(eq, frame, good))
    bad = SSymmetryCandidate({ctx.jet_atom("u"): E("u[x]", ctx)})
    assert not is_gauge_symmetry(rep, extend_S_symmetry(eq, frame, bad))


def test_gauge_symmetry_zero_characteristic(laplace):
    ctx, eq, frame = laplace
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    rep = internal_lagrangian(lag, eq)
    zero = SSymmetryCandidate({ctx.jet_atom("u"): ctx.zero()})
    assert is_gauge_symmetry(rep, extend_S_symmetry(eq, frame, zero))


def test_spatial_gradient_examples(laplace):
    ctx, eq, frame = laplace
    # explicit potential
    chi = {0: eq.restricted_total_derivative(0, E("u^2", ctx))}
    assert is_spatial_gradient(frame, eq, chi)
    assert is_spatial_gradient(frame, eq, {0: ctx.zero()})


def test_spatial_gradient_curl_detected(maxwell_built):
    eq, ctx, frame = maxwell_built.eq, maxwell_built.ctx, maxwell_built.frame
    good = {i: eq.restricted_total_derivative(i, E("F01 + A2^2", ctx))
            for i in frame.spatial_indices(ctx)}
    assert is_spatial_gradient(frame, eq, good)
    bad = dict(good)
    bad[1] = bad[1] + ctx.var("A2")
    # oracle: the curl component Dbar_2 chi_1 - Dbar_1 chi_2 is A2_{x2} != 0
    assert not is_spatial_gradient(frame, eq, bad)


def test_resolution_validates(maxwell_built):
    maxwell_built.resolution.verify()


def test_resolution_violation_detected(maxwell_built):
    ctx, eq, frame = maxwell_built.ctx, maxwell_built.eq, maxwell_built.frame
    bogus = {
        ctx.dependent_index("F01"): E("r12[x2]", ctx),
        ctx.dependent_index("F02"): E("r12[x1]", ctx),  # wrong sign: not antisymmetric
        ctx.dependent_index("F03"): ctx.zero(),
    }
    with pytest.raises(UnsupportedExpression):
        ConstraintResolution(eq, frame, bogus)


def test_resolve_on_one_spatial_direction_refused(wave_built, tmp_path, capsys):
    # one spatial direction has no antisymmetric potentials: the resolve
    # would substitute 0 for u and make every gauge verdict trivial
    with pytest.raises(UnresolvedConstraint, match="at least two spatial directions"):
        spatial.antisymmetric_potential_resolution(wave_built.eq, wave_built.frame, [0], {})
    target = tmp_path / "wave_resolve.jv"
    target.write_text(fixture_text("wave") + "resolve u = antisym_potential(r)\n",
                      encoding="utf-8")
    assert cli_main(["gauge-check", str(target)]) == 2
    out = capsys.readouterr().out
    assert "[REFUSED] antisymmetric potentials need a frame with at least two " \
           "spatial directions; this frame has 1\n" in out
    assert "gauge[Ybad]" not in out
