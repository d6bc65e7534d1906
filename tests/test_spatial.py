import pytest

import random

from jetvar import (
    Lagrangian,
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
from jetvar.errors import SSymmetryError, UnresolvedConstraint
from jetvar.forms import DifferentialForm
from jetvar.spatial import SpatialStructure, s_degree, spatial_structure
from jetvar.symexpr import MultiIndex

from helpers import E, F, laplace_equation, pkdv_equation, wave_equation


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
    for coord in eq.internal_coordinates(3):
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


def test_gauge_symmetry_wave_family():
    ctx, eq = wave_equation()
    frame = SpatialFrame(1)
    lag = Lagrangian(ctx, E("-(u[x]*u[y])/2", ctx))
    rep = internal_lagrangian(lag, eq)
    ctx.declare_opaque("q0", [ctx.atom("y"), ctx.jet_atom("u", "y")])
    good = SSymmetryCandidate({ctx.jet_atom("u"): ctx.expr(ctx.atom("q0")),
                               ctx.jet_atom("u", "y"): E("u[yy]^2", ctx)})
    assert is_gauge_symmetry(frame, eq, rep, good)
    bad = SSymmetryCandidate({ctx.jet_atom("u"): E("u[x]", ctx)})
    assert not is_gauge_symmetry(frame, eq, rep, bad)


def test_gauge_symmetry_zero_characteristic(laplace):
    ctx, eq, frame = laplace
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    rep = internal_lagrangian(lag, eq)
    zero = SSymmetryCandidate({ctx.jet_atom("u"): ctx.zero()})
    assert is_gauge_symmetry(frame, eq, rep, zero)


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
    maxwell_built.resolution.verify(maxwell_built.eq, maxwell_built.frame)


def test_resolution_violation_detected(maxwell_built):
    from jetvar import ConstraintResolution
    ctx, eq, frame = maxwell_built.ctx, maxwell_built.eq, maxwell_built.frame
    from jetvar.errors import UnsupportedExpression
    bogus = ConstraintResolution({
        ctx.dependent_index("F01"): E("r12[x2]", ctx),
        ctx.dependent_index("F02"): E("r12[x1]", ctx),  # wrong sign: not antisymmetric
        ctx.dependent_index("F03"): ctx.zero(),
    })
    with pytest.raises(UnsupportedExpression):
        bogus.verify(eq, frame)
