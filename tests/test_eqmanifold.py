import pytest

from jetvar import (
    EvolutionaryField,
    SolvedEquation,
    cartan_degree_filter,
    total_derivative,
)
from jetvar.eqmanifold import iter_multi_indices
from jetvar.errors import ConsistencyError, OrientationError
from jetvar.symexpr import JetCoord, MultiIndex

from helpers import (
    E,
    F,
    context2,
    default_pool,
    laplace_equation,
    pkdv_equation,
    random_expression,
    random_form,
    wave_equation,
)

import random


def test_prolong_laplace_once():
    ctx, eq = laplace_equation()
    head = ctx.jet_atom("u", "yy")
    coord, rhs = eq.prolong_rule(head, ctx.multi_index("y"))
    assert coord == ctx.jet_atom("u", "yyy")
    # hand oracle: D_y(-u_xx) then normalize
    assert rhs == E("-u[xxy]", ctx)


def test_prolong_identity():
    ctx, eq = laplace_equation()
    head = ctx.jet_atom("u", "yy")
    coord, rhs = eq.prolong_rule(head, MultiIndex.zero())
    assert coord == head
    assert rhs == E("-u[xx]", ctx)


def test_prolong_wave_zero():
    ctx, eq = wave_equation()
    coord, rhs = eq.prolong_rule(ctx.jet_atom("u", "xy"), ctx.multi_index("x"))
    assert coord == ctx.jet_atom("u", "xxy")
    assert rhs.is_zero()


def test_restrict_laplace():
    ctx, eq = laplace_equation()
    assert eq.restrict(E("u[yy] + u[xx]", ctx)).is_zero()


def test_restrict_internal_untouched():
    ctx, eq = laplace_equation()
    ux = E("u[x]", ctx)
    assert eq.restrict(ux) == ux


def test_restrict_maxwell_constraint(maxwell_built):
    ctx, eq = maxwell_built.ctx, maxwell_built.eq
    got = eq.restrict(E("F01[x1]", ctx))
    assert got == E("-F02[x2] - F03[x3]", ctx)


def test_restrict_form_principal_theta():
    ctx, eq = laplace_equation()
    assert eq.restrict_form(F("theta(u[yy])", ctx)) == F("-theta(u[xx])", ctx)


def test_restrict_form_horizontal_untouched():
    ctx, eq = laplace_equation()
    dx = F("d(x)", ctx)
    assert eq.restrict_form(dx) == dx


def test_restricted_derivative_laplace():
    ctx, eq = laplace_equation()
    assert eq.restricted_total_derivative(1, E("u[y]", ctx)) == E("-u[xx]", ctx)


def test_restricted_derivative_base():
    ctx, eq = laplace_equation()
    assert eq.restricted_total_derivative(0, ctx.var("x")) == ctx.one()


def test_restricted_derivative_pkdv():
    ctx, eq = pkdv_equation()
    assert eq.restricted_total_derivative(0, ctx.var("u")) == \
        E("3*u[x]^2 + u[xxx]", ctx)


def test_restricted_exterior_derivative_randomized():
    """d_E(omega) = d_E(omega|_E), it lives in internal coordinates, and
    d_E^2 = 0, for forms whose coefficients mention principal coordinates."""
    rng = random.Random(20261017)
    cases = [
        (laplace_equation, ("yy", "xyy")),
        (wave_equation, ("xy", "xxy")),
        (pkdv_equation, ("t", "tx")),
    ]
    for make, principal in cases:
        ctx, eq = make()
        pool = default_pool(ctx) + [ctx.jet_atom("u", spec) for spec in principal]
        for _ in range(20):
            omega = random_form(rng, ctx, pool, rng.randint(0, 2))
            d_omega = eq.restricted_exterior_derivative(omega)
            assert d_omega == eq.restricted_exterior_derivative(eq.restrict_form(omega))
            for gens, coeff in d_omega.terms.items():
                assert all(eq.is_internal(a) for a in coeff.jet_atoms())
                assert all(eq.is_internal(JetCoord(g.index, g.mindex))
                           for g in gens if g.is_theta())
            assert eq.restricted_exterior_derivative(d_omega).is_zero()


def test_is_symmetry_translation():
    ctx, eq = laplace_equation()
    assert eq.is_symmetry(EvolutionaryField(ctx, (E("u[x]", ctx),)))


def test_is_symmetry_rejects_square():
    ctx, eq = laplace_equation()
    # oracle: Dbar_y^2(u^2) + Dbar_x^2(u^2) on the equation
    e = E("u^2", ctx)
    dyy = eq.restricted_total_derivative(1, eq.restricted_total_derivative(1, e))
    dxx = eq.restricted_total_derivative(0, eq.restricted_total_derivative(0, e))
    assert not (dyy + dxx).is_zero()
    assert not eq.is_symmetry(EvolutionaryField(ctx, (e,)))


def test_is_symmetry_pkdv_shift():
    ctx, eq = pkdv_equation()
    assert eq.is_symmetry(EvolutionaryField(ctx, (ctx.one(),)))


def test_orientation_rejected_head_in_rhs():
    from jetvar import JetContext
    ctx = JetContext(["x", "y"], ["u"])
    with pytest.raises(OrientationError):
        SolvedEquation(ctx, [(ctx.jet_atom("u", "x"), E("u[xx]", ctx))],
                       check_integrability=False)


def test_orientation_rejected_mutual_loop():
    from jetvar import JetContext
    ctx = JetContext(["x", "y"], ["u", "v"])
    with pytest.raises(OrientationError):
        SolvedEquation(ctx, [
            (ctx.jet_atom("u", "x"), E("v[y]", ctx)),
            (ctx.jet_atom("v", "y"), E("u[x]", ctx)),
        ], check_integrability=False)


def test_minimality_enforced():
    from jetvar import JetContext
    ctx = JetContext(["x", "y"], ["u"])
    with pytest.raises(OrientationError):
        SolvedEquation(ctx, [
            (ctx.jet_atom("u", "y"), E("u[x]", ctx)),
            (ctx.jet_atom("u", "yy"), E("u[xx]", ctx)),
        ], check_integrability=False)


def test_inconsistent_rules_caught():
    from jetvar import JetContext
    ctx = JetContext(["x", "y"], ["u"])
    with pytest.raises(ConsistencyError):
        SolvedEquation(ctx, [
            (ctx.jet_atom("u", "x"), ctx.var("u")),
            (ctx.jet_atom("u", "y"), ctx.var("y")),
        ], integrability_order=2)


def test_commutators_vanish_to_order_4(all_built):
    for built in all_built.values():
        built.eq.check_integrability(4)


def test_restrict_idempotent_and_homomorphism():
    ctx = context2()
    eq = SolvedEquation(ctx, [(ctx.jet_atom("u", "yy"), E("-u[xx]", ctx))])
    rng = random.Random(20260809)
    pool = default_pool(ctx) + [ctx.jet_atom("u", "yy"), ctx.jet_atom("u", "xyy")]
    for _ in range(200):
        a = random_expression(rng, ctx, pool)
        b = random_expression(rng, ctx, pool)
        ra, rb = eq.restrict(a), eq.restrict(b)
        assert eq.restrict(ra) == ra
        assert eq.restrict(a * b) == ra * rb
        assert eq.restrict(a + b) == ra + rb


def test_restrict_interchanges_with_total_derivative():
    ctx = context2()
    eq = SolvedEquation(ctx, [(ctx.jet_atom("u", "yy"), E("-u[xx]", ctx))])
    rng = random.Random(99)
    pool = default_pool(ctx) + [ctx.jet_atom("u", "yy")]
    for _ in range(100):
        e = random_expression(rng, ctx, pool)
        for i in range(2):
            assert eq.restrict(total_derivative(ctx, i, e)) == \
                eq.restricted_total_derivative(i, e)


def test_restrict_form_commutes_with_wedge_and_filter():
    ctx, eq = laplace_equation()
    a = F("u[yy]*theta(u[yy]) + u*d(x)", ctx)
    b = F("theta(u[y])*d(y) + u[x]*d(x)*theta(u)", ctx)
    lhs = eq.restrict_form(a.wedge(b))
    rhs = eq.restrict_form(a).wedge(eq.restrict_form(b))
    assert lhs == rhs
    for p in range(3):
        assert eq.restrict_form(cartan_degree_filter(a, p)) == \
            cartan_degree_filter(eq.restrict_form(a), p)


def test_iter_multi_indices_counts():
    found = list(iter_multi_indices(2, 3))
    assert len(found) == 10  # (3+2 choose 2)
    assert len(set(found)) == 10


def test_internal_coordinates_laplace():
    ctx, eq = laplace_equation()
    coords = eq.internal_coordinates(2)
    names = {ctx.atom_name(c) for c in coords}
    assert "u[y,y]" not in names
    assert {"u", "u[x]", "u[y]", "u[x,x]", "u[x,y]"} <= names


def test_rule_cache_thread_safety():
    import concurrent.futures
    ctx, eq = laplace_equation()
    coord = ctx.jet_atom("u", "yyyy")

    def worker(_):
        return eq.rule_for(coord)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(32)))
    assert all(r == results[0] for r in results)
    assert results[0] == E("u[xxxx]", ctx)
