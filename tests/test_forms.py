import pytest

from jetvar import (
    DifferentialForm,
    EvolutionaryField,
    JetContext,
    cartan_degree_filter,
    contract_evolutionary,
    exterior_derivative,
    horizontal_differential,
    lie_derivative_evolutionary,
    volume_form,
    wedge,
)
from jetvar.errors import DegreeError
from jetvar.forms import cartan_degree

from helpers import (
    E,
    F,
    all_directions_exterior_derivative,
    context2,
    default_pool,
    random_form,
    volume_contraction,
)

import random


@pytest.fixture
def ctx():
    return context2()


def test_wedge_square_vanishes(ctx):
    dx = F("d(x)", ctx)
    assert dx.wedge(dx).is_zero()


def test_wedge_anticommutes(ctx):
    th, dx = F("theta(u)", ctx), F("d(x)", ctx)
    assert th.wedge(dx) == -(dx.wedge(th))


def test_wedge_coefficient_linearity(ctx):
    assert F("(u*d(x))*theta(u)", ctx) == ctx.var("u") * F("d(x)*theta(u)", ctx)


def test_exterior_derivative_of_coordinate(ctx):
    got = exterior_derivative(F("u", ctx))
    assert got == F("u[x]*d(x) + u[y]*d(y) + theta(u)", ctx)


def test_exterior_derivative_structure_equation(ctx):
    # hand oracle: d(du - u_x dx - u_y dy) = dx ^ theta_x + dy ^ theta_y
    got = exterior_derivative(F("theta(u)", ctx))
    assert got == F("d(x)*theta(u[x]) + d(y)*theta(u[y])", ctx)


def test_dd_zero_on_samples(ctx):
    for text in ("u", "u*u[x]", "h(y, u[y])", "u*theta(u[x]) + x*d(y)",
                 "u[xy]*d(x)*theta(u)"):
        form = F(text, ctx)
        assert exterior_derivative(exterior_derivative(form)).is_zero()


def test_horizontal_differential_oracle(ctx):
    # d_h(u dx) = D_y(u) dy ^ dx = -u_y dx ^ dy
    assert horizontal_differential(F("u*d(x)", ctx)) == F("-u[y]*d(x)*d(y)", ctx)


def test_horizontal_differential_squares_to_zero(ctx):
    form = F("u*u[x]*d(x) + h(y, u[y])*d(y)", ctx)
    assert horizontal_differential(horizontal_differential(form)).is_zero()


def test_horizontal_differential_simple(ctx):
    assert horizontal_differential(F("x*d(y)", ctx)) == F("d(x)*d(y)", ctx)


def test_horizontal_differential_rejects_contact_part(ctx):
    with pytest.raises(DegreeError):
        horizontal_differential(F("theta(u)", ctx))


def _field(ctx, *texts):
    return EvolutionaryField(ctx, tuple(E(t, ctx) for t in texts))


def test_contract_defining_action(ctx):
    phi = _field(ctx, "u*u[y]", "0")
    assert contract_evolutionary(phi, F("theta(u)", ctx)) == \
        DifferentialForm.scalar(E("u*u[y]", ctx))


def test_contract_kills_horizontal(ctx):
    phi = _field(ctx, "u", "v")
    assert contract_evolutionary(phi, F("d(x)", ctx)).is_zero()


def test_contract_antiderivation_oracle(ctx):
    # E_phi _| (theta_x ^ theta_0 ^ dx) = D_x(phi) theta_0 ^ dx - phi theta_x ^ dx
    phi = _field(ctx, "u*u[x]", "0")
    from jetvar import total_derivative
    dphi = total_derivative(ctx, 0, E("u*u[x]", ctx))
    got = contract_evolutionary(phi, F("theta(u[x])*theta(u)*d(x)", ctx))
    expected = dphi * F("theta(u)*d(x)", ctx) - E("u*u[x]", ctx) * F("theta(u[x])*d(x)", ctx)
    assert got == expected


def test_lie_derivative_kills_dx(ctx):
    phi = _field(ctx, "u[x]", "0")
    assert lie_derivative_evolutionary(phi, F("d(x)", ctx)).is_zero()


def test_lie_derivative_preserves_cartan_ideal(ctx):
    phi = _field(ctx, "u*u[y]", "u[x]")
    for text in ("theta(u)", "theta(u[x])", "u*theta(u[y])", "theta(u)*d(x)",
                 "theta(v)*theta(u)"):
        out = lie_derivative_evolutionary(phi, F(text, ctx))
        assert cartan_degree_filter(out, 1) == out


def test_cartan_filter_term_count(ctx):
    form = F("theta(u[x])*theta(u)*d(y) + theta(u)*d(x)*d(y)", ctx)
    assert cartan_degree_filter(form, 2) == F("theta(u[x])*theta(u)*d(y)", ctx)


def test_cartan_filter_horizontal(ctx):
    assert cartan_degree_filter(F("d(x)*d(y)", ctx), 1).is_zero()


def test_cartan_filter_composes(ctx):
    form = F("theta(u)*theta(v) + u*theta(u)*d(x) + d(x)*d(y)", ctx)
    for p in range(3):
        for q in range(3):
            assert cartan_degree_filter(cartan_degree_filter(form, p), q) == \
                cartan_degree_filter(form, max(p, q))


def test_volume_contraction_signs(ctx):
    vol = volume_form(ctx)
    dx, dy = F("d(x)", ctx), F("d(y)", ctx)
    assert dx.wedge(volume_contraction(ctx, 0)) == vol
    assert dy.wedge(volume_contraction(ctx, 1)) == vol


def test_mixed_degree_rejected(ctx):
    form = F("d(x) + d(x)*d(y)", ctx)
    with pytest.raises(DegreeError):
        form.degree


# -- randomized properties ----------------------------------------------------

_CTX = context2()
_POOL = default_pool(_CTX)


def test_dd_zero_randomized():
    rng = random.Random(7)
    for _ in range(120):
        degree = rng.randint(0, 3)
        form = random_form(rng, _CTX, _POOL, degree)
        assert exterior_derivative(exterior_derivative(form)).is_zero()


def test_exterior_derivative_matches_all_directions_randomized():
    # d builds only the directions a term lacks; building every direction and
    # letting the wedge drop the repeats must give the same form
    rng = random.Random(12)
    ctx3 = JetContext(["t", "x", "y"], ["u"])
    for ctx, pool in ((_CTX, _POOL), (ctx3, default_pool(ctx3))):
        for _ in range(80):
            form = random_form(rng, ctx, pool, rng.randint(0, ctx.n + 1), max_terms=3)
            d = exterior_derivative(form)
            assert d == all_directions_exterior_derivative(form)
            assert exterior_derivative(d).is_zero()


def test_graded_leibniz_randomized():
    rng = random.Random(8)
    for _ in range(120):
        p = rng.randint(0, 2)
        a = random_form(rng, _CTX, _POOL, p)
        b = random_form(rng, _CTX, _POOL, rng.randint(0, 2))
        lhs = exterior_derivative(a.wedge(b))
        sign = -1 if p % 2 else 1
        rhs = exterior_derivative(a).wedge(b) + sign * a.wedge(exterior_derivative(b))
        assert lhs == rhs


def test_contraction_squares_to_zero_randomized():
    rng = random.Random(9)
    phi = _field(_CTX, "u*u[y]", "v")
    for _ in range(120):
        form = random_form(rng, _CTX, _POOL, rng.randint(1, 3))
        once = contract_evolutionary(phi, form)
        assert contract_evolutionary(phi, once).is_zero()


def test_wedge_graded_anticommutative_randomized():
    rng = random.Random(10)
    for _ in range(120):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        a = random_form(rng, _CTX, _POOL, p)
        b = random_form(rng, _CTX, _POOL, q)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == sign * wedge(b, a)


def test_cartan_degree_subadditive_randomized():
    rng = random.Random(11)
    for _ in range(60):
        a = random_form(rng, _CTX, _POOL, rng.randint(1, 2))
        b = random_form(rng, _CTX, _POOL, rng.randint(1, 2))
        pa = min((cartan_degree(g) for g in a.terms), default=0)
        pb = min((cartan_degree(g) for g in b.terms), default=0)
        w = wedge(a, b)
        assert cartan_degree_filter(w, pa + pb) == w
