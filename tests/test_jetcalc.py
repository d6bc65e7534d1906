import random

import pytest

from hypothesis import given, settings, strategies as st

from jetvar import (
    EvolutionaryField,
    apply_evolutionary,
    euler_derivative,
    linearization,
    total_derivative,
    total_derivative_multi,
)
from jetvar.errors import UnsupportedExpression
from jetvar.symexpr import FnPartial, MultiIndex, partial

from helpers import E, context2, default_pool, random_expression


@pytest.fixture
def ctx():
    return context2()


def test_leibniz_example(ctx):
    assert total_derivative(ctx, 0, E("u*u[x]", ctx)) == E("u[x]^2 + u*u[xx]", ctx)


def test_base_coordinate(ctx):
    assert total_derivative(ctx, 0, ctx.var("x")) == ctx.one()
    assert total_derivative(ctx, 0, ctx.var("y")).is_zero()


def test_chain_rule_opaque(ctx):
    # hand oracle: D_y h(y, u_y) = h_{;1} + h_{;2} u_yy
    sig = ctx.opaque_signature("h")
    expected = ctx.expr(FnPartial("h", sig, (1,))) + \
        ctx.expr(FnPartial("h", sig, (2,))) * ctx.jet("u", "yy")
    assert total_derivative(ctx, 1, E("h(y, u[y])", ctx)) == expected


def test_multi_mixed(ctx):
    alpha = ctx.multi_index("xy")
    assert total_derivative_multi(ctx, alpha, ctx.var("u")) == E("u[xy]", ctx)


def test_multi_second_order_oracle(ctx):
    # expand D_x twice by hand
    once = total_derivative(ctx, 0, E("u^2", ctx))
    assert total_derivative(ctx, 0, once) == E("2*u[x]^2 + 2*u*u[xx]", ctx)
    assert total_derivative_multi(ctx, ctx.multi_index("xx"), E("u^2", ctx)) == \
        E("2*u[x]^2 + 2*u*u[xx]", ctx)


def test_multi_empty(ctx):
    e = E("u*u[x] + y", ctx)
    assert total_derivative_multi(ctx, MultiIndex.zero(), e) == e


def test_euler_laplace(ctx):
    lam = E("-(u[x]^2 + u[y]^2)/2", ctx)
    assert euler_derivative(ctx, lam, 0) == E("u[xx] + u[yy]", ctx)


def test_euler_kills_divergence(ctx):
    e = E("u*u[x]^2 + x*u[y]", ctx)
    div = total_derivative(ctx, 0, e)
    assert euler_derivative(ctx, div, 0).is_zero()
    assert euler_derivative(ctx, div, 1).is_zero()


def test_euler_pkdv():
    from jetvar import JetContext
    ctx = JetContext(["t", "x"], ["u"])
    lam = E("u[x]*u[t]/2 - u[x]^3 + u[xx]^2/2", ctx)
    got = euler_derivative(ctx, lam, 0)
    # oracle: -D_x applied to the solved pKdV residual u_t - 3 u_x^2 - u_xxx
    residual = E("u[t] - 3*u[x]^2 - u[xxx]", ctx)
    assert got == -total_derivative(ctx, 1, residual)


def _euler_oracle(ctx, lam, k):
    """The direct sum (-1)^|alpha| D_alpha(d lam / d u^k_alpha)."""
    out = ctx.zero()
    for atom in lam.jet_atoms(dep=k):
        sign = -1 if atom.mindex.order % 2 else 1
        out = out + sign * total_derivative_multi(ctx, atom.mindex, partial(lam, atom))
    return out


def test_euler_matches_direct_sum_on_random_densities():
    from jetvar import JetContext
    ctx = JetContext(["x", "y"], ["u", "v"])
    pool = default_pool(ctx) + [ctx.jet_atom(dep, spec) for dep, spec in (
        ("u", "yy"), ("u", "xxy"), ("v", "yyy"), ("v", "xxyy"))]
    rng = random.Random(20260809)
    for _ in range(100):
        lam = random_expression(rng, ctx, pool, max_terms=4, max_factors=3)
        for k in range(ctx.m):
            assert euler_derivative(ctx, lam, k) == _euler_oracle(ctx, lam, k)


def test_euler_rejects_opaque_of_varied(ctx):
    e = E("h(y, u[y])*u[x]", ctx)
    with pytest.raises(UnsupportedExpression):
        euler_derivative(ctx, e, 0)
    # varying v is fine: h only involves u-jets
    assert euler_derivative(ctx, e, 1).is_zero()


def test_evolutionary_defining_action(ctx):
    phi = EvolutionaryField(ctx, (E("u*u[y]", ctx), ctx.zero()))
    coord = E("u[xy]", ctx)
    expected = total_derivative_multi(ctx, ctx.multi_index("xy"), E("u*u[y]", ctx))
    assert apply_evolutionary(phi, coord) == expected


def test_evolutionary_vertical(ctx):
    phi = EvolutionaryField(ctx, (ctx.var("u"), ctx.zero()))
    assert apply_evolutionary(phi, ctx.var("x")).is_zero()


def test_evolutionary_on_density(ctx):
    phi = EvolutionaryField(ctx, (E("u[x]", ctx), ctx.zero()))
    assert apply_evolutionary(phi, E("u[x]^2/2", ctx)) == E("u[x]*u[xx]", ctx)


def test_linearization_example(ctx):
    phi = EvolutionaryField(ctx, (E("u[x]", ctx), ctx.zero()))
    out = linearization([E("u[xy]", ctx)], phi)
    assert out == [E("u[xxy]", ctx)]


def test_linearization_of_linear_operator(ctx):
    F = E("u[xx] + 2*u[y] - 3*u", ctx)
    phi = EvolutionaryField(ctx, (ctx.var("u"), ctx.zero()))
    assert linearization([F], phi) == [F]


def test_linearization_constant_shift_laplace(ctx):
    F = E("u[yy] + u[xx]", ctx)
    phi = EvolutionaryField(ctx, (ctx.one(), ctx.zero()))
    assert linearization([F], phi)[0].is_zero()


# -- randomized properties ------------------------------------------------------

_CTX = context2()
_POOL = default_pool(_CTX)


def _exprs():
    mono = st.lists(st.tuples(st.sampled_from(_POOL), st.integers(1, 2)),
                    min_size=0, max_size=2)
    term = st.tuples(st.integers(-3, 3), mono)

    def assemble(terms):
        e = _CTX.zero()
        for coeff, factors in terms:
            t = _CTX.const(coeff)
            for atom, p in factors:
                t = t * _CTX.expr(atom) ** p
            e = e + t
        return e

    return st.lists(term, min_size=1, max_size=3).map(assemble)


@settings(max_examples=100, derandomize=True)
@given(_exprs())
def test_total_derivatives_commute(e):
    dxy = total_derivative(_CTX, 1, total_derivative(_CTX, 0, e))
    dyx = total_derivative(_CTX, 0, total_derivative(_CTX, 1, e))
    assert dxy == dyx


@settings(max_examples=100, derandomize=True)
@given(_exprs(), _exprs())
def test_leibniz_rule(a, b):
    for i in range(2):
        lhs = total_derivative(_CTX, i, a * b)
        rhs = total_derivative(_CTX, i, a) * b + a * total_derivative(_CTX, i, b)
        assert lhs == rhs


@settings(max_examples=60, derandomize=True)
@given(_exprs(), _exprs())
def test_evolutionary_commutes_with_total(e, comp):
    phi = EvolutionaryField(_CTX, (comp, _CTX.zero()))
    for i in range(2):
        lhs = apply_evolutionary(phi, total_derivative(_CTX, i, e))
        rhs = total_derivative(_CTX, i, apply_evolutionary(phi, e))
        assert lhs == rhs
