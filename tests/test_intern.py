"""Atom interning: results must not depend on the order in which a context
first sees its atoms, and the per-context D_i memo must agree with D_i
computed from its definition."""

import pytest

from hypothesis import given, settings, strategies as st

from jetvar import partial, substitute, total_derivative
from jetvar.errors import ContextMismatch
from jetvar.forms import exterior_derivative
from jetvar.symexpr import BaseVar, FnPartial, JetCoord, MultiIndex

from helpers import E, F, context2, default_pool


def _atom_list(ctx):
    atoms = default_pool(ctx)
    for dep in ctx.dependents:
        for spec in ("yy", "xxx", "xxy", "xyy", "yyy"):
            atoms.append(ctx.jet_atom(dep, spec))
    sig = ctx.opaque_signature("h")
    for derivs in ((1,), (2,), (1, 1), (1, 2), (2, 2)):
        atoms.append(FnPartial("h", sig, derivs))
    return atoms


def _interned(reverse: bool):
    ctx = context2()
    atoms = _atom_list(ctx)
    for a in reversed(atoms) if reverse else atoms:
        ctx.atom_id(a)
    return ctx


def _results(ctx) -> dict:
    a = E("u[x]*h(y, u[y]) + 2*v^2 - x*u[xy]/3", ctx)
    b = E("v[y] - u*u[x] + y^2", ctx)
    m = E("u[x]^2*v", ctx)
    omega = F("(u[x]*h(y, u[y]) - v^2)*d(x) + u*v[y]*theta(u[x])", ctx)
    return {
        "product": a * b,
        "sum": a + b,
        "quotient": (a * b) / m,
        "quotient_sum": a / m + b / E("u[x]*x", ctx),
        "total_derivative": total_derivative(ctx, 0, a * b),
        "total_derivative_quotient": total_derivative(ctx, 1, a / m),
        "partial": partial(a * b, ctx.jet_atom("u", "y")),
        "substitute": substitute(a * b, {ctx.jet_atom("u", "xy"): E("v - u[xx]", ctx),
                                         ctx.jet_atom("v"): E("u[y]", ctx)}),
        "form": omega,
        "exterior_derivative": exterior_derivative(omega),
    }


def test_results_do_not_depend_on_intern_order():
    forward, backward = _interned(False), _interned(True)
    atoms = _atom_list(forward)
    assert [forward.atom_id(a) for a in atoms] == list(range(len(atoms)))
    assert [backward.atom_id(a) for a in atoms] == list(reversed(range(len(atoms))))
    got_forward, got_backward = _results(forward), _results(backward)
    for name in got_forward:
        assert str(got_forward[name]) == str(got_backward[name]), name


def test_total_derivative_refuses_foreign_expression():
    a, b = context2(), context2()
    with pytest.raises(ContextMismatch):
        total_derivative(a, 0, b.var("u"))


# -- randomized properties over jet coordinates and opaque symbols --------------


_CTX = context2()
_CTX.declare_opaque("g", [_CTX.atom("x"), _CTX.jet_atom("u"), _CTX.jet_atom("v", "x")])
_POOL = default_pool(_CTX)
# intern against atom_key order, so ids and printing order disagree
for _a in reversed(_POOL):
    _CTX.atom_id(_a)

_FACTORS = st.lists(st.tuples(st.sampled_from(_POOL), st.integers(1, 2)), max_size=3)


def _monomial(coeff, factors):
    out = _CTX.const(coeff)
    for atom, p in factors:
        out = out * _CTX.expr(atom) ** p
    return out


_MONOMIALS = st.builds(_monomial, st.integers(1, 4) | st.integers(-4, -1), _FACTORS)


def _polynomial(monomials):
    out = _CTX.zero()
    for m in monomials:
        out = out + m
    return out


_POLYS = st.lists(_MONOMIALS, max_size=3).map(_polynomial)


def _reference_total_derivative(ctx, i, e):
    """D_i = d/dx^i + sum over jet coordinates u^k_a of u^k_{a+x^i} d/du^k_a,
    built from formal partials and never from the D_i memo."""
    out = partial(e, BaseVar(i))
    for a in e.jet_atoms():
        shifted = JetCoord(a.dep, a.mindex + MultiIndex.single(i))
        out = out + partial(e, a) * ctx.expr(shifted)
    return out


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_POLYS, _POLYS, _POLYS)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * 1 == a


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_POLYS, _POLYS, _MONOMIALS)
def test_monomial_quotient_associates(a, b, m):
    assert (a * b) / m == a * (b / m)
    assert (a * b) / m * m == a * b


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_POLYS, _POLYS, st.integers(0, 1))
def test_total_derivative_leibniz(a, b, i):
    d = total_derivative
    assert d(_CTX, i, a * b) == d(_CTX, i, a) * b + a * d(_CTX, i, b)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_POLYS, _MONOMIALS, st.integers(0, 1))
def test_memoised_total_derivative_matches_reference(a, m, i):
    for e in (a, a / m):
        assert total_derivative(_CTX, i, e) == _reference_total_derivative(_CTX, i, e)
