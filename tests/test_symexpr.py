import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from jetvar import JetContext, partial, substitute, total_derivative
from jetvar.eqmanifold import iter_multi_indices
from jetvar.errors import ContextMismatch, UnsupportedExpression
from jetvar.frontend import parse
from jetvar.frontend.runner import build, fixture_text
from jetvar.forms import _sort_generators
from jetvar.symexpr import (
    MAX_POWER_BITS,
    PACKED_MIN_TERMS,
    BaseVar,
    Expression,
    FnPartial,
    JetCoord,
    MultiIndex,
    OpaqueFn,
    Rational,
    _clean,
    _mono_mul,
    _sum,
    gradient,
    is_coordinate,
    printed,
)

from helpers import (
    E,
    atom_key,
    context2,
    coordinate_partial,
    default_pool,
    generator_key,
    key_sorted_generators,
    merged_monomial,
    multi_index_key,
    normalised,
    numerator_denominator,
    opaque_names,
    per_factor_derive,
    random_expression,
    reference_power,
    reference_product,
    reference_str,
    reference_substitute,
    reference_sum,
    typed_terms,
)

import operator
import random
import sys


@pytest.fixture
def ctx():
    return context2()


def test_multi_index_basics():
    a = MultiIndex.of({0: 2, 1: 1})
    b = MultiIndex.single(1)
    assert a.order == 3
    assert (a + b).get(1) == 2
    assert a + MultiIndex.zero() == a
    assert a + b == b + a
    assert MultiIndex.single(0, 0) == MultiIndex.zero()
    assert b.divides(a)
    assert not a.divides(b)
    with pytest.raises(ValueError):
        b - a


def test_value_types_equal_only_within_one_type():
    # atoms and multi-indices are tuples led by a type tag: equal fields of
    # two types, as in BaseVar(0) and JetCoord(0), differ
    a = MultiIndex.single(0)
    args = (JetCoord(0, a),)
    values = [BaseVar(0), JetCoord(0), JetCoord(0, a), OpaqueFn("f", args),
              FnPartial("f", args), FnPartial("f", args, (1,)), MultiIndex(), a]
    again = [BaseVar(0), JetCoord(0), JetCoord(0, MultiIndex.of({0: 1})),
             OpaqueFn("f", (JetCoord(0, a),)), FnPartial("f", args, ()),
             FnPartial("f", args, (1,)), MultiIndex.zero(), MultiIndex.single(0, 1)]
    for k, v in enumerate(values):
        assert v == again[k] and hash(v) == hash(again[k])
        assert type(v) is type(again[k])
        assert all(v != w for w in values[:k] + values[k + 1:]), v
    assert len(set(values)) == len(values)
    # the empty multi-index is a value like any other, never false
    assert MultiIndex() and MultiIndex.zero().order == 0
    assert (JetCoord(0, a).dep, JetCoord(0, a).mindex) == (0, a)
    assert (FnPartial("f", args, (1,)).name, FnPartial("f", args, (1,)).args) == ("f", args)


def test_additive_identity(ctx):
    u = ctx.var("u")
    assert u + 0 == u
    assert u + ctx.zero() == u


def test_like_term_collection(ctx):
    ux = E("u[x]", ctx)
    assert ux + ux == E("2*u[x]", ctx)


def test_cancellation(ctx):
    assert E("(u + x) + (u - x)", ctx) == E("2*u", ctx)


def test_multiplicative_identity(ctx):
    u = ctx.var("u")
    assert u * 1 == u
    assert u * ctx.one() == u


def test_square(ctx):
    assert E("u[x]*u[x]", ctx) == E("u[x]^2", ctx)


def test_expansion(ctx):
    assert E("(u+1)*(u-1)", ctx) == E("u^2 - 1", ctx)


def test_partial_power_rule(ctx):
    assert partial(E("u[x]^2", ctx), ctx.jet_atom("u", "x")) == E("2*u[x]", ctx)


def test_partial_product_opaque(ctx):
    # f(y, u_y) does not depend on u
    e = E("h(y, u[y])*u", ctx)
    assert partial(e, ctx.jet_atom("u")) == E("h(y, u[y])", ctx)


def test_partial_chain_rule_bookkeeping(ctx):
    e = E("h(y, u[y])", ctx)
    got = partial(e, ctx.jet_atom("u", "y"))
    assert got == ctx.expr(FnPartial("h", ctx.opaque_signature("h"), (2,)))


def test_substitute_laplace_rule(ctx):
    e = E("u[yy] + u[xx]", ctx)
    assert substitute(e, {ctx.jet_atom("u", "yy"): E("-u[xx]", ctx)}).is_zero()


def test_substitute_empty(ctx):
    u = ctx.var("u")
    assert substitute(u, {}) == u


def test_substitute_coordinate(ctx):
    e = E("u[x]*v", ctx)
    assert substitute(e, {ctx.jet_atom("v"): E("u[x]", ctx)}) == E("u[x]^2", ctx)


def test_is_zero_binomial(ctx):
    assert E("(u+1)^2 - u^2 - 2*u - 1", ctx).is_zero()


def test_is_zero_distinct_coordinates(ctx):
    assert not E("u[x] - u[y]", ctx).is_zero()


def test_is_zero_leibniz_residual(ctx):
    # D_x(u u_y) minus its hand-expanded Leibniz value
    lhs = total_derivative(ctx, 0, E("u*u[y]", ctx))
    assert (lhs - E("u[x]*u[y] + u*u[xy]", ctx)).is_zero()


def test_context_mismatch():
    a = JetContext(["x"], ["u"])
    b = JetContext(["x"], ["u"])
    with pytest.raises(ContextMismatch):
        a.var("u") + b.var("u")


def test_division_by_monomial(ctx):
    e = E("(u^2 + u*x)/u", ctx)
    assert e == E("u + x", ctx)
    q = E("(u + x)/u[x]", ctx)
    assert q * ctx.jet("u", "x") == E("u + x", ctx)


def test_division_by_sum_rejected(ctx):
    with pytest.raises(UnsupportedExpression):
        ctx.var("u") / E("u + x", ctx)
    from jetvar.errors import SemanticError
    with pytest.raises(SemanticError):
        E("u/(u + x)", ctx)  # the DSL reports it with a location


def test_quotient_partial(ctx):
    # d/du of (u^2/x) = 2u/x
    e = E("u^2/x", ctx)
    assert partial(e, ctx.jet_atom("u")) == E("2*u/x", ctx)


def test_negative_power(ctx):
    assert E("x^-2", ctx) * E("x^2", ctx) == ctx.one()


def test_fraction_coefficients(ctx):
    e = E("u/2 + u/3", ctx)
    assert e == ctx.const(Fraction(5, 6)) * ctx.var("u")


# -- randomized properties ---------------------------------------------------


_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _term(ctx, coeff, factors):
    t = ctx.const(coeff)
    for atom, p in factors:
        t = t * ctx.expr(atom) ** p
    return t


def _expr_strategy(ctx, pool):
    """Polynomials with small rational coefficients, and their quotients
    by a single nonzero monomial."""
    mono = st.lists(
        st.tuples(st.sampled_from(pool), st.integers(1, 2)), min_size=0, max_size=2)

    def assemble(terms):
        e = ctx.zero()
        for coeff, factors in terms:
            e = e + _term(ctx, coeff, factors)
        return e

    polys = st.lists(st.tuples(_COEFFS, mono), min_size=0, max_size=3).map(assemble)
    monos = st.tuples(_COEFFS.filter(bool), mono).map(lambda cf: _term(ctx, *cf))
    return polys, monos, st.builds(lambda p, m: p / m, polys, monos)


_CTX = context2()
_POOL = default_pool(_CTX)
_COORDS = [a for a in _POOL if not hasattr(a, "args")]
_EXPRS, _MONOS, _QUOTIENTS = _expr_strategy(_CTX, _POOL)
_RATIONAL_FNS = st.one_of(_EXPRS, _QUOTIENTS)


@settings(max_examples=100, derandomize=True)
@given(_RATIONAL_FNS, _RATIONAL_FNS, _RATIONAL_FNS)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=100, derandomize=True)
@given(_RATIONAL_FNS, st.sampled_from(_COORDS), st.sampled_from(_COORDS))
def test_partials_commute(e, a1, a2):
    assert partial(partial(e, a1), a2) == partial(partial(e, a2), a1)


@settings(max_examples=100, derandomize=True)
@given(_EXPRS, _EXPRS, _EXPRS)
def test_substitute_is_homomorphism(a, b, repl):
    rules = {_CTX.jet_atom("v"): repl}
    assert substitute(a * b, rules) == substitute(a, rules) * substitute(b, rules)
    assert substitute(a + b, rules) == substitute(a, rules) + substitute(b, rules)


def test_canonicalization_idempotent_randomized():
    rng = random.Random(20260809)
    for _ in range(200):
        e = random_expression(rng, _CTX, _POOL, allow_den=True)
        rebuilt = e + _CTX.zero()
        assert rebuilt == e
        assert (e - e).is_zero()


# -- coefficient representation ------------------------------------------------


def _assert_int_first(e):
    for c in e.terms.values():
        if c.denominator == 1:
            assert type(c) is int, (e, c)
        else:
            assert type(c) is Rational, (e, c)


@settings(max_examples=100, derandomize=True)
@given(_RATIONAL_FNS, _RATIONAL_FNS, _EXPRS, _MONOS, st.sampled_from(_COORDS),
       st.integers(0, 3), st.integers(0, 1))
def test_coefficient_int_exactly_when_integral(a, b, p, m, coord, k, i):
    v = _CTX.jet_atom("v")
    for e in (a, b, p, m, a + b, a - b, a * b, a / m, b / m, a ** k, m ** -k,
              partial(a, coord), substitute(a, {v: m}), substitute(p, {v: a}),
              total_derivative(_CTX, i, a)):
        _assert_int_first(e)


def test_rational_matches_fraction_randomized():
    """Every operation of the coefficient type against fractions.Fraction:
    an integral result is an int, any other a Rational in lowest terms with
    its denominator above 1, printed as Fraction prints it."""
    rng = random.Random(20261020)

    def pick():
        # small values cancel often; large ones carry common factors
        p = rng.choice([rng.randint(-12, 12), rng.randint(-2 ** 70, 2 ** 70)])
        q = rng.choice([1, rng.randint(1, 12), 6 * rng.randint(1, 2 ** 40)]) * rng.choice([1, -1])
        return Rational(p, q), Fraction(p, q)

    def check(value, expected):
        if expected.denominator == 1:
            assert type(value) is int and value == expected, (value, expected)
        else:
            assert type(value) is Rational, (value, expected)
            assert (value.numerator, value.denominator) == \
                (expected.numerator, expected.denominator)
            assert str(value) == str(expected)

    for _ in range(3000):
        (a, fa), (b, fb) = pick(), pick()
        check(a, fa)
        for op in (operator.add, operator.sub, operator.mul):
            check(op(a, b), op(fa, fb))
        check(-a, -fa)
        check(abs(a), abs(fa))
        assert (a == b) == (fa == fb) and (b == a) == (fb == fa)
        if type(a) is Rational or type(b) is int:
            assert (a < b) == (fa < fb)
        if type(a) is Rational:
            assert a != fa.numerator and a == Rational(3 * fa.numerator, 3 * fa.denominator)
            assert hash(a) == hash(Rational(-fa.numerator, -fa.denominator))
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


def test_printer_refuses_a_number_past_python_digit_limit(ctx):
    u = ctx.var("u")
    big = ctx.const(2) ** 3000 * u
    small = ctx.const(Fraction(1, 3 ** 2000)) * u
    high = u ** (10 ** 700)
    texts = str(big), str(small), str(high)
    assert texts == (f"{2 ** 3000}*u", f"1/{3 ** 2000}*u", f"u^{10 ** 700}")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # Python's smallest limit; each number above is longer
    try:
        for e in (big, small, high):
            with pytest.raises(UnsupportedExpression, match="more than 640 digits"):
                str(e)
    finally:
        sys.set_int_max_str_digits(before)


def test_power_past_the_coefficient_bit_budget_refused_before_it_is_built(ctx):
    # k times the coefficient's bit length decides: a unit coefficient takes
    # any power, and a rational one is judged by its denominator too
    u = ctx.var("u")
    assert (-u) ** (10 ** 700) == u ** (10 ** 700)
    k = MAX_POWER_BITS // 2
    assert ctx.const(2) ** k == ctx.const(2 ** k)
    for base in (ctx.const(2) * u, ctx.const(Fraction(1, 2)) * u, ctx.const(-3)):
        for power in (k + 1, -(k + 1)):
            with pytest.raises(UnsupportedExpression,
                               match=f"budget of {MAX_POWER_BITS} coefficient bits"):
                base ** power


@settings(max_examples=100, derandomize=True)
@given(st.lists(st.tuples(st.integers(-3, 3), st.lists(
    st.tuples(st.sampled_from(_POOL), st.integers(1, 2)), max_size=2)), max_size=3),
    _RATIONAL_FNS)
def test_integral_fraction_constants_match_ints(terms, other):
    as_int, as_fraction = _CTX.zero(), _CTX.zero()
    for n, factors in terms:
        as_int = as_int + _term(_CTX, n, factors)
        as_fraction = as_fraction + _term(_CTX, Fraction(n), factors)
    for x, y in ((as_int, as_fraction), (as_int * other, as_fraction * other),
                 (as_int + other, as_fraction + other)):
        assert x == y
        assert hash(x) == hash(y)
        assert str(x) == str(y)


@pytest.mark.parametrize("text, printed", [
    ("u/2", "1/2*u"),
    ("u/(3*x)", "(1/3*u)/(x)"),
    ("x^-2", "(1)/(x^2)"),
    ("(u/2)*2", "u"),
    ("-3/4*u*v + 5", "5 - 3/4*u*v"),
    # the terms print over their least common denominator
    ("u/x + v/x^2", "(x*u + v)/(x^2)"),
    ("u/(x*y) - v/x^2 + 3", "(x*u + 3*x^2*y - y*v)/(x^2*y)"),
])
def test_rational_printing(ctx, text, printed):
    assert str(E(text, ctx)) == printed


def _printer_pool(ctx):
    """default_pool plus derivatives in the context's own directions and
    formal partials of each opaque symbol."""
    pool = default_pool(ctx)
    first, last = ctx.independents[0], ctx.independents[-1]
    for dep in ctx.dependents:
        pool += [ctx.jet_atom(dep, [first]), ctx.jet_atom(dep, [first, last])]
    for name in opaque_names(ctx):
        sig = ctx.opaque_signature(name)
        pool += [FnPartial(name, sig, d) for d in ((1,), (len(sig),), (1, len(sig)))]
    return pool


@pytest.mark.parametrize("make_ctx", [
    context2, lambda: build(parse(fixture_text("maxwell"))).ctx], ids=["context2", "maxwell"])
def test_printer_matches_reference(make_ctx):
    ctx = make_ctx()
    pool = _printer_pool(ctx)
    rng = random.Random(20261018)
    for _ in range(200):
        e = random_expression(rng, ctx, pool, max_terms=4, max_factors=3,
                              allow_den=True, rational=True)
        assert str(e) == reference_str(e)


@pytest.mark.parametrize("make_ctx", [
    context2, lambda: build(parse(fixture_text("maxwell"))).ctx], ids=["context2", "maxwell"])
def test_shared_printer_matches_reference(make_ctx):
    # printed() labels the (atom, power) pairs and builds each monomial's text
    # once for all its expressions; each must print as it does alone, a
    # quotient over its own denominator
    ctx = make_ctx()
    pool = _printer_pool(ctx)
    rng = random.Random(20261021)
    seen = set()
    for _ in range(30):
        pieces = [random_expression(rng, ctx, pool, max_terms=4, max_factors=3, max_power=3,
                                    allow_den=True, rational=True) for _ in range(5)]
        # sums, multiples and quotients of the same pieces share monomials
        exprs = pieces + [ctx.zero()]
        for _ in range(8):
            a, b = rng.choice(pieces), rng.choice(pieces)
            exprs.append(rng.choice([a + b, a - b, a * Fraction(rng.choice((-3, 2)), 5),
                                     a / ctx.expr(rng.choice(pool))]))
        rng.shuffle(exprs)
        assert printed(ctx, exprs) == [reference_str(e) for e in exprs]
        monomials = [m for e in exprs for m in e.terms]
        if len(set(monomials)) < len(monomials):
            seen.add("shared monomial")
        for e in exprs:
            seen.add("zero" if not e.terms else "quotient" if any(
                p < 0 for m in e.terms for _, p in m) else "polynomial")
            for m, c in e.terms.items():
                if isinstance(c, Rational):
                    seen.add("rational")
                for i, _ in m:
                    seen.add(type(ctx._atoms[i]).__name__)
    assert seen == {"shared monomial", "zero", "quotient", "polynomial", "rational",
                    "BaseVar", "JetCoord", "OpaqueFn", "FnPartial"}
    assert printed(ctx, []) == []
    with pytest.raises(ContextMismatch):
        printed(ctx, [ctx.one(), context2().one()])


def test_printing_ignores_atom_first_use_order():
    # two identically declared contexts intern the same atoms in opposite
    # orders, so their ids run in opposite orders: a printer that orders
    # factors by id, or keeps names by id across contexts, prints one of them
    # wrongly
    contexts = [context2(), context2()]
    pool = list(dict.fromkeys(_printer_pool(contexts[0])))
    for ctx, order in zip(contexts, (pool, pool[::-1])):
        for a in order:
            ctx.atom_id(a)
    assert [contexts[1]._atoms[i] for i in range(len(pool))] == pool[::-1]
    seen = set()
    for seed in range(200):
        printed = []
        for ctx in contexts:
            rng = random.Random(seed)
            e = random_expression(rng, ctx, pool, max_terms=4, max_factors=3, max_power=3,
                                  allow_den=True, rational=True)
            e = e * ctx.expr(rng.choice(pool)) ** rng.choice((-2, 1))
            printed.append((str(e), reference_str(e)))
            for m in e.terms:
                for i, p in m:
                    seen.add("opaque" if isinstance(ctx._atoms[i], (OpaqueFn, FnPartial))
                             else "power above 1" if p > 1 else "negative power" if p < 0
                             else "power 1")
        assert printed[0][0] == printed[0][1] == printed[1][0] == printed[1][1], seed
    assert seen == {"opaque", "power above 1", "negative power", "power 1"}


# -- canonical order -----------------------------------------------------------------


def _random_multi_index(rng):
    return MultiIndex.of({i: rng.randint(0, 2) for i in rng.sample(range(3), rng.randint(0, 3))})


def _random_atom(rng, depth=1):
    kind = rng.randrange(4 if depth else 2)
    if kind == 0:
        return BaseVar(rng.randrange(3))
    if kind == 1:
        return JetCoord(rng.randrange(2), _random_multi_index(rng))
    args = tuple(_random_atom(rng, 0) for _ in range(rng.randint(0, 3)))
    name = rng.choice("fg")
    if kind == 2:
        return OpaqueFn(name, args)
    return FnPartial(name, args, tuple(sorted(rng.choices(range(1, 4), k=rng.randint(1, 2)))))


def _random_generator(rng):
    return BaseVar(rng.randrange(3)) if rng.random() < 0.3 else \
        JetCoord(rng.randrange(2), _random_multi_index(rng))


def test_tuple_order_is_the_canonical_order():
    """sorted on multi-indices, atoms and generators, and _sort_generators'
    signs, match the keys written out from the fields."""
    rng = random.Random(20261019)
    for _ in range(200):
        mis = [_random_multi_index(rng) for _ in range(6)]
        assert sorted(mis) == sorted(mis, key=multi_index_key)
        assert all(m.order == sum(c for _, c in m.entries) for m in mis)
        a, b = mis[:2]
        assert a + b == MultiIndex.of({i: a.get(i) + b.get(i) for i in range(3)})
        atoms = [_random_atom(rng) for _ in range(8)]
        assert sorted(atoms) == sorted(atoms, key=atom_key)
        gens = [_random_generator(rng) for _ in range(rng.randint(0, 5))]
        assert sorted(gens) == sorted(gens, key=generator_key)
        assert _sort_generators(gens) == key_sorted_generators(gens)


# -- derive against the per-factor route ------------------------------------------


def assert_gradient_matches_oracle(e):
    """gradient(e) and partial(e, a), at every coordinate atom a of e, against
    the per-factor route with the one/zero action; gradient keeps exactly
    the nonzero partials."""
    ctx = e.ctx
    grad = gradient(e)
    coords = {a for a in e.atoms() if is_coordinate(a)}
    assert set(grad) <= coords
    for a in coords:
        expected = coordinate_partial(e, a)
        assert typed_terms(grad.get(a, ctx.zero())) == typed_terms(expected)
        assert (a in grad) == (not expected.is_zero())
        assert partial(e, a) == expected


def test_derive_matches_per_factor_oracle_randomized():
    """Random rational polynomials and monomial quotients, with formal
    partials of opaque symbols among the atoms, under random atom actions
    whose values are often quotients themselves, and under every coordinate
    partial.  The opaque g takes the opaque h as an argument, so the chain
    rule runs through h's arguments too."""
    ctx = context2()
    ctx.declare_opaque("g", [ctx.atom("h"), ctx.jet_atom("u", "x")])
    pool = _printer_pool(ctx)
    coords = [a for a in pool if isinstance(a, (BaseVar, JetCoord))]
    rng = random.Random(20261019)
    divided = nested = 0
    for _ in range(150):
        e = random_expression(rng, ctx, pool, max_terms=4, max_factors=3,
                              allow_den=True, rational=True)
        values = {a: random_expression(rng, ctx, coords, max_terms=2, allow_den=True,
                                       rational=True) for a in coords}
        divided += sum(1 for v in values.values() if numerator_denominator(v)[1])
        nested += any(getattr(a, "name", None) == "g" for a in e.atoms())

        def action(atom):
            return values[atom]

        memo = {}
        assert e.derive(action, memo) == per_factor_derive(e, action)
        assert (e * e).derive(action, memo) == per_factor_derive(e * e, action)
        assert_gradient_matches_oracle(e)
    assert divided > 0 and nested > 0


def _spied_derivations(monkeypatch):
    """Record (expression, action, result) for every Expression.derive call."""
    calls, original = [], Expression.derive

    def spy(self, action, memo=None):
        out = original(self, action, memo)
        calls.append((self, action, out))
        return out

    monkeypatch.setattr(Expression, "derive", spy)
    return calls


@pytest.mark.parametrize("name", ["laplace", "wave", "pkdv", "maxwell"])
def test_derive_matches_per_factor_oracle_on_fixtures(name, monkeypatch):
    """total_derivative and SolvedEquation._dbar, each with the atom action
    it passes to derive, and gradient and partial at every coordinate atom,
    on random restricted expressions."""
    built = build(parse(fixture_text(name)))
    ctx, eq = built.ctx, built.eq
    pool = [BaseVar(i) for i in range(ctx.n)]
    pool += [JetCoord(k, alpha) for k in range(ctx.m)
             for alpha in iter_multi_indices(ctx.n, 2) if eq.is_internal(JetCoord(k, alpha))]
    pool += [ctx.atom(o) for o in opaque_names(ctx)]
    rng = random.Random(20261020)
    rounds = 8 if name == "maxwell" else 25
    calls = _spied_derivations(monkeypatch)
    restricted = []
    for _ in range(rounds):
        e = eq.restrict(random_expression(rng, ctx, pool, max_terms=3, max_factors=3,
                                          allow_den=True, rational=True))
        restricted.append(e)
        i = rng.randrange(ctx.n)
        total_derivative(ctx, i, e)
        eq._dbar(i, e)
    monkeypatch.undo()
    assert len(calls) >= 2 * rounds
    for e, action, out in calls:
        assert per_factor_derive(e, action) == out
    for e in restricted:
        assert_gradient_matches_oracle(e)


_KERNEL_POWERS = (1, 2, 3, -1, -2, -3, 1 << 20, (1 << 20) + 1, -(1 << 20), 10 ** 8, -10 ** 8)


def _random_term(rng, ctx, pool, powers):
    """A product of one to three pool atoms, each to a power drawn from
    powers, with a nonzero rational coefficient."""
    term = ctx.const(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))
    for a in rng.sample(pool, rng.randint(1, 3)):
        term = term * ctx.expr(a) ** rng.choice(powers)
    return term


@pytest.mark.parametrize("size", [PACKED_MIN_TERMS - 1, PACKED_MIN_TERMS, 2 * PACKED_MIN_TERMS])
@pytest.mark.parametrize("powers", [_KERNEL_POWERS[:6], _KERNEL_POWERS], ids=["small", "wide"])
def test_derive_kernel_matches_per_factor_oracle(size, powers):
    """derive on either side of PACKED_MIN_TERMS, where it switches from
    tuple monomials to packed ints, against the per-factor route.  Powers
    are ±1-3, and in the wide case also 2^20 and 10^8, so a field nears the
    sign bit of its width; a power 1 falls to 0 under the decrement and a
    negative one falls further.  The context interns over 100 atoms, the
    opaque g takes the opaque h as an argument, and the rotation u -> v,
    v -> -u makes u^2 + v^2 differentiate to 0, so terms cancel."""
    ctx = context2()
    ctx.declare_opaque("g", [ctx.atom("h"), ctx.jet_atom("u", "x")])
    u, v = ctx.jet_atom("u"), ctx.jet_atom("v")
    filler = [JetCoord(k % 2, MultiIndex.of({0: k // 2 + 3, 1: k % 3})) for k in range(120)]
    for a in filler:
        ctx.atom_id(a)
    assert len(ctx._atoms) > 100
    pool = _printer_pool(ctx) + [ctx.atom("g")] + filler[::20]
    coords = [a for a in pool if is_coordinate(a)]
    rng = random.Random(20261021 + size)
    rotated = (ctx.expr(u) ** 2 + ctx.expr(v) ** 2).terms
    for _ in range(4):
        terms = {}
        while len(terms.keys() | rotated.keys()) < size:
            terms.update(_random_term(rng, ctx, pool, powers).terms)
        e = Expression(ctx, {**terms, **rotated})
        values = {a: _sum(ctx, [_random_term(rng, ctx, coords, powers)
                                for _ in range(rng.randint(0, 3))]) for a in coords}
        values[u], values[v] = ctx.expr(v), -ctx.expr(u)

        def action(atom):
            return values[atom]

        out = e.derive(action)
        assert len(e.terms) == size
        assert out == per_factor_derive(e, action)
        rest = Expression(ctx, {m: c for m, c in terms.items() if m not in rotated})
        assert out == rest.derive(action) == per_factor_derive(rest, action)


# -- canonical construction ---------------------------------------------------------


def assert_canonical(e):
    """Every coefficient nonzero and an int when integral, so the dict the
    constructor trusted is its own clean form, types included."""
    assert typed_terms(e) == {m: (c, type(c)) for m, c in _clean(e.terms).items()}


def test_every_producer_builds_the_normalised_form():
    """Each producer on random Laurent input with rational coefficients
    returns a canonical dict equal, types included, to the one the
    normalising construction gives for the same arithmetic."""
    ctx = context2()
    pool = _printer_pool(ctx)
    coords = [a for a in pool if isinstance(a, (BaseVar, JetCoord))]
    # a rule on an opaque argument must yield an atom, so none is substituted
    targets = [c for c in coords if c not in ctx.opaque_signature("h")]
    rng = random.Random(20261021)
    zero, one = ctx.zero(), ctx.one()
    for _ in range(120):
        a, b = (random_expression(rng, ctx, pool, max_terms=4, max_factors=3,
                                  allow_den=True, rational=True) for _ in range(2))
        q = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
        mono = random_expression(rng, ctx, pool, max_terms=1, allow_den=True, rational=True)
        rules = {c: random_expression(rng, ctx, pool, max_terms=1, allow_den=True,
                                      rational=True) for c in rng.sample(targets, 2)}
        k = rng.randint(-2, 3) if len(a.terms) == 1 else rng.randint(0, 3)
        values = {c: random_expression(rng, ctx, coords, max_terms=2, allow_den=True,
                                       rational=True) for c in coords}
        cases = [
            (a + b, reference_sum(ctx, [a, b])),
            (a - b, reference_sum(ctx, [a, b], [1, -1])),
            (a - a, zero),
            (a + (-a), zero),
            (1 - a, reference_sum(ctx, [one, a], [1, -1])),
            (-a, reference_sum(ctx, [a], [-1])),
            (a * b, reference_product(a, b)),
            (a * q, reference_product(a, normalised(ctx, {(): q}))),
            (q * a, reference_product(a, normalised(ctx, {(): q}))),
            (a * Fraction(1, 2) * 2, a),
            (a / mono, reference_product(a, reference_power(mono, -1))),
            (a ** k, reference_power(a, k)),
            (ctx.const(q), normalised(ctx, {(): q})),
            (ctx.const(Fraction(4, 2)), normalised(ctx, {(): Fraction(4, 2)})),
            (_sum(ctx, [a, b, -a]), b),
            (a.derive(values.get), per_factor_derive(a, values.get)),
            (a.substitute(rules), reference_substitute(a, rules)),
        ]
        cases += [(d, coordinate_partial(a, c)) for c, d in gradient(a).items()]
        for out, expected in cases:
            assert_canonical(out)
            assert typed_terms(out) == typed_terms(expected)
    # the identities hand back their operand, and the constants are shared
    assert a + 0 is a and 0 + a is a and a - 0 is a and a * 1 is a and 1 * a is a
    assert ctx.const(0) is zero and ctx.const(Fraction(3, 3)) is one
    assert ctx.zero() is zero and ctx.one() is one


# -- monomial product -------------------------------------------------------------


_IDS = st.integers(0, 12)
_POWERS = st.integers(-3, 3).filter(bool)
_MONOMIAL = st.dictionaries(_IDS, _POWERS, max_size=5).map(
    lambda d: tuple(sorted(d.items())))
_SINGLE = st.tuples(_IDS, _POWERS).map(lambda f: (f,))


@settings(max_examples=300, derandomize=True)
@given(_MONOMIAL, st.one_of(_SINGLE, _MONOMIAL))
@example((), ())
@example((), ((4, 1),))
@example(((4, 1),), ())
@example(((3, 1), (7, 2)), ((3, 2),))  # equal to the first id
@example(((3, 1), (7, 2)), ((7, 1),))  # equal to the last id
@example(((3, 1), (7, 2)), ((1, 1),))  # below
@example(((3, 1), (7, 2)), ((5, 3),))  # between
@example(((3, 1), (7, 2)), ((9, 1),))  # above
@example(((3, 1),), ((3, -1),))  # cancels to the empty monomial
@example(((3, 1), (7, 2)), ((7, -2),))  # cancels the last factor
@example(((3, -1), (7, 2)), ((3, 1), (7, -1)))  # two factors, one cancels
@example(((3, 1), (7, 2)), ((1, 1), (5, 3)))  # two factors: below, between
@example(((3, 1), (7, 2)), ((5, -1), (9, 2)))  # two factors: between, above
@example(((2, 1), (5, 1), (8, 1)), ((1, 2), (5, 1), (9, -1)))  # below, equal, above
@example(((2, 1), (4, 1), (6, 1)), ((3, 1), (5, 1), (7, 1)))  # each between two
@example(((3, 1), (7, 2)), ((3, -1), (7, -2)))  # cancels every factor
@example(((2, 1), (5, -2), (8, 3)), ((2, -1), (5, 1), (8, -3)))  # cancels both ends
@example(((2, 1), (5, -2), (8, 3)), ((1, 1), (5, 2), (9, 1)))  # cancels the middle
def test_mono_mul_matches_dict_merge(a, b):
    out = _mono_mul(a, b)
    assert out == merged_monomial(a, b)
    assert out == _mono_mul(b, a)
    assert all(x[0] < y[0] for x, y in zip(out, out[1:]))
    assert all(p != 0 for _, p in out)
