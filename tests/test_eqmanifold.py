import json
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from jetvar import (
    EvolutionaryField,
    JetContext,
    SolvedEquation,
    cartan_degree_filter,
    total_derivative,
    total_derivative_multi,
)
from jetvar.eqmanifold import _ranked, iter_multi_indices
from jetvar.errors import (
    ConsistencyError,
    ContextMismatch,
    OrientationError,
    UnsupportedExpression,
)
from jetvar.forms import DifferentialForm, exterior_derivative
from jetvar.frontend import parse
from jetvar.frontend.cli import main as cli_main
from jetvar.frontend.parser import Evaluator
from jetvar.frontend.runner import build, fixture_text
from jetvar.symexpr import BaseVar, FnPartial, JetCoord, MultiIndex
from jetvar.variational import presymplectic_potential

from helpers import (
    E,
    F,
    commutator_scan,
    context2,
    default_pool,
    enumerated_ranking,
    internal_coordinates,
    laplace_equation,
    pkdv_equation,
    random_expression,
    random_form,
    substituting_restrict,
    theta_by_theta_restrict_form,
    wave_equation,
)

import random


def test_prolong_laplace_once():
    ctx, eq = laplace_equation()
    # the head u[yy] prolonged once in y; hand oracle: D_y(-u_xx) then normalize
    assert eq.rule_for(JetCoord(0, ctx.multi_index("yyy"))) == E("-u[xxy]", ctx)


def test_prolong_identity():
    ctx, eq = laplace_equation()
    assert eq.rule_for(JetCoord(0, ctx.multi_index("yy"))) == E("-u[xx]", ctx)


def test_prolong_wave_zero():
    ctx, eq = wave_equation()
    # the head u[xy] prolonged once in x
    assert eq.rule_for(JetCoord(0, ctx.multi_index("xxy"))).is_zero()


def test_rule_head_must_be_a_jet_coordinate():
    # a head is a JetCoord; a (dependent, multi-index) tuple, a name or a base
    # variable is refused, not converted
    ctx = JetContext(["x", "y"], ["u"])
    rhs = E("-u[xx]", ctx)
    for head in (("u", "yy"), "u", BaseVar(1)):
        with pytest.raises(ValueError, match="rule head must be a jet coordinate"):
            SolvedEquation(ctx, [(head, rhs)])


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


@pytest.mark.parametrize("name", ["laplace", "wave", "pkdv", "maxwell"])
def test_restrict_form_matches_theta_by_theta_oracle(name):
    """Generator images are kept per equation; each restriction must equal
    rewriting every generator afresh: on L + omega_L of the fixture, on its
    d, and on random forms over principal and internal thetas."""
    built = build(parse(fixture_text(name)))
    ctx, eq, lag = built.ctx, built.eq, built.lagrangian
    lagrangian_form = lag.form() + presymplectic_potential(lag)
    forms = [lagrangian_form, exterior_derivative(lagrangian_form)]
    gens = [BaseVar(i) for i in range(ctx.n)] + [JetCoord(k) for k in range(ctx.m)]
    gens += [JetCoord(h.dep, h.mindex + MultiIndex.single(i)) for h in eq.heads
             for i in range(ctx.n)] + list(eq.heads)
    rng, pool = random.Random(f"restrict-form-{name}"), default_pool(ctx)
    for _ in range(20):
        forms.append(DifferentialForm.from_terms(ctx, [
            (random_expression(rng, ctx, pool), rng.sample(gens, rng.randint(0, 3)))
            for _ in range(rng.randint(1, 3))]))
    assert any(isinstance(g, JetCoord) and not eq.is_internal(g)
               for omega in forms for gs in omega.terms for g in gs)
    for omega in forms:
        want = theta_by_theta_restrict_form(eq, omega)
        assert eq.restrict_form(omega) == want
        assert eq.restrict_form(omega) == want  # with every image kept


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
                assert all(eq.is_internal(g) for g in gens if isinstance(g, JetCoord))
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
    ctx = JetContext(["x", "y"], ["u"])
    with pytest.raises(OrientationError):
        SolvedEquation(ctx, [(ctx.jet_atom("u", "x"), E("u[xx]", ctx))])


def test_orientation_rejected_mutual_loop():
    ctx = JetContext(["x", "y"], ["u", "v"])
    with pytest.raises(OrientationError):
        SolvedEquation(ctx, [
            (ctx.jet_atom("u", "x"), E("v[y]", ctx)),
            (ctx.jet_atom("v", "y"), E("u[x]", ctx)),
        ])


def _random_ranking_pairs(rng, n, steps, entries):
    """Up to ``steps`` (head minus atom step, head dependent, atom dependent)
    triples over n directions and three dependents; about a quarter of the
    steps are zero, so the dependents alone must order them."""
    return [(tuple(rng.randint(-entries, entries) for _ in range(n)) if rng.random() < 0.75
             else (0,) * n, rng.randrange(3), rng.randrange(3))
            for _ in range(rng.randint(1, steps))]


def test_ranking_decision_accepts_what_the_bounded_search_accepts():
    rng = random.Random(20261020)
    verdicts = []
    for _ in range(400):
        n = rng.randint(1, 4)
        pairs = _random_ranking_pairs(rng, n, 6, 3)
        verdicts.append(_ranked(pairs, n))
        assert verdicts[-1] or not enumerated_ranking(pairs, n, 4), (pairs, n)
    assert True in verdicts and False in verdicts


def test_ranking_decision_has_a_witness_or_a_farkas_certificate():
    # acceptance: weights with every w.d > 0 and an order of the dependents
    # that puts each tied atom below its head; refusal: no such order, or
    # multipliers l >= 0, not all zero, with sum l*d <= 0 in every direction
    rng = random.Random(20261021)
    verdicts = []
    for _ in range(250):
        n = rng.randint(1, 3)
        pairs = _random_ranking_pairs(rng, n, 4, 2)
        steps = sorted({d for d, _, _ in pairs if any(d)})
        ties = {(h, a) for d, h, a in pairs if not any(d)}
        ordered = any(all(order.index(h) > order.index(a) for h, a in ties)
                      for order in permutations(range(3)))
        weighted = any(all(sum(wi * di for wi, di in zip(w, d)) > 0 for d in steps)
                       for w in product(range(1, 13), repeat=n))
        certified = any(any(lam) and all(sum(li * d[i] for li, d in zip(lam, steps)) <= 0
                                         for i in range(n))
                        for lam in product(range(5), repeat=len(steps)))
        verdicts.append(_ranked(pairs, n))
        if verdicts[-1]:
            assert ordered and weighted, (pairs, n)
        else:
            assert not ordered or certified, (pairs, n)
    assert True in verdicts and False in verdicts


def test_orientation_decided_without_a_weight_bound(tmp_path, capsys):
    # six directions made the bounded search take 25 s to refuse this file
    six = tmp_path / "six.jv"
    six.write_text(f"independents a b c e f g\ndependents u v\nequation u[{'a' * 12}] = "
                   f"v[{'b' * 13}]\nequation v[{'b' * 12}] = u[{'a' * 13}]\n", encoding="utf-8")
    start = time.perf_counter()
    assert cli_main(["check", str(six)]) == 2
    assert time.perf_counter() - start < 5
    rule = f"v[{','.join('b' * 12)}] = u[{','.join('a' * 13)}]"
    assert f"[REFUSED] 4:1: rule set loops or is not oriented at rule {rule}: with the " \
           "rules before it, no ranking (weighted order, then directions, then dependents) " \
           "puts every right-side coordinate below its head\n" in capsys.readouterr().out
    # weights such as (9, 3, 1) orient this file, and none in the bounded search's 1..3
    w931 = tmp_path / "w931.jv"
    w931.write_text("independents a b c\ndependents u v\n"
                    "equation u[a] = u[bbb]\nequation v[b] = v[ccc]\n", encoding="utf-8")
    assert cli_main(["prolong", str(w931), "--order", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "-- 112 rules to order 6"


def test_minimality_enforced():
    ctx = JetContext(["x", "y"], ["u"])
    with pytest.raises(OrientationError):
        SolvedEquation(ctx, [
            (ctx.jet_atom("u", "y"), E("u[x]", ctx)),
            (ctx.jet_atom("u", "yy"), E("u[xx]", ctx)),
        ])


def test_inconsistent_rules_caught():
    ctx = JetContext(["x", "y"], ["u"])
    eq = SolvedEquation(ctx, [
        (ctx.jet_atom("u", "x"), ctx.var("u")),
        (ctx.jet_atom("u", "y"), ctx.var("y")),
    ])
    with pytest.raises(ConsistencyError):
        eq.check_integrability()
    with pytest.raises(ConsistencyError):
        commutator_scan(eq, 2)


def test_commutators_vanish_to_order_4(all_built):
    for built in all_built.values():
        built.eq.check_integrability()
        commutator_scan(built.eq, 4)


def _consistent(check, *args):
    try:
        check(*args)
    except ConsistencyError:
        return False
    return True


def _random_orthonomic_system(rng):
    """1-3 minimal heads of order <= 2 over x, y and 1-2 dependents; each
    right side uses coordinates below its head in the fixed ranking
    (order, then y before x, then dependent)."""
    ctx = JetContext(["x", "y"], ["u", "v"][:rng.randint(1, 2)])
    coords = [JetCoord(k, a) for k in range(ctx.m) for a in iter_multi_indices(2, 2)]

    def rank(c):
        return (c.mindex.order, c.mindex.get(1), c.mindex.get(0), c.dep)

    heads = []
    for _ in range(rng.randint(1, 3)):
        h = rng.choice(coords)
        if all(g.dep != h.dep or not (g.mindex.divides(h.mindex) or h.mindex.divides(g.mindex))
               for g in heads):
            heads.append(h)
    rules = []
    for h in heads:
        pool = [ctx.base_atom("x"), ctx.base_atom("y")] + [c for c in coords if rank(c) < rank(h)]
        rules.append((h, random_expression(rng, ctx, pool, max_terms=2, max_power=1)))
    return SolvedEquation(ctx, rules)


def test_overlap_decision_matches_scan_on_random_systems():
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(150):
        eq = _random_orthonomic_system(rng)
        scanned = _consistent(commutator_scan, eq, 4)
        decided = _consistent(eq.check_integrability)
        assert decided == scanned, [(eq.ctx.atom_name(h), str(r))
                                    for h, r in zip(eq.heads, eq.rhs)]
        verdicts.append(decided)
    assert True in verdicts and False in verdicts


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


def _restrict_outcome(restrict, eq, e):
    try:
        return restrict(eq, e)
    # a non-coordinate rule inside an opaque, or a denominator that vanishes on E
    except (UnsupportedExpression, ZeroDivisionError) as exc:
        return type(exc)


def _restrict_matches_oracle(rng, eq, pool, count):
    for _ in range(count):
        e = random_expression(rng, eq.ctx, pool, allow_den=True)
        got = _restrict_outcome(SolvedEquation.restrict, eq, e)
        assert got == _restrict_outcome(substituting_restrict, eq, e), e
        if not any(map(eq.is_principal, e.jet_atoms())):
            assert got is e


def _opaque_pool(ctx, principal):
    """One opaque symbol per principal coordinate, of it, a base variable and
    an internal coordinate, with two of its partials."""
    pool = []
    for k, arg in enumerate(principal):
        f = ctx.declare_opaque(f"restrict_oracle_{k}", [ctx.base_atom(ctx.independents[0]),
                                                        arg, ctx.jet_atom(ctx.dependents[0])])
        pool += [f, FnPartial(f.name, f.args, (2,)), FnPartial(f.name, f.args, (1, 3))]
    return pool


@pytest.mark.parametrize("name", ["laplace", "wave", "pkdv", "maxwell"])
def test_restrict_matches_substitution_on_fixtures(name):
    built = build(parse(fixture_text(name)))  # fresh: the pool declares opaques
    ctx, eq = built.ctx, built.eq
    principal = [JetCoord(h.dep, h.mindex + MultiIndex.single(i))
                 for h in eq.heads for i in range(ctx.n)]
    pool = default_pool(ctx) + list(eq.heads) + principal + _opaque_pool(ctx, eq.heads[:1])
    _restrict_matches_oracle(random.Random(f"restrict-{name}"), eq, pool, 100)


def test_restrict_matches_substitution_on_random_rules():
    rng = random.Random(20261018)
    for _ in range(20):
        ctx = JetContext(["x", "y"], ["u", "v"])
        # a coordinate right side renames opaque arguments; a sum refuses them
        rhs = rng.choice(["v", "v[x]", "u[x]", "-u[xx]", "u[x] + v"])
        eq = SolvedEquation(ctx, [(ctx.jet_atom("u", "yy"), E(rhs, ctx))])
        principal = [ctx.jet_atom("u", spec) for spec in ("yy", "xyy", "yyy")]
        pool = default_pool(ctx) + principal + _opaque_pool(ctx, principal)
        _restrict_matches_oracle(rng, eq, pool, 30)


def test_restrict_returns_normal_form_itself_and_refuses_other_contexts():
    ctx, eq = laplace_equation()
    e = E("u[x]^2/u + x*u[xy]", ctx)
    assert eq.restrict(e) is e
    other, _ = laplace_equation()
    with pytest.raises(ContextMismatch):
        eq.restrict(E("u[x]", other))
    with pytest.raises(ContextMismatch):
        eq.restrict(E("u[yy]", other))


def test_restrict_interchanges_with_total_derivative(maxwell_built):
    ctx = context2()
    eq = SolvedEquation(ctx, [(ctx.jet_atom("u", "yy"), E("-u[xx]", ctx))])
    pkdv_ctx, pkdv = pkdv_equation()
    mctx, maxwell = maxwell_built.ctx, maxwell_built.eq
    cases = [
        (eq, default_pool(ctx) + [ctx.jet_atom("u", "yy")], 100),
        (pkdv, default_pool(pkdv_ctx) + [pkdv_ctx.jet_atom("u", spec) for spec in ("t", "tx")],
         100),
        (maxwell, default_pool(mctx) + [mctx.jet_atom(dep, spec) for dep, spec in (
            ("A1", "t"), ("A2", ["x1", "x2"]), ("F01", "t"), ("F01", ["x1"]),
            ("F02", ["x2"]), ("F03", ["t", "x3"]))], 25),
    ]
    rng = random.Random(99)
    for eq, pool, count in cases:
        for _ in range(count):
            e = random_expression(rng, eq.ctx, pool)
            for i in range(eq.ctx.n):
                assert eq.restrict(total_derivative(eq.ctx, i, e)) == \
                    eq.restricted_total_derivative(i, e)


def _fixpoint_rules(ctx, declared):
    """The former normalisation, kept as an oracle: the rule of a principal
    coordinate is D_gamma of the first dividing head's declared right side,
    rewritten until no principal coordinate is left."""
    heads = list(declared)
    cache = {}

    def head_of(coord):
        return next((h for h in heads if h.dep == coord.dep
                     and h.mindex.divides(coord.mindex)), None)

    def restrict(e):
        for _ in range(1000):
            reducible = [a for a in e.jet_atoms() if head_of(a) is not None]
            if not reducible:
                return e
            e = e.substitute({a: rule(a) for a in reducible})
        raise AssertionError("oracle rewriting did not terminate")

    def rule(coord):
        if coord not in cache:
            head = head_of(coord)
            cache[coord] = restrict(
                total_derivative_multi(ctx, coord.mindex - head.mindex, declared[head]))
        return cache[coord]

    return head_of, rule


@pytest.mark.parametrize("name", ["laplace", "wave", "pkdv", "maxwell"])
def test_rule_for_matches_fixpoint_oracle_to_order_4(all_built, name):
    built = all_built[name]
    problem = parse(fixture_text(name))
    free = Evaluator(built.ctx, None)
    declared = {free.coordinate_atom(head): free.expression(rhs)
                for head, rhs in (d.args for d in problem.equations)}
    assert tuple(declared) == built.eq.heads
    head_of, rule = _fixpoint_rules(built.ctx, declared)
    checked = 0
    for k in range(built.ctx.m):
        for alpha in iter_multi_indices(built.ctx.n, 4):
            coord = JetCoord(k, alpha)
            if head_of(coord) is None:
                assert built.eq.is_internal(coord)
                continue
            assert built.eq.rule_for(coord) == rule(coord), built.ctx.atom_name(coord)
            checked += 1
    assert checked > 0


_PKDV_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                   / "pkdv_prolong_order8.json")


def test_rule_for_matches_sympy_pkdv_prolongation():
    """pKdV rules to order 8 against the committed sympy recomputation, in
    which U_j stands for u_{x^j}."""
    doc = json.loads(_PKDV_REFERENCE.read_text(encoding="utf-8"))
    ctx, eq = pkdv_equation()
    assert doc["equation"] == "equation u[t] = 3*u[x]^2 + u[xxx]"
    assert len(doc["rules"]) == doc["order"] * (doc["order"] + 1) // 2
    for entry in doc["rules"]:
        expected = ctx.zero()
        for coeff, mono in entry["terms"]:
            term = ctx.const(Fraction(coeff))
            for j, power in mono:
                term = term * ctx.jet("u", "x" * j) ** power
            expected = expected + term
        coord = JetCoord(0, MultiIndex.of({0: entry["t"], 1: entry["x"]}))
        assert eq.rule_for(coord) == expected, ctx.atom_name(coord)


def _shifted_equation():
    """u[y] = u[x], whose rule for u[y^k] is u[x^k], k steps down one chain."""
    ctx = JetContext(["x", "y"], ["u"])
    return ctx, SolvedEquation(ctx, [(ctx.jet_atom("u", "y"), E("u[x]", ctx))])


def _crossed_equation():
    """u[t] = v[x], v[t] = u[x]: each step of a t-chain crosses to the other head."""
    ctx = JetContext(["t", "x"], ["u", "v"])
    return ctx, SolvedEquation(ctx, [(ctx.jet_atom("u", "t"), E("v[x]", ctx)),
                                     (ctx.jet_atom("v", "t"), E("u[x]", ctx))])


def test_deep_rewrite_chain_derives_in_any_call_order():
    # a chain of any length derives, and the rule does not depend on which
    # coordinates were asked for before
    ctx, cold = _shifted_equation()
    assert cold.rule_for(ctx.jet_atom("u", "y" * 400)) == ctx.jet("u", "x" * 400)
    ctx, warm = _shifted_equation()
    for k in range(1, 400):
        assert warm.rule_for(ctx.jet_atom("u", "y" * k)) == ctx.jet("u", "x" * k)
    assert warm.rule_for(ctx.jet_atom("u", "y" * 400)) == ctx.jet("u", "x" * 400)


def test_rule_derivation_keeps_no_frame_per_step():
    # under a frame budget of 60 above the caller, chains of thousands of
    # steps, and chains that cross between heads at every step, derive cold
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        ctx, eq = _shifted_equation()
        assert eq.rule_for(ctx.jet_atom("u", "y" * 2000)) == ctx.jet("u", "x" * 2000)
        ctx, eq = _crossed_equation()
        assert eq.rule_for(ctx.jet_atom("u", "t" * 300)) == ctx.jet("u", "x" * 300)
    finally:
        sys.setrecursionlimit(limit)


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
    coords = internal_coordinates(eq, 2)
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
