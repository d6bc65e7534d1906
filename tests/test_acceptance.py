"""Acceptance criteria, one test per criterion.

Every expected value is either an exact paper formula (fixture golden) or
computed by an independent oracle inside the test; comparisons are exact
equality of canonical forms.  The randomized suites run 200 cases from a
fixed seed.
"""

import random

from jetvar import (
    EvolutionaryField,
    SolvedEquation,
    SSymmetryCandidate,
    apply_evolutionary,
    euler_derivative,
    exterior_derivative,
    extend_S_symmetry,
    horizontal_differential,
    internal_lagrangian,
    is_gauge_symmetry,
    is_gauge_trivial,
    presymplectic_potential,
    reduce_mod_S2,
    s_presymplectic_representative,
    total_derivative,
    verify_omega_identity,
)
from jetvar.errors import SSymmetryError
from jetvar.frontend import parse, reproduce, run_check
from jetvar.frontend.runner import build, bundled_fixture_names, fixture_text

from helpers import (
    E,
    F,
    commutator_scan,
    context2,
    default_pool,
    random_expression,
    random_form,
)

SEED = 20260809
CASES = 200


def _line(number, label, ok):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


# -- 1. Laplace ----------------------------------------------------------------


def test_acceptance_1_laplace(laplace_built):
    built = laplace_built
    ctx, eq, frame = built.ctx, built.eq, built.frame
    rep = internal_lagrangian(built.lagrangian, eq)
    golden_l = F(
        "-((u[x]^2 + u[y]^2)/2)*d(x)*d(y) - u[x]*theta(u)*d(y) + u[y]*theta(u)*d(x)",
        ctx)
    ok = rep.form == golden_l

    dl = eq.restricted_exterior_derivative(rep.form)
    golden_dl = F("-theta(u[x])*theta(u)*d(y) + theta(u[y])*theta(u)*d(x)", ctx)
    ok = ok and dl == golden_dl

    reduced = s_presymplectic_representative(frame, dl)
    ok = ok and reduced == F("theta(u[y])*theta(u)*d(x)", ctx)
    ok = ok and (dl - reduced) == F("-theta(u[x])*theta(u)*d(y)", ctx)

    u, uy = ctx.jet_atom("u"), ctx.jet_atom("u", "y")
    zero = ctx.zero()
    phi_op = E("phi(x, y, u, u[x], u[y])", ctx)
    chi_op = E("chi(x, y, u, u[y])", ctx)
    battery = [
        (zero, zero, True),
        (ctx.one(), zero, False),
        (zero, ctx.one(), False),
        (ctx.var("u"), zero, False),
        (zero, E("u[y]", ctx), False),
        (E("u[x]", ctx), E("u[xy]", ctx), False),
        (ctx.var("x"), zero, False),
        (E("u[y]^2", ctx), ctx.var("u"), False),
        (phi_op, zero, False),
        (zero, chi_op, False),
        (phi_op, chi_op, False),
        (E("u - u", ctx), zero, True),
    ]
    for phi, chi, expected in battery:
        cand = SSymmetryCandidate({u: phi, uy: chi})
        ok = ok and is_gauge_symmetry(rep, extend_S_symmetry(eq, frame, cand)) == expected
    _line(1, "laplace reproduction and gauge battery", ok)


# -- 2. Wave --------------------------------------------------------------------


def test_acceptance_2_wave(wave_built):
    built = wave_built
    ctx, eq, frame = built.ctx, built.eq, built.frame
    rep = internal_lagrangian(built.lagrangian, eq)
    dl = eq.restricted_exterior_derivative(rep.form)
    omega = s_presymplectic_representative(frame, dl)
    ok = omega == F("(theta(u[x])*theta(u)*d(x))/2", ctx)

    u, uy, uyy = ctx.jet_atom("u"), ctx.jet_atom("u", "y"), ctx.jet_atom("u", "yy")
    p0 = E("p0(y, u[y], u[yy])", ctx)
    cand = SSymmetryCandidate({u: p0, uy: E("p1(y, u[y])", ctx),
                               uyy: E("p2(y, u[yy])", ctx)})
    ext = extend_S_symmetry(eq, frame, cand)
    # paper display: Y_phi _| omega = (phi_0/2) dx ^ theta_x
    contracted = ext.contract(omega)
    ok = ok and contracted == (p0 / 2) * F("d(x)*theta(u[x])", ctx)

    instances = [
        {u: p0, uy: E("p1(y, u[y])", ctx), uyy: E("p2(y, u[yy])", ctx)},
        {u: E("y*u[y]^2", ctx), uy: E("u[yy]^3", ctx)},
        {u: E("u[y]*u[yy]", ctx)},
        {u: E("y^3", ctx), uyy: E("u[y]", ctx)},
        {u: ctx.const(5), uy: E("u[yy]", ctx)},
        {u: E("u[y] + y", ctx), uy: p0},
    ]
    for comps in instances:
        ok = ok and is_gauge_symmetry(
            rep, extend_S_symmetry(eq, frame, SSymmetryCandidate(comps)))
    _line(2, "wave S-presymplectic form and gauge family", ok)


# -- 3. Maxwell -------------------------------------------------------------------


def test_acceptance_3_maxwell(maxwell_built):
    built = maxwell_built
    ctx, eq, frame = built.ctx, built.eq, built.frame
    lam = built.lagrangian.density

    # independent oracle: field strengths from their definition, then the
    # Maxwell operator with metric signs g = diag(+,-,-,-)
    fs = {}
    for i in (1, 2, 3):
        fs[(0, i)] = E(f"A{i}[t] + A0[x{i}]", ctx)
        fs[(i, 0)] = -fs[(0, i)]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                fs[(i, j)] = E(f"A{i}[x{j}] - A{j}[x{i}]", ctx)
    ok = True
    for nu in range(4):
        oracle = ctx.zero()
        for mu in range(4):
            if mu == nu:
                continue
            oracle = oracle + total_derivative(ctx, mu, fs[(mu, nu)])
        sign = 1 if nu == 0 else -1
        got = euler_derivative(ctx, lam, ctx.dependent_index(f"A{nu}"))
        ok = ok and got == sign * oracle

    rep = internal_lagrangian(built.lagrangian, eq)
    dl = eq.restricted_exterior_derivative(rep.form)
    omega = s_presymplectic_representative(frame, dl)
    golden = F(
        "(theta(F01)*theta(A1) + theta(F02)*theta(A2) + theta(F03)*theta(A3))"
        "*d(x1)*d(x2)*d(x3)", ctx)
    ok = ok and omega == golden

    res = built.resolution
    A = {i: ctx.jet_atom(f"A{i}") for i in (1, 2, 3)}
    Fdep = {i: ctx.jet_atom(f"F0{i}") for i in (1, 2, 3)}

    def check(comps, expected):
        cand = SSymmetryCandidate(comps)
        return is_gauge_symmetry(rep, extend_S_symmetry(eq, frame, cand), res) == expected

    # chi^i = D^i(eps) = -Dbar_i(eps), eta = 0: gauge
    eps = E("eps(t, x1, x2, x3)", ctx)
    grad = {A[i]: -eq.restricted_total_derivative(i, eps) for i in (1, 2, 3)}
    ok = ok and check(grad, True)
    for eps2 in (E("F01", ctx), E("A0 + x1^2", ctx)):
        comps = {A[i]: -eq.restricted_total_derivative(i, eps2) for i in (1, 2, 3)}
        ok = ok and check(comps, True)

    # (a) chi not spatially closed
    not_closed = [
        {A[1]: ctx.var("A2")},
        {A[2]: E("x1*A3", ctx)},
        {A[3]: ctx.var("F02")},
    ]
    for comps in not_closed:
        ok = ok and check(comps, False)

    # (b) eta nonzero, divergence-free via an antisymmetric potential
    div_free = [
        {Fdep[1]: E("A3[x2]", ctx), Fdep[2]: E("-A3[x1]", ctx)},
        {Fdep[2]: E("F03[x3]", ctx), Fdep[3]: E("-F03[x2]", ctx)},
        {Fdep[1]: E("-A0[x3]", ctx), Fdep[3]: E("A0[x1]", ctx)},
    ]
    for comps in div_free:
        ok = ok and check(comps, False)
    _line(3, "maxwell euler components, omega, gauge classification", ok)


# -- 4. Potential KdV --------------------------------------------------------------


def test_acceptance_4_pkdv(pkdv_built):
    built = pkdv_built
    ctx, eq, frame = built.ctx, built.eq, built.frame
    lam = built.lagrangian.density
    ok = eq.restrict(euler_derivative(ctx, lam, 0)).is_zero()

    rep = internal_lagrangian(built.lagrangian, eq)
    dl = eq.restricted_exterior_derivative(rep.form)
    omega = s_presymplectic_representative(frame, dl)
    ok = ok and omega == F("(theta(u[x])*theta(u)*d(x))/2", ctx)

    u = ctx.jet_atom("u")
    cases = [
        (E("g(t)", ctx), True),
        (ctx.var("u"), False),
        (E("u[x]", ctx), False),
        (E("x*u[x]", ctx), False),
    ]
    for phi, expected in cases:
        cand = SSymmetryCandidate({u: phi})
        ok = ok and is_gauge_symmetry(rep, extend_S_symmetry(eq, frame, cand)) == expected
    _line(4, "pkdv on-shell euler, omega, gauge classification", ok)


# -- 5. Randomized property suite ---------------------------------------------------


def test_acceptance_5_properties(all_built):
    ctx = context2()
    pool = default_pool(ctx)
    coord_pool = [a for a in pool if not hasattr(a, "args")]
    ok = True

    rng = random.Random(SEED)
    for _ in range(CASES):
        e = random_expression(rng, ctx, pool)
        dxy = total_derivative(ctx, 1, total_derivative(ctx, 0, e))
        dyx = total_derivative(ctx, 0, total_derivative(ctx, 1, e))
        ok = ok and dxy == dyx
    _line(5, "total derivatives commute", ok)

    rng = random.Random(SEED + 1)
    for _ in range(CASES):
        form = random_form(rng, ctx, pool, rng.randint(0, 3))
        ok = ok and exterior_derivative(exterior_derivative(form)).is_zero()
    _line(5, "d o d = 0", ok)

    rng = random.Random(SEED + 2)
    for _ in range(CASES):
        coeff = random_expression(rng, ctx, pool)
        base = F("d(x)", ctx) if rng.random() < 0.5 else F("d(y)", ctx)
        form = coeff * base
        ok = ok and horizontal_differential(horizontal_differential(form)).is_zero()
    _line(5, "d_h o d_h = 0", ok)

    rng = random.Random(SEED + 3)
    for _ in range(CASES):
        parts = [random_expression(rng, ctx, coord_pool) for _ in range(2)]
        div = total_derivative(ctx, 0, parts[0]) + total_derivative(ctx, 1, parts[1])
        ok = ok and euler_derivative(ctx, div, 0).is_zero()
        ok = ok and euler_derivative(ctx, div, 1).is_zero()
    _line(5, "euler annihilates total divergences", ok)

    rng = random.Random(SEED + 4)
    for _ in range(CASES):
        e = random_expression(rng, ctx, pool)
        phi = EvolutionaryField(ctx, (random_expression(rng, ctx, coord_pool),
                                      random_expression(rng, ctx, coord_pool)))
        i = rng.randint(0, 1)
        lhs = apply_evolutionary(phi, total_derivative(ctx, i, e))
        rhs = total_derivative(ctx, i, apply_evolutionary(phi, e))
        ok = ok and lhs == rhs
    _line(5, "evolutionary fields commute with total derivatives", ok)

    lctx = context2()
    eq = SolvedEquation(lctx, [(lctx.jet_atom("u", "yy"), E("-u[xx]", lctx))])
    lpool = default_pool(lctx) + [lctx.jet_atom("u", "yy"), lctx.jet_atom("u", "xyy")]
    rng = random.Random(SEED + 5)
    for _ in range(CASES):
        a = random_expression(rng, lctx, lpool)
        b = random_expression(rng, lctx, lpool)
        ra, rb = eq.restrict(a), eq.restrict(b)
        ok = ok and eq.restrict(ra) == ra
        ok = ok and eq.restrict(a * b) == ra * rb
        ok = ok and eq.restrict(a + b) == ra + rb
    _line(5, "restriction is an idempotent ring homomorphism", ok)

    for name, built in all_built.items():
        commutator_scan(built.eq, 4)
    _line(5, "restricted total derivatives commute to order 4 on all fixtures", True)


# -- 6. omega_L contract ------------------------------------------------------------


def test_acceptance_6_omega_identity():
    ok = True
    for name in bundled_fixture_names():
        # its own context: the acc6_* opaques must not reach the shared fixtures
        built = build(parse(fixture_text(name)))
        ctx = built.ctx
        lag = built.lagrangian
        omega_L = presymplectic_potential(lag)
        args = [ctx.base_atom(n) for n in ctx.independents]
        args += [ctx.jet_atom(d) for d in ctx.dependents]
        args += sorted(lag.density.jet_atoms(), key=lambda a: a.key())
        seen, unique = set(), []
        for a in args:
            if a not in seen:
                seen.add(a)
                unique.append(a)
        comps = []
        for dep in ctx.dependents:
            nm = f"acc6_{dep}"
            ctx.declare_opaque(nm, unique)
            comps.append(ctx.expr(ctx.atom(nm)))
        phi = EvolutionaryField(ctx, tuple(comps))
        ok = ok and verify_omega_identity(lag, omega_L, phi)
    _line(6, "omega_L identity with fully opaque characteristic", ok)


# -- 7. structural gauge properties -----------------------------------------------------


def test_acceptance_7_gauge_structure(all_built):
    ok = True
    for name, built in all_built.items():
        ctx, eq, frame = built.ctx, built.eq, built.frame
        rep = internal_lagrangian(built.lagrangian, eq)
        dl = eq.restricted_exterior_derivative(rep.form)
        omega = s_presymplectic_representative(frame, dl)
        for cname, cand in built.candidates.items():
            try:
                ext = extend_S_symmetry(eq, frame, cand)
            except SSymmetryError:
                continue
            passes = is_gauge_symmetry(rep, ext, built.resolution)
            # a gauge symmetry must contract into dl itself as a trivial
            # spatial variational 1-form, through either representative
            direct = is_gauge_trivial(
                frame, eq, reduce_mod_S2(frame, ext.contract(dl)), built.resolution)
            via_omega = is_gauge_trivial(
                frame, eq, reduce_mod_S2(frame, ext.contract(omega)), built.resolution)
            ok = ok and (direct == passes) and (via_omega == passes)
            if passes:
                ok = ok and direct and via_omega
    _line(7, "gauge symmetries contract trivially into dl", ok)

    # an honest gauge symmetry of the equation must classify gauge-trivial:
    # the Maxwell characteristic d_mu(eps), checked for the t-frame
    built = all_built["maxwell"]
    ctx, eq, frame = built.ctx, built.eq, built.frame
    rep = internal_lagrangian(built.lagrangian, eq)
    eps = E("eps(t, x1, x2, x3)", ctx)
    comps = {}
    for i in (1, 2, 3):
        comps[ctx.jet_atom(f"A{i}")] = -eq.restricted_total_derivative(i, eps)
    comps[ctx.jet_atom("A0")] = eq.restricted_total_derivative(0, eps)
    comps[ctx.jet_atom("A0", "t")] = eq.restricted_total_derivative(
        0, eq.restricted_total_derivative(0, eps))
    cand = SSymmetryCandidate(comps)
    ok2 = is_gauge_symmetry(rep, extend_S_symmetry(eq, frame, cand), built.resolution)

    # the same characteristic annihilates the free-jet Maxwell operator
    lam = built.lagrangian.density
    field_comps = []
    for dep in ctx.dependents:
        coord = ctx.jet_atom(dep)
        field_comps.append(cand.normalized(ctx).get(coord, ctx.zero()))
    phi = EvolutionaryField(ctx, tuple(field_comps))
    for nu in range(4):
        residual = eq.restrict(apply_evolutionary(
            phi, euler_derivative(ctx, lam, ctx.dependent_index(f"A{nu}"))))
        ok2 = ok2 and residual.is_zero()
    _line(7, "maxwell gauge characteristic passes for the t-frame", ok2)


# -- 8. frontend -----------------------------------------------------------------------


def test_acceptance_8_frontend():
    ok = True
    for name in bundled_fixture_names():
        text = fixture_text(name)
        problem = parse(text)
        ok = ok and parse(problem.serialize()) == problem
        report = reproduce(name)
        ok = ok and report.exit_code == 0

    corrupted = fixture_text("laplace").replace(
        "expect euler[u] = u[xx] + u[yy]",
        "expect euler[u] = u[xx] - u[yy]")
    report = run_check(corrupted, name="laplace-corrupt")
    failed = [c for c in report.checks if c.status == "fail"]
    ok = ok and report.exit_code == 1 and failed and failed[0].line is not None
    ok = ok and failed[0].computed is not None and failed[0].expected is not None

    unresolved = "\n".join(line for line in fixture_text("maxwell").splitlines()
                           if not line.startswith("resolve"))
    report = run_check(unresolved, name="maxwell-noresolve")
    ok = ok and report.exit_code == 2
    _line(8, "fixtures parse, round-trip, reproduce; failure exit codes", ok)
