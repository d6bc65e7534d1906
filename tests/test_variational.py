import random
import sys

import pytest

from jetvar import (
    DifferentialForm,
    EvolutionaryField,
    JetContext,
    Lagrangian,
    SolvedEquation,
    cartan_degree_filter,
    euler_derivative,
    exterior_derivative,
    internal_lagrangian,
    presymplectic_potential,
    presymplectic_structure,
    total_derivative,
    verify_omega_identity,
)
from jetvar import jetcalc
from jetvar.errors import DegreeError, LagrangianError, UnsupportedExpression
from jetvar.forms import theta_image, volume_form
from jetvar.frontend import parse
from jetvar.frontend.runner import build, bundled_fixture_names, fixture_text
from jetvar.spatial import is_gauge_trivial, reduce_mod_S2, spatial_structure
from jetvar.symexpr import JetCoord, MultiIndex, partial
from jetvar.variational import InternalLagrangianRep

from helpers import (
    E,
    F,
    boundary_loop_omega,
    context2,
    default_pool,
    form_omega_identity,
    laplace_equation,
    omega_mutations,
    per_dependent_euler,
    pkdv_equation,
    random_expression,
    volume_contraction,
    wave_equation,
)


def _test_phi(ctx, order=1):
    args = [ctx.base_atom(n) for n in ctx.independents]
    for dep in ctx.dependents:
        args.append(ctx.jet_atom(dep))
        if order >= 1:
            for i in range(ctx.n):
                args.append(JetCoord(ctx.dependent_index(dep), MultiIndex.single(i)))
    comps = []
    for dep in ctx.dependents:
        name = f"tph{order}_{dep}"
        ctx.declare_opaque(name, args)
        comps.append(ctx.expr(ctx.atom(name)))
    return EvolutionaryField(ctx, tuple(comps))


def _own_builds():
    """Every fixture built in a context of its own, so that the opaques
    _test_phi declares never reach the session-scoped fixtures."""
    return {name: build(parse(fixture_text(name))) for name in bundled_fixture_names()}


def _x_phi(ctx):
    """Characteristic of opaque functions of the independents alone."""
    args = [ctx.base_atom(n) for n in ctx.independents]
    return EvolutionaryField(ctx, tuple(
        ctx.expr(ctx.declare_opaque(f"xph_{dep}", args)) for dep in ctx.dependents))


def test_omega_L_laplace():
    ctx, eq = laplace_equation()
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    assert presymplectic_potential(lag) == \
        F("-u[x]*theta(u)*d(y) + u[y]*theta(u)*d(x)", ctx)


def test_omega_L_first_order_generic():
    # single integration-by-parts step: coefficients d(lam)/d(u_k)
    ctx = JetContext(["x", "y"], ["u"])
    lam = E("u*u[x]^2 + u[y]*u[x]", ctx)
    got = presymplectic_potential(lag := Lagrangian(ctx, lam))
    expected = DifferentialForm.zero(ctx)
    for i, spec in enumerate(("x", "y")):
        coeff = partial(lam, ctx.jet_atom("u", spec))
        expected = expected + coeff * DifferentialForm.generator(
            ctx, JetCoord(0)).wedge(volume_contraction(ctx, i))
    assert got == expected
    assert verify_omega_identity(lag, got, _test_phi(ctx))


def test_omega_L_maxwell_matches_field_strength(maxwell_built):
    # the field-strength current -F_mu_nu theta^nu ^ (d^mu _| vol) in coordinates
    built = maxwell_built
    ctx = built.ctx
    omega = presymplectic_potential(built.lagrangian)
    f0 = {i: E(f"A{i}[t] + A0[x{i}]", ctx) for i in (1, 2, 3)}
    fij = {(i, j): E(f"A{i}[x{j}] - A{j}[x{i}]", ctx)
           for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    expected = DifferentialForm.zero(ctx)
    theta = {nu: DifferentialForm.generator(ctx, ctx.jet_atom(f"A{nu}"))
             for nu in (0, 1, 2, 3)}
    for i in (1, 2, 3):
        # k = 0 (time leg): coefficient F^{0i} on theta^i, and spatial legs
        expected = expected + f0[i] * theta[i].wedge(volume_contraction(ctx, 0))
        expected = expected + f0[i] * theta[0].wedge(volume_contraction(ctx, i))
        for j in (1, 2, 3):
            if i != j:
                expected = expected + fij[(i, j)] * theta[j].wedge(
                    volume_contraction(ctx, i))
    assert omega == expected


def _assert_first_variation_matches_oracles(ctx, lam):
    lag = Lagrangian(ctx, lam)
    for k in range(ctx.m):
        expected = per_dependent_euler(ctx, lam, k)
        assert lag.euler(k) == expected
        assert euler_derivative(ctx, lam, k) == expected
    assert presymplectic_potential(lag) == boundary_loop_omega(lag)


def test_first_variation_matches_per_dependent_oracles_on_fixtures(all_built):
    for name, built in all_built.items():
        _assert_first_variation_matches_oracles(built.ctx, built.lagrangian.density)


def test_first_variation_matches_per_dependent_oracles_on_random_densities():
    rng = random.Random(20261018)
    for m in (1, 2, 3):
        ctx = JetContext(["x", "y"], ["u", "v", "w"][:m])
        pool = default_pool(ctx) + [ctx.jet_atom("u", "xxy"),
                                    ctx.jet_atom(ctx.dependents[-1], "yy")]
        for _ in range(10):
            lam = random_expression(rng, ctx, pool, max_terms=4, max_factors=3,
                                    allow_den=True, rational=True)
            _assert_first_variation_matches_oracles(ctx, lam)


def test_first_variation_keeps_the_opaque_refusal_per_dependent():
    # h(y, u[y]) refuses E_u, not E_v nor omega_L, whichever is asked first,
    # and E_u on every call: the Lagrangian admits only a dependent that passed
    ctx = context2()
    lag = Lagrangian(ctx, E("h(y, u[y])*u[x] + v[x]^2", ctx))
    assert lag.euler(1) == per_dependent_euler(ctx, lag.density, 1)
    assert lag.euler(1) == per_dependent_euler(ctx, lag.density, 1)
    assert presymplectic_potential(lag) == boundary_loop_omega(lag)
    for ask in (lambda: lag.euler(0), lambda: lag.euler(0),
                lambda: euler_derivative(ctx, lag.density, 0), lambda: lag.euler(0)):
        with pytest.raises(UnsupportedExpression, match="^euler_derivative: opaque symbol "
                           "depends on jet coordinates of 'u'"):
            ask()


def test_warm_reproduce_integrates_the_density_by_parts_once(monkeypatch):
    from jetvar.frontend import reproduce
    reproduce("maxwell")
    original, peels = jetcalc.integrate_by_parts, []

    def spy(coeffs, directions, derivative):
        directions = tuple(directions)
        if len(directions) == 4:  # every direction: the density, not a spatial pass
            peels.append(directions)
        return original(coeffs, directions, derivative)

    for name, module in list(sys.modules.items()):
        if name == "jetvar" or name.startswith("jetvar."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    assert reproduce("maxwell").exit_code == 0
    assert len(peels) == 1


def test_warm_reproduce_builds_omega_once(monkeypatch):
    from jetvar import variational
    from jetvar.frontend import reproduce
    reproduce("maxwell")
    original, forms = variational.presymplectic_potential, []

    def spy(L):
        forms.append(original(L))
        return forms[-1]

    for name, module in list(sys.modules.items()):
        if name == "jetvar" or name.startswith("jetvar."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    assert reproduce("maxwell").exit_code == 0
    assert len(forms) == 2  # the euler stage and internal_lagrangian
    assert forms[0] is forms[1]


@pytest.mark.parametrize("fixture", ["laplace", "wave", "pkdv", "maxwell"])
def test_reproduce_takes_no_exterior_derivative(monkeypatch, fixture):
    # the presymplectic form is the restriction of d_V omega_L: no run builds
    # the full d, restricts it, or filters it by Cartan degree
    from jetvar import forms
    from jetvar.frontend import reproduce
    calls = []

    def spying(original):
        def spy(*args):
            calls.append(original.__name__)
            return original(*args)
        return spy

    for original in (forms.exterior_derivative, forms.vertical_split,
                     forms.cartan_degree_filter):
        spy = spying(original)
        for name, module in list(sys.modules.items()):
            if name == "jetvar" or name.startswith("jetvar."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, spy)
    monkeypatch.setattr(SolvedEquation, "restricted_exterior_derivative",
                        spying(SolvedEquation.restricted_exterior_derivative))
    assert reproduce(fixture).exit_code == 0
    assert calls == []


def test_internal_lagrangian_laplace_golden():
    ctx, eq = laplace_equation()
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    rep = internal_lagrangian(lag, eq)
    assert rep.form == F(
        "-((u[x]^2 + u[y]^2)/2)*d(x)*d(y) - u[x]*theta(u)*d(y) + u[y]*theta(u)*d(x)",
        ctx)


def test_internal_lagrangian_wave_golden():
    ctx, eq = wave_equation()
    lag = Lagrangian(ctx, E("-(u[x]*u[y])/2", ctx))
    rep = internal_lagrangian(lag, eq)
    assert rep.form == F(
        "-((u[x]*u[y])/2)*d(x)*d(y) - (u[y]/2)*theta(u)*d(y) - (u[x]/2)*d(x)*theta(u)",
        ctx)


def test_internal_lagrangian_pkdv_golden():
    ctx, eq = pkdv_equation()
    lag = Lagrangian(ctx, E("u[x]*u[t]/2 - u[x]^3 + u[xx]^2/2", ctx))
    rep = internal_lagrangian(lag, eq)
    assert rep.form == F(
        "(u[x]*(3*u[x]^2 + u[xxx])/2 - u[x]^3 + u[xx]^2/2)*d(t)*d(x)"
        " - ((3*u[x]^2 + u[xxx])/2)*d(t)*theta(u)"
        " + u[xx]*d(t)*theta(u[x]) + (u[x]/2)*theta(u)*d(x)", ctx)


def test_internal_lagrangian_rejects_off_shell():
    ctx, eq = laplace_equation()
    lag = Lagrangian(ctx, E("u[x]^2", ctx))  # Euler = -2 u_xx, nonzero on E
    with pytest.raises(LagrangianError):
        internal_lagrangian(lag, eq)


def test_presymplectic_laplace_golden():
    ctx, eq = laplace_equation()
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    rep = internal_lagrangian(lag, eq)
    sigma = presymplectic_structure(rep)
    expected = F("theta(u[y])*theta(u)*d(x) - theta(u[x])*theta(u)*d(y)", ctx)
    assert sigma.form == expected
    assert sigma.cartan2_part == sigma.form


def test_presymplectic_wave_s_reduction():
    ctx, eq = wave_equation()
    lag = Lagrangian(ctx, E("-(u[x]*u[y])/2", ctx))
    rep = internal_lagrangian(lag, eq)
    sigma = presymplectic_structure(rep)
    from jetvar.spatial import s_presymplectic_representative
    assert s_presymplectic_representative(1, sigma.form) == \
        F("(theta(u[x])*theta(u)*d(x))/2", ctx)


def _assert_presymplectic_is_restricted_d(lag, eq, label):
    # internal_lagrangian restricts d_V omega_L; the oracle restricts the full
    # d of the representative, which lies in the square of the Cartan ideal
    rep = internal_lagrangian(lag, eq)
    d_rep = eq.restricted_exterior_derivative(rep.form)
    assert rep.presymplectic == d_rep, label
    assert cartan_degree_filter(d_rep, 2) == d_rep, label


def test_presymplectic_pure_cartan_degree_two(all_built):
    for name, built in all_built.items():
        if built.lagrangian is None:
            continue
        _assert_presymplectic_is_restricted_d(built.lagrangian, built.eq, name)


def test_presymplectic_matches_restricted_d_on_random_null_lagrangians():
    # a fixture Lagrangian plus a random total divergence has the same Euler
    # expressions, so it is accepted, while omega_L and the representative
    # change with the divergence; Laplace in three independents gives omega_L
    # odd degree, so the side theta is wedged on matters
    rng = random.Random(20261018)
    ctx3 = JetContext(["x", "y", "z"], ["u"])
    laplace3 = SolvedEquation(ctx3, [(ctx3.jet_atom("u", "zz"), E("-u[xx] - u[yy]", ctx3))])
    for (ctx, eq), density in ((laplace_equation(), "-(u[x]^2 + u[y]^2)/2"),
                               (wave_equation(), "-(u[x]*u[y])/2"),
                               (pkdv_equation(), "u[x]*u[t]/2 - u[x]^3 + u[xx]^2/2"),
                               ((ctx3, laplace3), "-(u[x]^2 + u[y]^2 + u[z]^2)/2")):
        pool = [ctx.base_atom(name) for name in ctx.independents] + [
            ctx.jet_atom("u", spec) for spec in ("", *ctx.independents, "xx")]
        for _ in range(8):
            lam = E(density, ctx)
            for i in range(ctx.n):
                lam = lam + total_derivative(ctx, i, random_expression(
                    rng, ctx, pool, max_terms=3, max_factors=2, rational=True))
            _assert_presymplectic_is_restricted_d(Lagrangian(ctx, lam), eq, str(lam))


def test_first_variation_gives_d_of_lagrangian_plus_omega_on_random_densities():
    # off shell, on the free jet space: d(L + omega_L) = E(L) + d_V omega_L,
    # with d_V omega_L the theta part of d of each coefficient
    rng = random.Random(20261018)
    for m in (1, 2, 3):
        ctx = JetContext(["x", "y"], ["u", "v", "w"][:m])
        pool = default_pool(ctx) + [ctx.jet_atom("u", "xxy"),
                                    ctx.jet_atom(ctx.dependents[-1], "yy")]
        for _ in range(10):
            lag = Lagrangian(ctx, random_expression(rng, ctx, pool, max_terms=4, max_factors=3,
                                                    allow_den=True, rational=True))
            d_v_omega = DifferentialForm.from_terms(ctx, (
                (d, (a,) + gens)
                for gens, c in lag.omega.terms.items() for a, d in theta_image(c)))
            d_omega = exterior_derivative(lag.omega)
            assert d_v_omega == cartan_degree_filter(d_omega, 2), str(lag.density)
            assert exterior_derivative(lag.form() + lag.omega) - d_v_omega == \
                lag.euler_form(), str(lag.density)


def test_omega_identity_all_fixtures():
    for name, built in _own_builds().items():
        lag = built.lagrangian
        omega = presymplectic_potential(lag)
        phi = _test_phi(lag.ctx)
        assert verify_omega_identity(lag, omega, phi), name


def test_omega_identity_fails_without_boundary_term():
    ctx, eq = laplace_equation()
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    phi = _test_phi(ctx)
    assert not verify_omega_identity(lag, DifferentialForm.zero(ctx), phi)


def test_omega_identity_matches_form_oracle():
    # the density check and the form-level identity agree for a characteristic
    # of the independents and for a jet-dependent one, on omega_L and on every
    # single-term mutation of it, and every mutation is refused
    for name, built in _own_builds().items():
        lag = built.lagrangian
        omega = presymplectic_potential(lag)
        for phi in (_x_phi(lag.ctx), _test_phi(lag.ctx)):
            assert verify_omega_identity(lag, omega, phi), name
            assert form_omega_identity(lag, omega, phi), name
            for label, mutated in omega_mutations(omega):
                assert not verify_omega_identity(lag, mutated, phi), (name, label)
                assert not form_omega_identity(lag, mutated, phi), (name, label)


def test_omega_identity_characteristic_of_independents_decides_random():
    # random second-order polynomial densities on two independents: the
    # verdict for phi = f(x, y) is the verdict for a jet-dependent phi
    rng = random.Random(20261018)
    mutations = 0
    for _ in range(30):
        ctx = JetContext(["x", "y"], ["u", "v"][:rng.randint(1, 2)])
        pool = [ctx.base_atom("x"), ctx.base_atom("y")] + [
            ctx.jet_atom(dep, spec) for dep in ctx.dependents
            for spec in ("", "x", "y", "xx", "xy", "yy")]
        lag = Lagrangian(ctx, random_expression(rng, ctx, pool, max_terms=4,
                                                  max_factors=3))
        omega = presymplectic_potential(lag)
        x_phi, jet_phi = _x_phi(ctx), _test_phi(ctx)
        assert verify_omega_identity(lag, omega, x_phi)
        assert verify_omega_identity(lag, omega, jet_phi)
        for label, mutated in omega_mutations(omega):
            mutations += 1
            assert verify_omega_identity(lag, mutated, x_phi) == \
                verify_omega_identity(lag, mutated, jet_phi), (str(lag.density), label)
    assert mutations > 0


def test_omega_identity_term_shapes():
    # a term without theta contracts to zero; a term with theta that is not
    # n-1 dx's and one theta makes the check refuse, never raise
    ctx, _ = laplace_equation()
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    omega = presymplectic_potential(lag)
    phi = _x_phi(ctx)
    u = E("u", ctx)
    for horizontal in (F("u*d(x)", ctx), DifferentialForm.scalar(u),
                       u * volume_form(ctx)):
        assert verify_omega_identity(lag, omega + horizontal, phi)
        assert form_omega_identity(lag, omega + horizontal, phi)
    theta_u = DifferentialForm.generator(ctx, JetCoord(0))
    theta_ux = DifferentialForm.generator(ctx, JetCoord(0, MultiIndex.single(0)))
    for shape in (theta_u, u * theta_u.wedge(volume_form(ctx)),
                  theta_u.wedge(theta_ux), F("d(x)", ctx).wedge(theta_u).wedge(theta_ux)):
        assert not verify_omega_identity(lag, omega + shape, phi), str(shape)
    # the sign of a term comes from its generator order, canonical or not
    flipped = DifferentialForm(ctx, {
        gens[::-1]: -coeff for gens, coeff in omega.terms.items()})
    assert flipped.terms.keys() != omega.terms.keys()
    assert verify_omega_identity(lag, flipped, phi)
    assert form_omega_identity(lag, flipped, phi)
    with pytest.raises(DegreeError):
        form_omega_identity(lag, omega + F("d(x)", ctx).wedge(theta_u).wedge(theta_ux), phi)


def _alternative_potential(lag):
    """Independent integration-by-parts route: peel the smallest atom first
    and the smallest direction first."""
    ctx = lag.ctx
    coeffs = {}
    for atom in lag.density.jet_atoms():
        c = partial(lag.density, atom)
        if not c.is_zero():
            coeffs[atom] = c
    omega = DifferentialForm.zero(ctx)
    while True:
        pending = sorted(a for a in coeffs if a.mindex.order >= 1)
        if not pending:
            break
        atom = pending[0]
        c = coeffs.pop(atom)
        if c.is_zero():
            continue
        j = min(atom.mindex.indices())
        beta = atom.mindex - MultiIndex.single(j)
        omega = omega + c * DifferentialForm.generator(
            ctx, JetCoord(atom.dep, beta)).wedge(volume_contraction(ctx, j))
        lower = JetCoord(atom.dep, beta)
        coeffs[lower] = coeffs.get(lower, ctx.zero()) - total_derivative(ctx, j, c)
    return omega


def _assert_routes_equivalent(lag, eq, resolution=None, resolution_temporal=None):
    from jetvar.errors import UnresolvedConstraint
    ctx = lag.ctx
    alt = _alternative_potential(lag)
    assert verify_omega_identity(lag, alt, _test_phi(ctx, order=0))
    rep_a = internal_lagrangian(lag, eq)
    rep_b = eq.restrict_form(lag.form() + alt)
    difference = rep_a.form - rep_b
    for t in range(ctx.n):
        reduced = reduce_mod_S2(t, difference)
        res = resolution if t == resolution_temporal else None
        try:
            assert is_gauge_trivial(spatial_structure(eq, t), reduced, res)
        except UnresolvedConstraint:
            # frames whose spatial equation has an unresolved constraint are
            # outside the oracle; the declared frame is always decidable
            continue


def test_potential_route_independence_up_to_triviality():
    # two admissible integration-by-parts orders give representatives whose
    # difference is trivial for every decidable coordinate spatial frame
    for name, built in _own_builds().items():
        _assert_routes_equivalent(built.lagrangian, built.eq, built.resolution,
                                  built.temporal)


def test_potential_route_independence_second_order_mixed():
    # u * u_xy on the wave equation: the two peeling orders genuinely differ
    ctx, eq = wave_equation()
    lag = Lagrangian(ctx, E("u*u[xy]", ctx))
    main = presymplectic_potential(lag)
    alt = _alternative_potential(lag)
    assert main != alt
    _assert_routes_equivalent(lag, eq)


def test_rep_carries_equation():
    ctx, eq = laplace_equation()
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    rep = internal_lagrangian(lag, eq)
    assert isinstance(rep, InternalLagrangianRep)
    assert rep.equation is eq
