import pytest

from jetvar import (
    DifferentialForm,
    EvolutionaryField,
    Lagrangian,
    cartan_degree_filter,
    internal_lagrangian,
    presymplectic_potential,
    presymplectic_structure,
    total_derivative,
    verify_omega_identity,
)
from jetvar.errors import LagrangianError
from jetvar.forms import THETA, volume_contraction
from jetvar.spatial import SpatialFrame, is_gauge_trivial, reduce_mod_S2
from jetvar.symexpr import JetCoord, MultiIndex, partial
from jetvar.variational import InternalLagrangianRep

from helpers import E, F, laplace_equation, pkdv_equation, wave_equation


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


def test_omega_L_laplace():
    ctx, eq = laplace_equation()
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    assert presymplectic_potential(lag) == \
        F("-u[x]*theta(u)*d(y) + u[y]*theta(u)*d(x)", ctx)


def test_omega_L_first_order_generic():
    # single integration-by-parts step: coefficients d(lam)/d(u_k)
    from jetvar import JetContext
    ctx = JetContext(["x", "y"], ["u"])
    lam = E("u*u[x]^2 + u[y]*u[x]", ctx)
    got = presymplectic_potential(lag := Lagrangian(ctx, lam))
    expected = DifferentialForm.zero(ctx)
    for i, spec in enumerate(("x", "y")):
        coeff = partial(lam, ctx.jet_atom("u", spec))
        expected = expected + coeff * DifferentialForm.generator(
            ctx, THETA(0)).wedge(volume_contraction(ctx, i))
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
    theta = {nu: DifferentialForm.generator(ctx, THETA(ctx.dependent_index(f"A{nu}")))
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
    frame = SpatialFrame(1)
    assert s_presymplectic_representative(frame, sigma.form) == \
        F("(theta(u[x])*theta(u)*d(x))/2", ctx)


def test_presymplectic_pure_cartan_degree_two(all_built):
    for name, built in all_built.items():
        if built.lagrangian is None:
            continue
        rep = internal_lagrangian(built.lagrangian, built.eq)
        d_rep = built.eq.restricted_exterior_derivative(rep.form)
        assert rep.presymplectic == d_rep, name
        assert cartan_degree_filter(d_rep, 2) == d_rep, name


def test_omega_identity_all_fixtures(all_built):
    for name, built in all_built.items():
        lag = built.lagrangian
        omega = presymplectic_potential(lag)
        phi = _test_phi(lag.ctx)
        assert verify_omega_identity(lag, omega, phi), name


def test_omega_identity_fails_without_boundary_term():
    ctx, eq = laplace_equation()
    lag = Lagrangian(ctx, E("-(u[x]^2 + u[y]^2)/2", ctx))
    phi = _test_phi(ctx)
    assert not verify_omega_identity(lag, DifferentialForm.zero(ctx), phi)


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
        pending = sorted((a for a in coeffs if a.mindex.order >= 1),
                         key=lambda a: a.key())
        if not pending:
            break
        atom = pending[0]
        c = coeffs.pop(atom)
        if c.is_zero():
            continue
        j = min(atom.mindex.indices())
        beta = atom.mindex - MultiIndex.single(j)
        omega = omega + c * DifferentialForm.generator(
            ctx, THETA(atom.dep, beta)).wedge(volume_contraction(ctx, j))
        lower = JetCoord(atom.dep, beta)
        coeffs[lower] = coeffs.get(lower, ctx.zero()) - total_derivative(ctx, j, c)
    return omega


def _assert_routes_equivalent(lag, eq, resolution=None, resolution_frame=None):
    from jetvar.errors import UnresolvedConstraint
    ctx = lag.ctx
    alt = _alternative_potential(lag)
    assert verify_omega_identity(lag, alt, _test_phi(ctx, order=0))
    rep_a = internal_lagrangian(lag, eq)
    rep_b = eq.restrict_form(lag.form() + alt)
    difference = rep_a.form - rep_b
    for a in range(ctx.n):
        frame = SpatialFrame(a)
        reduced = reduce_mod_S2(frame, difference)
        res = resolution if frame == resolution_frame else None
        try:
            assert is_gauge_trivial(frame, eq, reduced, res)
        except UnresolvedConstraint:
            # frames whose spatial equation has an unresolved constraint are
            # outside the oracle; the declared frame is always decidable
            continue


def test_potential_route_independence_up_to_triviality(all_built):
    # two admissible integration-by-parts orders give representatives whose
    # difference is trivial for every decidable coordinate spatial frame
    for name, built in all_built.items():
        _assert_routes_equivalent(built.lagrangian, built.eq, built.resolution,
                                  built.frame)


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
