"""Lagrangians, presymplectic potential currents and internal Lagrangian
representatives.
"""

from __future__ import annotations

from functools import cached_property

from .eqmanifold import SolvedEquation
from .errors import LagrangianError
from .forms import (
    DifferentialForm,
    _sort_generators,
    cartan_degree_filter,
    theta_image,
    volume_form,
)
from .jetcalc import (
    EvolutionaryField,
    JetContext,
    apply_evolutionary,
    first_variation,
    refuse_opaque_of,
    total_derivative,
    total_derivative_multi,
)
from .symexpr import BaseVar, Expression, JetCoord


class Lagrangian:
    """Horizontal top form L = density * dx^1 ^ ... ^ dx^n."""

    def __init__(self, ctx: JetContext, density: Expression):
        self.ctx, self.density = ctx, density
        # E_k(L) restricted, by (equation, k)
        self._on_shell: dict = {}
        self._admitted: set = set()  # dependents whose opaque refusal found nothing

    @cached_property
    def variation(self) -> tuple[dict, list]:
        """The first variation of the density, integrated by parts once:
        E(L) is read off its residues, omega_L off its boundary terms."""
        return first_variation(self.ctx, self.density)

    @cached_property
    def omega(self) -> DifferentialForm:
        """omega_L: each boundary term (c, u^k_beta, j) of the first variation
        contributes c theta^k_beta ^ (d/dx^j _| vol), and d/dx^j _| vol is
        (-1)^j times the wedge of every dx but dx^j."""
        ctx = self.ctx
        _, boundary = self.variation
        return DifferentialForm.from_terms(ctx, (
            (c if j % 2 == 0 else -c,
             (lower,) + tuple(BaseVar(i) for i in range(ctx.n) if i != j))
            for c, lower, j in boundary))

    def form(self) -> DifferentialForm:
        return DifferentialForm.scalar(self.density).wedge(volume_form(self.ctx))

    def euler(self, k: int) -> Expression:
        if k not in self._admitted:  # a refused k is never admitted, so refuses again
            refuse_opaque_of(self.ctx, self.density, k)
            self._admitted.add(k)
        return self.variation[0].get(JetCoord(k), self.ctx.zero())

    def on_shell_euler(self, k: int, eq: SolvedEquation) -> Expression:
        """E_k(L) restricted to the equation, computed once per equation."""
        key = eq, k
        if key not in self._on_shell:
            self._on_shell[key] = eq.restrict(self.euler(k))
        return self._on_shell[key]

    def euler_form(self) -> DifferentialForm:
        """E(L) as the source form  (delta lam / delta u^k) theta^k_0 ^ vol."""
        ctx = self.ctx
        out = DifferentialForm.zero(ctx)
        vol = volume_form(ctx)
        for k in range(ctx.m):
            e = self.euler(k)
            if e.is_zero():
                continue
            out = out + DifferentialForm.scalar(e).wedge(
                DifferentialForm.generator(ctx, JetCoord(k))).wedge(vol)
        return out


def presymplectic_potential(L: Lagrangian) -> DifferentialForm:
    """Boundary current omega_L with
    L_{E_phi} L = <E(L), phi> + d_h(E_phi _| omega_L) for every phi
    (``Lagrangian.omega``, built once per Lagrangian)."""
    return L.omega


class InternalLagrangianRep:
    """(L + omega_L) restricted to the equation manifold, with the presymplectic
    form d(L + omega_L)|_E = (d_V omega_L)|_E, which holds once E(L)|_E = 0."""

    def __init__(self, equation: SolvedEquation, form: DifferentialForm,
                 presymplectic: DifferentialForm):
        self.equation, self.form, self.presymplectic = equation, form, presymplectic


def internal_lagrangian(L: Lagrangian, eq: SolvedEquation) -> InternalLagrangianRep:
    """Restrict L + omega_L to the equation, with its d there.

    Requires, and first checks, that every Euler-Lagrange expression E_k(L)
    vanishes on the equation manifold.  The first variation gives
    dL = E(L) - d_h omega_L (Anderson, The Variational Bicomplex, ch. 1-2),
    so d(L + omega_L) = E(L) + d_V omega_L, and with E(L)|_E = 0 the
    presymplectic form is (d_V omega_L)|_E.  d_V vanishes on every dx and
    theta, so d_V (c gens) = sum (dc/du^k_alpha) theta^k_alpha ^ gens: two
    theta factors per term, in the square of the Cartan ideal by
    construction, and no total derivative is taken.
    """
    ctx = L.ctx
    if ctx is not eq.ctx:
        raise LagrangianError("Lagrangian and equation contexts differ")
    for k in range(ctx.m):
        residual = L.on_shell_euler(k, eq)
        if not residual.is_zero():
            raise LagrangianError(
                f"Euler expression for {ctx.dependents[k]!r} does not vanish "
                f"on the equation: {residual}")
    omega_L = presymplectic_potential(L)
    d_v_omega = DifferentialForm.from_terms(ctx, ((d, (a,) + gens)
                                                  for gens, c in omega_L.terms.items()
                                                  for a, d in theta_image(c)))
    return InternalLagrangianRep(eq, eq.restrict_form(L.form() + omega_L),
                                 eq.restrict_form(d_v_omega))


class PresymplecticStructure:
    """d of an internal Lagrangian representative, on the equation manifold."""

    def __init__(self, form: DifferentialForm):
        self.form = form

    @property
    def cartan2_part(self) -> DifferentialForm:
        return cartan_degree_filter(self.form, 2)


def presymplectic_structure(rep: InternalLagrangianRep) -> PresymplecticStructure:
    return PresymplecticStructure(rep.presymplectic)


def verify_omega_identity(L: Lagrangian, omega_L: DifferentialForm,
                          phi: EvolutionaryField) -> bool:
    """Decide L_{E_phi} L = <E(L), phi> + d_h(E_phi _| omega_L) on densities.

    Both sides are top forms, so the check is that the density

        pr phi(lam) - sum_k E_k(lam) phi^k - sum_j D_j(sum c D_beta phi^k)

    vanishes, with each (c, u^k_beta, j) read off a term of omega_L: a term
    c' dx^J ^ theta^k_beta, J all directions but j, has c = +-c', the sign of
    its generator order with theta^k_beta replaced by dx^j.  A term with no
    theta contracts to zero and contributes nothing; any other term that is
    not n-1 dx's and one theta makes the check return False.

    The density is linear in phi: sum A_{k beta} D_beta phi^k with
    coefficients A on the jet space, and it vanishes for every phi exactly
    when every A_{k beta} does (a total differential operator is zero only
    when all its coefficients are; Olver, Applications of Lie Groups to
    Differential Equations, 5.1).  So phi^k = f_k(x), opaque functions of
    the independents alone, decide it: each D_beta f_k is its own formal
    partial, algebraically independent of the jet coordinates and of the
    other partials, and the sum is zero only when every A_{k beta} is.  A
    phi depending on jet coordinates gives the same verdict at the cost of
    the chain rule through every argument.
    """
    ctx = L.ctx
    residual = apply_evolutionary(phi, L.density)
    for k in range(ctx.m):
        residual = residual - L.euler(k) * phi.component(k)
    fluxes = [ctx.zero() for _ in range(ctx.n)]
    for gens, coeff in omega_L.terms.items():
        thetas = [pos for pos, g in enumerate(gens) if isinstance(g, JetCoord)]
        if not thetas:
            continue
        missing = [i for i in range(ctx.n) if BaseVar(i) not in gens]
        if len(thetas) != 1 or len(gens) != ctx.n or len(missing) != 1:
            return False
        (pos,), (j,) = thetas, missing
        theta = gens[pos]
        sign, _ = _sort_generators(gens[:pos] + (BaseVar(j),) + gens[pos + 1:])
        flux = coeff * total_derivative_multi(ctx, theta.mindex, phi.component(theta.dep))
        fluxes[j] = fluxes[j] + flux if sign == 1 else fluxes[j] - flux
    for j, flux in enumerate(fluxes):
        residual = residual - total_derivative(ctx, j, flux)
    return residual.is_zero()
