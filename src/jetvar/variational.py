"""Lagrangians, presymplectic potential currents and internal Lagrangian
representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eqmanifold import SolvedEquation
from .errors import LagrangianError
from .forms import (
    DifferentialForm,
    THETA,
    cartan_degree_filter,
    contract_evolutionary,
    horizontal_differential,
    lie_derivative_evolutionary,
    volume_contraction,
    volume_form,
)
from .jetcalc import (
    EvolutionaryField,
    JetContext,
    euler_derivative,
    integrate_by_parts,
    total_derivative,
)
from .symexpr import Expression, partial


@dataclass(frozen=True)
class Lagrangian:
    """Horizontal top form L = density * dx^1 ^ ... ^ dx^n."""

    ctx: JetContext
    density: Expression

    def form(self) -> DifferentialForm:
        return DifferentialForm.scalar(self.density).wedge(volume_form(self.ctx))

    def euler(self, k: int) -> Expression:
        return euler_derivative(self.ctx, self.density, k)

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
                DifferentialForm.generator(ctx, THETA(k))).wedge(vol)
        return out


def presymplectic_potential(L: Lagrangian) -> DifferentialForm:
    """Boundary current omega_L with
    L_{E_phi} L = <E(L), phi> + d_h(E_phi _| omega_L) for every phi.

    Each boundary term (c, u^k_beta, j) of integrating the variational
    pairing by parts contributes c theta^k_beta ^ (d/dx^j _| vol).
    """
    ctx = L.ctx
    coeffs = {atom: partial(L.density, atom) for atom in L.density.jet_atoms()}
    _, boundary = integrate_by_parts(
        coeffs, range(ctx.n), lambda j, c: total_derivative(ctx, j, c))
    omega = DifferentialForm.zero(ctx)
    for c, lower, j in boundary:
        omega = omega + DifferentialForm.scalar(c).wedge(
            DifferentialForm.generator(ctx, THETA(lower.dep, lower.mindex))).wedge(
            volume_contraction(ctx, j))
    return omega


@dataclass(frozen=True)
class InternalLagrangianRep:
    """(L + omega_L) restricted to the equation manifold, with its restricted
    d, the presymplectic form."""

    equation: SolvedEquation
    form: DifferentialForm
    presymplectic: DifferentialForm


def internal_lagrangian(L: Lagrangian, eq: SolvedEquation) -> InternalLagrangianRep:
    """Restrict L + omega_L to the equation; requires the Euler-Lagrange
    expressions of L to vanish on the equation manifold."""
    ctx = L.ctx
    if ctx is not eq.ctx:
        raise LagrangianError("Lagrangian and equation contexts differ")
    for k in range(ctx.m):
        residual = eq.restrict(L.euler(k))
        if not residual.is_zero():
            raise LagrangianError(
                f"Euler expression for {ctx.dependents[k]!r} does not vanish "
                f"on the equation: {residual}")
    rep = eq.restrict_form(L.form() + presymplectic_potential(L))
    d_rep = eq.restricted_exterior_derivative(rep)
    if cartan_degree_filter(d_rep, 2) != d_rep:
        raise LagrangianError(
            "d(L + omega_L) restricted is not in the square of the Cartan ideal")
    return InternalLagrangianRep(eq, rep, d_rep)


@dataclass(frozen=True)
class PresymplecticStructure:
    """d of an internal Lagrangian representative, on the equation manifold."""

    form: DifferentialForm

    @property
    def cartan2_part(self) -> DifferentialForm:
        return cartan_degree_filter(self.form, 2)


def presymplectic_structure(rep: InternalLagrangianRep) -> PresymplecticStructure:
    return PresymplecticStructure(rep.presymplectic)


def verify_omega_identity(L: Lagrangian, omega_L: DifferentialForm,
                          phi: EvolutionaryField) -> bool:
    """Symbolic check of L_{E_phi} L - <E(L), phi> - d_h(E_phi _| omega_L) = 0."""
    lhs = lie_derivative_evolutionary(phi, L.form())
    pairing = contract_evolutionary(phi, L.euler_form())
    boundary = horizontal_differential(contract_evolutionary(phi, omega_L))
    return (lhs - pairing - boundary).is_zero()
