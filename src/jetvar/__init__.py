"""jetvar: exact symbolic calculus on jet bundles.

Restriction to infinitely prolonged equations, internal Lagrangians,
presymplectic structures, and spatial-gauge classification of symmetries,
all over exact rational arithmetic.
"""

from .errors import (
    ConsistencyError,
    ContextMismatch,
    DegreeError,
    JetvarError,
    LagrangianError,
    OrientationError,
    ParseError,
    SemanticError,
    SSymmetryError,
    UnresolvedConstraint,
    UnsupportedExpression,
)
from .symexpr import (
    BaseVar,
    Expression,
    FnPartial,
    JetContext,
    JetCoord,
    MultiIndex,
    OpaqueFn,
    gradient,
    partial,
    substitute,
)
from .jetcalc import (
    EvolutionaryField,
    apply_evolutionary,
    euler_derivative,
    linearization,
    total_derivative,
    total_derivative_multi,
)
from .forms import (
    DifferentialForm,
    cartan_degree_filter,
    contract_evolutionary,
    exterior_derivative,
    horizontal_differential,
    lie_derivative_evolutionary,
    volume_form,
    wedge,
)
from .eqmanifold import SolvedEquation
from .variational import (
    InternalLagrangianRep,
    Lagrangian,
    PresymplecticStructure,
    internal_lagrangian,
    presymplectic_potential,
    presymplectic_structure,
    verify_omega_identity,
)
from .spatial import (
    ConstraintResolution,
    antisymmetric_potential_resolution,
    extend_S_symmetry,
    is_gauge_symmetry,
    is_gauge_trivial,
    is_spatial_gradient,
    reduce_mod_S2,
    s_degree_filter,
    s_presymplectic_representative,
    spatial_structure,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
