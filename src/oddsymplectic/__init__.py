"""Exact symbolic calculus on odd symplectic supermanifolds.

The package works in Darboux-type charts with even coordinates ``x^i`` and
odd coordinates ``th_i``: it provides the odd Poisson bracket, odd
Laplacians on functions and on semidensities, Berezinians of coordinate
transitions, the correspondence between differential forms and semidensities
on the odd cotangent bundle, and master-equation checks — all over an exact
coefficient field, so every identity can be verified as a literal zero.
"""

from __future__ import annotations

from .brackets import (
    AxiomReport,
    CotangentStructure,
    MasterHamiltonian,
    PoissonStructure,
    check_axioms,
    hamiltonian_vector_field,
    master_condition,
    odd_poisson_bracket,
)
from .charts import (
    Density,
    NormalityReport,
    Transition,
    berezinian,
    bv_identity,
    canonical_delta,
    exponentiate_hamiltonian,
    is_normal,
    is_symplectomorphism,
    jacobian,
    laplacian_conjugation_defect,
    lie_derivative_density,
    sqrt_berezinian,
    symplectomorphism_defects,
    transform_density,
)
from .errors import (
    ChartMismatch,
    ExpressionSyntaxError,
    InvalidTransition,
    NoExactSquareRoot,
    NonInvertibleBody,
    NonTerminatingFlow,
    NotClosed,
    NotFiberQuadratic,
    NotProportional,
    OddSymplecticError,
    ParityViolation,
    UnknownGenerator,
)
from .expressions import (
    chart_from_dict,
    chart_to_dict,
    format_scalar,
    format_superfunction,
    parse_expression,
    superfunction_from_dict,
    superfunction_to_dict,
    transition_from_dict,
    transition_to_dict,
)
from .forms import (
    BaseDensity,
    DivergenceReport,
    darboux_partner,
    de_rham,
    divergence_correspondence,
    form_degree_component,
    form_to_semidensity,
    forms_partner,
    hodge,
    one_form_action,
    restrict_to_lagrangian,
    semidensity_to_form,
)
from .gaussian import GaussianRational
from .laplacians import (
    VolumeForm,
    delta0,
    delta_rho,
    delta_rho_squared,
    divergence,
    log_derivative_bracket,
    modular_hamiltonian,
    modular_operator,
)
from .master import (
    NuReport,
    SemidensityMasterReport,
    classical_master_residual,
    exp_identity_residual,
    nilpotent_exponential,
    nu_constant,
    quantum_master_residual,
    semidensity_master_check,
)
from .poly import Polynomial
from .scalar import Scalar
from .superalgebra import Chart, OddKind, SuperFunction

__version__ = "0.1.0"

__all__ = [
    # core algebra
    "GaussianRational",
    "Polynomial",
    "Scalar",
    "Chart",
    "OddKind",
    "SuperFunction",
    # brackets
    "PoissonStructure",
    "odd_poisson_bracket",
    "hamiltonian_vector_field",
    "AxiomReport",
    "check_axioms",
    "CotangentStructure",
    "MasterHamiltonian",
    "master_condition",
    # laplacians
    "VolumeForm",
    "delta0",
    "log_derivative_bracket",
    "delta_rho",
    "delta_rho_squared",
    "divergence",
    "modular_hamiltonian",
    "modular_operator",
    # charts, transitions, densities
    "Transition",
    "jacobian",
    "berezinian",
    "sqrt_berezinian",
    "is_symplectomorphism",
    "symplectomorphism_defects",
    "bv_identity",
    "laplacian_conjugation_defect",
    "Density",
    "transform_density",
    "canonical_delta",
    "lie_derivative_density",
    "exponentiate_hamiltonian",
    "NormalityReport",
    "is_normal",
    # differential forms bridge
    "BaseDensity",
    "darboux_partner",
    "forms_partner",
    "form_degree_component",
    "de_rham",
    "form_to_semidensity",
    "semidensity_to_form",
    "hodge",
    "DivergenceReport",
    "divergence_correspondence",
    "one_form_action",
    "restrict_to_lagrangian",
    # master equations
    "nilpotent_exponential",
    "exp_identity_residual",
    "quantum_master_residual",
    "classical_master_residual",
    "SemidensityMasterReport",
    "semidensity_master_check",
    "NuReport",
    "nu_constant",
    # expressions and serialization
    "parse_expression",
    "format_superfunction",
    "format_scalar",
    "chart_to_dict",
    "chart_from_dict",
    "superfunction_to_dict",
    "superfunction_from_dict",
    "transition_to_dict",
    "transition_from_dict",
    # errors
    "OddSymplecticError",
    "ChartMismatch",
    "ParityViolation",
    "NonInvertibleBody",
    "NoExactSquareRoot",
    "UnknownGenerator",
    "ExpressionSyntaxError",
    "InvalidTransition",
    "NonTerminatingFlow",
    "NotFiberQuadratic",
    "NotClosed",
    "NotProportional",
    "__version__",
]
