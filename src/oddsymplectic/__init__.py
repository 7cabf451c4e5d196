"""Exact symbolic calculus on odd symplectic supermanifolds.

The package works in Darboux-type charts with even coordinates ``x^i`` and
odd coordinates ``th_i``: it provides the odd Poisson bracket, odd
Laplacians on functions and on semidensities, Berezinians of coordinate
transitions, the correspondence between differential forms and semidensities
on the odd cotangent bundle, and master-equation checks — all over an exact
coefficient field, so every identity can be verified as a literal zero.

Modules load on first use: ``import oddsymplectic`` imports none of them,
and a name such as ``oddsymplectic.berezinian`` imports its module when it
is looked up.  Each lookup reads the name from its module afresh, so a name
patched there is seen here too.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Every public name, under the module that defines it.
_EXPORTS = {
    # core algebra
    "gaussian": ("GaussianRational",),
    "poly": ("Polynomial",),
    "scalar": ("Scalar",),
    "superalgebra": ("Chart", "OddKind", "SuperFunction"),
    "brackets": ("PoissonStructure", "odd_poisson_bracket", "hamiltonian_vector_field"),
    "derived": (
        "AxiomReport",
        "check_axioms",
        "CotangentStructure",
        "MasterHamiltonian",
        "master_condition",
    ),
    "laplacians": (
        "VolumeForm",
        "delta0",
        "log_derivative_bracket",
        "delta_rho",
        "delta_rho_squared",
        "divergence",
        "modular_hamiltonian",
        "modular_operator",
    ),
    # charts, transitions, densities
    "charts": (
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
    ),
    # differential forms bridge
    "forms": (
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
    ),
    # master equations
    "master": (
        "nilpotent_exponential",
        "exp_identity_residual",
        "quantum_master_residual",
        "classical_master_residual",
        "SemidensityMasterReport",
        "semidensity_master_check",
        "NuReport",
        "nu_constant",
    ),
    # expressions and serialization
    "expressions": (
        "parse_expression",
        "format_superfunction",
        "format_scalar",
        "chart_to_dict",
        "chart_from_dict",
        "superfunction_to_dict",
        "superfunction_from_dict",
        "transition_to_dict",
        "transition_from_dict",
    ),
    "errors": (
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
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> object:
    # Not stored in the package, so a name patched in its module is seen here.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_HOME[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
