"""The public names: every ``__all__`` entry resolves, removed aliases stay gone."""

import importlib
import inspect
import pkgutil

import pytest

import oddsymplectic
from oddsymplectic.brackets import check_axioms
from oddsymplectic.charts import Transition, exponentiate_hamiltonian
from oddsymplectic.gaussian import GaussianRational
from oddsymplectic.superalgebra import Chart, SuperFunction

MODULES = ["oddsymplectic"] + [
    f"oddsymplectic.{info.name}"
    for info in pkgutil.iter_modules(oddsymplectic.__path__)
    if info.name != "__main__"
]

# Aliases, wrappers and test-only helpers deleted from the library, with the
# module that held them.
REMOVED = {
    "hamiltonian_apply": "oddsymplectic.brackets",
    "lie_along_multivector": "oddsymplectic.forms",
    "even_modular_field": "oddsymplectic.laplacians",
    "delta_q": "oddsymplectic.charts",
    "lie_commutator_defect": "oddsymplectic.charts",
    "star_product": "oddsymplectic.forms",
    "delta_change": "oddsymplectic.laplacians",
    "jacobi_defect": "oddsymplectic.brackets",
    "derived_bracket": "oddsymplectic.brackets",
    "quantum_master_check": "oddsymplectic.master",
    "classical_master_check": "oddsymplectic.master",
    "classical_limit": "oddsymplectic.master",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    for entry in exported:
        assert hasattr(module, entry), f"{name}.{entry}"


def test_removed_aliases_are_gone():
    for alias, home in REMOVED.items():
        assert alias not in oddsymplectic.__all__
        assert not hasattr(oddsymplectic, alias)
        assert not hasattr(importlib.import_module(home), alias)
    assert not hasattr(Transition, "from_images")
    assert not hasattr(Chart, "doubled")
    assert list(inspect.signature(SuperFunction.retarget).parameters) == ["self", "target"]


def test_unused_methods_and_options_are_gone():
    for owner, name in (
        (SuperFunction, "monomial"),
        (SuperFunction, "map_coefficients"),
        (GaussianRational, "is_integer"),
        (GaussianRational, "is_rational"),
    ):
        assert not hasattr(owner, name), name
    # The bounds are module constants (MAX_FAILURES, MAX_FLOW_STEPS).
    assert "max_failures" not in inspect.signature(check_axioms).parameters
    # One axiom loop: an exhaustive family is passed as the product of triples.
    assert list(inspect.signature(check_axioms).parameters) == ["bracket", "eps", "triples"]
    assert not hasattr(importlib.import_module("oddsymplectic.brackets"), "_check_one_triple")
    assert list(inspect.signature(exponentiate_hamiltonian).parameters) == ["q", "time"]
