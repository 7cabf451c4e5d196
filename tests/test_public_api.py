"""The public names: every ``__all__`` entry resolves, removed aliases stay gone."""

import importlib
import inspect
import pkgutil

import pytest

import oddsymplectic
from oddsymplectic.charts import Transition
from oddsymplectic.superalgebra import SuperFunction

MODULES = ["oddsymplectic"] + [
    f"oddsymplectic.{info.name}"
    for info in pkgutil.iter_modules(oddsymplectic.__path__)
    if info.name != "__main__"
]

# Aliases deleted in favour of one implementation, with the module that held them.
REMOVED = {
    "hamiltonian_apply": "oddsymplectic.brackets",
    "lie_along_multivector": "oddsymplectic.forms",
    "even_modular_field": "oddsymplectic.laplacians",
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
    assert list(inspect.signature(SuperFunction.retarget).parameters) == ["self", "target"]
