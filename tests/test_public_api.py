"""The public names: every ``__all__`` entry resolves, removed aliases stay gone,
the package namespace loads modules lazily, and no imported name goes unused."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import oddsymplectic
from oddsymplectic import brackets
from oddsymplectic.charts import Transition, exponentiate_hamiltonian
from oddsymplectic.derived import check_axioms
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


def test_the_axiom_check_and_derived_brackets_live_only_in_derived():
    derived = importlib.import_module("oddsymplectic.derived")
    for name in derived.__all__:
        assert not hasattr(brackets, name), name
        if name in oddsymplectic.__all__:
            assert getattr(oddsymplectic, name) is getattr(derived, name)
    assert not hasattr(brackets, "__getattr__")


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


def test_namespace_lists_and_binds_every_public_name():
    assert set(oddsymplectic.__all__) <= set(dir(oddsymplectic))
    namespace = {}
    exec("from oddsymplectic import *", namespace)
    assert all(name in namespace for name in oddsymplectic.__all__)
    assert namespace["berezinian"] is oddsymplectic.berezinian
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        oddsymplectic.frobnicate


def test_namespace_reads_the_module_on_every_lookup(monkeypatch):
    original = brackets.odd_poisson_bracket
    assert oddsymplectic.odd_poisson_bracket is original

    def patched(f, g):
        return original(f, g)

    monkeypatch.setattr(brackets, "odd_poisson_bracket", patched)
    assert oddsymplectic.odd_poisson_bracket is patched
    monkeypatch.undo()
    assert oddsymplectic.odd_poisson_bracket is original
    assert "odd_poisson_bracket" not in vars(oddsymplectic)


def unused_imports(source):
    """``(line, name)`` for each name an import binds that the source never
    reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
            read |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\n"
    assert unused_imports(source + "print(sys, d)\n") == [(2, "os"), (3, "c")]
    assert unused_imports(source + "__all__ = ['c', 'd']\nos.sep, sys\n") == []


@pytest.mark.parametrize("folder", ["src", "tests"])
def test_every_imported_name_is_used(folder):
    # Stands in for a linter's unused-import rule, since none is installed.
    root = Path(__file__).resolve().parents[1]
    found = {
        str(path.relative_to(root)): unused
        for path in sorted((root / folder).rglob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
