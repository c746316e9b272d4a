"""The package surface: ``worddp`` exports the ``__all__`` of four modules,
and every module's ``__all__`` names only what the module defines."""

import importlib

import pytest

import worddp

EXPORTED = ("core", "automaton", "mechanisms", "markov")
MODULES = EXPORTED + ("oracle", "analytics")


def module(name: str):
    return importlib.import_module(f"worddp.{name}")


def test_no_duplicate_exports():
    assert len(set(worddp.__all__)) == len(worddp.__all__)


def test_exports_are_the_modules_own():
    assert set(worddp.__all__) == {
        name for mod in EXPORTED for name in module(mod).__all__
    }
    for mod in EXPORTED:
        for name in module(mod).__all__:
            assert getattr(worddp, name) is getattr(module(mod), name), name


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    namespace = {}
    exec(f"from worddp.{name} import *", namespace)
    assert set(module(name).__all__) <= set(namespace)
