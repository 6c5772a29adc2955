"""Run the docstring examples of every wittlab module."""

import doctest
import importlib
import pkgutil

import pytest

import wittlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(wittlab.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module("wittlab." + name)
    result = doctest.testmod(module)
    assert result.failed == 0
