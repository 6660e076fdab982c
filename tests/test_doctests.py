"""The examples in the docstrings of every fshom module run and pass."""

import doctest
import importlib
import pkgutil
import sys

import fshom

MODULES = sorted(info.name for info in pkgutil.iter_modules(fshom.__path__, "fshom."))


def test_every_module_is_listed():
    assert "fshom.exact" in MODULES and "fshom.simplicial" in MODULES
    # no name that the package exports shadows one of its submodules
    for name in MODULES:
        importlib.import_module(name)
        assert getattr(fshom, name.rpartition(".")[2]) is sys.modules[name], name


def test_package_doctests_pass():
    failed = attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 12
