import importlib
import inspect

import pytest

import stratshear

MODULES = ("cli", "evolution", "multipliers", "observables", "shear", "spectral_ops", "weights")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"stratshear.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert not missing


def test_package_exports_come_from_module_all():
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(f"stratshear.{name}").__all__)
    public = [name for name, value in vars(stratshear).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert public
    assert sorted(set(public) - exported) == []
