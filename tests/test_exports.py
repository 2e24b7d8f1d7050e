"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import confine

MODULES = ["confine"] + [f"confine.{m.name}" for m in pkgutil.iter_modules(confine.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    # a module without __all__ (the CLI entry point) exports nothing to check
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
