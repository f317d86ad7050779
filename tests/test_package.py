"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import eia

MODULES = sorted(info.name for info in pkgutil.iter_modules(eia.__path__))


@pytest.mark.parametrize("name", ["eia"] + [f"eia.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    # tooling reads the public surface through __all__ (perfbench/spans.py
    # wraps every entry with getattr), so a stale entry must fail here first
    mod = importlib.import_module(name)
    missing = [entry for entry in mod.__all__ if not hasattr(mod, entry)]
    assert missing == []
