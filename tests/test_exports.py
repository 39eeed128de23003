"""Every name a condflow module lists in ``__all__`` exists, so a stale export fails."""

import importlib
import pkgutil

import pytest

import condflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(condflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"condflow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
