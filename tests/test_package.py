"""Every public name the package and its modules declare resolves."""

import importlib
import pkgutil

import pytest

import polybilliard

# every module but __main__, which runs the CLI when imported
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(polybilliard.__path__) if m.name != "__main__"
)


def test_package_exports_resolve():
    missing = [name for name in polybilliard.__all__ if not hasattr(polybilliard, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    found = importlib.import_module(f"polybilliard.{module}")
    missing = [name for name in getattr(found, "__all__", ()) if not hasattr(found, name)]
    assert missing == []
