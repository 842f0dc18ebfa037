"""Every public name the package and its modules declare resolves, and every module has a caller."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _package_imports(source: str) -> set[str]:
    """The package modules that `source` imports, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if not node.level:  # absolute: only `polybilliard...` is the package
                if parts[0] != "polybilliard":
                    continue
                parts = parts[1:]
            # `from .m import x` imports m; `from . import m` imports m itself
            found |= {parts[0]} if parts else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("polybilliard.")}
    return found


def test_every_module_is_imported_by_another():
    # a module no other module imports is dead code; `cli` is the entry
    # point, reached through `__main__` and the console script
    callers = set(polybilliard._EXPORTS.values())  # __init__ loads these on first access
    for path in Path(polybilliard.__file__).parent.glob("*.py"):
        callers |= _package_imports(path.read_text()) - {path.stem}
    assert [m for m in MODULES if m != "cli" and m not in callers] == []
