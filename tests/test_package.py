"""Every declared public name resolves, and every module and definition has a caller."""

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


# Public methods that only tests call.  Whether they are API that someone
# relies on is an open question, so they stay until that is decided.
_UNCALLED_API = {
    "CycloField.element",  # a field element from a coefficient table; the cyclo tests build with it
    "_Frame.from_xy",  # a frame vector from x and y; the tests place points with it
    "PeriodLattice.generators",  # the lattice generators D1/C1 and D2/C2; the lattice tests read them
    "EPP.edge_pairs",  # read by `bench/common.py`'s counters and by library callers
}

_DECLARATIONS = ("__all__", "_EXPORTS", "_NUMERIC")


def _definitions_and_references(trees: list[ast.Module]) -> tuple[dict[str, str], set[str]]:
    """The top-level functions, classes and methods of `trees`, and the names they read.

    Definitions map "name" or "Class.method" to the bare name.  References
    are every `Name`, `Attribute` and import alias, plus every identifier
    string declared in a module's `__all__`, `_EXPORTS` or `_NUMERIC`.
    """
    defined, referenced = {}, set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{m.name}": m.name for m in node.body
                            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id in _DECLARATIONS for t in targets):
                    referenced |= {c.value for c in ast.walk(node.value)
                                   if isinstance(c, ast.Constant) and isinstance(c.value, str)
                                   and c.value.isidentifier()}
    return defined, referenced


def test_every_src_definition_has_a_caller():
    # a definition whose name nothing in the package reads, and that no
    # module declares, is dead code; a dunder is called by Python itself
    src = Path(polybilliard.__file__).parent
    defined, referenced = _definitions_and_references(
        [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    )
    uncalled = {q for q, name in defined.items()
                if name not in referenced and not (name.startswith("__") and name.endswith("__"))}
    assert sorted(uncalled - _UNCALLED_API) == [], "no caller in src"
    # an allowlisted name that gained a caller, or lost its definition, leaves the list
    assert sorted(_UNCALLED_API - uncalled) == [], "allowlisted, but called or gone"
