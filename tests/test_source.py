"""Static checks over the package source, read with ast (no linter needed)."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "momentcert"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dunder_all(tree):
    """The names listed in a module-level __all__, or ()."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return tuple(ast.literal_eval(node.value))
    return ()


def unused_imports(tree):
    """Names a module imports but never reads or re-exports through __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import x as y" binds y
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_dunder_all(tree))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom e import f\n"
                     "__all__ = ['f']\nprint(os.sep, d)\n")
    assert unused_imports(tree) == [(2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(_tree(path)) == []


EXPORTING = [p for p in MODULES if _dunder_all(_tree(p))]


def test_the_package_declares_its_exports():
    assert PACKAGE / "__init__.py" in EXPORTING


@pytest.mark.parametrize("path", EXPORTING, ids=[p.name for p in EXPORTING])
def test_every_all_entry_resolves(path):
    names = _dunder_all(_tree(path))
    name = "momentcert" if path.stem == "__init__" else f"momentcert.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in names if not hasattr(module, n)] == []
