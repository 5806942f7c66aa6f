"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import tamemod

PACKAGE = Path(tamemod.__file__).parent
MODULES = sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _names_read(tree):
    """Every name a module reads, those in quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # an argument's or assignment's annotation, or a function's return one
        note = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for c in ast.walk(note) if note else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                names |= _names_read(ast.parse(c.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    unused = imported - _names_read(tree)
    assert not unused, f"{module} never uses {sorted(unused)}"
