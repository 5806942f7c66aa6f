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


# os functions and mappings that read or change the process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


@pytest.mark.parametrize("module", sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py")))
def test_no_module_reads_the_environment(module):
    # behaviour is set by arguments alone, never by an environment variable
    tree = ast.parse((PACKAGE / module).read_text())
    os_names = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names if a.name == "os"}
    reads = [
        f"os.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in os_names
        and node.attr in ENVIRONMENT
    ]
    reads += [
        f"from os import {a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for a in node.names
        if a.name in ENVIRONMENT
    ]
    assert not reads, f"{module} reads the environment: {reads}"


def _is_lru_cache(decorator):
    """True for @lru_cache, @lru_cache(...) and @functools.lru_cache(...)."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "lru_cache"


def test_lru_cached_functions_have_distinct_names():
    # perfbench's CacheLedger keys each lru cache by its function's name, so
    # a second cache under a name already taken would go unmeasured
    found = [
        (node.name, module)
        for module in sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse((PACKAGE / module).read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_lru_cache, node.decorator_list))
    ]
    assert ("_tracked_raw", "exactalg.py") in found
    names = [name for name, _ in found]
    assert len(set(names)) == len(names), sorted(f for f in found if names.count(f[0]) > 1)


@pytest.mark.parametrize("module", sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py") if p.name != "gradedmod.py"))
def test_only_gradedmod_touches_a_module_cache(module):
    # what a PresentedModule stores, and in what order, is gradedmod's
    # business; a basis known by construction goes in through the constructor
    tree = ast.parse((PACKAGE / module).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_cache"]
    assert not lines, f"{module} touches _cache at lines {lines}"


def test_gradedmod_divides_modulo_a_relation_basis():
    # the tracked run divides its items by modulo before it starts, and the
    # unit read-offs split that basis by position; both hold only when
    # modulo is a module's reduced relation basis
    tree = ast.parse((PACKAGE / "gradedmod.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in {"syzygies", "reduce_with_expression"}
    ]
    assert {c.func.id for c in calls} == {"syzygies", "reduce_with_expression"}
    for c in calls:
        modulo = [k.value for k in c.keywords if k.arg == "modulo"]
        ok = (
            len(modulo) == 1
            and isinstance(modulo[0], ast.Call)
            and isinstance(modulo[0].func, ast.Attribute)
            and modulo[0].func.attr == "relation_gb"
            and not modulo[0].args
        )
        assert ok, f"gradedmod.py:{c.lineno} calls {c.func.id} without modulo=<module>.relation_gb()"
