"""Every module under ``src/``, ``tests/`` and ``demos/`` uses each name it
imports.  Package ``__init__`` modules are exempt: their imports are the
package's public names.  Every module-level private name (``_name``)
that a package module defines is read somewhere in ``src/`` or ``tests/``,
so a retired constant or helper cannot linger.  Every public function and
class, and every public method and property of a class, is read by the
package or the demos, so no public API serves the tests alone.  And no
package module imports another's private name."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE_MODULES = sorted((ROOT / "src" / "scopedepth").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the statement's line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_modules_found():
    assert len(MODULES) > 20


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items()
              if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports unused: {', '.join(unused)}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name (``_name``, not a dunder) that a module-level
    function, class or assignment binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound = [node.target.id]
        else:
            bound = []
        names.update((name, node.lineno) for name in bound
                     if name.startswith("_") and not name.startswith("__"))
    return names


@functools.cache
def _read_names(dirs: tuple[str, ...]) -> tuple[frozenset[str], frozenset[str]]:
    """Every name that a module under ``dirs`` loads, reads as an
    attribute, imports, or spells as a string (``monkeypatch.setattr`` and
    ``getattr`` take names so), and the part of them read as an attribute
    or spelled as a string, the only ways to reach a method.  A package
    ``__init__`` re-exports names without reading them, so it is left out."""
    names, attributes = set(), set()
    for path in (p for d in dirs for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    return frozenset(names | attributes), frozenset(attributes)


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_private_name(path):
    read = _read_names(("src", "tests"))[0]
    unread = [f"{name} (line {line})" for name, line in
              _private_definitions(ast.parse(path.read_text())).items() if name not in read]
    assert not unread, f"{path.relative_to(ROOT)} defines unread: {', '.join(unread)}"


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public function and class a module defines, and each public
    method or property of its classes (as ``Class.name``), with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            names.update((f"{node.name}.{item.name}", item.lineno) for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_public_name_read_by_tests_alone(path):
    names, attributes = _read_names(("src", "demos"))
    unread = [f"{name} (line {line})" for name, line in
              _public_definitions(ast.parse(path.read_text())).items()
              if name.rsplit(".", 1)[-1] not in (attributes if "." in name else names)]
    assert not unread, (f"{path.relative_to(ROOT)} defines public names that no module "
                        f"under src/ or demos/ reads: {', '.join(unread)}")


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_name_imported_from_another_module(path):
    """A package module reads only the public names of the others; the
    tests may reach into a module's private names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{alias.name} from {'.' * node.level}{node.module or ''} (line {node.lineno})"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert not private, f"{path.relative_to(ROOT)} imports private names: {', '.join(private)}"
