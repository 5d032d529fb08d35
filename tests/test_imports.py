"""Every name a package or test module imports is used in that module,
every private top-level name of the package is read by the package, and
every fixture defined under ``tests/`` is requested.

The package's ``__init__.py`` is exempt from the first check: its imports
are the public re-exports.  A name counts as used when it is read anywhere
in the module, in code or in a quoted annotation.  A private name counts as
read only outside its own definition, so a helper that only tests call
fails.  A fixture counts as requested when a test or another fixture takes
it as a parameter.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "stablegraphs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each bound import name with the line it is imported on."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        else:
            continue
        if ann is not None:
            yield ann


def _used(tree: ast.Module) -> set[str]:
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}"
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private_definitions(tree: ast.Module):
    """Each top-level statement that defines a private function, class or
    constant, with the private names it binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        private = [n for n in names if n.startswith("_") and not n.startswith("__")]
        if private:
            yield node, private


def test_every_private_helper_is_read_by_the_package():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    used = {path: _used(tree) for path, tree in trees.items()}
    checked, unread = 0, []
    for path, tree in trees.items():
        elsewhere = set().union(*(read for other, read in used.items() if other != path))
        by_statement = [(node, _used(node)) for node in tree.body]
        for node, names in _private_definitions(tree):
            rest = set().union(*(read for other, read in by_statement if other is not node))
            for name in names:
                checked += 1
                if name not in rest and name not in elsewhere:
                    unread.append(f"{path.name}: {name} (line {node.lineno})")
    assert checked > 60
    assert not unread, f"private names nothing in the package reads: {', '.join(unread)}"


def _is_fixture(decorator: ast.expr) -> bool:
    """``@pytest.fixture`` or ``@pytest.fixture(...)``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Attribute) and target.attr == "fixture"


def test_every_fixture_is_requested():
    defined, requested = {}, set()
    for path in TEST_MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            fixture = any(map(_is_fixture, node.decorator_list))
            if fixture:
                defined[node.name] = path.name
            if fixture or node.name.startswith("test"):
                requested.update(arg.arg for arg in node.args.args)
    unused = [f"{name} ({where})" for name, where in defined.items() if name not in requested]
    assert not unused, f"fixtures no test or fixture requests: {', '.join(unused)}"


def test_modules_found():
    assert any(p.name == "stabilize.py" for p in MODULES)
    assert any(p.name == "test_imports.py" for p in TEST_MODULES)
