"""Every name a package or test module imports is used in that module, and
every fixture defined under ``tests/`` is requested.

The package's ``__init__.py`` is exempt: its imports are the public
re-exports.  A name counts as used when it is read anywhere in the module,
in code or in a quoted annotation.  A fixture counts as requested when a
test or another fixture takes it as a parameter.
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
