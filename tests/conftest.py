import json
import sys
from pathlib import Path

import pytest

from stablegraphs.cli import main
from stablegraphs.graphs import MarkedGraph
from stablegraphs.monoid import MonoidHom

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def cli(tmp_path, capsys):
    """``cli(verb, doc, *argv)`` writes ``doc`` (a JSON value, or a string
    written as it stands) to a file, runs ``main`` on it with ``--in`` and
    returns the exit code and stdout parsed as JSON (None when stdout is
    empty)."""
    path = tmp_path / "cli-input.json"

    def run(verb, doc, *argv):
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = main([verb, "--in", str(path), *argv])
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    return run


@pytest.fixture
def constructed(monkeypatch):
    """``constructed(cls)`` returns a list that records, in order, each
    instance of ``cls`` built from then on in the test."""

    def record(cls):
        built = []
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, **kwargs: built.append(self) or real(self, *args, **kwargs))
        return built

    return record


@pytest.fixture
def calls(monkeypatch):
    """``calls(*functions)`` returns a list that records, in call order, the
    first positional argument of each call to any of ``functions`` from then
    on in the test.  Each function is replaced in every ``stablegraphs``
    module that binds it, so a call is recorded whichever module makes it;
    each call of ``calls`` starts a list of its own."""

    def record(*functions):
        seen = []
        modules = [m for n, m in sys.modules.items() if n == "stablegraphs" or n.startswith("stablegraphs.")]
        for fn in functions:

            def recording(*args, _fn=fn, **kwargs):
                seen.append(args[0])
                return _fn(*args, **kwargs)

            bindings = [(m, name) for m in modules for name, value in vars(m).items() if value is fn]
            assert bindings, f"no stablegraphs module binds {fn.__qualname__}"
            for m, name in bindings:
                monkeypatch.setattr(m, name, recording)
        return seen

    return record


@pytest.fixture
def forbid_graphs(monkeypatch):
    """A callable: once called, building a ``MarkedGraph`` raises for the
    rest of the test."""

    def no_graph(self):
        raise AssertionError("a graph was built")

    return lambda: monkeypatch.setattr(MarkedGraph, "__post_init__", no_graph)


@pytest.fixture
def identity_capped(monkeypatch):
    """Make ``MonoidHom.identity`` fail above rank 4."""
    real = MonoidHom.identity

    def capped(rank):
        if rank > 4:
            raise AssertionError(f"identity hom of rank {rank} built")
        return real(rank)

    monkeypatch.setattr(MonoidHom, "identity", staticmethod(capped))
