import json
import random
import struct
import sys

import pytest

from stablegraphs.cli import main
from stablegraphs.graphs import empty_graph, marked_graph, modular_graph
from stablegraphs.isogeny import ContractStep, ForgetStep, extended_isogeny
from stablegraphs.monoid import MonoidHom
from stablegraphs.morphisms import contract_edges, cut_edge
from stablegraphs.pullback import identity_marked
from stablegraphs.serialize import (
    SchemaError,
    _dump_json,
    combinatorial_from_json,
    combinatorial_to_json,
    contraction_from_json,
    contraction_to_json,
    export_dot,
    graph_from_json,
    graph_to_json,
    hom_from_json,
    hom_to_json,
    isogeny_from_json,
    isogeny_to_json,
    marked_from_json,
    marked_to_json,
    profile_from_json,
    resolve_profile,
)

from strategies import rand_graph
from test_cli import golden_input


def test_graph_round_trip():
    rng = random.Random(151)
    for _ in range(40):
        g = rand_graph(rng, rank=2, max_flags=10)
        doc = graph_to_json(g)
        assert graph_from_json(doc) == g
        # emission is a fixed point on parsed documents
        assert graph_to_json(graph_from_json(doc)) == doc


def test_graph_json_is_serializable():
    g = marked_graph(1, {0: (0, 1)}, tails={0: 0})
    text = json.dumps(graph_to_json(g), sort_keys=True)
    assert graph_from_json(json.loads(text)) == g


def test_empty_graph_round_trip():
    e = empty_graph(2)
    assert graph_from_json(graph_to_json(e)) == e


def test_graph_missing_key():
    with pytest.raises(SchemaError):
        graph_from_json({"flags": []})


def test_blank_input_reads_as_an_empty_document(tmp_path, capsys):
    # blank text is read as {}, so it is refused for its missing keys and
    # not as text that is not JSON
    outputs = []
    for text in (" \n\t", "{}"):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code = main(["validate", "--in", str(path)])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 2
    assert json.loads(outputs[0][1]) == {"error": {"type": "schema", "message": "missing key 'flags'"}}


def test_hom_round_trip():
    h = MonoidHom(((1, 2), (0, 1)), 2)
    assert hom_from_json(hom_to_json(h)) == h
    assert hom_from_json(hom_to_json(MonoidHom.to_trivial(3))) == MonoidHom.to_trivial(3)


def test_profile_parsing():
    p = profile_from_json({"dim": 2, "canonical": [-3], "ample": [1]})
    assert p.dimension == 2 and p.canonical.coeffs == (-3,)
    assert resolve_profile("P2").dimension == 2
    with pytest.raises(SchemaError):
        resolve_profile("P9")


def test_contraction_round_trip():
    g = modular_graph({0: 1, 1: 2}, edges=[((0, 0), (1, 1))])
    c = contract_edges(g, [(0, 1)])
    doc = contraction_to_json(c)
    back = contraction_from_json(doc)
    assert back.source == c.source and back.target == c.target
    assert back.flagmap == c.flagmap and back.vertexmap == c.vertexmap


def test_combinatorial_round_trip():
    g = modular_graph({0: 1, 1: 1}, edges=[((0, 0), (1, 1))])
    cut, a = cut_edge(g, (0, 1))
    doc = combinatorial_to_json(a)
    back = combinatorial_from_json(doc)
    assert back.source == a.source and back.flagmap == a.flagmap
    assert back.hom is None


def test_marked_round_trip():
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    m = identity_marked(g)
    back = marked_from_json(marked_to_json(m))
    assert back.hom == m.hom and back.mid == m.mid
    assert back.comb.flagmap == m.comb.flagmap


def test_compose_refuses_a_second_document_that_is_not_marked(cli):
    # both documents are read as the first one's kind
    doc = golden_input("compose_marked", "second", "kind", "extended-isogeny")
    assert cli("compose", doc) == (2, {"error": {"type": "schema", "message": "expected kind 'marked'"}})


def test_isogeny_round_trip():
    g = modular_graph({0: 1, 1: 1}, tails={0: 0, 1: 1, 2: 1}, edges=[((3, 0), (4, 1))])
    e = extended_isogeny(g, ((0, 1),), (ContractStep((3, 4)), ForgetStep(2)))
    doc = isogeny_to_json(e)
    back = isogeny_from_json(doc)
    assert back.source == e.source and back.target == e.target
    assert back.glued == e.glued and back.steps == e.steps


def test_export_dot_tripod():
    g = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    dot = export_dot(g)
    assert dot.count("shape=point") == 3
    assert "v0" in dot and dot.startswith("graph")


def test_export_dot_empty():
    assert export_dot(empty_graph()) == "graph marked_graph {\n}\n"


def test_export_dot_deterministic():
    g = marked_graph(1, {0: (1, 2), 1: (0, 1)}, tails={5: 0}, edges=[((0, 0), (1, 1))])
    assert export_dot(g) == export_dot(graph_from_json(graph_to_json(g)))


# keys and strings that need escapes: quotes, backslashes, control and non-ASCII characters
SPECIAL_CHARS = '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'
SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, sys.float_info.max)


def _json_text(rng):
    """Up to 8 characters, each a special one or a code point from any of the 17 planes."""
    return "".join(
        rng.choice(SPECIAL_CHARS) if rng.random() < 0.5 else chr(rng.randrange(0x110000))
        for _ in range(rng.randint(0, 8))
    )


def _json_scalar(rng):
    """None or a bool, an int, a float, or (two times in five) a string."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.choice((10**60, -(10**60), rng.randint(-(10**60), 10**60), rng.randint(-1000, 1000)))
    if kind == 2:
        return rng.choice(SPECIAL_FLOATS + struct.unpack("<d", rng.randbytes(8)))
    return _json_text(rng)


def _json_value(rng, leaves=20):
    """A scalar, or a list, tuple or string-keyed dict (empty ones included) of at most ``leaves`` scalars."""
    if rng.random() < 0.3:
        return _json_scalar(rng)
    sizes = []
    while leaves and rng.random() < 0.75:
        sizes.append(rng.randint(1, leaves))
        leaves -= sizes[-1]
    children = [_json_value(rng, n) for n in sizes]
    kind = rng.randrange(3)
    return children if kind == 0 else tuple(children) if kind == 1 else {_json_text(rng): c for c in children}


def test_dump_json_writes_what_json_dumps_writes():
    rng = random.Random(0)
    for _ in range(150):
        value = _json_value(rng)
        assert _dump_json(value) == json.dumps(value, sort_keys=True, indent=2)
