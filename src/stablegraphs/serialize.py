"""JSON schemas for every value the CLI consumes or emits, plus DOT export.

Graph documents look like::

    {"rank": 1,
     "flags": [0, 1, 2],
     "vertices": [{"id": 0, "genus": 0, "class": [1]}],
     "boundary": {"0": 0, "1": 0, "2": 0},
     "involution": {"0": 0, "1": 2, "2": 1}}

Map keys are strings because JSON objects demand it; everything else is an
integer.  A pair (an edge, two tails to glue) is an array of exactly two
integers.  Emission is deterministic: keys sorted, ids as constructed.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .graphs import MarkedGraph, edges, tails
from .isogeny import ContractStep, ExtendedIsogeny, ForgetStep, extended_isogeny
from .monoid import LinearForm, MonoidElement, MonoidHom
from .morphisms import CombinatorialMorphism, Contraction
from .profiles import BUILTIN_PROFILES, VarietyProfile
from .pullback import MarkedMorphism


class SchemaError(ValueError):
    """Document shape does not match the expected schema."""


def _need(doc: dict, key: str, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"missing key {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"key {key!r} has wrong type, expected {kind}")
    return value


def _array(value: Any, what: str) -> list:
    """A document value that must be an array, such as an optional key read
    with ``doc.get(key, [])``: an object or a string is not an empty list."""
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be an array, not {type(value).__name__}")
    return value


def int_value(value: Any, what: str) -> int:
    """A document value that must be an integer: no bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def int_pair(value: Any, what: str) -> tuple[int, int]:
    """A document value that must be an array of exactly two integers."""
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{what}s must be an array of exactly two integers")
    return int_value(value[0], what), int_value(value[1], what)


def _int_key_map(doc: Any, what: str) -> dict[int, int]:
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object")
    try:
        out = {int(k): int_value(v, what) for k, v in doc.items()}
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must map integers to integers") from exc
    # int() also reads " 10", "+2", "1_0" and "01", and keys that read alike would merge
    if [str(k) for k in out] != list(doc):
        raise SchemaError(f"{what} keys must be integers in decimal form, such as \"10\" or \"-1\"")
    return out


# -- graphs ---------------------------------------------------------------


def graph_to_json(g: MarkedGraph) -> dict:
    return {
        "rank": g.rank,
        "flags": list(g.flags),
        "vertices": [
            {"id": v, "genus": g.genus[v], "class": list(g.classes[v].coords)} for v in g.vertices
        ],
        "boundary": {str(f): g.boundary[f] for f in g.flags},
        "involution": {str(f): g.involution[f] for f in g.flags},
    }


def graph_from_json(doc: dict) -> MarkedGraph:
    flags = _need(doc, "flags", list)
    vertices = _need(doc, "vertices", list)
    boundary = _int_key_map(_need(doc, "boundary"), "boundary")
    involution = _int_key_map(_need(doc, "involution"), "involution")
    ids: list[int] = []
    genus: dict[int, int] = {}
    classes: dict[int, MonoidElement] = {}
    rank = doc.get("rank")
    for entry in vertices:
        vid = int_value(_need(entry, "id"), "vertex id")
        ids.append(vid)
        genus[vid] = int_value(_need(entry, "genus"), "vertex genus")
        coords = entry.get("class", [])
        if not isinstance(coords, list):
            raise SchemaError("vertex class must be an array of integers")
        classes[vid] = MonoidElement(tuple(int_value(c, "class coordinate") for c in coords))
        if rank is None:
            rank = len(coords)
    return MarkedGraph(
        flags=tuple(int_value(f, "flag id") for f in flags),
        vertices=tuple(ids),  # as listed, so a repeated id fails as vertex-duplicate
        boundary=boundary,
        involution=involution,
        genus=genus,
        classes=classes,
        rank=int_value(0 if rank is None else rank, "rank"),
    )


# -- monoid values --------------------------------------------------------


def hom_to_json(h: MonoidHom) -> dict:
    return {"rows": [list(r) for r in h.rows], "source_rank": h.source_rank}


def hom_from_json(doc: dict) -> MonoidHom:
    rows = tuple(
        tuple(int_value(x, "hom entry") for x in _array(row, "hom row")) for row in _need(doc, "rows", list)
    )
    return MonoidHom(rows, int_value(_need(doc, "source_rank"), "source_rank"))


def profile_from_json(doc: dict) -> VarietyProfile:
    return VarietyProfile(
        name=str(doc.get("name", "custom")),
        dimension=int_value(_need(doc, "dim"), "dim"),
        canonical=LinearForm(tuple(int_value(c, "canonical coefficient") for c in _need(doc, "canonical", list))),
        ample=LinearForm(tuple(int_value(c, "ample coefficient") for c in _need(doc, "ample", list))),
    )


def _read_json(path: str | None, what: str) -> Any:
    """The JSON document in the file at ``path``, or on stdin when it is None.

    A blank text reads as ``{}``.  An unreadable file, text that is not JSON
    and nesting too deep for the JSON reader raise SchemaError; ``what``
    names the document in the message.
    """
    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc
    if not text.strip():
        return {}
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{what} is nested too deeply to read") from exc


_encode_str = json.encoder.encode_basestring_ascii


def _dump_json(value: Any, newline: str = "\n") -> str:
    """``value`` as the text of ``json.dumps(value, sort_keys=True, indent=2)``.

    ``json.dumps`` drops its C encoder whenever ``indent`` is set, so this
    writes the same text from C-level pieces instead.  Object keys must be
    strings.  ``newline`` is the line break plus the indent of the enclosing
    level.
    """
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_encode_str(k) + ": " + _dump_json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_dump_json(v, inner) for v in value]) + newline + "]"
    # None, bools and floats (inf and nan included) are written as json.dumps writes them
    return json.dumps(value)


def resolve_profile(spec: str | dict | None) -> VarietyProfile:
    from pathlib import Path

    if spec is None:
        raise SchemaError("a profile is required; pass --profile")
    if isinstance(spec, dict):
        return profile_from_json(spec)
    if spec in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[spec]
    if Path(spec).exists():
        return profile_from_json(_read_json(spec, "profile"))
    raise SchemaError(f"unknown profile {spec!r}; use P1|P2|P3|point or a JSON file path")


# -- morphisms ------------------------------------------------------------


def _maps_doc(kind: str, m: Contraction | CombinatorialMorphism) -> dict:
    """The kind, the two graphs and the two id maps of a morphism document."""
    return {
        "kind": kind,
        "source": graph_to_json(m.source),
        "target": graph_to_json(m.target),
        "flagmap": {str(k): v for k, v in sorted(m.flagmap.items())},
        "vertexmap": {str(k): v for k, v in sorted(m.vertexmap.items())},
    }


def _read_maps(doc: dict, kind: str) -> dict:
    """The source, target, flagmap and vertexmap of a morphism document of ``kind``."""
    if doc.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}")
    return {
        "source": graph_from_json(_need(doc, "source", dict)),
        "target": graph_from_json(_need(doc, "target", dict)),
        "flagmap": _int_key_map(_need(doc, "flagmap"), "flagmap"),
        "vertexmap": _int_key_map(_need(doc, "vertexmap"), "vertexmap"),
    }


def contraction_to_json(c: Contraction) -> dict:
    return _maps_doc("contraction", c)


def contraction_from_json(doc: dict) -> Contraction:
    return Contraction(**_read_maps(doc, "contraction"))


def combinatorial_to_json(a: CombinatorialMorphism) -> dict:
    doc = _maps_doc("combinatorial", a)
    if a.hom is not None:
        doc["hom"] = hom_to_json(a.hom)
    return doc


def combinatorial_from_json(doc: dict) -> CombinatorialMorphism:
    maps = _read_maps(doc, "combinatorial")
    return CombinatorialMorphism(**maps, hom=hom_from_json(doc["hom"]) if "hom" in doc else None)


def marked_to_json(m: MarkedMorphism) -> dict:
    return {
        "kind": "marked",
        "xi": hom_to_json(m.hom),
        "a": combinatorial_to_json(m.comb),
        "mid": graph_to_json(m.mid),
        "phi": contraction_to_json(m.contr),
    }


def marked_from_json(doc: dict) -> MarkedMorphism:
    if doc.get("kind") != "marked":
        raise SchemaError("expected kind 'marked'")
    return MarkedMorphism(
        hom=hom_from_json(_need(doc, "xi", dict)),
        comb=combinatorial_from_json(_need(doc, "a", dict)),
        mid=graph_from_json(_need(doc, "mid", dict)),
        contr=contraction_from_json(_need(doc, "phi", dict)),
    )


def isogeny_to_json(e: ExtendedIsogeny) -> dict:
    steps = []
    for s in e.steps:
        if isinstance(s, ForgetStep):
            steps.append({"op": "forget", "tail": s.tail})
        else:
            steps.append({"op": "contract", "edge": list(s.edge)})
    return {
        "kind": "extended-isogeny",
        "source": graph_to_json(e.source),
        "glues": [list(p) for p in e.glued],
        "steps": steps,
        "target": graph_to_json(e.target),
    }


def isogeny_from_json(doc: dict) -> ExtendedIsogeny:
    if doc.get("kind") != "extended-isogeny":
        raise SchemaError("expected kind 'extended-isogeny'")
    source = graph_from_json(_need(doc, "source", dict))
    glues = [int_pair(p, "glued tail") for p in _array(doc.get("glues", []), "glues")]
    steps = []
    for s in _array(doc.get("steps", []), "steps"):
        op = _need(s, "op")
        if op == "forget":
            steps.append(ForgetStep(int_value(_need(s, "tail"), "tail")))
        elif op == "contract":
            steps.append(ContractStep(int_pair(_need(s, "edge"), "edge flag")))
        else:
            raise SchemaError(f"unknown isogeny step {op!r}")
    e = extended_isogeny(source, glues, steps)
    if "target" in doc and graph_from_json(doc["target"]) != e.target:
        raise SchemaError("'target' must be the graph the glues and steps give")
    return e


# -- DOT export -----------------------------------------------------------


def export_dot(g: MarkedGraph) -> str:
    """Deterministic DOT text: labelled vertex nodes, edge arcs, and tails
    drawn as half-edges toward invisible anchor points."""
    lines = ["graph marked_graph {"]
    for v in g.vertices:
        cls = ",".join(str(c) for c in g.classes[v].coords)
        lines.append(f'  v{v} [label="g={g.genus[v]},b=({cls})"];')
    for f1, f2 in edges(g):
        lines.append(f"  v{g.boundary[f1]} -- v{g.boundary[f2]} [label=\"{f1}-{f2}\"];")
    for f in tails(g):
        lines.append(f'  t{f} [shape=point,style=invis];')
        lines.append(f'  v{g.boundary[f]} -- t{f} [label="{f}",style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
