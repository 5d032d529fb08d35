"""Command line interface: one JSON document in, one JSON document out.

Every verb reads a single document from stdin (or ``--in``) and writes its
result to stdout (or ``--out``) with sorted keys, a 2-space indent, non-ASCII
characters as ``\\uXXXX`` escapes and a trailing newline: the same bytes as
``json.dumps(payload, sort_keys=True, indent=2)`` plus ``"\\n"``, so outputs
are byte-identical across runs.  Exit codes: 0 success, 2 malformed input,
3 domain validation failure (the payload lists the violated conditions),
4 size cap exceeded.

``main`` may be called many times in one process; the calls share one
argument parser, built on the first call.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .canonical import DEFAULT_MAX_FLAGS
from .cartesian import cartesian_pullback, enumerate_stable_graphs
from .errors import SizeCapError, StableGraphsError, ValidationError, ensure_valid
from .graphs import (
    edges,
    euler_characteristic,
    genus,
    is_stable,
    tails,
)
from .isogeny import compose_extended, stably_forget_tail, validate_extended
from .morphisms import (
    contract_edges,
    cut_edge,
    glue_tails,
    validate_combinatorial,
    validate_contraction,
)
from .profiles import deg_graph, dim_graph
from .pullback import _check_marked, compose_marked, stable_pullback, validate_marked
from .serialize import (
    SchemaError,
    _dump_json,
    _need,
    _read_json,
    combinatorial_from_json,
    combinatorial_to_json,
    contraction_from_json,
    contraction_to_json,
    export_dot,
    graph_from_json,
    graph_to_json,
    hom_from_json,
    int_pair,
    int_value,
    isogeny_from_json,
    isogeny_to_json,
    marked_from_json,
    marked_to_json,
    resolve_profile,
)
from .stabilize import pushforward, stabilize

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DOMAIN = 3
EXIT_SIZE = 4


def _check_size(doc, cap: int) -> None:
    """Refuse any graph in the document with more than cap flags.

    Walks the objects and arrays of the document depth first, in document
    order, with an explicit stack, so nesting depth is not bounded by the
    recursion limit.
    """
    stack = [doc] if isinstance(doc, (dict, list)) else []
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            flags = node.get("flags")
            if isinstance(flags, list) and len(flags) > cap:
                raise SizeCapError(f"graph has {len(flags)} flags, cap is {cap}")
            children = node.values()
        else:
            children = node
        stack.extend([c for c in reversed(children) if isinstance(c, (dict, list))])


def _kinds() -> dict:
    """Each morphism kind's reader and validator.

    Built on every call, so the names are looked up when a verb runs.
    """
    return {
        "contraction": (contraction_from_json, validate_contraction),
        "combinatorial": (combinatorial_from_json, validate_combinatorial),
        "marked": (marked_from_json, validate_marked),
        "extended-isogeny": (isogeny_from_json, validate_extended),
    }


def _run_validate(doc, args):
    if isinstance(doc, dict) and "kind" in doc:  # graph documents carry no kind
        kind, kinds = doc["kind"], _kinds()
        if not isinstance(kind, str) or kind not in kinds:
            accepted = ", ".join(map(repr, kinds))
            raise SchemaError(f"unknown kind {kind!r}: validate reads a graph (no kind) or a kind of {accepted}")
        read, check = kinds[kind]
        ensure_valid(check(read(doc)))
    else:
        graph_from_json(doc)  # structural validation happens in the constructor
    return {"ok": True}


def _run_invariants(doc, args):
    g = graph_from_json(doc)
    try:
        gen = genus(g)
    except ValueError:
        gen = None
    return {
        "tails": len(tails(g)),
        "edges": len(edges(g)),
        "chi": euler_characteristic(g),
        "genus": gen,
        "stable": is_stable(g),
    }


def _run_stabilize(doc, args):
    g = graph_from_json(doc)
    stable, morphism = stabilize(g)
    return {"graph": graph_to_json(stable), "morphism": combinatorial_to_json(morphism)}


def _run_pushforward(doc, args):
    hom = hom_from_json(_need(doc, "xi"))
    result, morphism = pushforward(hom, graph_from_json(_need(doc, "graph")))
    return {"graph": graph_to_json(result), "morphism": marked_to_json(morphism)}


def _run_contract(doc, args):
    g = graph_from_json(_need(doc, "graph"))
    edge_set = [int_pair(e, "edge flag") for e in _need(doc, "edges", list)]
    return contraction_to_json(contract_edges(g, edge_set))


def _run_cut(doc, args):
    g = graph_from_json(_need(doc, "graph"))
    cut, morphism = cut_edge(g, int_pair(_need(doc, "edge"), "edge flag"))
    return {"graph": graph_to_json(cut), "morphism": combinatorial_to_json(morphism)}


def _run_glue(doc, args):
    g = graph_from_json(_need(doc, "graph"))
    glued, morphism = glue_tails(g, *int_pair(_need(doc, "tails"), "tail"))
    return {"graph": graph_to_json(glued), "morphism": combinatorial_to_json(morphism)}


def _run_forget(doc, args):
    g = graph_from_json(_need(doc, "graph"))
    result = stably_forget_tail(g, int_value(_need(doc, "tail"), "tail"))
    return {
        "graph": graph_to_json(result.graph),
        "morphism": combinatorial_to_json(result.morphism),
        "tailmap": {str(k): v for k, v in sorted(result.tail_map.items())},
        "type": result.kind,
    }


def _run_compose(doc, args):
    # second o first, both read as first's kind; neither compose function
    # checks its inputs as a whole, so both are checked here as validate
    # would, and a marked input's parts keep their pass for compose_marked
    first, second = _need(doc, "first", dict), _need(doc, "second", dict)
    kind = first.get("kind")
    if kind not in ("marked", "extended-isogeny"):
        raise SchemaError("compose handles kinds 'marked' and 'extended-isogeny'")
    read, check = _kinds()[kind]
    outer, inner = read(second), read(first)
    if kind == "marked":
        for m in (inner, outer):
            _check_marked(m, "invalid marked morphism")
        return marked_to_json(compose_marked(outer, inner))
    for m in (inner, outer):
        ensure_valid(check(m), f"invalid {kind} morphism")
    return isogeny_to_json(compose_extended(outer, inner))


def _run_pullback(doc, args):
    xi = hom_from_json(_need(doc, "xi"))
    phi = contraction_from_json(_need(doc, "phi"))
    a = combinatorial_from_json(_need(doc, "a"))
    if "rho" in doc and graph_from_json(doc["rho"]) != a.source:
        raise SchemaError("'rho' must equal the source of 'a'")
    pi, psi, b = stable_pullback(xi, phi, a)
    return {
        "pi": graph_to_json(pi),
        "psi": contraction_to_json(psi),
        "b": combinatorial_to_json(b),
    }


def _run_cartesian(doc, args):
    profile = resolve_profile(doc.get("profile", args.profile))
    phi = isogeny_from_json(_need(doc, "phi"))
    b = combinatorial_from_json(_need(doc, "b"))
    members = cartesian_pullback(profile, phi, b)
    return {
        "family": [
            {
                "a": combinatorial_to_json(m.identification),
                "graph": graph_to_json(m.graph),
                "lift": isogeny_to_json(m.lift),
                "deg": deg_graph(profile, m.graph),
            }
            for m in members
        ],
        "deg": deg_graph(profile, b.target),
        "size": len(members),
    }


def _run_boundary(doc, args):
    profile = resolve_profile(doc.get("profile", args.profile))
    graphs = enumerate_stable_graphs(
        profile,
        genus_total=int_value(doc.get("genus", 0), "genus"),
        num_tails=int_value(doc.get("tails", 0), "tails"),
        ample_bound=int_value(doc.get("ample_bound", 0), "ample_bound"),
        max_vertices=int_value(doc.get("max_vertices", 1), "max_vertices"),
    )
    return {"count": len(graphs), "graphs": [graph_to_json(g) for g in graphs]}


def _run_dim(doc, args):
    profile = resolve_profile(doc.get("profile", args.profile))
    g = graph_from_json(doc["graph"] if "graph" in doc else doc)
    return {"dim": dim_graph(profile, g)}


def _run_deg(doc, args):
    profile = resolve_profile(doc.get("profile", args.profile))
    g = graph_from_json(doc["graph"] if "graph" in doc else doc)
    return {"deg": deg_graph(profile, g)}


def _run_export_dot(doc, args):
    return export_dot(graph_from_json(doc))


VERBS = {
    "validate": _run_validate,
    "invariants": _run_invariants,
    "stabilize": _run_stabilize,
    "pushforward": _run_pushforward,
    "contract": _run_contract,
    "cut": _run_cut,
    "glue": _run_glue,
    "forget": _run_forget,
    "compose": _run_compose,
    "pullback": _run_pullback,
    "cartesian": _run_cartesian,
    "boundary": _run_boundary,
    "dim": _run_dim,
    "deg": _run_deg,
    "export-dot": _run_export_dot,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process, since nothing in it varies.

    Every caller gets the same instance, so none may change it.
    """
    parser = argparse.ArgumentParser(
        prog="stablegraphs",
        description="Calculus of stable marked modular graphs (JSON in, JSON out).",
    )
    parser.add_argument("verb", choices=sorted(VERBS), help="operation to run")
    parser.add_argument("--in", dest="infile", default=None, help="input JSON file (default: stdin)")
    parser.add_argument("--out", dest="outfile", default=None, help="output file (default: stdout)")
    parser.add_argument("--profile", default=None, help="P1|P2|P3|point or a profile JSON file")
    parser.add_argument(
        "--max-flags",
        type=int,
        default=DEFAULT_MAX_FLAGS,
        help=(
            "cap on the flags of each graph in the input document; canonical labelling "
            f"and boundary keep their fixed cap of {DEFAULT_MAX_FLAGS} flags"
        ),
    )
    return parser


def _emit(payload, outfile: str | None) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = _dump_json(payload) + "\n"
    if outfile:
        with open(outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args) -> tuple[object, int]:
    """The verb's payload and exit code, or an error payload and its code."""
    try:
        doc = _read_json(args.infile or None, "input")
        _check_size(doc, args.max_flags)
        return VERBS[args.verb](doc, args), EXIT_OK
    except SchemaError as exc:
        return {"error": {"type": "schema", "message": str(exc)}}, EXIT_SCHEMA
    except SizeCapError as exc:
        return {"error": {"type": "size-cap", "message": str(exc)}}, EXIT_SIZE
    except ValidationError as exc:
        conditions = sorted(set(exc.conditions))
        return {"error": {"type": "validation", "conditions": conditions, "message": str(exc)}}, EXIT_DOMAIN
    except StableGraphsError as exc:
        # before the ValueError clause: RankMismatchError is also a ValueError
        return {"error": {"type": "domain", "message": str(exc)}}, EXIT_DOMAIN
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        return {"error": {"type": "schema", "message": f"malformed document: {exc!r}"}}, EXIT_SCHEMA


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    payload, code = _run(args)
    try:
        _emit(payload, args.outfile)
    except OSError as exc:
        _emit({"error": {"type": "schema", "message": f"cannot write output: {exc}"}}, None)
        return EXIT_SCHEMA
    return code


if __name__ == "__main__":
    sys.exit(main())
