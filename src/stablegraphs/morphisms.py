"""The two morphism species on marked graphs.

A contraction collapses a set of edges: its flag map goes from the target's
flags back into the source's (injectively), its vertex map goes forward
(surjectively), and the genus of a target vertex absorbs the first Betti
number of the piece contracted onto it.

A combinatorial morphism maps flags and vertices forward, is injective on
the flags at each vertex, preserves genus and class, and is required to
preserve the flag equivalence generated by involution orbits and by genus
zero, class zero vertices.  Cutting an edge, forgetting a tail and including
a component are the basic examples.

The validators ``validate_contraction`` and ``validate_combinatorial`` only
read the graphs and maps they check; they construct no graph.

Inputs are validated.  A morphism that a construction builds from checked
inputs (a contraction, cut, forget, glue, stabilization, stable forget,
stable pullback square, composite, or result of
``enumerate_combinatorial_morphisms``) is valid by the argument in its
docstring; seeded tests validate every such construction's output instead.
Those that keep every flag and vertex id build their morphism with
``inclusion``.

A morphism's maps are copied at construction and never mutated after it, so
checking one instance twice cannot give another answer.  Where a function of
this package requires a valid input, a passed check is kept on the instance
(not as a field: ``==``, ``repr`` and ``dataclasses.replace`` ignore it, and
a replaced morphism starts unchecked), and later calls with that instance
skip it.  A composite and a stable pullback square, valid because their
inputs passed, are kept as passed when they are built.  A failed check is
never kept, so an invalid morphism is refused on every call.  The public
validators keep nothing and read nothing kept: they always check in full.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import RankMismatchError, ValidationError, Violation, ensure_valid
from .graphs import (
    MarkedGraph,
    MonoidElement,
    _partition_flags,
    edges,
    edit_graph,
    equivalence_classes,
    flag_partition,
)
from .monoid import MonoidHom, _sum_classes


@dataclass(frozen=True, init=False)
class Contraction:
    """Edge contraction source -> target.

    ``flagmap`` sends target flags into source flags (contravariant),
    ``vertexmap`` sends source vertices onto target vertices.  ``__init__``
    writes each field once, the two maps as copies.
    """

    source: MarkedGraph
    target: MarkedGraph
    flagmap: dict[int, int]
    vertexmap: dict[int, int]

    def __init__(self, source: MarkedGraph, target: MarkedGraph, flagmap: Mapping[int, int], vertexmap: Mapping[int, int]) -> None:
        d = self.__dict__
        d["source"], d["target"] = source, target
        d["flagmap"], d["vertexmap"] = dict(flagmap), dict(vertexmap)

    def contracted_flags(self) -> tuple[int, ...]:
        image = set(self.flagmap.values())
        return tuple(f for f in self.source.flags if f not in image)

    def contracted_edges(self) -> tuple[tuple[int, int], ...]:
        gone = set(self.contracted_flags())
        return tuple(e for e in edges(self.source) if e[0] in gone)

    def is_elementary(self) -> bool:
        return len(self.contracted_edges()) == 1


def validate_contraction(c: Contraction) -> list[Violation]:
    """Check all structural and marking conditions; empty list means valid.

    Each square condition names its first offender in target flag order.
    """
    out: list[Violation] = []
    src, tgt = c.source, c.target
    fmap, vmap = c.flagmap, c.vertexmap
    if src.rank != tgt.rank:
        out.append(Violation("contraction-rank", f"source rank {src.rank} != target rank {tgt.rank}"))
        return out
    if fmap.keys() != tgt._flag_set or not src._flag_set.issuperset(fmap.values()):
        out.append(Violation("contraction-maps-total", "flag map must send exactly the target flags into source flags"))
        return out
    if vmap.keys() != src._vertex_set or not tgt._vertex_set.issuperset(vmap.values()):
        out.append(Violation("contraction-maps-total", "vertex map must send exactly the source vertices into target vertices"))
        return out
    if len(set(fmap.values())) != len(fmap):
        out.append(Violation("contraction-1-injective", "flag map is not injective"))
    if set(vmap.values()) != tgt._vertex_set:
        out.append(Violation("contraction-1-surjective", "vertex map is not surjective"))
    src_boundary, src_j = src.boundary, src.involution
    for f in tgt.flags:
        if vmap[src_boundary[fmap[f]]] != tgt.boundary[f]:
            out.append(Violation("contraction-2-boundary", f"boundary square fails at target flag {f}"))
            break
    tgt_j = tgt.involution
    for f in tgt.flags:
        if fmap[tgt_j[f]] != src_j[fmap[f]]:
            out.append(Violation("contraction-3-involution", f"involution square fails at target flag {f}"))
            break
    else:
        if {fmap[f] for f in tgt._tails} != set(src._tails):
            out.append(Violation("contraction-4-tails", "tails do not correspond bijectively"))
    if out:
        return out

    # fibers must be exactly the connectivity classes of the contracted edges
    gone = c.contracted_flags()
    joined = ((src_boundary[f], src_boundary[src_j[f]]) for f in gone)
    fibers: dict[int, list[int]] = {}
    for v in src.vertices:
        fibers.setdefault(vmap[v], []).append(v)
    if sorted(fibers.values()) != equivalence_classes(src.vertices, joined):
        out.append(Violation("contraction-5-fibers", "vertex fibers differ from contracted-edge connectivity classes"))
        return out

    # each piece is connected by its contracted edges, so its cycle rank is #E - #V + 1
    halves = Counter(vmap[src_boundary[f]] for f in gone)
    src_genus, src_classes = src.genus, src.classes
    for v in sorted(fibers):
        fiber = fibers[v]
        expected_g = sum(src_genus[w] for w in fiber) + halves[v] // 2 - len(fiber) + 1
        if tgt.genus[v] != expected_g:
            out.append(Violation("contraction-genus", f"genus at target vertex {v}: {tgt.genus[v]} != {expected_g}"))
        if tgt.classes[v] != _sum_classes([src_classes[w] for w in fiber], src.rank):
            out.append(Violation("contraction-class", f"class at target vertex {v} is not the fiber sum"))
    return out


def contracted_piece(c: Contraction, v: int) -> MarkedGraph:
    """The subgraph of the source being contracted onto target vertex v."""
    if v not in c.target.genus:
        raise KeyError(f"unknown target vertex id {v}")
    src = c.source
    gone = set(c.contracted_flags())
    fiber = {w for w in src.vertices if c.vertexmap[w] == v}
    drop_flags = [f for f in src.flags if f not in gone or src.boundary[f] not in fiber]
    return edit_graph(src, drop_flags=drop_flags, drop_vertices=[w for w in src.vertices if w not in fiber])


def contract_edges(g: MarkedGraph, edge_set: Iterable[tuple[int, int]]) -> Contraction:
    """Contract the given edges of g; deterministic target ids.

    Each fiber of merged vertices survives under its minimum vertex id, and
    the remaining flags keep their ids, so repeated runs and differently
    ordered elementary factorizations produce literally equal targets.

    Valid for a checked g and edges: each fiber is joined by chosen edges,
    and its survivor takes the fiber's genus plus cycle rank and class sum.
    """
    all_edges = set(edges(g))
    chosen = {tuple(sorted(e)) for e in edge_set}
    for e in chosen:
        if e not in all_edges:
            raise ValidationError([Violation("contraction-edge-unknown", f"{e} is not an edge")])
    gone = {f for e in chosen for f in e}
    # fibers list their vertices in ascending order, so fiber[0] is the survivor
    fibers = equivalence_classes(g.vertices, ((g.boundary[f1], g.boundary[f2]) for f1, f2 in chosen))
    rep = {v: fiber[0] for fiber in fibers for v in fiber}
    edges_in = Counter(rep[g.boundary[f1]] for f1, _ in chosen)

    kept = [f for f in g.flags if f not in gone]
    tgt_genus: dict[int, int] = {}
    tgt_classes: dict[int, MonoidElement] = {}
    for fiber in fibers:
        r = fiber[0]
        # the contracted edges connect the fiber, so its cycle rank is #E - #V + 1
        tgt_genus[r] = sum(g.genus[v] for v in fiber) + edges_in[r] - len(fiber) + 1
        tgt_classes[r] = _sum_classes([g.classes[v] for v in fiber], g.rank)

    boundary = {f: rep[g.boundary[f]] for f in kept}
    involution = {f: g.involution[f] for f in kept}
    target = MarkedGraph(kept, tuple(tgt_genus), boundary, involution, tgt_genus, tgt_classes, g.rank)
    return Contraction(source=g, target=target, flagmap={f: f for f in kept}, vertexmap=rep)


def identity_contraction(g: MarkedGraph) -> Contraction:
    """The contraction of no edge: g is its own target, so no graph is built."""
    return Contraction(source=g, target=g, flagmap={f: f for f in g.flags}, vertexmap={v: v for v in g.vertices})


def _ensure_checked(m: Contraction | CombinatorialMorphism, validate, message: str) -> None:
    """``ensure_valid(validate(m), message)``, skipped once m has passed.

    The pass is kept in ``m.__dict__`` only after the check, the way
    ``MarkedGraph`` keeps its derived structure.
    """
    if "_checked" not in m.__dict__:
        ensure_valid(validate(m), message)
        _keep_checked(m)


def _keep_checked(*ms: Contraction | CombinatorialMorphism) -> None:
    """Keep a pass on each of ms: one that was checked, or that is valid by
    construction from checked inputs."""
    for m in ms:
        m.__dict__["_checked"] = True


def _contraction_order(c: Contraction, order: Iterable[tuple[int, int]] | None) -> list[tuple[int, int]]:
    """Validate c and list its contracted edges as (f, fbar), f < fbar, in
    ascending order or in ``order``, which must permute them."""
    _ensure_checked(c, validate_contraction, "cannot decompose an invalid contraction")
    if order is None:
        return sorted(c.contracted_edges())
    remaining = [tuple(sorted(e)) for e in order]
    if sorted(remaining) != sorted(c.contracted_edges()):
        raise ValidationError([Violation("contraction-order", "order must permute the contracted edges")])
    return remaining


def decompose_elementary(c: Contraction, order: Iterable[tuple[int, int]] | None = None) -> list[Contraction]:
    """Factor into single-edge contractions, ascending contracted-edge id.

    ``order`` overrides the default ordering; it must be a permutation of
    the contracted edge set.  When c contracts at least one edge the factors
    compose literally to c, and the last one lands on c.target itself.
    A contraction with no contracted edges (an isomorphism) decomposes into
    the empty list.

    Only c is validated.  Every factor but the last is a ``contract_edges``
    result.  The last one is built from c's own maps, restricted to the
    last source: each step keeps the ids of the flags and vertices that
    survive it, so every value of c.flagmap is still a flag there, and each
    of its vertices is a vertex of c.source that stands for a part of one
    fiber of c.  Those maps contract exactly the one edge left.
    """
    remaining = _contraction_order(c, order)
    if not remaining:
        return []
    factors: list[Contraction] = []
    current = c.source
    for e in remaining[:-1]:
        step = contract_edges(current, [e])
        factors.append(step)
        current = step.target
    factors.append(Contraction(current, c.target, c.flagmap, {v: c.vertexmap[v] for v in current.vertices}))
    return factors


def compose_contractions(outer: Contraction, inner: Contraction) -> Contraction:
    """outer o inner, defined when inner.target equals outer.source literally.

    outer and inner are validated, each once per instance; the composite is
    valid because they are, and is kept as passed.  The flag map of a valid
    contraction is injective and its vertex map surjective, and both squares
    and the tails compose.  A fiber of the composite is a union of inner
    fibers over one outer fiber, which the contracted edges of both join,
    and genus and class absorb in two steps what they absorb in one.
    """
    if inner.target != outer.source:
        raise ValidationError([Violation("contraction-compose-endpoints", "inner target differs from outer source")])
    _ensure_checked(outer, validate_contraction, "compose_contractions: invalid outer contraction")
    _ensure_checked(inner, validate_contraction, "compose_contractions: invalid inner contraction")
    composite = Contraction(
        source=inner.source,
        target=outer.target,
        flagmap={f: inner.flagmap[outer.flagmap[f]] for f in outer.target.flags},
        vertexmap={v: outer.vertexmap[inner.vertexmap[v]] for v in inner.source.vertices},
    )
    _keep_checked(composite)
    return composite


@dataclass(frozen=True, init=False)
class CombinatorialMorphism:
    """Flag/vertex maps source -> target preserving the graph structure.

    ``hom`` is the optional marking homomorphism: when present, the source
    lives over the hom's target monoid, the target graph over its source
    monoid, and classes match after pushing the target's classes through.
    ``__init__`` writes each field once, the two maps as copies.
    """

    source: MarkedGraph
    target: MarkedGraph
    flagmap: dict[int, int]
    vertexmap: dict[int, int]
    hom: MonoidHom | None = None

    def __init__(
        self, source: MarkedGraph, target: MarkedGraph, flagmap: Mapping[int, int], vertexmap: Mapping[int, int],
        hom: MonoidHom | None = None,
    ) -> None:
        d = self.__dict__
        d["source"], d["target"] = source, target
        d["flagmap"], d["vertexmap"], d["hom"] = dict(flagmap), dict(vertexmap), hom

    def is_complete(self) -> bool:
        """Bijective on the flags at every source vertex."""
        for v in self.source.vertices:
            at_v = self.source.flags_at(v)
            target_at = self.target.flags_at(self.vertexmap[v])
            if len({self.flagmap[f] for f in at_v}) != len(target_at):
                return False
        return True


def validate_combinatorial(a: CombinatorialMorphism) -> list[Violation]:
    """Check all structural and marking conditions; empty list means valid.

    Each condition names its first offender in source order.  Condition 2
    is tested whole, as one set of (source vertex, image) pairs, and walked
    vertex by vertex only when it fails.  The others are loops that stop
    at the first offender: on the small graphs this calculus handles, a
    loop over a few items costs less than building two lists to compare.
    """
    out: list[Violation] = []
    src, tgt = a.source, a.target
    if a.hom is None:
        if src.rank != tgt.rank:
            out.append(Violation("combinatorial-rank", f"source rank {src.rank} != target rank {tgt.rank}"))
            return out
    else:
        if a.hom.source_rank != tgt.rank or a.hom.target_rank != src.rank:
            out.append(Violation("combinatorial-rank", "marking homomorphism ranks do not match the graphs"))
            return out
    fmap, vmap = a.flagmap, a.vertexmap
    if fmap.keys() != src._flag_set or not tgt._flag_set.issuperset(fmap.values()):
        out.append(Violation("combinatorial-maps-total", "flag map must send exactly the source flags into target flags"))
        return out
    if vmap.keys() != src._vertex_set or not tgt._vertex_set.issuperset(vmap.values()):
        out.append(Violation("combinatorial-maps-total", "vertex map must send exactly the source vertices into target vertices"))
        return out
    src_boundary, tgt_boundary = src.boundary, tgt.boundary
    for f in src.flags:
        if tgt_boundary[fmap[f]] != vmap[src_boundary[f]]:
            out.append(Violation("combinatorial-1-boundary", f"boundary square fails at flag {f}"))
            break
    # injective at every vertex: no two flags share a (source vertex, image) pair
    if len({(v, fmap[f]) for f, v in src_boundary.items()}) != len(src_boundary):
        v = next(v for v in src.vertices if len({fmap[f] for f in src.flags_at(v)}) != len(src.flags_at(v)))
        out.append(Violation("combinatorial-2-injective", f"flag map not injective at vertex {v}"))
    classes = tgt.classes if a.hom is None else {v: a.hom(c) for v, c in tgt.classes.items()}
    block = (flag_partition(tgt) if a.hom is None else _partition_flags(tgt, classes))._index
    for f1, f2 in edges(src):
        if block[fmap[f1]] != block[fmap[f2]]:
            out.append(Violation("combinatorial-3-equivalence", f"edge ({f1},{f2}) maps to inequivalent flags"))
            break
    src_classes = src.classes
    for v in src.vertices:
        if src_classes[v] != classes[vmap[v]]:
            out.append(Violation("combinatorial-4-class", f"class mismatch at vertex {v}"))
            break
    src_genus, tgt_genus = src.genus, tgt.genus
    for v in src.vertices:
        if src_genus[v] != tgt_genus[vmap[v]]:
            out.append(Violation("combinatorial-5-genus", f"genus mismatch at vertex {v}"))
            break
    return out


def inclusion(source: MarkedGraph, target: MarkedGraph) -> CombinatorialMorphism:
    """The morphism source -> target that keeps every flag and vertex id.

    Not checked here: each caller states why its source sits in its target.
    """
    flagmap, vertexmap = {f: f for f in source.flags}, {v: v for v in source.vertices}
    return CombinatorialMorphism(source=source, target=target, flagmap=flagmap, vertexmap=vertexmap)


def identity_combinatorial(g: MarkedGraph) -> CombinatorialMorphism:
    return inclusion(g, g)


def compose_combinatorial(outer: CombinatorialMorphism, inner: CombinatorialMorphism) -> CombinatorialMorphism:
    """outer o inner; marking homs compose as inner.hom o outer.hom.

    The marking hom of a morphism points from the target's monoid to the
    source's, so along a composite source -> mid -> target the homs compose
    the other way around.  A missing hom is the identity of its source's
    rank; it is never built, so a rank the graphs only declare costs nothing.

    outer and inner are validated, each once per instance, after the
    endpoint and rank refusals; the composite is valid because they are, and
    is kept as passed.  The squares, injectivity at each vertex, genus and
    class compose.  A middle vertex is genus 0 and class 0 under inner.hom
    exactly when its image is under the composite hom, which leaves zero
    every target class that outer.hom does; so each generator of the middle
    graph's flag equivalence lies in the target's, and every edge that inner
    sends to equivalent flags the composite does too.
    """
    if inner.target != outer.source:
        raise ValidationError([Violation("combinatorial-compose-endpoints", "inner target differs from outer source")])
    if inner.hom is None and outer.hom is None:
        hom = None
    elif inner.hom is not None and outer.hom is not None:
        hom = inner.hom.compose(outer.hom)
    else:
        # composing with an identity changes nothing, once the ranks agree as
        # MonoidHom.compose requires them to
        source_rank = inner.source.rank if inner.hom is None else inner.hom.source_rank
        target_rank = outer.source.rank if outer.hom is None else outer.hom.target_rank
        if target_rank != source_rank:
            raise RankMismatchError(f"cannot compose: inner target rank {target_rank} != source rank {source_rank}")
        hom = outer.hom if inner.hom is None else inner.hom
    _ensure_checked(outer, validate_combinatorial, "compose_combinatorial: invalid outer morphism")
    _ensure_checked(inner, validate_combinatorial, "compose_combinatorial: invalid inner morphism")
    composite = CombinatorialMorphism(
        source=inner.source,
        target=outer.target,
        flagmap={f: outer.flagmap[inner.flagmap[f]] for f in inner.source.flags},
        vertexmap={v: outer.vertexmap[inner.vertexmap[v]] for v in inner.source.vertices},
        hom=hom,
    )
    _keep_checked(composite)
    return composite


# -- basic constructions -------------------------------------------------


def cut_edge(g: MarkedGraph, edge: tuple[int, int]) -> tuple[MarkedGraph, CombinatorialMorphism]:
    """Cut one edge into two tails; returns (cut graph, morphism cut -> g).

    The morphism keeps every id, and the cut changes only the involution.
    """
    f1, f2 = edge
    if g.involution.get(f1) != f2 or f1 == f2:
        raise ValidationError([Violation("cut-not-edge", f"({f1},{f2}) is not an edge")])
    cut = edit_graph(g, pair={f1: f1, f2: f2})
    return cut, inclusion(cut, g)


def forget_tail(g: MarkedGraph, f: int) -> tuple[MarkedGraph, CombinatorialMorphism]:
    """Drop one tail flag; the result may be unstable.

    Returns (smaller graph, inclusion morphism into g), which keeps every id.
    """
    if f not in g.boundary or g.involution[f] != f:
        raise ValidationError([Violation("forget-not-tail", f"{f} is not a tail")])
    smaller = edit_graph(g, drop_flags=(f,))
    return smaller, inclusion(smaller, g)


def glue_tails(g: MarkedGraph, f: int, fbar: int) -> tuple[MarkedGraph, CombinatorialMorphism]:
    """Join two tails into an edge; returns (glued graph, morphism g -> glued).

    The morphism keeps every id, and the glue changes only the involution.
    """
    if f == fbar or g.involution.get(f) != f or g.involution.get(fbar) != fbar:
        raise ValidationError([Violation("glue-not-tails", f"{f} and {fbar} must be distinct tails")])
    glued = edit_graph(g, pair={f: fbar, fbar: f})
    return glued, inclusion(g, glued)
