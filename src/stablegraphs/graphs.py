"""Marked modular graphs: flags, vertices, involution, boundary, genus, class.

A graph is a finite set of flags (half-edges) F, a finite set of vertices V,
a boundary map F -> V attaching each flag to a vertex, and an involution
j: F -> F.  Fixed points of j are tails, two-element orbits are edges.  A
marked graph additionally carries a genus label and a class in N^k at each
vertex; rank 0 recovers plain modular graphs (genus labels only).

Flag ids and vertex ids are opaque small integers in two independent
namespaces.  All values are immutable after construction; every operation
returns fresh graphs.

The flag and vertex id sets are built once, at construction, where the
structure check needs them.  Other derived structure (flags per vertex,
each split into tails, loops and edge halves, vertex invariants, the
vertices of each genus and class with their valences in
``_vertices_by_kind``, the morphism search's source tables
``_kind_valences`` and ``_closing_edges``, tails, edges, connected
components, the flag partition and stability) is computed on first use
and kept on the instance, shared by every caller, so a graph validated,
labelled or searched from many times pays for it once.  These values are
not dataclass fields: ``==``, ``repr`` and ``dataclasses.replace`` ignore
them.  This is sound only because the dict fields (``boundary``,
``involution``, ``genus``, ``classes``) are never mutated after
construction; code must build a new graph instead.
``stabilize.absolute_stabilization`` and the uncolored canonical labelling
(``canonical.canonical_encoding``) keep their results on the instance the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import RankMismatchError, Violation, ensure_valid
from .monoid import MonoidElement, MonoidHom, _sum_classes


class _memo:
    """``functools.cached_property`` without its lock (Python 3.11 and older
    take one on every first access).  The value goes into the instance
    ``__dict__``, which shadows this non-data descriptor from then on.  Two
    threads may both compute a value; both are equal, and one of them stays.
    """

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class MarkedGraph:
    flags: tuple[int, ...]
    vertices: tuple[int, ...]
    boundary: dict[int, int]
    involution: dict[int, int]
    genus: dict[int, int]
    classes: dict[int, MonoidElement]
    rank: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", tuple(sorted(self.flags)))
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "boundary", dict(self.boundary))
        object.__setattr__(self, "involution", dict(self.involution))
        object.__setattr__(self, "genus", dict(self.genus))
        object.__setattr__(self, "classes", dict(self.classes))
        # the id sets are not fields, like the cached indices below
        object.__setattr__(self, "_flag_set", frozenset(self.flags))
        object.__setattr__(self, "_vertex_set", frozenset(self.vertices))
        ensure_valid(self._structural_violations(), "invalid graph")

    def _structural_violations(self) -> list[Violation]:
        out: list[Violation] = []
        fset, vset = self._flag_set, self._vertex_set
        if len(fset) != len(self.flags):
            out.append(Violation("flag-duplicate", "flag ids repeat"))
        if len(vset) != len(self.vertices):
            out.append(Violation("vertex-duplicate", "vertex ids repeat"))
        if self.boundary.keys() != fset:
            out.append(Violation("boundary-total", "boundary map not defined on exactly the flag set"))
        elif not vset.issuperset(self.boundary.values()):
            out.append(Violation("boundary-total", "boundary map hits unknown vertex"))
        j = self.involution
        if j.keys() != fset:
            out.append(Violation("j-total", "involution not defined on exactly the flag set"))
        else:
            if not fset.issuperset(j.values()):
                out.append(Violation("j-involution", "involution hits unknown flag"))
            elif list(map(j.__getitem__, map(j.__getitem__, self.flags))) != list(self.flags):
                out.append(Violation("j-involution", "involution composed with itself is not the identity"))
        if self.genus.keys() != vset:
            out.append(Violation("genus-total", "genus map not defined on exactly the vertex set"))
        else:
            for gv in self.genus.values():
                if type(gv) is not int:
                    out.append(Violation("genus-integer", f"vertex genus must be an integer, not {gv!r}"))
                    break
                if gv < 0:
                    out.append(Violation("genus-negative", "vertex genus must be non-negative"))
                    break
        if self.rank < 0:
            out.append(Violation("rank-negative", "graph rank must be non-negative"))
        if self.classes.keys() != vset:
            out.append(Violation("class-total", "class map not defined on exactly the vertex set"))
        elif any(c.rank != self.rank for c in self.classes.values()):
            out.append(Violation("class-rank", "vertex class has wrong monoid rank"))
        return out

    # -- basic accessors -------------------------------------------------

    def flags_at(self, v: int) -> tuple[int, ...]:
        if v not in self.genus:
            raise KeyError(f"unknown vertex id {v}")
        return self._flags_at.get(v, ())

    # -- derived structure, computed once per instance --------------------

    @_memo
    def _flags_at(self) -> dict[int, tuple[int, ...]]:
        at: dict[int, list[int]] = {}
        for f in self.flags:
            at.setdefault(self.boundary[f], []).append(f)
        return {v: tuple(fs) for v, fs in at.items()}

    @_memo
    def _flag_kinds(self) -> dict[int, tuple[tuple, tuple, tuple]]:
        """Per vertex, each in flag order: its tails, its loops as (f, p) with
        f < p, and (f, p, w) for each half f of an edge to another vertex w."""
        kinds = {v: ([], [], []) for v in self.vertices}
        for f in self.flags:
            p = self.involution[f]
            v, w = self.boundary[f], self.boundary[p]
            if p == f:
                kinds[v][0].append(f)
            elif w != v:
                kinds[v][2].append((f, p, w))
            elif f < p:
                kinds[v][1].append((f, p))
        return {v: (tuple(t), tuple(l), tuple(e)) for v, (t, l, e) in kinds.items()}

    @_memo
    def _vertex_invariants(self) -> dict[int, tuple]:
        """Per vertex: (genus, class coordinates, valence, tail count, loop half count)."""
        return {
            v: (self.genus[v], self.classes[v].coords, len(t) + 2 * len(l) + len(e), len(t), 2 * len(l))
            for v, (t, l, e) in self._flag_kinds.items()
        }

    @_memo
    def _vertices_by_kind(self) -> dict[tuple, tuple[tuple[int, int], ...]]:
        """Per (genus, class coordinates): that kind's (vertex, valence) pairs, in vertex order."""
        kinds: dict[tuple, list[tuple[int, int]]] = {}
        for v, (genus, coords, val, _, _) in self._vertex_invariants.items():
            kinds.setdefault((genus, coords), []).append((v, val))
        return {kind: tuple(pairs) for kind, pairs in kinds.items()}

    @_memo
    def _kind_valences(self) -> tuple[tuple[tuple, int], ...]:
        """Per vertex, in vertex order: ((genus, class coordinates), valence)."""
        return tuple(((genus, coords), val) for genus, coords, val, _, _ in self._vertex_invariants.values())

    @_memo
    def _closing_edges(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, int], ...], ...]]:
        """The flags at each vertex in vertex order, and per vertex the edges
        whose later endpoint in vertex order it is, each edge as the
        positions of its halves when the flags are listed vertex by vertex."""
        at = tuple(self._flags_at.get(v, ()) for v in self.vertices)
        position = {f: k for k, f in enumerate(f for at_v in at for f in at_v)}
        depth = {v: i for i, v in enumerate(self.vertices)}
        closing: list[list[tuple[int, int]]] = [[] for _ in at]
        for f1, f2 in self._edges:
            closing[max(depth[self.boundary[f1]], depth[self.boundary[f2]])].append((position[f1], position[f2]))
        return at, tuple(map(tuple, closing))

    @_memo
    def _tails(self) -> tuple[int, ...]:
        return tuple(f for f in self.flags if self.involution[f] == f)

    @_memo
    def _edges(self) -> tuple[tuple[int, int], ...]:
        # flags are sorted, so the pairs come out sorted by their smaller flag
        return tuple((f, p) for f in self.flags if (p := self.involution[f]) > f)

    @_memo
    def _connected_components(self) -> tuple[frozenset[int], ...]:
        pairs = ((self.boundary[f1], self.boundary[f2]) for f1, f2 in self._edges)
        return tuple(frozenset(c) for c in equivalence_classes(self.vertices, pairs))

    @_memo
    def _flag_partition(self) -> FlagPartition:
        return _partition_flags(self, self.classes)

    @_memo
    def _is_stable(self) -> bool:
        return all(is_stable_vertex(self, v) for v in self.vertices)


def marked_graph(
    rank: int,
    vertices: Mapping[int, tuple[int, int | tuple[int, ...] | MonoidElement | None]],
    tails: Mapping[int, int] | None = None,
    edges: Iterable[tuple[tuple[int, int], tuple[int, int]]] | None = None,
) -> MarkedGraph:
    """Build a graph from vertex data plus tail and edge attachments.

    ``vertices`` maps vertex id to ``(genus, class)``, where class may be an
    int (rank 1), a coordinate tuple, a MonoidElement, or None for zero.
    ``tails`` maps flag id to vertex id.  ``edges`` lists pairs
    ``((f1, v1), (f2, v2))`` joining flag f1 at v1 to flag f2 at v2.
    """
    boundary: dict[int, int] = {}
    involution: dict[int, int] = {}
    genus: dict[int, int] = {}
    classes: dict[int, MonoidElement] = {}
    for v, (g, cls) in vertices.items():
        genus[v] = g
        if cls is None:
            classes[v] = MonoidElement.zero(rank)
        elif isinstance(cls, MonoidElement):
            classes[v] = cls
        elif isinstance(cls, int):
            if rank == 0:
                if cls != 0:
                    raise RankMismatchError("non-zero class on a rank-0 graph")
                classes[v] = MonoidElement(())
            else:
                classes[v] = MonoidElement((cls,) + (0,) * (rank - 1))
        else:
            classes[v] = MonoidElement(tuple(cls))
    for f, v in (tails or {}).items():
        boundary[f] = v
        involution[f] = f
    for (f1, v1), (f2, v2) in edges or ():
        boundary[f1] = v1
        boundary[f2] = v2
        involution[f1] = f2
        involution[f2] = f1
    return MarkedGraph(
        flags=tuple(boundary),
        vertices=tuple(genus),
        boundary=boundary,
        involution=involution,
        genus=genus,
        classes=classes,
        rank=rank,
    )


def modular_graph(vertices, tails=None, edges=None) -> MarkedGraph:
    """Rank-0 graph: vertices map to genus only, classes are all trivial."""
    return marked_graph(0, {v: (g, None) for v, g in vertices.items()}, tails, edges)


def empty_graph(rank: int = 0) -> MarkedGraph:
    return MarkedGraph((), (), {}, {}, {}, {}, rank)


# -- invariants ----------------------------------------------------------


def tails(g: MarkedGraph) -> tuple[int, ...]:
    return g._tails


def edges(g: MarkedGraph) -> tuple[tuple[int, int], ...]:
    """Two-element involution orbits as sorted (min, max) pairs, sorted."""
    return g._edges


def valence(g: MarkedGraph, v: int) -> int:
    return len(g.flags_at(v))


def equivalence_classes(items: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of the equivalence relation on ``items`` generated by ``pairs``.

    Members keep the order of ``items``, and classes come in order of their
    first member.  Every id in ``pairs`` must be one of the items.
    """
    parent = {x: x for x in items}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes: dict[int, list[int]] = {}
    for x in parent:
        classes.setdefault(find(x), []).append(x)
    return list(classes.values())


def next_id(ids: tuple[int, ...]) -> int:
    """The smallest id above a sorted id tuple, such as ``MarkedGraph.flags``."""
    return ids[-1] + 1 if ids else 0


def connected_components(g: MarkedGraph) -> tuple[frozenset[int], ...]:
    """Partition of the vertex set by edge paths, sorted by smallest member."""
    return g._connected_components


def betti1(g: MarkedGraph) -> int:
    """Cycle rank of the realization: #E - #V + #components."""
    return len(edges(g)) - len(g.vertices) + len(connected_components(g))


def euler_characteristic(g: MarkedGraph) -> int:
    """chi of the realization minus the total genus; chi(|g|) = #components - betti1."""
    return (len(connected_components(g)) - betti1(g)) - sum(g.genus.values())


def genus(g: MarkedGraph) -> int:
    """Genus 1 - chi, defined for non-empty connected graphs only."""
    if not g.vertices:
        raise ValueError("genus undefined for the empty graph")
    if len(connected_components(g)) != 1:
        raise ValueError("genus undefined for disconnected graphs")
    return 1 - euler_characteristic(g)


def total_class(g: MarkedGraph) -> MonoidElement:
    return _sum_classes([g.classes[v] for v in g.vertices], g.rank)


def is_stable_vertex(g: MarkedGraph, v: int) -> bool:
    """A vertex with trivial class must satisfy 2*genus + valence >= 3."""
    if not g.classes[v].is_zero():
        return True
    return 2 * g.genus[v] + valence(g, v) >= 3


def is_stable(g: MarkedGraph) -> bool:
    return g._is_stable


def is_forest(g: MarkedGraph) -> bool:
    """No cycles and no higher-genus vertices (tree level)."""
    return betti1(g) == 0 and all(gv == 0 for gv in g.genus.values())


@dataclass(frozen=True)
class FlagPartition:
    """Partition of the flag set; blocks sorted, each block a sorted tuple."""

    blocks: tuple[tuple[int, ...], ...]
    _index: dict[int, int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        idx = {f: i for i, block in enumerate(self.blocks) for f in block}
        object.__setattr__(self, "_index", idx)

    def same_block(self, f1: int, f2: int) -> bool:
        return self._index[f1] == self._index[f2]


def flag_partition(g: MarkedGraph) -> FlagPartition:
    """Finest partition joining involution orbits and, at every genus-zero
    class-zero vertex, all flags attached there."""
    return g._flag_partition


def _partition_flags(g: MarkedGraph, classes: Mapping[int, MonoidElement]) -> FlagPartition:
    """``flag_partition`` of g with ``classes`` read in place of g's own classes."""
    pairs = list(g._edges)
    for v in g.vertices:
        if g.genus[v] == 0 and classes[v].is_zero():
            at_v = g.flags_at(v)
            pairs += [(at_v[0], f) for f in at_v[1:]]
    return FlagPartition(tuple(tuple(b) for b in equivalence_classes(g.flags, pairs)))


# -- constructions -------------------------------------------------------


def edit_graph(
    g: MarkedGraph,
    *,
    attach: Mapping[int, int] | None = None,
    pair: Mapping[int, int] | None = None,
    vertices: Mapping[int, tuple[int, MonoidElement]] | None = None,
    drop_flags: Iterable[int] = (),
    drop_vertices: Iterable[int] = (),
) -> MarkedGraph:
    """A fresh graph with local edits applied to g, in this order.

    ``drop_flags`` and ``drop_vertices`` remove ids.  ``attach`` maps a flag
    to the vertex it now sits at; a new flag starts as a tail.  ``vertices``
    maps a vertex, new or old, to its ``(genus, class)``.  ``pair`` overrides
    the involution and must list both directions of every change.
    """
    gone_flags, gone_vertices = set(drop_flags), set(drop_vertices)
    boundary = {f: v for f, v in g.boundary.items() if f not in gone_flags}
    involution = {f: g.involution[f] for f in boundary}
    genus = {v: gv for v, gv in g.genus.items() if v not in gone_vertices}
    classes = {v: c for v, c in g.classes.items() if v not in gone_vertices}
    for f, v in (attach or {}).items():
        boundary[f] = v
        involution.setdefault(f, f)
    for v, (gv, c) in (vertices or {}).items():
        genus[v], classes[v] = gv, c
    involution.update(pair or {})
    return MarkedGraph(tuple(boundary), tuple(genus), boundary, involution, genus, classes, g.rank)


def add_loop(g: MarkedGraph, v: int) -> tuple[MarkedGraph, tuple[int, int]]:
    """Hang a new loop at v and lower its genus by one.

    Contracting the returned loop gives g back.  The loop joins no two
    components, so g's components, once computed, are kept on the result.
    """
    l1 = next_id(g.flags)
    l2 = l1 + 1
    loop = edit_graph(
        g, attach={l1: v, l2: v}, pair={l1: l2, l2: l1}, vertices={v: (g.genus[v] - 1, g.classes[v])}
    )
    if "_connected_components" in g.__dict__:
        loop.__dict__["_connected_components"] = g._connected_components
    return loop, (l1, l2)


def split_vertex(
    g: MarkedGraph,
    v: int,
    moved: Iterable[int],
    kept_data: tuple[int, MonoidElement],
    new_data: tuple[int, MonoidElement],
) -> tuple[MarkedGraph, tuple[int, int], int]:
    """Move the flags in ``moved`` from v to a new vertex w, joined to v by a
    new edge (e1 at v, e2 at w).

    v takes ``kept_data`` and w takes ``new_data``, each a ``(genus, class)``.
    Returns (graph, (e1, e2), w).  Contracting the new edge gives g back when
    the genera and the classes add up to v's.  w joins v's component, and w
    is the largest vertex id, so once g's components are computed the
    result's are known, in the same order, and are kept on it.
    """
    e1 = next_id(g.flags)
    e2 = e1 + 1
    w = next_id(g.vertices)
    attach = {e1: v, e2: w}
    attach.update((x, w) for x in moved)
    split = edit_graph(g, attach=attach, pair={e1: e2, e2: e1}, vertices={v: kept_data, w: new_data})
    if "_connected_components" in g.__dict__:
        split.__dict__["_connected_components"] = tuple(c | {w} if v in c else c for c in g._connected_components)
    return split, (e1, e2), w


def relabel_classes(g: MarkedGraph, hom: MonoidHom) -> MarkedGraph:
    """Push every vertex class through a monoid homomorphism."""
    if hom.source_rank != g.rank:
        raise RankMismatchError(f"hom source rank {hom.source_rank} != graph rank {g.rank}")
    return MarkedGraph(
        g.flags, g.vertices, g.boundary, g.involution, g.genus,
        {v: hom(c) for v, c in g.classes.items()}, hom.target_rank,
    )


def disjoint_union_with_maps(
    a: MarkedGraph, b: MarkedGraph
) -> tuple[MarkedGraph, dict[int, int], dict[int, int], dict[int, int], dict[int, int]]:
    """Disjoint union with fresh ids for the second summand.

    Returns (union, a_flagmap, a_vertexmap, b_flagmap, b_vertexmap) embedding
    each summand.  The first summand keeps its ids; the second is shifted past
    the first's maxima, so the construction is deterministic.
    """
    if a.rank != b.rank:
        raise RankMismatchError(f"cannot union graphs of rank {a.rank} and {b.rank}")
    foff = next_id(a.flags)
    voff = next_id(a.vertices)
    bshift = min(b.flags) if b.flags else 0
    vshift = min(b.vertices) if b.vertices else 0
    a_f = {f: f for f in a.flags}
    a_v = {v: v for v in a.vertices}
    b_f = {f: f - bshift + foff for f in b.flags}
    b_v = {v: v - vshift + voff for v in b.vertices}
    union = edit_graph(
        a,
        attach={b_f[f]: b_v[v] for f, v in b.boundary.items()},
        pair={b_f[f]: b_f[p] for f, p in b.involution.items()},
        vertices={b_v[v]: (b.genus[v], b.classes[v]) for v in b.vertices},
    )
    return union, a_f, a_v, b_f, b_v


def disjoint_union(a: MarkedGraph, b: MarkedGraph) -> MarkedGraph:
    return disjoint_union_with_maps(a, b)[0]


def component_of(g: MarkedGraph, v: int) -> MarkedGraph:
    """The connected component of g holding v, with every id kept."""
    for comp in connected_components(g):
        if v in comp:
            drop_flags = [f for f in g.flags if g.boundary[f] not in comp]
            return edit_graph(g, drop_flags=drop_flags, drop_vertices=[w for w in g.vertices if w not in comp])
    raise KeyError(f"unknown vertex id {v}")
