"""Canonical labelling and isomorphism testing for small marked graphs.

Graphs in this calculus are tiny (a configurable cap, 16 flags by default).
The canonical encoding is the least of the encodings of every vertex
ordering that respects a refinement of the vertices, and its witness is the
first ordering that gives it when the orderings are listed class by class
in product order.  The search finds both without listing the orderings:

* components are canonicalised independently, in place on the graph, and
  then sorted, so symmetric unions of many small pieces never multiply into
  one big search;
* vertices are first partitioned by an iterated invariant refinement
  (genus, class, valence, tail/loop counts, then neighbour signatures), and
  only orderings respecting the partition count.  Invariants are compared
  by their ``repr``, and the classes come in order of that string, which
  fixes which encoding is minimal.  Every such ordering puts each class at
  the same positions, so the orderings differ only in the involution part
  of the encoding, and then in the flag colors;
* a component whose classes are all singletons has one ordering, encoded
  directly.  In an uncolored search, two members of a class whose
  neighbours agree once each reads the other as itself are twins: swapping
  them is an automorphism, so a vertex waits until its smaller twins are
  placed.  Twins are found where the search places their class, and only
  there;
* otherwise orderings grow class by class.  A forced class (a singleton,
  or an uncolored class each of whose members is a twin of every smaller
  member) has one way in, ascending, and is placed whole.  Every other
  class is placed one position at a time, and of the partial orderings of
  each length only those tied at the least known prefix of the involution
  entries go on (``_known_prefix``).  The survivors are encoded and the
  first minimum is kept;
* for a fixed vertex ordering the flag numbering is forced by a
  deterministic grouping rule, so no search happens at flag level.  One
  function (``_number_flags``) numbers complete orderings for the encoding
  and partial ones for the known prefix, where the halves of edges to
  unplaced vertices keep their slots unnumbered, so the prefix rule reads
  the very numbering it predicts.  Each vertex's tails, loops and edge
  halves come from the graph's per-vertex table
  (``MarkedGraph._flag_kinds``), kept on the graph; a colored search sorts
  copies of them once per component.  An ordering only splits the edge
  halves into those pointing back and those pointing forward.

Flags and vertices may additionally carry "colors" (arbitrary hashable
decorations).  Colors participate in the refinement and in the final
encoding, by their ``repr``, which lets callers compare whole diagrams, i.e.
graphs together with maps into fixed external graphs, up to isomorphism:
relabel only the middle graph and record the maps as colors.

The uncolored labelling (behind ``canonical_key``, ``canonical_form``,
``canonicalize`` and ``is_isomorphic``) is computed once per graph instance
and kept on it, like the graph's derived indices, so keying a graph and then
printing its canonical form searches once.  Colored calls (``diagram_key``)
are not memoised.  An uncolored search takes no color strings at all: every
flag and vertex would get ``repr(None)``, so those parts of the encoding are
constant.
"""

from __future__ import annotations

from itertools import islice
from math import factorial, inf, prod
from typing import Hashable, Mapping, Sequence

from .errors import SizeCapError
from .graphs import MarkedGraph, connected_components

DEFAULT_MAX_FLAGS = 16
# The cap bounds the product of the refined classes' factorials, not the
# orderings the search tries, which the twin and prefix rules keep far fewer.
# A connected component with V vertices has at least V - 1 edges, so at least
# 2V - 2 flags: at the default 16-flag cap V <= 9 and the product is at most
# 9! = 362,880.  So this cap fires only on calls that raise max_flags
# (test_ordering_cap_fires_before_search does, to 20).
_MAX_ORDERINGS = 2_000_000
_NO_COLOR = repr(None)  # the color string of every flag and vertex without colors

Encoding = tuple
Labeling = tuple[dict[int, int], dict[int, int]]  # flag -> slot, vertex -> slot
# color strings by flag or vertex id; None when nothing is colored, which
# gives the same result as mapping every id to _NO_COLOR
_Reprs = Mapping[int, str] | None
# per vertex: tails, loops as (f, p) pairs, and (flag, partner, partner's
# vertex) for the halves of edges to other vertices, each in encoding order
_FlagGroups = tuple[Sequence[int], Sequence[Sequence[int]], Sequence[tuple[int, int, int]]]


def _flag_groups(g: MarkedGraph, comp: list[int], frepr: _Reprs) -> Mapping[int, _FlagGroups]:
    """The order-independent part of the flag numbering at each vertex of comp.

    Without colors it is the graph's shared ``_flag_kinds``, in flag order.
    Colors sort copies: tails by color, each loop's halves and then the loops
    by color, and edge halves by their own and their partner's color; ties
    go to the smaller flag id.
    """
    kinds = g._flag_kinds
    if frepr is None:
        return kinds
    groups = {}
    for v in comp:
        tails, loops, ends = kinds[v]
        loops = [sorted(pair, key=lambda x: (frepr[x], x)) for pair in loops]
        loops.sort(key=lambda pair: (frepr[pair[0]], frepr[pair[1]]))
        ends = sorted(ends, key=lambda e: (frepr[e[0]], frepr[e[1]], e[0]))
        groups[v] = (sorted(tails, key=lambda f: (frepr[f], f)), loops, ends)
    return groups


def _vertex_classes(
    g: MarkedGraph,
    comp: list[int],
    groups: Mapping[int, _FlagGroups],
    frepr: _Reprs,
    vrepr: _Reprs,
) -> list[list[int]]:
    """Partition a component's vertices into invariant classes, refined to a
    fixed point; classes come sorted by the repr of their invariant.  The
    first is the ``_vertex_invariants`` entry, the color and the flag colors."""
    if len(comp) == 1:
        return [comp]
    sigma = g._vertex_invariants
    key = {}
    for v in comp:
        fcols = (_NO_COLOR,) * sigma[v][2] if frepr is None else tuple(sorted(frepr[f] for f in g.flags_at(v)))
        key[v] = repr((*sigma[v], _NO_COLOR if vrepr is None else vrepr[v], fcols))
    # a round cannot merge classes, so it stops once all are singletons; the
    # repr of (invariant, neighbour keys) is spelled out from the invariant's
    # repr, which is its key
    count = len(set(key.values()))
    while count < len(comp):
        refined_key = {v: f"({key[v]}, {tuple(sorted([key[w] for _, _, w in groups[v][2]]))!r})" for v in comp}
        refined_count = len(set(refined_key.values()))
        if refined_count == count:
            break
        key, count = refined_key, refined_count
    classes: dict[str, list[int]] = {}
    for v in comp:
        classes.setdefault(key[v], []).append(v)
    return [classes[k] for k in sorted(classes)]


def _number_flags(vpos: Mapping[int, int], groups: Mapping[int, _FlagGroups]) -> tuple[dict[int, int], list[int], int]:
    """The flag numbering of a partial or complete vertex ordering.

    ``vpos`` maps each placed vertex to its position, in position order.
    Flags are numbered vertex by vertex.  Within a vertex the groups come in
    the order: flags paired to already-numbered flags (sorted by partner
    slot), tails, loops (halves paired adjacently), flags pointing at later
    vertices (grouped by the target's position), and last the halves of
    edges to unplaced vertices, whose slots stay unnumbered.

    Returns flag -> slot in slot order, each slot's vertex position (each
    vertex's slots are consecutive, so this is each position repeated by
    that vertex's flag count) and the first unnumbered slot, which is the
    slot count when the ordering is complete.
    """
    fslot: dict[int, int] = {}
    boundary: list[int] = []
    gap = None
    for v, i in vpos.items():
        tails, loops, ends = groups[v]
        back, forward = [], []
        for k, (f, p, w) in enumerate(ends):
            pos = vpos.get(w)
            if pos is None:
                continue
            if pos < i:
                back.append((fslot[p], f))
            else:
                # the index in ends keeps equal positions in group order
                forward.append((pos, k, f))
        back.sort()
        forward.sort()
        slot = len(boundary)
        for _, f in back:
            fslot[f] = slot
            slot += 1
        for f in tails:
            fslot[f] = slot
            slot += 1
        for f, p in loops:
            fslot[f] = slot
            fslot[p] = slot + 1
            slot += 2
        for _, _, f in forward:
            fslot[f] = slot
            slot += 1
        boundary += [i] * (len(tails) + 2 * len(loops) + len(ends))
        if gap is None and slot < len(boundary):
            gap = slot
    return fslot, boundary, len(boundary) if gap is None else gap


def _encode_with_vertex_order(
    g: MarkedGraph,
    order: list[int],
    groups: Mapping[int, _FlagGroups],
    frepr: _Reprs,
    vrepr: _Reprs,
) -> tuple[Encoding, Labeling]:
    """Deterministic encoding of a component for a fixed vertex ordering,
    with the flags numbered by ``_number_flags``.  Interchangeable flags
    within a group are distinguished only by color."""
    vpos = {v: i for i, v in enumerate(order)}
    fslot, boundary, _ = _number_flags(vpos, groups)
    involution = g.involution
    enc = (
        len(order),
        len(fslot),
        tuple([(g.genus[v], g.classes[v].coords) for v in order]),
        tuple(boundary),
        tuple([fslot[involution[f]] for f in fslot]),
        (_NO_COLOR,) * len(order) if vrepr is None else tuple([vrepr[v] for v in order]),
        (_NO_COLOR,) * len(fslot) if frepr is None else tuple([frepr[f] for f in fslot]),
    )
    return enc, (fslot, vpos)


def _smaller_twins(c: list[int], groups: Mapping[int, _FlagGroups]) -> dict[int, list[int]]:
    """Per member of the class c, its twins of smaller id.

    Members a < b of one class are twins when a's edge neighbours without b
    equal b's without a, as multisets: the edges between a and b count on
    both sides alike, so swapping a and b is an automorphism of an uncolored
    graph.
    """
    nbrs = {v: [w for _, _, w in groups[v][2]] for v in c}
    return {
        b: [a for a in c[:j] if sorted(w for w in nbrs[a] if w != b) == sorted(w for w in nbrs[b] if w != a)]
        for j, b in enumerate(c)
    }


def _known_prefix(g: MarkedGraph, order: tuple[int, ...], groups: Mapping[int, _FlagGroups]) -> list:
    """The involution entries that a partial ordering fixes, in slot order.

    They are the entries below the first unnumbered slot of
    ``_number_flags``.  That slot's partner comes above every slot numbered
    here, so the list ends with +inf there.  Of two partial orderings of one
    length, every completion of the one with the lesser list encodes below
    every completion of the other.
    """
    fslot, boundary, gap = _number_flags({v: i for i, v in enumerate(order)}, groups)
    involution = g.involution
    prefix: list = [fslot[involution[f]] for f in islice(fslot, gap)]
    if gap < len(boundary):
        prefix.append(inf)
    return prefix


def _candidate_orders(
    g: MarkedGraph,
    classes: list[list[int]],
    groups: Mapping[int, _FlagGroups],
    colored: bool,
) -> list[tuple[int, ...]]:
    """The orderings that may give the first minimal encoding, in product order.

    Classes are placed in order, so the partials stay in the order
    ``product(permutations(...))`` lists their completions.  A vertex waits
    while a smaller twin of it is unplaced: swapping the two gives an equal
    encoding from an earlier ordering.  Twins are read in uncolored classes
    of two or more members only.  A forced class, a singleton or a class
    each of whose members is a twin of every smaller member, has one way in
    and goes in whole, in ascending id.  No prefix is read at its positions,
    which keeps more partials, never fewer, so no minimum is lost.  Every
    other class fills its positions one at a time, each partial extended by
    the unplaced members of the class in ascending id.  Of the partials of
    each length, only those tied at the least known prefix go on, unless
    there is just one; the last position is left to the encoding.
    """
    size = sum(map(len, classes))
    partials: list[tuple[int, ...]] = [()]
    for c in classes:
        twins = {} if colored or len(c) == 1 else _smaller_twins(c, groups)
        if len(c) == 1 or twins and all(len(twins[b]) == j for j, b in enumerate(c)):
            partials = [(*p, *c) for p in partials]
            continue
        for _ in c:
            extended = [(*p, v) for p in partials for v in c if v not in p and all(a in p for a in twins.get(v, ()))]
            if len(extended) > 1 and len(extended[0]) < size:
                prefixes = [_known_prefix(g, p, groups) for p in extended]
                least = min(prefixes)
                extended = [p for p, prefix in zip(extended, prefixes) if prefix == least]
            partials = extended
    return partials


def _component_best(g: MarkedGraph, comp: list[int], frepr: _Reprs, vrepr: _Reprs) -> tuple[Encoding, Labeling]:
    """Minimal encoding of one connected component, first witness on ties.

    Every admissible ordering puts each class at the same positions, so only
    the involution entries and the flag colors vary: the search keeps the
    orderings that can reach the least involution, encodes them and takes
    the first minimum, as a search over every ordering in product order
    would.  Twins are skipped in uncolored searches only.
    """
    groups = _flag_groups(g, comp, frepr)
    classes = _vertex_classes(g, comp, groups, frepr, vrepr)
    if len(classes) == len(comp):
        return _encode_with_vertex_order(g, [c[0] for c in classes], groups, frepr, vrepr)
    if prod(factorial(len(c)) for c in classes) > _MAX_ORDERINGS:
        raise SizeCapError(f"canonical labelling search space exceeds {_MAX_ORDERINGS} orderings")
    orders = _candidate_orders(g, classes, groups, frepr is not None)
    if len(orders) == 1:
        return _encode_with_vertex_order(g, list(orders[0]), groups, frepr, vrepr)
    encodings = (_encode_with_vertex_order(g, list(o), groups, frepr, vrepr) for o in orders)
    return min(encodings, key=lambda r: r[0])


def _search(g: MarkedGraph, frepr: _Reprs, vrepr: _Reprs) -> tuple[Encoding, Labeling]:
    """Minimal encoding of g for the given color strings, plus its witness."""
    components = connected_components(g)
    if len(components) == 1:
        enc, labeling = _component_best(g, sorted(components[0]), frepr, vrepr)
        return (g.rank, len(g.vertices), len(g.flags), (enc,)), labeling
    pieces = sorted(
        (_component_best(g, sorted(comp), frepr, vrepr) for comp in components),
        key=lambda p: p[0],
    )
    flag_lab: dict[int, int] = {}
    vertex_lab: dict[int, int] = {}
    foff = voff = 0
    shifted = []
    for enc, (fslot, vslot) in pieces:
        for f, s in fslot.items():
            flag_lab[f] = s + foff
        for v, s in vslot.items():
            vertex_lab[v] = s + voff
        shifted.append(enc)
        voff += enc[0]
        foff += enc[1]
    return (g.rank, len(g.vertices), len(g.flags), tuple(shifted)), (flag_lab, vertex_lab)


def canonical_encoding(
    g: MarkedGraph,
    flag_colors: Mapping[int, Hashable] | None = None,
    vertex_colors: Mapping[int, Hashable] | None = None,
    max_flags: int = DEFAULT_MAX_FLAGS,
) -> tuple[Encoding, Labeling]:
    """Minimal encoding over all admissible labellings, plus one witness.

    The witness labelling maps original flag/vertex ids to slots 0..n-1.
    Isomorphic graphs (with matching colors under the isomorphism) yield
    equal encodings, and conversely.  Without colors (None or empty
    mappings) the result is computed once per graph and kept on the
    instance; every call returns fresh labelling dicts.
    """
    if len(g.flags) > max_flags:
        raise SizeCapError(f"graph has {len(g.flags)} flags, cap is {max_flags}")
    if flag_colors or vertex_colors:
        fc = flag_colors or {}
        vc = vertex_colors or {}
        frepr = {f: repr(fc.get(f)) for f in g.flags}
        vrepr = {v: repr(vc.get(v)) for v in g.vertices}
        return _search(g, frepr, vrepr)
    kept = g.__dict__.get("_canonical_encoding")
    if kept is None:
        kept = _search(g, None, None)
        g.__dict__["_canonical_encoding"] = kept
    enc, (flag_lab, vertex_lab) = kept
    return enc, (dict(flag_lab), dict(vertex_lab))


def canonicalize(g: MarkedGraph, max_flags: int = DEFAULT_MAX_FLAGS) -> tuple[MarkedGraph, dict[int, int], dict[int, int]]:
    """Relabel onto slots 0..n-1 canonically; returns (graph, flagmap, vertexmap)."""
    _, (fmap, vmap) = canonical_encoding(g, max_flags=max_flags)
    canon = MarkedGraph(
        flags=tuple(fmap[f] for f in g.flags),
        vertices=tuple(vmap[v] for v in g.vertices),
        boundary={fmap[f]: vmap[v] for f, v in g.boundary.items()},
        involution={fmap[f]: fmap[p] for f, p in g.involution.items()},
        genus={vmap[v]: gen for v, gen in g.genus.items()},
        classes={vmap[v]: c for v, c in g.classes.items()},
        rank=g.rank,
    )
    return canon, fmap, vmap


def canonical_form(g: MarkedGraph, max_flags: int = DEFAULT_MAX_FLAGS) -> MarkedGraph:
    return canonicalize(g, max_flags)[0]


def canonical_key(g: MarkedGraph, max_flags: int = DEFAULT_MAX_FLAGS) -> Encoding:
    """Hashable isomorphism invariant: equal keys iff isomorphic graphs."""
    return canonical_encoding(g, max_flags=max_flags)[0]


def is_isomorphic(a: MarkedGraph, b: MarkedGraph, max_flags: int = DEFAULT_MAX_FLAGS) -> bool:
    if a.rank != b.rank or len(a.flags) != len(b.flags) or len(a.vertices) != len(b.vertices):
        return False
    return canonical_key(a, max_flags) == canonical_key(b, max_flags)


def diagram_key(
    g: MarkedGraph,
    flag_decorations: Mapping[int, Hashable] | None = None,
    vertex_decorations: Mapping[int, Hashable] | None = None,
    max_flags: int = DEFAULT_MAX_FLAGS,
) -> Encoding:
    """Isomorphism invariant of a graph decorated with maps to fixed targets.

    Two diagrams around middle graphs g and g' (with identical external
    objects) are isomorphic exactly when their keys agree: the decorations
    pin down how each flag and vertex maps outward, and only the middle
    graph is relabelled.
    """
    return canonical_encoding(g, flag_decorations, vertex_decorations, max_flags=max_flags)[0]
