"""Stabilization of marked graphs and pushforward along a change of marking.

An unstable vertex (class zero, 2*genus + valence < 3) is removed by one of
four local surgeries, chosen by its flag configuration:

* case I:   a single flag, half of an edge; the far half becomes a tail
* case II:  one tail plus one edge half; the far half becomes a tail
* case III: two halves of distinct non-loop edges; the far halves are glued
* case IV:  all flags paired within the vertex (tails or loops); the whole
            one-vertex component is removed

Each step removes exactly one vertex, so iteration terminates; the result is
stable and receives a combinatorial morphism into the original graph through
which every combinatorial morphism from a stable graph factors uniquely.

One ascending pass over the vertices is enough, and the stable graph is
built once.  No surgery changes the genus, class or valence of a vertex that
survives it, so the unstable vertices are read once from the input and only
ever leave by removal.  Besides dropping its vertex and that vertex's
flags, a surgery changes only the involution of the survivors.  The pass
runs on a working copy of the involution, and reads the case from that copy
when it reaches a vertex, since removing a neighbour can change it: a
case III vertex may turn into case IV.  Any removal order gives literally
the same graph, since surviving ids never change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice, permutations, product
from typing import Iterable

from .errors import SizeCapError, ValidationError, Violation
from .graphs import (
    MarkedGraph,
    component_of,
    connected_components,
    edges,
    edit_graph,
    flag_partition,
    is_stable,
    is_stable_vertex,
    relabel_classes,
    tails,
)
from .monoid import MonoidHom
from .morphisms import (
    CombinatorialMorphism,
    cut_edge,
    forget_tail,
    identity_contraction,
    inclusion,
    validate_combinatorial,
)
from .pullback import MarkedMorphism, _marked


@dataclass(frozen=True)
class ReductionStep:
    """One vertex removal: which case fired, at which vertex, what changed."""

    case: str  # "I" | "II" | "III" | "IV"
    vertex: int
    removed_flags: tuple[int, ...]
    new_tails: tuple[int, ...]  # flags whose involution became the identity
    glued: tuple[int, int] | None  # case III: the far halves now forming an edge


def _remove_vertex(g: MarkedGraph, v: int, involution: dict[int, int]) -> ReductionStep:
    """Remove the unstable vertex v of g from the working ``involution``.

    The case is read from the far halves of v's edges to other vertices, in
    ``involution`` as earlier removals left it: none is case IV, one becomes
    a tail (case I when v has one flag, else case II), two are glued (case
    III).  v's flags leave ``involution``.
    """
    at_v = g.flags_at(v)
    far = [involution[f] for f in at_v if g.boundary[involution[f]] != v]
    for f in at_v:
        del involution[f]
    if not far:
        return ReductionStep("IV", v, at_v, (), None)
    if len(far) == 1:
        (tail,) = far
        involution[tail] = tail
        return ReductionStep("I" if len(at_v) == 1 else "II", v, at_v, (tail,), None)
    h1, h2 = far  # an unstable vertex of class zero has genus 0 and valence <= 2
    involution[h1], involution[h2] = h2, h1
    return ReductionStep("III", v, at_v, (), (h1, h2))


def stabilize_with_trace(g: MarkedGraph) -> tuple[MarkedGraph, CombinatorialMorphism, tuple[ReductionStep, ...]]:
    """Stabilize, also reporting the surgery steps in application order.

    The unstable vertices are read once from g and removed in ascending id
    order on a working copy of the involution; the stable graph is built
    once, at the end, and g itself comes back when nothing is unstable.  The
    morphism is the inclusion of what survives, and it is valid: surviving
    flags keep their vertex, and surviving vertices their genus and class.
    A case III glue joins two far halves that were already joined in g's
    flag partition, through the removed vertex of genus 0 and class 0.
    """
    unstable = [v for v in g.vertices if not is_stable_vertex(g, v)]
    if not unstable:
        return g, inclusion(g, g), ()
    involution = dict(g.involution)
    steps = tuple(_remove_vertex(g, v, involution) for v in unstable)
    removed = [f for step in steps for f in step.removed_flags]
    stable = edit_graph(g, drop_flags=removed, drop_vertices=unstable, pair=involution)
    return stable, inclusion(stable, g), steps


def stabilize(g: MarkedGraph) -> tuple[MarkedGraph, CombinatorialMorphism]:
    """The stable graph under g with its canonical morphism into g."""
    stable, morphism, _ = stabilize_with_trace(g)
    return stable, morphism


def pushforward(hom: MonoidHom, g: MarkedGraph) -> tuple[MarkedGraph, MarkedMorphism]:
    """Change the marking monoid along hom, then stabilize.

    Requires g stable over its own monoid; the result is the universal stable
    graph over the hom's target, packaged as a morphism in the marked stable
    graph category (combinatorial part the stabilization, contraction part
    the identity).  The stabilization into ``relabel_classes(g, hom)`` is
    valid by the argument in ``stabilize_with_trace``; retargeting it onto g
    keeps it valid, since that graph is g with its classes pushed through hom.
    """
    if not is_stable(g):
        raise ValidationError([Violation("pushforward-unstable-source", "pushforward requires a stable graph")])
    relabeled = relabel_classes(g, hom)
    stable, a = stabilize(relabeled)
    return stable, _marked(hom, replace(a, target=g), identity_contraction(stable))


def absolute_stabilization(g: MarkedGraph) -> tuple[MarkedGraph, CombinatorialMorphism]:
    """Forget all classes (push to the trivial monoid) and stabilize.

    The returned morphism goes from the stable rank-0 graph into the rank-0
    relabelling of g, with the same flag/vertex ids as g.  The pair is
    computed once per graph and kept on the instance, like its derived
    indices, so every later call on g returns the same pair.
    """
    kept = g.__dict__.get("_absolute_stabilization")
    if kept is None:
        kept = stabilize(relabel_classes(g, MonoidHom.to_trivial(g.rank)))
        g.__dict__["_absolute_stabilization"] = kept
    return kept


# -- exhaustive morphism enumeration and the universal property oracle ----
#
# The search is a backtracking search that meets conditions 1, 2, 4 and 5
# by construction and checks condition 3 as each edge closes, so every
# result is a morphism and none is validated.  It takes each source
# vertex's candidates from the target's (genus, class) index, and a search
# in which some source vertex has none returns before it builds any table.
# The source's tables live on the source, as its other derived structure
# does: the kind list ``_kind_valences`` that every search reads, and the
# flag lists and closing positions ``_closing_edges`` that the first search
# past the candidate check builds, so a pool source listed by many
# certificates pays for them once.  It gives each morphism as its image
# tuples alone, and the public enumerator builds morphism objects from
# them.  The oracle certifies the stabilization morphism a by validating it
# once and by requiring that it keep every id, as the inclusion that
# ``stabilize`` returns does.  Then every composite a o c has the images of
# c, so the hom-set comparison reads the composites straight off the
# search, and it certifies the graph: a composite that is not a morphism
# matches no direct morphism's images and shows as a difference of
# hom-sets.


def _morphism_images(
    src: MarkedGraph, tgt: MarkedGraph, cap: int = 200_000
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All combinatorial morphisms src -> tgt, each as (vertex images, flag
    images).  The vertex images run over ``src.vertices``; the flag images
    over those vertices' flags, each vertex's in ``_flags_at`` order.

    Each source vertex's candidates are the target vertices of its genus and
    class with at least its valence, read from the target's index
    ``_vertices_by_kind``, so class and genus hold by construction.  A
    search in which some source vertex has no candidate returns ``[]``
    before it builds any table or visits any node.  For each vertex map, a
    depth-first search over ``src.vertices`` in order injects the flags at
    each source vertex into the flags at its image, so boundary and
    injectivity at each vertex hold too.  Condition 3 is checked against
    the target's flag partition as each edge closes, at the later of its
    endpoints, and a failing branch is dropped there.  So every complete
    flag map is a morphism; an empty source gets the empty map alone.  The
    source's flag lists and closing positions come from its memo
    ``_closing_edges``, built by the first search that gets this far.
    Results come in the order of the product of per-vertex permutations.
    ``cap`` bounds the search nodes visited (flag picks tried).
    """
    if src.rank != tgt.rank:
        return []
    kinds = tgt._vertices_by_kind
    candidates: list[list[int]] = []
    for kind, val in src._kind_valences:  # in vertex order
        opts = [w for w, w_val in kinds.get(kind, ()) if w_val >= val]
        if not opts:
            return []
        candidates.append(opts)
    if not candidates:
        return [((), ())]

    src_at, closing = src._closing_edges
    tgt_at = tgt._flags_at  # a flagless vertex has no entry
    block = flag_partition(tgt)._index
    last = len(candidates) - 1
    results: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    nodes = 0

    def extend(i: int, assignment: tuple[int, ...], images: tuple[int, ...]) -> None:
        nonlocal nodes
        at_v, shut, leaf = src_at[i], closing[i], i == last
        for pick in permutations(tgt_at.get(assignment[i], ()), len(at_v)):
            nodes += 1
            if nodes > cap:
                raise SizeCapError(f"morphism enumeration exceeded {cap} candidates")
            grown = images + pick
            for k1, k2 in shut:
                if block[grown[k1]] != block[grown[k2]]:
                    break
            else:
                if leaf:
                    results.append((assignment, grown))
                else:
                    extend(i + 1, assignment, grown)

    for assignment in product(*candidates):
        extend(0, assignment, ())
    return results


def enumerate_combinatorial_morphisms(
    src: MarkedGraph, tgt: MarkedGraph, cap: int = 200_000
) -> list[CombinatorialMorphism]:
    """All combinatorial morphisms src -> tgt over a common monoid.

    Each is built from the images that the search ``_morphism_images``
    finds and is returned unvalidated, since every complete flag map of
    that search is a morphism (see its docstring).  The flag map's keys run
    over ``src.vertices`` in order, each vertex's flags in ``_flags_at``
    order.  An empty source gets the empty map alone, and a source vertex
    with no target vertex of its genus and class and at least its valence
    gives ``[]`` before any node is visited.  Results come in the order of
    the product of per-vertex permutations.  ``cap`` bounds the search
    nodes visited (flag picks tried).  Intended for oracle use on very
    small graphs.
    """
    svs = src.vertices
    flags = [f for v in svs for f in src._flags_at.get(v, ())]
    return [
        CombinatorialMorphism(
            source=src, target=tgt, flagmap=dict(zip(flags, flag_images)), vertexmap=dict(zip(svs, vertex_images))
        )
        for vertex_images, flag_images in _morphism_images(src, tgt, cap)
    ]


@dataclass
class UniversalPropertyReport:
    sources_checked: int = 0
    morphisms_checked: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _default_source_pool(stable: MarkedGraph) -> list[MarkedGraph]:
    """Stable graphs derived from a graph's stabilization ``stable``: the
    stabilization itself, its components when it has two or more (a single
    component is ``stable`` again), edge cuts and stable tail forgets."""
    pool: list[MarkedGraph] = [stable]
    components = connected_components(stable)
    if len(components) > 1:
        pool.extend(component_of(stable, min(comp)) for comp in components)
    for e in edges(stable):
        pool.append(cut_edge(stable, e)[0])
    for f in tails(stable):
        smaller, _ = forget_tail(stable, f)
        if is_stable(smaller):
            pool.append(smaller)
    return pool


def _keeps_ids(a: CombinatorialMorphism, stable: MarkedGraph) -> bool:
    """Whether a's maps are the identity on the flags and vertices of
    ``stable``, as for the inclusion that ``stabilize`` returns.  Only then
    does every composite ``a o c`` have the images of c, which is what lets
    the certifier compare hom-sets without building a composite."""
    fmap, vmap = a.flagmap, a.vertexmap
    return (
        fmap.keys() == stable._flag_set
        and vmap.keys() == stable._vertex_set
        and all(f == x for f, x in fmap.items())
        and all(v == x for v, x in vmap.items())
    )


def check_universal_property(
    g: MarkedGraph,
    pool: Iterable[MarkedGraph] | None = None,
    pool_limit: int = 50,
    max_flags: int = 10,
) -> UniversalPropertyReport:
    """Certify by brute force that the stabilization is universal.

    For every stable graph in the pool, composition with the stabilization
    morphism must be a bijection between morphisms into the stabilization and
    morphisms into g.  Two checks certify the morphism: it is validated
    once, and it must keep every id, as the inclusion that ``stabilize``
    returns does.  A morphism that fails the second is one counterexample
    and no source is compared, since its composites cannot be read off the
    search.  The hom-set comparison certifies the graph: both hom-sets are
    enumerated exhaustively by a search whose results are morphisms by
    construction, and compared as image tuples, with no morphism object
    built per map.  Each composite has the images of its map into the
    stabilization, so it is not validated; one that is not a morphism
    matches no direct morphism and is reported as a difference of hom-sets.
    Only the first ``pool_limit`` sources are drawn from the pool, so an
    iterator pool is read no further; unstable ones among them are skipped.
    """
    if len(g.flags) > max_flags:
        raise SizeCapError(f"universal property oracle capped at {max_flags} flags")
    stable, a = stabilize(g)
    report = UniversalPropertyReport()
    broken = validate_combinatorial(a)
    if broken:
        report.counterexamples.append("stabilization morphism invalid: " + ", ".join(v.condition for v in broken))
    if not _keeps_ids(a, stable):
        report.counterexamples.append("stabilization morphism does not keep ids")
        return report
    sources = pool if pool is not None else _default_source_pool(stable)
    for sigma in islice(sources, pool_limit):
        if not is_stable(sigma):
            continue
        report.sources_checked += 1
        into_stable = _morphism_images(sigma, stable)
        into_g = _morphism_images(sigma, g)
        report.morphisms_checked += len(into_g)
        composed_keys = set(into_stable)
        direct_keys = set(into_g)
        if composed_keys != direct_keys:
            report.counterexamples.append(
                f"hom-sets differ through stabilization for source with {len(sigma.flags)} flags: "
                f"{len(composed_keys)} composed vs {len(direct_keys)} direct"
            )
    return report
