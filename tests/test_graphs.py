import dataclasses
import random

import pytest

from stablegraphs.errors import RankMismatchError, ValidationError
from stablegraphs.graphs import (
    MarkedGraph,
    _memo,
    add_loop,
    betti1,
    component_of,
    connected_components,
    disjoint_union,
    disjoint_union_with_maps,
    edges,
    empty_graph,
    euler_characteristic,
    flag_partition,
    genus,
    is_forest,
    is_stable,
    is_stable_vertex,
    marked_graph,
    modular_graph,
    split_vertex,
    tails,
    total_class,
    valence,
)
from stablegraphs.monoid import element, enumerate_pair_decompositions
from stablegraphs.morphisms import (
    CombinatorialMorphism,
    contract_edges,
    validate_combinatorial,
)

from oracles import betti1_gf2, component_inclusion
from strategies import rand_graph, relabelled


def tripod():
    return modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})


def loop_graph(g=0):
    return modular_graph({0: g}, edges=[((0, 0), (1, 0))])


def test_tripod_counts():
    t = tripod()
    assert len(tails(t)) == 3
    assert edges(t) == ()
    assert valence(t, 0) == 3


def test_loop_counts():
    l = loop_graph()
    assert tails(l) == ()
    assert len(edges(l)) == 1
    assert valence(l, 0) == 2


def test_empty_graph_counts():
    e = empty_graph()
    assert tails(e) == () and edges(e) == ()
    assert connected_components(e) == ()
    assert euler_characteristic(e) == 0


def test_valence_unknown_vertex():
    with pytest.raises(KeyError):
        valence(tripod(), 99)


def test_integer_classes_at_rank_zero():
    # the integer 0 is the one class of a rank-0 vertex; any other integer is refused
    assert marked_graph(0, {0: (1, 0)}).classes[0].coords == ()
    with pytest.raises(RankMismatchError, match="^non-zero class on a rank-0 graph$"):
        marked_graph(0, {0: (1, 2)})


def test_involution_must_be_involution():
    with pytest.raises(ValidationError) as err:
        MarkedGraph(
            flags=(0, 1, 2),
            vertices=(0,),
            boundary={0: 0, 1: 0, 2: 0},
            involution={0: 1, 1: 2, 2: 0},
            genus={0: 0},
            classes={0: element(0)},
            rank=1,
        )
    assert "j-involution" in err.value.conditions


def _structural_violations(**changes):
    # a graph whose vertex 0 holds tail 0 and half-edge 1, joined to vertex 1 by half-edge 2
    fields = dict(
        flags=(0, 1, 2),
        vertices=(0, 1),
        boundary={0: 0, 1: 0, 2: 1},
        involution={0: 0, 1: 2, 2: 1},
        genus={0: 0, 1: 1},
        classes={0: element(0), 1: element(1)},
        rank=1,
    )
    MarkedGraph(**fields)
    fields.update(changes)
    with pytest.raises(ValidationError) as err:
        MarkedGraph(**fields)
    return [(v.condition, v.detail) for v in err.value.violations]


BOUNDARY_NOT_TOTAL = ("boundary-total", "boundary map not defined on exactly the flag set")
J_NOT_INVOLUTION = ("j-involution", "involution composed with itself is not the identity")
GENUS_NEGATIVE = ("genus-negative", "vertex genus must be non-negative")
CLASS_NOT_TOTAL = ("class-total", "class map not defined on exactly the vertex set")


@pytest.mark.parametrize(
    "changes, expected",
    [
        ({"flags": (0, 1, 2, 2)}, [("flag-duplicate", "flag ids repeat")]),
        ({"vertices": (0, 1, 1)}, [("vertex-duplicate", "vertex ids repeat")]),
        ({"boundary": {0: 0, 1: 0}}, [BOUNDARY_NOT_TOTAL]),
        ({"boundary": {0: 0, 1: 0, 2: 7}}, [("boundary-total", "boundary map hits unknown vertex")]),
        ({"involution": {0: 0, 1: 2}}, [("j-total", "involution not defined on exactly the flag set")]),
        ({"involution": {0: 0, 1: 5, 2: 1}}, [("j-involution", "involution hits unknown flag")]),
        ({"involution": {0: 1, 1: 2, 2: 0}}, [J_NOT_INVOLUTION]),
        ({"genus": {0: 0}}, [("genus-total", "genus map not defined on exactly the vertex set")]),
        ({"genus": {0: 0, 1: -1}}, [GENUS_NEGATIVE]),
        ({"classes": {0: element(0)}}, [CLASS_NOT_TOTAL]),
        ({"classes": {0: element(0), 1: element(1, 0)}}, [("class-rank", "vertex class has wrong monoid rank")]),
        (
            {
                "flags": (0, 1, 2, 2),
                "vertices": (0, 1, 1),
                "boundary": {0: 0, 1: 0},
                "involution": {0: 1, 1: 2, 2: 0},
                "genus": {0: -1, 1: 0},
                "classes": {0: element(0)},
            },
            [
                ("flag-duplicate", "flag ids repeat"),
                ("vertex-duplicate", "vertex ids repeat"),
                BOUNDARY_NOT_TOTAL,
                J_NOT_INVOLUTION,
                GENUS_NEGATIVE,
                CLASS_NOT_TOTAL,
            ],
        ),
    ],
)
def test_structural_violations_are_pinned(changes, expected):
    assert _structural_violations(**changes) == expected


def test_connected_components():
    two = modular_graph({0: 0, 1: 0}, edges=[((0, 0), (1, 1))])
    assert len(connected_components(two)) == 1
    apart = modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 1})
    assert len(connected_components(apart)) == 2


def test_betti1_basics():
    assert betti1(loop_graph()) == 1
    tree = modular_graph({0: 0, 1: 0, 2: 0}, edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))])
    assert betti1(tree) == 0
    parallel = modular_graph({0: 0, 1: 0}, edges=[((0, 0), (1, 1)), ((2, 0), (3, 1))])
    assert betti1(parallel) == 1


def test_euler_characteristic():
    one = modular_graph({0: 3}, tails={0: 0, 1: 0})
    assert euler_characteristic(one) == 1 - 3
    two = modular_graph({0: 1, 1: 2}, edges=[((0, 0), (1, 1))])
    assert euler_characteristic(two) == -2


def test_genus():
    assert genus(modular_graph({0: 5})) == 5
    parallel = modular_graph({0: 0, 1: 0}, edges=[((0, 0), (1, 1)), ((2, 0), (3, 1))])
    assert genus(parallel) == 1
    loop_on_elliptic = modular_graph({0: 1}, edges=[((0, 0), (1, 0))])
    assert genus(loop_on_elliptic) == 2


def test_genus_undefined():
    with pytest.raises(ValueError):
        genus(empty_graph())
    with pytest.raises(ValueError):
        genus(modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 1}))


def test_total_class():
    g = marked_graph(1, {0: (0, 1), 1: (0, 2)}, tails={0: 0, 1: 1})
    assert total_class(g) == element(3)
    assert total_class(empty_graph(2)) == element(0, 0)
    zero = marked_graph(1, {0: (0, 0), 1: (1, 0)}, tails={0: 0, 1: 1})
    assert total_class(zero) == element(0)
    # an int class is the first coordinate, padded with zeros to the rank
    assert total_class(marked_graph(2, {0: (0, 3)})) == element(3, 0)
    assert total_class(marked_graph(3, {0: (0, 3)})) == element(3, 0, 0)


def test_stability():
    two_tails = marked_graph(1, {0: (0, 0)}, tails={0: 0, 1: 0})
    assert not is_stable_vertex(two_tails, 0)
    marked = marked_graph(1, {0: (0, 1)}, tails={0: 0, 1: 0})
    assert is_stable_vertex(marked, 0)
    elliptic = marked_graph(1, {0: (1, 0)}, tails={0: 0})
    assert is_stable(elliptic)


def test_flag_partition_tripod():
    part = flag_partition(tripod())
    assert part.blocks == ((0, 1, 2),)


def test_flag_partition_positive_genus():
    g = marked_graph(0, {0: (1, None)}, tails={0: 0, 1: 0})
    assert flag_partition(g).blocks == ((0,), (1,))


def test_flag_partition_chain():
    # tail 0 at a free vertex joined by an edge (1,2) to a genus-1 vertex with tail 3
    g = modular_graph({0: 0, 1: 1}, tails={0: 0, 3: 1}, edges=[((1, 0), (2, 1))])
    part = flag_partition(g)
    assert part.same_block(0, 1) and part.same_block(1, 2)
    assert not part.same_block(2, 3)
    assert part.blocks == ((0, 1, 2), (3,))


def test_flag_partition_refines_involution_and_free_vertices():
    rng = random.Random(11)
    for _ in range(50):
        g = rand_graph(rng, rank=1, max_flags=10)
        part = flag_partition(g)
        for f in g.flags:
            assert part.same_block(f, g.involution[f])
        for v in g.vertices:
            at_v = g.flags_at(v)
            if g.genus[v] == 0 and g.classes[v].is_zero() and len(at_v) > 1:
                assert all(part.same_block(at_v[0], f) for f in at_v[1:])


def test_is_forest():
    assert is_forest(tripod())
    assert not is_forest(loop_graph())
    assert not is_forest(modular_graph({0: 1}))


def test_disjoint_union():
    t = tripod()
    u = disjoint_union(t, t)
    assert len(u.vertices) == 2 and len(tails(u)) == 6
    assert euler_characteristic(u) == 2 * euler_characteristic(t)


def test_disjoint_union_with_empty():
    t = tripod()
    u = disjoint_union(t, empty_graph(0))
    assert u == t


def test_disjoint_union_refuses_mixed_ranks():
    with pytest.raises(RankMismatchError, match="^cannot union graphs of rank 0 and 1$"):
        disjoint_union(tripod(), empty_graph(1))


def test_disjoint_union_additive_invariants():
    rng = random.Random(3)
    for _ in range(30):
        a = rand_graph(rng, rank=1, max_flags=8)
        b = rand_graph(rng, rank=1, max_flags=8)
        u = disjoint_union(a, b)
        assert euler_characteristic(u) == euler_characteristic(a) + euler_characteristic(b)
        assert total_class(u) == total_class(a) + total_class(b)


def test_disjoint_union_maps_embed_each_summand():
    rng = random.Random(29)
    for _ in range(40):
        a = rand_graph(rng, rank=1, max_flags=8)
        b = relabelled(rng, rand_graph(rng, rank=1, max_flags=8))
        u, a_f, a_v, b_f, b_v = disjoint_union_with_maps(a, b)
        for summand, fmap, vmap in ((a, a_f, a_v), (b, b_f, b_v)):
            emb = CombinatorialMorphism(source=summand, target=u, flagmap=fmap, vertexmap=vmap)
            assert validate_combinatorial(emb) == []
            assert emb.is_complete()
        assert set(a_f.values()).isdisjoint(b_f.values()) and set(a_v.values()).isdisjoint(b_v.values())
        assert set(u.flags) == set(a_f.values()) | set(b_f.values())
        assert set(u.vertices) == set(a_v.values()) | set(b_v.values())
        assert len(edges(u)) == len(edges(a)) + len(edges(b))


def test_component_of_keeps_the_involution():
    rng = random.Random(31)
    components = 0
    for _ in range(40):
        a = rand_graph(rng, rank=1, max_flags=8)
        b = rand_graph(rng, rank=1, max_flags=8, connected=rng.random() < 0.5)
        g = disjoint_union(a, b)
        for comp in connected_components(g):
            c = component_of(g, max(comp))
            assert set(c.vertices) == comp
            assert set(c.flags) == {f for f in g.flags if g.boundary[f] in comp}
            assert c.involution == {f: g.involution[f] for f in c.flags}
            assert set(tails(c)) == set(tails(g)) & set(c.flags)
            assert validate_combinatorial(component_inclusion(g, c)) == []
            components += 1
    assert components > 80


def test_component_of_unknown_vertex():
    with pytest.raises(KeyError, match="unknown vertex id 99"):
        component_of(tripod(), 99)


def test_flag_count_identities():
    rng = random.Random(5)
    for _ in range(50):
        g = rand_graph(rng, rank=1, max_flags=12)
        assert sum(valence(g, v) for v in g.vertices) == len(g.flags)
        assert len(g.flags) == len(tails(g)) + 2 * len(edges(g))


def test_split_vertex_inverts_contraction():
    rng = random.Random(17)
    for _ in range(80):
        g = rand_graph(rng, rank=2, max_flags=10)
        v = rng.choice(g.vertices)
        moved = [f for f in g.flags_at(v) if rng.random() < 0.5]
        g1 = rng.randint(0, g.genus[v])
        c1, c2 = rng.choice(enumerate_pair_decompositions(g.classes[v]))
        split, (e1, e2), w = split_vertex(g, v, moved, (g1, c1), (g.genus[v] - g1, c2))
        assert w not in g.vertices and not {e1, e2} & set(g.flags)
        assert split.boundary[e1] == v and split.boundary[e2] == w
        assert split.flags_at(w) == tuple(sorted(moved)) + (e2,)
        assert contract_edges(split, [(e1, e2)]).target == g


def test_add_loop_inverts_contraction():
    rng = random.Random(19)
    checked = 0
    for _ in range(80):
        g = rand_graph(rng, rank=2, max_flags=10)
        for v in g.vertices:
            if g.genus[v] < 1:
                continue
            looped, (l1, l2) = add_loop(g, v)
            assert looped.genus[v] == g.genus[v] - 1
            assert looped.involution[l1] == l2 and looped.boundary[l1] == looped.boundary[l2] == v
            assert contract_edges(looped, [(l1, l2)]).target == g
            checked += 1
    assert checked > 40


def test_split_and_loop_keep_the_components_exactly_when_known():
    # add_loop and split_vertex hand the parent's connected components on to
    # the result when the parent has them, and only then; what they hand on
    # equals the components computed afresh on a copy
    rng = random.Random(23)
    handed = {"split": 0, "loop": 0}
    for i in range(80):
        g = dataclasses.replace(rand_graph(rng, rank=1, max_flags=10))
        known = i % 2 == 0
        if known:
            connected_components(g)
        v = rng.choice(g.vertices)
        moved = [f for f in g.flags_at(v) if rng.random() < 0.5]
        results = [("split", split_vertex(g, v, moved, (g.genus[v], g.classes[v]), (0, element(0)))[0])]
        if g.genus[v] >= 1:
            results.append(("loop", add_loop(g, v)[0]))
        for kind, h in results:
            assert ("_connected_components" in h.__dict__) == known
            if known:
                assert h._connected_components == dataclasses.replace(h)._connected_components
                handed[kind] += 1
    assert min(handed.values()) >= 15


def _components_by_search(g):
    """Vertex sets reached by walking edges, by smallest member."""
    seen, out = set(), []
    for v in g.vertices:
        if v in seen:
            continue
        comp, todo = {v}, [v]
        while todo:
            u = todo.pop()
            for f in g.flags:
                w = g.boundary[g.involution[f]]
                if g.boundary[f] == u and w not in comp:
                    comp.add(w)
                    todo.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return tuple(out)


def _flag_blocks_by_merging(g):
    """Involution orbits and the flag sets of free vertices, merged while two overlap."""
    pieces = [{f, g.involution[f]} for f in g.flags]
    pieces += [
        {f for f in g.flags if g.boundary[f] == v}
        for v in g.vertices
        if g.genus[v] == 0 and g.classes[v].is_zero()
    ]
    merged = []
    for piece in pieces:
        for block in [b for b in merged if b & piece]:
            merged.remove(block)
            piece = piece | block
        if piece:
            merged.append(piece)
    return tuple(sorted(tuple(sorted(b)) for b in merged))


def test_cached_indices_match_recomputation():
    for seed in range(80):
        rng = random.Random(seed)
        rank = seed % 3
        g = relabelled(rng, rand_graph(rng, rank=rank, max_flags=10))
        cold = MarkedGraph(
            g.flags, g.vertices, dict(g.boundary), dict(g.involution), dict(g.genus), dict(g.classes), g.rank
        )
        for v in g.vertices:
            assert g.flags_at(v) == tuple(f for f in g.flags if g.boundary[f] == v)
            assert g.flags_at(v) is g.flags_at(v)
        with pytest.raises(KeyError):
            g.flags_at(max(g.vertices) + 1)
        assert tails(g) == tuple(f for f in g.flags if g.involution[f] == f)
        pairs = {tuple(sorted((f, g.involution[f]))) for f in g.flags if g.involution[f] != f}
        assert edges(g) == tuple(sorted(pairs))
        components = _components_by_search(g)
        assert connected_components(g) == components
        assert len(pairs) - len(g.vertices) + len(components) == betti1_gf2(g)
        assert flag_partition(g).blocks == _flag_blocks_by_merging(g)
        for accessor in (tails, edges, connected_components, flag_partition):
            assert accessor(g) is accessor(g)
        assert g == cold and repr(g) == repr(cold)


def _flag_kinds_by_edges(g):
    """Each vertex's tails, loops and edge halves, read from ``tails`` and
    ``edges`` rather than from the flags at each vertex."""
    kinds = {v: ([], [], []) for v in g.vertices}
    for f in tails(g):
        kinds[g.boundary[f]][0].append(f)
    for f, p in edges(g):
        u, w = g.boundary[f], g.boundary[p]
        if u == w:
            kinds[u][1].append((f, p))
        else:
            kinds[u][2].append((f, p, w))
            kinds[w][2].append((p, f, u))
    return {v: (tuple(t), tuple(l), tuple(sorted(e))) for v, (t, l, e) in kinds.items()}


def test_flag_tables_match_a_classification_by_edges():
    for seed in range(80):
        rng = random.Random(seed)
        rank = seed % 3
        # a vertex with no flags, a vertex with a loop and two parallel edges,
        # and a second loop, in every example
        fixed = marked_graph(
            rank,
            {0: (0, None), 1: (1, None), 2: (0, None), 3: (2, None)},
            tails={6: 2},
            edges=[((0, 1), (1, 1)), ((2, 1), (3, 2)), ((4, 1), (5, 2)), ((8, 3), (7, 3))],
        )
        g = relabelled(rng, disjoint_union(rand_graph(rng, rank=rank, max_flags=10), fixed))
        kinds = _flag_kinds_by_edges(g)
        assert g._flag_kinds == kinds
        assert any(kinds[v] == ((), (), ()) for v in g.vertices)
        for v, (t, loops, ends) in g._flag_kinds.items():
            assert isinstance(t, tuple) and isinstance(loops, tuple) and isinstance(ends, tuple)
            expected = (g.genus[v], g.classes[v].coords, valence(g, v), len(t), 2 * len(loops))
            assert g._vertex_invariants[v] == expected


def test_vertices_by_kind_lists_each_kind_in_vertex_order():
    rng = random.Random(19)
    for i in range(60):
        rank = i % 3
        lonely = marked_graph(rank, {0: (2, None)})
        g = relabelled(rng, disjoint_union(rand_graph(rng, rank=rank, max_flags=8), lonely))
        expected = {}
        for v in g.vertices:
            expected.setdefault((g.genus[v], g.classes[v].coords), []).append((v, valence(g, v)))
        assert g._vertices_by_kind == {kind: tuple(pairs) for kind, pairs in expected.items()}
        assert vars(g)["_vertices_by_kind"] is g._vertices_by_kind
        assert any(val == 0 for pairs in expected.values() for _, val in pairs)


def test_memoised_index_read_on_the_class_is_its_descriptor():
    descriptor = vars(MarkedGraph)["_flags_at"]
    assert isinstance(descriptor, _memo) and MarkedGraph._flags_at is descriptor


def test_memoised_indices_are_kept_on_the_instance_but_not_compared():
    g = marked_graph(1, {0: (0, 1), 1: (1, 0)}, tails={0: 0}, edges=[((1, 0), (2, 1))])
    cold = dataclasses.replace(g)
    names = (
        "_flags_at", "_flag_kinds", "_vertex_invariants", "_tails", "_edges", "_connected_components",
        "_flag_partition",
    )
    for name in names:
        assert name not in vars(g)
        first = getattr(g, name)
        assert vars(g)[name] is first and getattr(g, name) is first
    assert not any(name in vars(cold) for name in names)
    assert g == cold and repr(g) == repr(cold)
    copy = dataclasses.replace(g)
    assert copy == g and not any(name in vars(copy) for name in names)
    assert copy._edges == g._edges and copy._edges is not g._edges
