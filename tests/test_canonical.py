import dataclasses
import hashlib
import random
from math import inf

import pytest

from stablegraphs.canonical import (
    _component_best,
    _encode_with_vertex_order,
    _flag_groups,
    _known_prefix,
    _number_flags,
    _smaller_twins,
    canonical_encoding,
    canonical_form,
    canonical_key,
    canonicalize,
    diagram_key,
    is_isomorphic,
)
from stablegraphs.cartesian import enumerate_stable_graphs
from stablegraphs.errors import SizeCapError
from stablegraphs.graphs import MarkedGraph, connected_components, modular_graph, marked_graph
from stablegraphs.profiles import BUILTIN_PROFILES

from strategies import rand_graph, relabelled


def test_relabelled_tripod_isomorphic():
    t1 = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    t2 = modular_graph({7: 0}, tails={11: 7, 12: 7, 13: 7})
    assert is_isomorphic(t1, t2)
    assert canonical_form(t1) == canonical_form(t2)


def test_non_isomorphic_by_genus():
    t = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    e = modular_graph({0: 1}, tails={0: 0})
    assert not is_isomorphic(t, e)


@pytest.mark.parametrize(
    "other",
    [
        marked_graph(1, {0: (0, 0)}, tails={0: 0, 1: 0, 2: 0}),
        modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0, 3: 0}),
        modular_graph({0: 0, 1: 1}, tails={0: 0}, edges=[((1, 0), (2, 1))]),
    ],
    ids=["rank", "flags", "vertices"],
)
def test_graphs_of_different_sizes_are_told_apart_unkeyed(other, calls):
    # each differs from the tripod in one count only, which answers without
    # a search, so no flag cap can refuse the answer
    keyed = calls(canonical_key)
    tripod = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    assert not is_isomorphic(tripod, other, max_flags=2)
    assert keyed == []


def test_non_isomorphic_loop_vs_parallel():
    loop = modular_graph({0: 0}, edges=[((0, 0), (1, 0))])
    parallel = modular_graph({0: 0, 1: 0}, edges=[((0, 0), (1, 1)), ((2, 0), (3, 1))])
    assert not is_isomorphic(loop, parallel)


def test_classes_distinguish():
    a = marked_graph(1, {0: (0, 1)}, tails={0: 0})
    b = marked_graph(1, {0: (0, 2)}, tails={0: 0})
    assert not is_isomorphic(a, b)


def test_canonical_idempotent():
    rng = random.Random(17)
    for _ in range(60):
        g = rand_graph(rng, rank=1, max_flags=10)
        c = canonical_form(g)
        assert canonical_form(c) == c
        assert is_isomorphic(g, c)


def test_random_relabellings_share_keys():
    rng = random.Random(23)
    for _ in range(80):
        g = rand_graph(rng, rank=1, max_flags=10)
        h = relabelled(rng, g)
        assert canonical_key(g) == canonical_key(h)
        assert canonical_form(g) == canonical_form(h)


def test_canonicalize_returns_consistent_maps():
    rng = random.Random(29)
    for _ in range(30):
        g = rand_graph(rng, rank=1, max_flags=10)
        canon, fmap, vmap = canonicalize(g)
        for f in g.flags:
            assert canon.boundary[fmap[f]] == vmap[g.boundary[f]]
            assert canon.involution[fmap[f]] == fmap[g.involution[f]]
        for v in g.vertices:
            assert canon.genus[vmap[v]] == g.genus[v]
            assert canon.classes[vmap[v]] == g.classes[v]


def test_symmetric_components_ok():
    # five identical tripod components: per-component search keeps this cheap
    parts = {}
    boundary = {}
    for k in range(5):
        parts[k] = (0, None)
        for i in range(3):
            boundary[3 * k + i] = k
    g = marked_graph(0, parts, tails=boundary)
    assert canonical_form(canonical_form(g)) == canonical_form(g)


def test_size_cap():
    big = marked_graph(0, {0: (0, None)}, tails={i: 0 for i in range(17)})
    with pytest.raises(SizeCapError):
        canonical_form(big)


def test_diagram_key_separates_decorations():
    # two tails at one vertex; mapping them to different external ids must matter
    g = modular_graph({0: 1}, tails={0: 0, 1: 0})
    same = diagram_key(g, {0: "x", 1: "y"}, {})
    swapped = diagram_key(g, {0: "y", 1: "x"}, {})
    plain = diagram_key(g, {0: "x", 1: "x"}, {})
    assert same == swapped  # the two tails are interchangeable by symmetry
    assert same != plain


def test_diagram_key_distinguishes_asymmetric_maps():
    # a path: tail 0 - v0 - edge - v1 - tail 3, with distinct genera
    g = modular_graph({0: 1, 1: 2}, tails={0: 0, 3: 1}, edges=[((1, 0), (2, 1))])
    k1 = diagram_key(g, {0: "a", 3: "b"}, {})
    k2 = diagram_key(g, {0: "b", 3: "a"}, {})
    assert k1 != k2


def test_canonical_key_agrees_with_brute_force_oracle():
    from oracles import isomorphic_brute_force

    rng = random.Random(31)
    pairs = agreements = 0
    while pairs < 120:
        a = rand_graph(rng, rank=1, max_flags=7, max_vertices=3)
        # half the time check a true relabelling, half an independent graph
        b = relabelled(rng, a) if rng.random() < 0.5 else rand_graph(rng, rank=1, max_flags=7, max_vertices=3)
        expected = isomorphic_brute_force(a, b)
        assert is_isomorphic(a, b) == expected
        agreements += expected
        pairs += 1
    assert agreements >= 40  # the relabelled half guarantees plenty of positives


def test_canonical_symmetric_shapes():
    # shapes whose automorphism groups historically trip labelling schemes
    base = modular_graph(
        {0: 0, 1: 0},
        edges=[((0, 0), (1, 1)), ((2, 0), (3, 1)), ((4, 0), (5, 1))],
    )  # theta graph: two vertices, three parallel edges
    rng = random.Random(37)
    for _ in range(10):
        assert canonical_form(relabelled(rng, base)) == canonical_form(base)
    double_loop = modular_graph({0: 0}, edges=[((0, 0), (1, 0)), ((2, 0), (3, 0))])
    for _ in range(10):
        assert canonical_form(relabelled(rng, double_loop)) == canonical_form(double_loop)


def test_canonical_encoding_is_pinned():
    # the minimal encoding and its witness decide the printed canonical forms
    # and their order, so any rewrite of the search must reproduce both exactly
    rng = random.Random(5)
    lines = []
    for i in range(300):
        g = rand_graph(rng, rank=rng.randint(0, 2), max_flags=12)
        fc = vc = None
        if i % 3 == 0:
            fc = {f: rng.choice([None, 1, 2, (1, None), "x"]) for f in g.flags}
            vc = {v: rng.choice([None, 0, (2, 3)]) for v in g.vertices}
        lines.append(repr(canonical_encoding(g, fc, vc)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "d8421f27f4eed99a"


def test_ordering_cap_fires_before_search(monkeypatch):
    # a 10-cycle of identical vertices: refinement leaves one class, 10! orderings
    import stablegraphs.canonical as canonical

    def no_search(*args):
        raise AssertionError("an ordering was encoded before the cap fired")

    monkeypatch.setattr(canonical, "_encode_with_vertex_order", no_search)
    k = 10
    cycle = modular_graph({v: 0 for v in range(k)}, edges=[((2 * v, v), (2 * v + 1, (v + 1) % k)) for v in range(k)])
    with pytest.raises(SizeCapError, match="^canonical labelling search space exceeds 2000000 orderings$"):
        canonical_key(cycle, max_flags=20)


# -- the uncolored labelling is kept on the graph instance -----------------


def test_second_call_on_a_graph_runs_no_search(calls):
    # one component, so one search; every later uncolored call reads the memo
    searched = calls(_component_best)
    g = modular_graph({0: 1, 1: 0}, tails={0: 0, 1: 1, 2: 1}, edges=[((3, 0), (4, 1))])
    key = canonical_key(g)
    assert canonical_key(g) == key
    form = canonical_form(g)
    assert canonicalize(g)[0] == form
    assert is_isomorphic(g, g)
    assert canonical_encoding(g, {}, {})[0] == key  # empty colors count as none
    assert len(searched) == 1


def test_mutating_returned_maps_leaves_the_memo_intact():
    g = modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 2: 1, 3: 1}, edges=[((4, 0), (5, 1))])
    canon, fmap, vmap = canonicalize(g)
    expected = (dict(fmap), dict(vmap))
    fmap.clear()
    vmap[0] = 99
    _, (flag_lab, vertex_lab) = canonical_encoding(g)
    flag_lab[4] = -1
    assert canonicalize(g) == (canon, *expected)
    assert canonical_encoding(g)[1] == expected


def test_colored_keys_skip_the_memo():
    g = modular_graph({0: 1}, tails={0: 0, 1: 0})
    plain = canonical_key(g)
    same = diagram_key(g, {0: "x", 1: "y"}, {})
    assert same == diagram_key(g, {0: "y", 1: "x"}, {})
    assert same != diagram_key(g, {0: "x", 1: "x"}, {})
    assert same != plain
    assert canonical_key(g) == plain


def test_colored_keys_leave_the_flag_tables_unchanged():
    # two components with loops, tails and parallel edges; colors that
    # reverse flag order make a colored search reorder every group
    g = marked_graph(
        0,
        {0: (1, None), 1: (0, None), 2: (0, None), 3: (1, None)},
        tails={0: 0, 1: 0, 2: 1, 3: 2},
        edges=[((4, 0), (5, 0)), ((6, 0), (7, 1)), ((8, 0), (9, 1)), ((10, 2), (11, 3)), ((12, 3), (13, 3))],
    )
    kinds, invariants = g._flag_kinds, g._vertex_invariants
    expected = (dict(kinds), dict(invariants))
    plain = canonical_key(g)
    diagram_key(g, {f: -f for f in g.flags}, {v: -v for v in g.vertices})
    diagram_key(g, {f: f % 2 for f in g.flags}, {})
    assert g._flag_kinds is kinds and g._vertex_invariants is invariants
    assert (kinds, invariants) == expected
    assert canonical_key(dataclasses.replace(g)) == plain


def test_flag_cap_is_checked_before_the_memo():
    g = marked_graph(0, {0: (0, None)}, tails={i: 0 for i in range(5)})
    canonical_key(g)
    with pytest.raises(SizeCapError, match="^graph has 5 flags, cap is 4$"):
        canonical_key(g, max_flags=4)
    with pytest.raises(SizeCapError):
        canonical_form(g, max_flags=4)


def test_enumeration_searches_once_per_keyed_graph(calls):
    keyed, searched = calls(canonical_key), calls(_component_best)
    out = enumerate_stable_graphs(BUILTIN_PROFILES["P1"], 0, 4, 3, 3)
    assert len(out) == 77
    # enumerated graphs are connected: one component, so one search each
    assert len(searched) == len(keyed) > len(out)
    assert {id(g) for g in searched} == {id(g) for g in keyed}


# -- symmetric families: today's minimum, pinned for a faster search --------


def simple_graph(genus: dict, pairs) -> MarkedGraph:
    """A rank-0 graph with one edge per pair of vertices, halves 2i and 2i + 1."""
    return modular_graph(genus, edges=[((2 * i, a), (2 * i + 1, b)) for i, (a, b) in enumerate(pairs)])


def necklace(k: int) -> MarkedGraph:
    return simple_graph({v: 1 for v in range(k)}, [(v, (v + 1) % k) for v in range(k)])


def star(k: int) -> MarkedGraph:
    return simple_graph({0: 0, **{v: 1 for v in range(1, k + 1)}}, [(0, v) for v in range(1, k + 1)])


K33 = simple_graph({v: 0 for v in range(6)}, [(a, b) for a in range(3) for b in range(3, 6)])
PRISM = simple_graph(
    {v: 0 for v in range(6)}, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
)


def test_symmetric_families_key_by_isomorphism_and_are_pinned():
    # necklaces and stars of genus-1 vertices, K_{3,3} and the prism: one
    # refinement class holds (nearly) every vertex, so the labelling search
    # runs over many orderings; a pruned search must give the same minimum
    from oracles import isomorphic_brute_force

    rng = random.Random(41)
    lines = []
    for g in [necklace(k) for k in range(4, 8)] + [star(k) for k in range(4, 8)] + [K33, PRISM]:
        h = relabelled(rng, g)
        key = canonical_key(g, max_flags=18)
        assert canonical_key(h, max_flags=18) == key
        assert isomorphic_brute_force(g, h)
        lines.append(repr(key))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "02082b82bf688e15"


def test_k33_and_the_prism_key_apart():
    # both cubic on six genus-0 vertices, so every count the refinement
    # reads is equal; only the search tells them apart
    from oracles import isomorphic_brute_force

    assert (len(K33.flags), K33.genus) == (len(PRISM.flags), PRISM.genus)
    assert not is_isomorphic(K33, PRISM, max_flags=18)
    assert not isomorphic_brute_force(K33, PRISM)


CUBE = simple_graph({v: 0 for v in range(8)}, [(a, a | 1 << i) for a in range(8) for i in range(3) if not a & 1 << i])
K4 = simple_graph({v: 0 for v in range(4)}, [(a, b) for a in range(4) for b in range(a + 1, 4)])


@pytest.mark.parametrize(
    "g, encodings",
    [(necklace(k), n) for k, n in zip(range(4, 9), (2, 10, 12, 14, 16))]
    + [(star(k), 1) for k in range(4, 9)]
    + [(K33, 2), (PRISM, 12), (CUBE, 48), (K4, 1)],
    ids=[f"necklace-{k}" for k in range(4, 9)] + [f"star-{k}" for k in range(4, 9)] + ["K33", "prism", "cube", "K4"],
)
def test_symmetric_families_encode_few_orderings(g, encodings, calls):
    # a search over every ordering encodes k! of them on a k-necklace or a
    # k-star, 720 on K_{3,3} or the prism, 40,320 on the cube and 24 on K_4;
    # the leaves of a star are twins, and so are any two vertices of K_4,
    # though they are adjacent, so one ordering is left
    encoded = calls(_encode_with_vertex_order)
    key = canonical_key(dataclasses.replace(g), max_flags=24)  # a new instance, so nothing is kept on it
    assert len(encoded) == encodings
    assert canonical_key(relabelled(random.Random(len(g.flags)), g), max_flags=24) == key


def hub_with_twin_leaves(k: int, l: int) -> MarkedGraph:
    """A k-cycle of genus-0 vertices 0..k-1, vertex 0 joined to a genus-0
    hub k, which carries l genus-1 leaves: the leaves are twins, and the
    cycle's mirror pairs are not."""
    leaves = range(k + 1, k + 1 + l)
    pairs = [(v, (v + 1) % k) for v in range(k)] + [(0, k)] + [(k, v) for v in leaves]
    return simple_graph({**{v: 0 for v in range(k + 1)}, **{v: 1 for v in leaves}}, pairs)


@pytest.mark.parametrize(
    "g, prefixes",
    [(hub_with_twin_leaves(k, l), n) for k, l, n in [(5, 3, 10), (6, 3, 10), (6, 4, 10), (8, 3, 16)]]
    + [(necklace(4), 10)],
    ids=["hub-5-3", "hub-6-3", "hub-6-4", "hub-8-3", "necklace-4"],
)
def test_known_prefix_calls_are_pinned(g, prefixes, calls):
    # a hub's leaves are one forced class, placed whole, and so is each
    # singleton; only the cycle's mirror pairs are filled one position at a
    # time (filling every position reads 18, 18, 20 and 24 prefixes).  The
    # necklace's one class has no twins, and its last position is left to
    # the encoding (reading it too makes 12).  Twins are looked for only in
    # classes of two or more members.
    from oracles import canonical_encoding_by_product

    prefixed, twinned = calls(_known_prefix), calls(_smaller_twins)
    got = canonical_encoding(g, max_flags=len(g.flags))
    assert len(prefixed) == prefixes
    assert twinned and all(len(c) > 1 for c in twinned)
    assert repr(got) == repr(canonical_encoding_by_product(g))


def test_searches_without_twins_never_look_for_them(calls):
    # an all-singleton component is encoded directly, and a colored search
    # skips the twin rule, though its leaves would be twins uncolored
    from oracles import canonical_encoding_by_product

    twinned = calls(_smaller_twins)
    path = modular_graph({0: 0, 1: 1, 2: 2}, tails={4: 0, 5: 0}, edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))])
    canonical_key(path)
    g = star(4)
    colors = {f: "x" for f in g.flags}
    assert repr(canonical_encoding(g, colors)) == repr(canonical_encoding_by_product(g, colors))
    assert twinned == []


def test_star_of_twin_leaves_encodes_one_ordering(calls):
    encoded, prefixed = calls(_encode_with_vertex_order), calls(_known_prefix)
    g = star(8)
    canonical_key(g, max_flags=len(g.flags))
    assert (len(encoded), prefixed) == (1, [])


def symmetric_graph(rng: random.Random) -> MarkedGraph:
    """A circulant graph on 3-6 genus-1 vertices (parallel edges and loops
    alike at every vertex), sometimes with a hub joined to every vertex, a
    tail at every vertex, and one edge or tail more: large refinement
    classes, some of them all twins and some with none."""
    n = rng.randint(3, 6)
    pairs = []
    for s in rng.sample(range(1, n // 2 + 1), rng.randint(1, min(2, n // 2))):
        pairs += [(v, (v + s) % n) for v in range(n if 2 * s < n else n // 2)] * rng.choice((1, 1, 2))
    if rng.random() < 0.3:
        pairs += [(v, v) for v in range(n)]
    genus = {v: 1 for v in range(n)}
    if rng.random() < 0.4:
        genus[n] = rng.randint(0, 1)
        pairs += [(n, v) for v in range(n)]
    tails = list(range(n)) if rng.random() < 0.3 else []
    if rng.random() < 0.4:
        pairs.append((rng.randrange(n), rng.randrange(n)))
    if rng.random() < 0.3:
        tails.append(rng.randrange(n))
    edges = [((2 * i, a), (2 * i + 1, b)) for i, (a, b) in enumerate(pairs)]
    return modular_graph(genus, tails={2 * len(pairs) + i: v for i, v in enumerate(tails)}, edges=edges)


def test_pruned_search_matches_the_product_search(calls):
    # every (encoding, witness), dict order included, equals the first minimum
    # over every ordering; a third of the graphs are colored, so searched
    # without the twin rule
    from oracles import canonical_encoding_by_product

    prefixed = calls(_known_prefix)
    rng = random.Random(43)
    for i in range(600):
        g = symmetric_graph(rng) if i % 2 else rand_graph(rng, rank=rng.randint(0, 2), max_flags=12, max_vertices=6)
        fc = vc = None
        if i % 3 == 0:
            fc = {f: rng.choice([None, "x"]) for f in g.flags}
            vc = {v: rng.choice([None, "y"]) for v in g.vertices}
        expected = canonical_encoding_by_product(g, fc, vc)
        assert repr(canonical_encoding(g, fc, vc, max_flags=len(g.flags))) == repr(expected)
    assert len(prefixed) > 10_000  # the prefix rule ran (10,233 prefixes), not only the one-ordering paths


def test_known_prefix_leads_the_encoding_of_every_completion():
    # the prefix rule is sound because a partial ordering's known prefix is
    # the start of the involution part of every completion's encoding, and
    # the completion's entry at the first unnumbered slot exceeds every slot
    # the partial numbers: a lesser prefix then means a lesser encoding
    rng = random.Random(47)
    checked = 0
    for i in range(400):
        g = symmetric_graph(rng) if i % 2 else rand_graph(rng, rank=rng.randint(0, 2), max_flags=12, max_vertices=6)
        frepr = {f: repr(rng.choice([None, "x"])) for f in g.flags} if i % 3 == 0 else None
        for comp in connected_components(g):
            groups = _flag_groups(g, sorted(comp), frepr)
            order = rng.sample(sorted(comp), len(comp))
            involution = _encode_with_vertex_order(g, order, groups, frepr, None)[0][4]
            for k in range(1, len(order)):
                *known, last = _known_prefix(g, tuple(order[:k]), groups)
                assert last == inf  # a connected component always has a half to an unplaced vertex
                assert list(involution[: len(known)]) == known
                numbered = _number_flags({v: j for j, v in enumerate(order[:k])}, groups)[0]
                assert all(involution[len(known)] > slot for slot in numbered.values())
                checked += 1
    assert checked > 900
