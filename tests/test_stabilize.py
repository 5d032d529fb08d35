import importlib
import random
from dataclasses import replace
from itertools import cycle, islice

import pytest

from stablegraphs.errors import SizeCapError, ValidationError
from stablegraphs.graphs import (
    MarkedGraph,
    component_of,
    connected_components,
    edges,
    edit_graph,
    empty_graph,
    euler_characteristic,
    is_stable,
    is_stable_vertex,
    marked_graph,
    modular_graph,
    tails,
    total_class,
)
from stablegraphs.monoid import MonoidHom
from stablegraphs.morphisms import CombinatorialMorphism, compose_combinatorial, cut_edge, validate_combinatorial
from stablegraphs.pullback import validate_marked
from stablegraphs.stabilize import (
    _default_source_pool,
    _keeps_ids,
    _morphism_images,
    _remove_vertex,
    check_universal_property,
    enumerate_combinatorial_morphisms,
    pushforward,
    stabilize,
    stabilize_with_trace,
)

from oracles import enumerate_combinatorial_morphisms_by_product
from strategies import rand_graph, rand_hom, rand_renaming, rand_unstable_graph, relabelled

# the package re-exports the function stabilize under the module's name
stabilize_module = importlib.import_module("stablegraphs.stabilize")


def test_stable_graph_is_fixed():
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    s, a = stabilize(g)
    assert s == g
    assert a.flagmap == {0: 0}


def test_case_i_prunes_dangling_vertex():
    # unstable vertex 0 with a single flag, edge into a genus-1 vertex with a tail
    g = modular_graph({0: 0, 1: 1}, tails={5: 1}, edges=[((0, 0), (1, 1))])
    s, a = stabilize(g)
    assert s.vertices == (1,)
    assert set(tails(s)) == {1, 5}
    assert validate_combinatorial(a) == []


def test_case_ii_turns_far_flag_into_tail():
    g = marked_graph(1, {0: (0, 0), 1: (1, 0)}, tails={0: 0}, edges=[((1, 0), (2, 1))])
    s, _, steps = stabilize_with_trace(g)
    assert [st.case for st in steps] == ["II"]
    assert s.vertices == (1,) and tails(s) == (2,)


def test_case_iii_glues_through():
    # chain: stable - unstable - stable, the unstable middle is excised
    g = modular_graph(
        {0: 1, 1: 0, 2: 1},
        tails={10: 0, 11: 2},
        edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))],
    )
    s, _, steps = stabilize_with_trace(g)
    assert [st.case for st in steps] == ["III"]
    assert set(s.vertices) == {0, 2}
    assert edges(s) == ((0, 3),)


def test_case_iv_removes_isolated_vertex():
    g = marked_graph(1, {0: (0, 0)}, tails={0: 0, 1: 0})
    s, _, steps = stabilize_with_trace(g)
    assert [st.case for st in steps] == ["IV"]
    assert s == empty_graph(1)


def test_case_iv_lonely_elliptic():
    g = modular_graph({0: 1})
    s, _, steps = stabilize_with_trace(g)
    assert [st.case for st in steps] == ["IV"]
    assert s == empty_graph(0)


def test_unstable_loop_vertex_goes_to_case_iv():
    g = modular_graph({0: 0}, edges=[((0, 0), (1, 0))])
    s, _, steps = stabilize_with_trace(g)
    assert [st.case for st in steps] == ["IV"]
    assert s == empty_graph(0)


def test_cascade_chain():
    # two unstable vertices in a row: either order must end at the same graph
    g = modular_graph(
        {0: 1, 1: 0, 2: 0, 3: 1},
        tails={10: 0, 11: 3},
        edges=[((0, 0), (1, 1)), ((2, 1), (3, 2)), ((4, 2), (5, 3))],
    )
    s, a = stabilize(g)
    assert set(s.vertices) == {0, 3}
    assert len(edges(s)) == 1
    assert validate_combinatorial(a) == []


def _stabilize_in_random_order(g, rng):
    """Remove the unstable vertices in a random order; returns (graph, order)."""
    order = [v for v in g.vertices if not is_stable_vertex(g, v)]
    rng.shuffle(order)
    involution = dict(g.involution)
    removed = [f for v in order for f in _remove_vertex(g, v, involution).removed_flags]
    return edit_graph(g, drop_flags=removed, drop_vertices=order, pair=involution), order


def test_stabilize_order_independent():
    # removing the unstable vertices in a random order gives the same graph
    rng = random.Random(67)
    for _ in range(40):
        g = rand_graph(rng, rank=1, max_flags=12)
        assert _stabilize_in_random_order(g, rng)[0] == stabilize_with_trace(g)[0]


def test_stabilize_order_independent_over_cascades():
    # class-zero graphs have several unstable vertices, and a removal can
    # change the case of the next; the random order must still agree
    rng = random.Random(83)
    reordered = 0
    for _ in range(60):
        g = rand_graph(rng, rank=1, max_flags=12, max_vertices=5, max_genus=1, max_class=0)
        s_random, order = _stabilize_in_random_order(g, rng)
        assert s_random == stabilize_with_trace(g)[0]
        reordered += order != sorted(order)
    assert reordered >= 10


def test_stabilize_preserves_total_class():
    rng = random.Random(71)
    for _ in range(60):
        g = rand_graph(rng, rank=2, max_flags=12)
        s, _ = stabilize(g)
        assert total_class(s) == total_class(g)


def test_stabilize_chi_per_case():
    # each removal, applied on its own to the graph the earlier ones left
    rng = random.Random(73)
    for _ in range(60):
        g = rand_graph(rng, rank=1, max_flags=12)
        current = g
        _, _, steps = stabilize_with_trace(g)
        for step in steps:
            before = euler_characteristic(current)
            involution = dict(current.involution)
            assert _remove_vertex(current, step.vertex, involution) == step
            nxt = edit_graph(current, drop_flags=step.removed_flags, drop_vertices=(step.vertex,), pair=involution)
            after = euler_characteristic(nxt)
            if step.case == "IV":
                loops = sum(1 for f in step.removed_flags if current.involution[f] != f) // 2
                removed_chi = 1 - loops - current.genus[step.vertex]
                assert before - after == removed_chi
            else:
                assert before == after
            current = nxt


def test_stabilize_builds_one_graph(constructed):
    # a chain of three unstable vertices between two stable ends, and a
    # stable graph: one graph built for the first, none for the second
    chain = modular_graph(
        {0: 1, 1: 0, 2: 0, 3: 0, 4: 1},
        tails={10: 0, 11: 4},
        edges=[((0, 0), (1, 1)), ((2, 1), (3, 2)), ((4, 2), (5, 3)), ((6, 3), (7, 4))],
    )
    stable = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    built = constructed(MarkedGraph)
    s, _, steps = stabilize_with_trace(chain)
    assert [st.case for st in steps] == ["III", "III", "III"]
    assert built == [s] and s.vertices == (0, 4) and edges(s) == ((0, 7),)
    built.clear()
    same, _, steps = stabilize_with_trace(stable)
    assert same is stable and steps == () and built == []
    rng = random.Random(89)
    for _ in range(60):
        g = rand_graph(rng, rank=1, max_flags=12, max_vertices=5, max_genus=1, max_class=0)
        built.clear()
        s, _, steps = stabilize_with_trace(g)
        assert len(built) == (1 if steps else 0)


# -- pushforward -----------------------------------------------------------


def test_pushforward_identity():
    g = marked_graph(1, {0: (0, 1)}, tails={0: 0, 1: 0})
    result, m = pushforward(MonoidHom.identity(1), g)
    assert result == g
    assert m.contr.contracted_edges() == ()


def test_pushforward_to_point_collapses():
    g = marked_graph(1, {0: (0, 1)}, tails={0: 0, 1: 0})
    result, _ = pushforward(MonoidHom.to_trivial(1), g)
    assert result == empty_graph(0)


def test_pushforward_keeps_stable_shape():
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    result, _ = pushforward(MonoidHom.to_trivial(1), g)
    assert result.genus == {0: 1}
    assert result.rank == 0


def test_pushforward_requires_stable():
    g = marked_graph(1, {0: (0, 0)}, tails={0: 0})
    with pytest.raises(ValidationError):
        pushforward(MonoidHom.identity(1), g)


def test_pushforward_morphisms_validate():
    # pushforward retargets the stabilization of g's relabelling onto g
    # without re-checking it
    rng = random.Random(81)
    for _ in range(60):
        g = rand_graph(rng, rank=2, max_flags=10, stable=True)
        xi = rand_hom(rng, 2, rng.randint(0, 2))
        _, m = pushforward(xi, g)
        assert validate_marked(m) == []


# -- universal property ------------------------------------------------------


def test_universal_property_stable_graph():
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    report = check_universal_property(g)
    assert report.ok and report.sources_checked > 0


def test_universal_property_flag_cap_and_unstable_pool_members():
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    with pytest.raises(SizeCapError, match="^universal property oracle capped at 0 flags$"):
        check_universal_property(g, max_flags=0)
    # a pool member that is not stable is skipped, not checked
    unstable = marked_graph(1, {0: (0, 0)}, tails={0: 0})
    report = check_universal_property(g, pool=[unstable, g])
    assert report.ok and report.sources_checked == 1
    assert check_universal_property(g, pool=[g]).morphisms_checked == report.morphisms_checked


def test_universal_property_case_ii_instance():
    g = marked_graph(1, {0: (0, 0), 1: (1, 0)}, tails={0: 0}, edges=[((1, 0), (2, 1))])
    sigma = marked_graph(1, {0: (1, 0)}, tails={0: 0})
    report = check_universal_property(g, pool=[sigma])
    assert report.ok
    stable, a = stabilize(g)
    hom_count = len(enumerate_combinatorial_morphisms(sigma, stable))
    assert hom_count == len(enumerate_combinatorial_morphisms(sigma, g))
    assert hom_count == 1


def _images(m):
    """A morphism's images in the search's layout: its source's vertices in
    order, then their flags, each vertex's in ``_flags_at`` order."""
    vertices = m.source.vertices
    return (
        tuple(m.vertexmap[v] for v in vertices),
        tuple(m.flagmap[f] for v in vertices for f in m.source.flags_at(v)),
    )


def test_composite_keys_match_compose_combinatorial():
    # the stabilization keeps ids, so the oracle reads the images of each
    # composite a o c as those of c; they must be the images of the
    # composite that compose_combinatorial builds and validates.  The search
    # validates nothing, so every morphism of both hom-sets is validated
    # here.
    rng = random.Random(89)
    composites = directs = 0
    for _ in range(40):
        g = rand_unstable_graph(rng, rank=1, max_flags=8)
        stable, a = stabilize(g)
        assert _keeps_ids(a, stable)
        for sigma in _default_source_pool(stable):
            into_stable = enumerate_combinatorial_morphisms(sigma, stable)
            into_g = enumerate_combinatorial_morphisms(sigma, g)
            assert all(validate_combinatorial(m) == [] for m in into_stable + into_g)
            images = _morphism_images(sigma, stable)
            assert images == [_images(c) for c in into_stable]
            assert images == [_images(compose_combinatorial(a, c)) for c in into_stable]
            assert _morphism_images(sigma, g) == [_images(b) for b in into_g]
            composites += len(into_stable)
            directs += len(into_g)
    assert composites > 200 and directs > 200


def test_certificate_builds_only_the_stabilization_morphism(constructed):
    # a tripod against a genus-0 vertex with four tails and a dangling edge
    # (case I): 5 * 4 * 3 maps into each side, and no morphism object is
    # built for any of them
    g = marked_graph(1, {0: (0, 0), 1: (0, 0)}, tails={0: 0, 1: 0, 2: 0, 3: 0}, edges=[((4, 0), (5, 1))])
    sigma = marked_graph(1, {0: (0, 0)}, tails={0: 0, 1: 0, 2: 0})
    built = constructed(CombinatorialMorphism)
    report = check_universal_property(g, pool=[sigma])
    assert report.ok and report.morphisms_checked == 60
    assert len(built) == 1 and built[0].target is g


def test_broken_stabilization_shows_as_differing_hom_sets(monkeypatch):
    # a stabilization morphism that sends one vertex elsewhere: it fails
    # validation, and it no longer keeps ids, so its composites cannot be
    # read off the search; the oracle reports both instead of raising, and
    # compares no source
    g = marked_graph(1, {0: (1, 0), 1: (1, 0), 2: (0, 0)}, edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))])
    real = stabilize_module.stabilize

    def broken(graph):
        stable, a = real(graph)
        return stable, replace(a, vertexmap={**a.vertexmap, 0: 1})

    monkeypatch.setattr(stabilize_module, "stabilize", broken)
    report = check_universal_property(g)
    assert report.counterexamples == [
        "stabilization morphism invalid: combinatorial-1-boundary",
        "stabilization morphism does not keep ids",
    ]
    assert (report.sources_checked, report.morphisms_checked) == (0, 0)
    monkeypatch.setattr(stabilize_module, "stabilize", real)
    assert check_universal_property(g).ok


def test_invalid_stabilization_morphism_is_one_counterexample(monkeypatch):
    # the certifier validates the stabilization morphism once: a wrong
    # marking hom, or a target whose vertex 0 has another class, is one
    # counterexample naming the failed condition; the maps, and so every
    # hom-set comparison, are those of the real stabilization
    g = marked_graph(1, {0: (1, 0), 1: (1, 0), 2: (0, 0)}, edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))])
    reclassed = marked_graph(1, {0: (1, 1), 1: (1, 0), 2: (0, 0)}, edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))])
    real = stabilize_module.stabilize
    for edit, condition in (
        ({"hom": MonoidHom.to_trivial(1)}, "combinatorial-rank"),
        ({"target": reclassed}, "combinatorial-4-class"),
    ):

        def broken(graph, edit=edit):
            stable, a = real(graph)
            return stable, replace(a, **edit)

        monkeypatch.setattr(stabilize_module, "stabilize", broken)
        report = check_universal_property(g)
        assert report.sources_checked > 0
        assert report.counterexamples == [f"stabilization morphism invalid: {condition}"]
    monkeypatch.setattr(stabilize_module, "stabilize", real)
    assert check_universal_property(g).ok


def test_stabilization_that_merges_flags_shows_as_a_non_unique_factorization(monkeypatch):
    # a stabilization morphism of the tripod that sends two tails to one:
    # it is not injective at the vertex and does not keep ids, and the
    # oracle reports both instead of raising
    tripod = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    real = stabilize_module.stabilize

    def broken(graph):
        stable, a = real(graph)
        return stable, replace(a, flagmap={**a.flagmap, 1: 0})

    monkeypatch.setattr(stabilize_module, "stabilize", broken)
    report = check_universal_property(tripod)
    assert report.counterexamples == [
        "stabilization morphism invalid: combinatorial-2-injective",
        "stabilization morphism does not keep ids",
    ]
    assert report.sources_checked == 0
    monkeypatch.setattr(stabilize_module, "stabilize", real)
    assert check_universal_property(tripod).ok


@pytest.mark.parametrize("edit", [{"flagmap": {0: 0, 1: 1}}, {"vertexmap": {}}], ids=["flag-missing", "vertex-missing"])
def test_maps_that_miss_an_id_are_reported(monkeypatch, edit):
    # one row per clause of _keeps_ids that the other tests leave idle: a
    # flag or a vertex the maps miss, each otherwise the identity
    tripod = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    real = stabilize_module.stabilize

    def broken(graph):
        stable, a = real(graph)
        return stable, replace(a, **edit)

    monkeypatch.setattr(stabilize_module, "stabilize", broken)
    report = check_universal_property(tripod)
    assert report.counterexamples == [
        "stabilization morphism invalid: combinatorial-maps-total",
        "stabilization morphism does not keep ids",
    ]
    assert report.sources_checked == 0


def test_pool_limit_bounds_the_sources_drawn():
    # an endless pool is read no further than pool_limit sources, and the
    # report is the one for those sources listed; an unstable member drawn
    # among them counts against the limit and is skipped
    rng = random.Random(163)
    g = rand_unstable_graph(rng, rank=1, max_flags=8)
    members = _default_source_pool(stabilize(g)[0]) + [g]
    drawn = 0

    def endless():
        nonlocal drawn
        for sigma in cycle(members):
            drawn += 1
            assert drawn <= 1000, "the certifier drains the pool"
            yield sigma

    for limit in (0, 1, 3, len(members) + 2):
        drawn = 0
        report = check_universal_property(g, pool=endless(), pool_limit=limit)
        assert drawn <= limit
        listed = list(islice(cycle(members), limit))
        assert report == check_universal_property(g, pool=listed, pool_limit=limit)
        assert report.ok and report.sources_checked == sum(is_stable(s) for s in listed)


def test_renamed_stabilization_gives_the_same_certificate(monkeypatch):
    # stabilize keeps ids, and the certifier requires it: a valid
    # stabilization with renamed ids passes validation but is reported as
    # not keeping ids, and no source is compared; the same morphism with
    # its ids kept certifies alike
    rng = random.Random(167)
    real = stabilize_module.stabilize
    renamed = 0

    def renaming(graph):
        stable, a = real(graph)
        r = rand_renaming(rng, stable)
        b = CombinatorialMorphism(
            source=r.target,
            target=graph,
            flagmap={new: a.flagmap[old] for new, old in r.flagmap.items()},
            vertexmap={new: a.vertexmap[old] for old, new in r.vertexmap.items()},
        )
        assert validate_combinatorial(b) == [] and _keeps_ids(a, stable)
        nonlocal renamed
        renamed += not _keeps_ids(b, r.target)
        return r.target, b

    for _ in range(40):
        g = rand_unstable_graph(rng, rank=1, max_flags=8)
        monkeypatch.setattr(stabilize_module, "stabilize", real)
        kept = check_universal_property(g)
        assert kept.ok and kept.sources_checked > 0
        before = renamed
        monkeypatch.setattr(stabilize_module, "stabilize", renaming)
        moved = check_universal_property(g)
        if renamed > before:
            assert moved.counterexamples == ["stabilization morphism does not keep ids"]
            assert (moved.sources_checked, moved.morphisms_checked) == (0, 0)
        else:
            assert moved == kept
    assert renamed >= 30


def test_search_tables_stay_private_to_each_graph():
    rng = random.Random(173)
    graphs = [rand_unstable_graph(rng, rank=1, max_flags=8) for _ in range(12)]
    shared = [s for g in graphs[:4] for s in _default_source_pool(stabilize(g)[0])]
    # a shared pool: the first certificate builds the sources' tables, and
    # every later one reads them; fresh copies of the pool build their own
    for g in graphs:
        fresh = [replace(s) for s in shared]
        assert check_universal_property(g, pool=shared, pool_limit=len(shared)) == check_universal_property(
            g, pool=fresh, pool_limit=len(fresh)
        )
    searched = [s for s in shared if "_closing_edges" in s.__dict__]
    assert len(searched) >= 10
    for s in searched:
        copy = replace(s)
        assert "_kind_valences" in s.__dict__ and "_kind_valences" not in copy.__dict__
        assert "_closing_edges" not in copy.__dict__
        assert copy == s and repr(copy) == repr(s)
    # a search that fails the candidate check reads the kind list only
    tgt = marked_graph(1, {0: (1, 1), 1: (0, 2)}, tails={0: 0, 1: 1, 2: 1, 3: 1})
    sigma = marked_graph(1, {0: (1, 1), 1: (3, 0)}, tails={0: 0})
    assert _morphism_images(sigma, tgt) == []
    assert "_kind_valences" in sigma.__dict__ and "_closing_edges" not in sigma.__dict__
    one = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    assert _morphism_images(one, tgt) == [((0,), (0,))]
    assert one._closing_edges == (((0,),), ((),))


# -- the pruned morphism search against the product oracle -------------------


def _morphism_pairs():
    """Seeded (sigma, target) pairs: random and unstable targets over ranks 0
    and 1 (rank 0 makes every genus-0 vertex free, so blocks merge), sources
    taken from the target itself, its stabilization and pieces of it, or
    drawn at random, plus rank mismatches."""
    rng = random.Random(97)
    pairs = []
    for i in range(330):
        rank = i % 2
        kind = i % 3
        if kind == 0:
            tgt = rand_unstable_graph(rng, rank=rank, max_flags=7)
        else:
            tgt = rand_graph(rng, rank=rank, max_flags=7, max_genus=1, max_class=1, stable=kind == 2)
        stable, _ = stabilize(tgt)
        choice = i % 5
        if choice == 0 or not stable.vertices:
            sigma = tgt
        elif choice == 1:
            sigma = stable
        elif choice == 2 and edges(stable):
            sigma = cut_edge(stable, rng.choice(edges(stable)))[0]
        elif choice == 3:
            sigma = component_of(stable, rng.choice(stable.vertices))
        else:
            sigma = None
        if sigma is None or len(sigma.flags) > 6:  # keeps the product oracle quick
            sigma = rand_graph(rng, rank=rank, max_flags=5, max_genus=1, max_class=1)
        pairs.append((relabelled(rng, sigma), relabelled(rng, tgt)))
    for _ in range(4):
        pairs.append((rand_graph(rng, rank=1, max_flags=4), rand_graph(rng, rank=0, max_flags=6)))
    return pairs


def _keys(morphisms):
    return [(m.flagmap, m.vertexmap) for m in morphisms]


def test_search_matches_product_oracle():
    # the product oracle validates every candidate in full; the search
    # validates none, so every morphism it finds is validated here
    seen = dict.fromkeys(
        ("nonempty", "unstable_target", "loop_source", "multi_edge_target", "merged_block", "rank_mismatch"), 0
    )
    for sigma, tgt in _morphism_pairs():
        found = enumerate_combinatorial_morphisms(sigma, tgt)
        assert _keys(found) == _keys(enumerate_combinatorial_morphisms_by_product(sigma, tgt))
        assert all(validate_combinatorial(m) == [] for m in found)
        if sigma.rank != tgt.rank:
            assert found == []
            seen["rank_mismatch"] += 1
        if not found:
            continue
        seen["nonempty"] += 1
        seen["unstable_target"] += not is_stable(tgt)
        pairs = [(sigma.boundary[f1], sigma.boundary[f2]) for f1, f2 in edges(sigma)]
        seen["loop_source"] += any(v1 == v2 for v1, v2 in pairs)
        ends = [frozenset((tgt.boundary[f1], tgt.boundary[f2])) for f1, f2 in edges(tgt)]
        seen["multi_edge_target"] += len(set(ends)) < len(ends)
        seen["merged_block"] += any(
            m.flagmap[f2] != tgt.involution[m.flagmap[f1]] for m in found for f1, f2 in edges(sigma)
        )
    # the draw reaches every case the pruning has to get right
    assert seen["nonempty"] >= 150
    assert min(seen.values()) >= 4, seen


def _banana():
    """Two genus-1 vertices joined by three edges, and a one-edge source:
    4 vertex maps, 12 search nodes each, 36 complete flag maps and 12
    morphisms (when both ends go to one vertex, both halves go to one flag)."""
    tgt = modular_graph({0: 1, 1: 1}, edges=[((0, 0), (1, 1)), ((2, 0), (3, 1)), ((4, 0), (5, 1))])
    sigma = modular_graph({0: 1, 1: 1}, edges=[((0, 0), (1, 1))])
    return sigma, tgt


def test_cap_counts_search_nodes():
    sigma, tgt = _banana()
    assert len(enumerate_combinatorial_morphisms(sigma, tgt, cap=48)) == 12
    # 36 complete candidates fit under 47, but the 48 search nodes do not
    assert len(enumerate_combinatorial_morphisms_by_product(sigma, tgt, cap=47)) == 12
    for cap in (1, 5, 11, 30, 47):
        with pytest.raises(SizeCapError) as err:
            enumerate_combinatorial_morphisms(sigma, tgt, cap=cap)
        assert str(err.value) == f"morphism enumeration exceeded {cap} candidates"


def test_maps_run_in_vertex_then_flag_order():
    # the wrapper keys each map as the search lays out its images
    found = 0
    for sigma, tgt in _morphism_pairs():
        order = [f for v in sigma.vertices for f in sigma._flags_at.get(v, ())]
        for m in enumerate_combinatorial_morphisms(sigma, tgt):
            assert list(m.flagmap) == order
            assert list(m.vertexmap) == list(sigma.vertices)
            found += 1
    assert found >= 150


def _search_and_oracle(sigma, tgt, **kw):
    found = enumerate_combinatorial_morphisms(sigma, tgt, **kw)
    assert _keys(found) == _keys(enumerate_combinatorial_morphisms_by_product(sigma, tgt))
    return found


def test_empty_source_maps_by_the_empty_map_alone():
    rng = random.Random(41)
    for rank in (0, 1, 2):
        targets = [empty_graph(rank), marked_graph(rank, {3: (2, None)})]
        targets += [rand_graph(rng, rank=rank, max_flags=6, max_genus=1, max_class=1) for _ in range(6)]
        for tgt in targets:
            assert _keys(_search_and_oracle(empty_graph(rank), tgt)) == [({}, {})]
    assert _search_and_oracle(empty_graph(0), empty_graph(1)) == []


def test_flagless_source_vertex_maps_onto_flagless_target_vertex():
    # target vertex 0 is a lonely genus-2 vertex; vertex 1 has genus 2 too,
    # but an edge half, so the lonely source vertex has two candidates
    tgt = modular_graph({0: 2, 1: 2, 2: 1}, tails={7: 2}, edges=[((4, 1), (5, 2))])
    lonely = modular_graph({9: 2})
    assert _keys(_search_and_oracle(lonely, tgt)) == [({}, {9: 0}), ({}, {9: 1})]
    assert _keys(_search_and_oracle(lonely, lonely)) == [({}, {9: 9})]
    # the flagless vertex and a vertex with a tail, searched together
    sigma = modular_graph({8: 2, 9: 1}, tails={1: 9})
    found = _search_and_oracle(sigma, tgt)
    assert _keys(found) == [
        ({1: 5}, {8: 0, 9: 2}),
        ({1: 7}, {8: 0, 9: 2}),
        ({1: 5}, {8: 1, 9: 2}),
        ({1: 7}, {8: 1, 9: 2}),
    ]
    assert lonely.flags_at(9) == () and 9 not in lonely._flags_at


def test_search_without_candidates_visits_no_node():
    """A source vertex whose genus and class no target vertex has, or whose
    valence every such vertex falls short of, ends the search before its
    first node, so even ``cap=0`` gives ``[]``."""
    tgt = marked_graph(1, {0: (1, 1), 1: (0, 2), 2: (2, 0)}, tails={0: 0, 1: 1, 2: 1, 3: 1})
    no_kind = [
        marked_graph(1, {0: (1, 2)}, tails={0: 0}),  # class 2 only at genus 0
        marked_graph(1, {0: (3, 0)}),  # no genus-3 vertex
        marked_graph(1, {0: (1, 1), 1: (1, 0)}, edges=[((0, 0), (1, 1))]),  # no genus-1 class-0 vertex
    ]
    short = [
        marked_graph(1, {0: (1, 1)}, tails={0: 0, 1: 0}),  # valence 2 > 1
        marked_graph(1, {0: (2, 0)}, tails={0: 0}),  # the genus-2 vertex is flagless
        marked_graph(1, {0: (0, 2), 1: (1, 1)}, tails={0: 0, 1: 0, 2: 0, 3: 1}, edges=[((4, 0), (5, 1))]),
    ]
    for sigma in no_kind + short:
        assert _search_and_oracle(sigma, tgt, cap=0) == []
    # with a candidate, the first pick is one node over cap=0
    with pytest.raises(SizeCapError):
        enumerate_combinatorial_morphisms(marked_graph(1, {0: (1, 1)}, tails={0: 0}), tgt, cap=0)


def test_default_pool_stabilizes_once(calls):
    runs = calls(stabilize_with_trace)
    g = marked_graph(1, {0: (0, 0), 1: (1, 0)}, tails={0: 0}, edges=[((1, 0), (2, 1))])
    report = check_universal_property(g)
    # the stabilization is one genus-1 vertex: connected, with no edge and no tail
    assert report.ok and report.sources_checked == 1
    assert len(runs) == 1


def test_default_pool_lists_each_graph_once():
    # a connected stabilization is its own only component, so the pool does
    # not list it a second time; with more components, each is listed
    rng = random.Random(157)
    seen = {"connected": 0, "disconnected": 0}
    for _ in range(200):
        g = rand_graph(rng, rank=1, max_flags=8, max_vertices=3, stable=True, connected=rng.random() < 0.5)
        pool = _default_source_pool(g)
        assert pool[0] is g and all(is_stable(h) for h in pool)
        assert all(x != y for i, x in enumerate(pool) for y in pool[i + 1 :])
        components = len(connected_components(g))
        seen["connected" if components == 1 else "disconnected"] += 1
        # only components have fewer vertices than g
        assert sum(len(h.vertices) < len(g.vertices) for h in pool) == (components if components > 1 else 0)
    assert min(seen.values()) >= 40, seen
