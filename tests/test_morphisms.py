import random
from collections import Counter
from dataclasses import replace
from itertools import permutations

import pytest

from stablegraphs.canonical import canonical_key, is_isomorphic
from stablegraphs.errors import RankMismatchError, ValidationError
from stablegraphs.graphs import (
    component_of,
    connected_components,
    edges,
    edit_graph,
    empty_graph,
    flag_partition,
    is_stable,
    marked_graph,
    modular_graph,
    relabel_classes,
    tails,
)
from stablegraphs.monoid import MonoidElement, MonoidHom, element
from stablegraphs.morphisms import (
    CombinatorialMorphism,
    Contraction,
    compose_combinatorial,
    compose_contractions,
    contract_edges,
    contracted_piece,
    cut_edge,
    decompose_elementary,
    forget_tail,
    glue_tails,
    identity_combinatorial,
    identity_contraction,
    validate_combinatorial,
    validate_contraction,
)

from oracles import (
    betti1_gf2,
    component_inclusion,
    validate_combinatorial_by_relabelling,
    validate_contraction_by_pieces,
)
from strategies import rand_contraction, rand_covering, rand_graph, rand_hom, rand_renaming


def two_vertex_graph(g0=1, g1=2):
    return modular_graph({0: g0, 1: g1}, edges=[((0, 0), (1, 1))])


# -- contractions ----------------------------------------------------------


def test_identity_contraction_valid():
    g = two_vertex_graph()
    c = identity_contraction(g)
    assert c.target is g
    assert validate_contraction(c) == []
    assert c.contracted_edges() == ()


def test_contract_bridge_adds_genera():
    g = two_vertex_graph(1, 2)
    c = contract_edges(g, [(0, 1)])
    assert validate_contraction(c) == []
    assert c.target.vertices == (0,)
    assert c.target.genus[0] == 3


def test_contract_loop_bumps_genus():
    g = modular_graph({0: 0}, edges=[((0, 0), (1, 0))])
    c = contract_edges(g, [(0, 1)])
    assert c.target.genus[0] == 1
    assert validate_contraction(c) == []


def test_contract_loop_at_positive_genus():
    g = modular_graph({0: 1}, edges=[((0, 0), (1, 0))])
    c = contract_edges(g, [(0, 1)])
    assert c.target.genus[0] == 2


def test_genus_condition_violation_detected():
    g = modular_graph({0: 1}, edges=[((0, 0), (1, 0))])
    bad_target = modular_graph({0: 1})  # should be genus 2
    c = Contraction(source=g, target=bad_target, flagmap={}, vertexmap={0: 0})
    conditions = [v.condition for v in validate_contraction(c)]
    assert "contraction-genus" in conditions


def test_class_condition_violation_detected():
    g = marked_graph(1, {0: (0, 1), 1: (0, 2)}, edges=[((0, 0), (1, 1))])
    bad = marked_graph(1, {0: (0, 1)})
    c = Contraction(source=g, target=bad, flagmap={}, vertexmap={0: 0, 1: 0})
    conditions = [v.condition for v in validate_contraction(c)]
    assert "contraction-class" in conditions


def test_contracted_piece():
    g = modular_graph({0: 0, 1: 0, 2: 1}, edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))])
    c = contract_edges(g, [(0, 1)])
    piece = contracted_piece(c, 0)
    assert set(piece.vertices) == {0, 1}
    assert len(edges(piece)) == 1
    lonely = contracted_piece(c, 2)
    assert lonely.vertices == (2,) and lonely.flags == ()
    with pytest.raises(KeyError, match="unknown target vertex id 1"):
        contracted_piece(c, 1)  # merged into 0


def test_contracted_pieces_partition_the_contracted_flags():
    rng = random.Random(49)
    for _ in range(40):
        c = rand_contraction(rng, num_edges=(0, 3), rank=1, max_flags=10)
        pieces = [contracted_piece(c, v) for v in c.target.vertices]
        assert sorted(f for piece in pieces for f in piece.flags) == sorted(c.contracted_flags())
        assert sorted(w for piece in pieces for w in piece.vertices) == list(c.source.vertices)
        for v, piece in zip(c.target.vertices, pieces):
            assert all(c.vertexmap[w] == v for w in piece.vertices)
            assert tails(piece) == ()


def test_contract_non_edge_rejected():
    g = two_vertex_graph()
    with pytest.raises(ValidationError):
        contract_edges(g, [(0, 99)])


def test_decompose_empty_for_identity():
    g = two_vertex_graph()
    assert decompose_elementary(identity_contraction(g)) == []


def test_decompose_two_edges():
    g = modular_graph(
        {0: 0, 1: 1, 2: 2},
        tails={10: 0},
        edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))],
    )
    c = contract_edges(g, [(0, 1), (2, 3)])
    factors = decompose_elementary(c)
    assert len(factors) == 2
    assert all(f.is_elementary() for f in factors)
    composite = compose_contractions(factors[1], factors[0])
    assert composite.target == c.target
    assert composite.flagmap == c.flagmap and composite.vertexmap == c.vertexmap


def test_decompose_recompose_random():
    rng = random.Random(41)
    for _ in range(40):
        c = rand_contraction(rng, num_edges=(1, 3), rank=1, max_flags=10)
        factors = decompose_elementary(c)
        if not factors:
            continue
        composite = factors[0]
        for f in factors[1:]:
            composite = compose_contractions(f, composite)
        assert composite.source == c.source
        assert canonical_key(composite.target) == canonical_key(c.target)
        assert composite.target == c.target
        assert composite.flagmap == c.flagmap and composite.vertexmap == c.vertexmap


def test_elementary_factors_validate():
    # decompose_elementary validates its input only; every factor, the last
    # one built from c's own maps included, must be an elementary
    # contraction, also when the target's ids differ from the chain's
    rng = random.Random(45)
    factors_checked = 0
    for _ in range(60):
        c = rand_contraction(rng, num_edges=(1, 3), rank=rng.randint(1, 2), max_flags=10)
        if rng.random() < 0.5:
            c = compose_contractions(rand_renaming(rng, c.target), c)
        order = rng.sample(c.contracted_edges(), len(c.contracted_edges()))
        for factors in (decompose_elementary(c), decompose_elementary(c, order)):
            for step in factors:
                assert validate_contraction(step) == []
                assert step.is_elementary()
                factors_checked += 1
            if factors:
                assert factors[-1].target == c.target
    assert factors_checked > 150


def test_contraction_genus_matches_gf2_oracle():
    rng = random.Random(47)
    cycles = 0
    for _ in range(40):
        c = rand_contraction(rng, num_edges=(1, 3), rank=1, max_flags=10)
        for v in c.target.vertices:
            fiber = [w for w in c.source.vertices if c.vertexmap[w] == v]
            gain = betti1_gf2(contracted_piece(c, v))
            cycles += gain
            assert c.target.genus[v] == sum(c.source.genus[w] for w in fiber) + gain
    assert cycles > 0  # some draws contract a loop or a multiple edge


def test_decompose_order_invariance_of_composite():
    rng = random.Random(43)
    for _ in range(20):
        c = rand_contraction(rng, num_edges=(2, 3), rank=1, max_flags=10)
        base = None
        for order in permutations(c.contracted_edges()):
            factors = decompose_elementary(c, order)
            composite = factors[0]
            for f in factors[1:]:
                composite = compose_contractions(f, composite)
            key = (canonical_key(composite.target), composite.flagmap, composite.vertexmap)
            if base is None:
                base = key
            assert key == base


def test_composition_checks_each_input_once_and_no_composite(calls):
    # composing checks outer, then inner, each once per instance; the
    # composite is kept as passed: decomposing it in every order checks
    # nothing more, and composing it again checks only the new identity
    validated = calls(validate_contraction, validate_combinatorial)
    rng = random.Random(53)
    for _ in range(20):
        c = rand_contraction(rng, num_edges=(2, 3), rank=1, max_flags=10)
        renaming = rand_renaming(rng, c.target)
        validated.clear()
        composite = compose_contractions(renaming, c)
        compose_contractions(renaming, c)
        for order in permutations(composite.contracted_edges()):
            decompose_elementary(composite, order)
        compose_contractions(identity_contraction(composite.target), composite)
        assert [id(m) for m in validated[:2]] == [id(renaming), id(c)] and len(validated) == 3
        e1, e2 = list(edges(c.source))[:2]
        cut1, outer = cut_edge(c.source, e1)
        _, inner = cut_edge(cut1, e2)
        validated.clear()
        composite = compose_combinatorial(outer, inner)
        compose_combinatorial(outer, inner)
        compose_combinatorial(identity_combinatorial(outer.target), composite)
        assert [id(m) for m in validated[:2]] == [id(outer), id(inner)] and len(validated) == 3


def _bridge():
    # two class-1 vertices joined by the edge (2, 3), each with one tail
    return marked_graph(1, {0: (0, 1), 1: (0, 1)}, tails={0: 0, 1: 1}, edges=[((2, 0), (3, 1))])


def test_an_invalid_input_is_refused_where_its_composite_would_pass():
    # composition checks its inputs, not its composite: an inner morphism
    # that fails only on flags the outer one never reads is refused, though
    # the composite, built here as composition builds it, validates
    g = _bridge()
    outer = contract_edges(g, [(2, 3)])
    inner = Contraction(g, g, {0: 0, 1: 1, 2: 3, 3: 2}, {0: 0, 1: 1})  # the edge's halves swapped
    composite = Contraction(g, outer.target, {f: inner.flagmap[f] for f in outer.flagmap}, outer.vertexmap)
    assert validate_contraction(composite) == []
    with pytest.raises(ValidationError) as err:
        compose_contractions(outer, inner)
    assert err.value.conditions == ("contraction-2-boundary",)
    assert str(err.value).startswith("compose_contractions: invalid inner contraction: ")
    # the inner morphism sends the edge to two tails in other blocks, and the
    # outer one glues those tails back into the edge
    cut, _ = cut_edge(g, (2, 3))
    inner = CombinatorialMorphism(g, cut, {f: f for f in g.flags}, {v: v for v in g.vertices})
    glued, outer = glue_tails(cut, 2, 3)
    composite = CombinatorialMorphism(g, glued, inner.flagmap, inner.vertexmap)
    assert validate_combinatorial(composite) == []
    with pytest.raises(ValidationError) as err:
        compose_combinatorial(outer, inner)
    assert err.value.conditions == ("combinatorial-3-equivalence",)
    assert str(err.value).startswith("compose_combinatorial: invalid inner morphism: ")


def test_compose_with_identity():
    g = two_vertex_graph()
    c = contract_edges(g, [(0, 1)])
    assert compose_contractions(c, identity_contraction(g)).vertexmap == c.vertexmap
    assert compose_contractions(identity_contraction(c.target), c).vertexmap == c.vertexmap


def test_every_composite_contraction_validates():
    # compose_contractions keeps its composite as passed: the composites of
    # 300 seeded pairs of valid contractions, some of them followed by a
    # renaming, pass the public validator and the one that builds each piece
    rng = random.Random(59)
    both = renamed = 0
    for _ in range(300):
        inner = rand_contraction(rng, num_edges=(0, 3), rank=rng.randint(0, 2), max_flags=12, max_vertices=5)
        outer = rand_contraction(rng, inner.target, num_edges=(0, 2))
        if rng.random() < 0.3:
            outer = compose_contractions(rand_renaming(rng, outer.target), outer)
            renamed += 1
        for composite in (outer, compose_contractions(outer, inner)):
            assert validate_contraction(composite) == validate_contraction_by_pieces(composite) == []
        both += bool(inner.contracted_edges()) and bool(outer.contracted_edges())
    assert both > 100 and renamed > 50


# -- combinatorial morphisms ------------------------------------------------


def test_component_inclusion_complete():
    g = modular_graph({0: 1, 1: 1}, tails={0: 0, 1: 1})
    comp = component_of(g, 0)
    a = component_inclusion(g, comp)
    assert validate_combinatorial(a) == []
    assert a.is_complete()


def test_inclusion_missing_a_tail_is_not_complete():
    # a tripod into a vertex with a fourth tail: valid, but the fourth
    # tail at the image vertex has no preimage
    src = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    tgt = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0, 3: 0})
    a = CombinatorialMorphism(source=src, target=tgt, flagmap={0: 0, 1: 1, 2: 2}, vertexmap={0: 0})
    assert validate_combinatorial(a) == []
    assert not a.is_complete()


def test_genus_mismatch_detected():
    src = modular_graph({0: 1}, tails={0: 0})
    tgt = modular_graph({0: 2}, tails={0: 0})
    a = CombinatorialMorphism(source=src, target=tgt, flagmap={0: 0}, vertexmap={0: 0})
    assert "combinatorial-5-genus" in [v.condition for v in validate_combinatorial(a)]


def test_equivalence_condition_detected():
    # an edge mapped onto two tails separated by a genus-1 vertex
    src = modular_graph({0: 0, 1: 0}, edges=[((0, 0), (1, 1))])
    tgt = modular_graph({0: 0, 1: 1, 2: 0}, tails={0: 0, 1: 1, 2: 1, 3: 2})
    a = CombinatorialMorphism(source=src, target=tgt, flagmap={0: 0, 1: 3}, vertexmap={0: 0, 1: 2})
    conditions = [v.condition for v in validate_combinatorial(a)]
    assert "combinatorial-3-equivalence" in conditions


def test_cut_edge():
    g = two_vertex_graph()
    cut, a = cut_edge(g, (0, 1))
    assert len(tails(cut)) == 2 and edges(cut) == ()
    assert validate_combinatorial(a) == []
    assert a.is_complete()


def test_cut_loop():
    g = modular_graph({0: 1}, edges=[((0, 0), (1, 0))])
    cut, a = cut_edge(g, (0, 1))
    assert len(tails(cut)) == 2 and len(cut.vertices) == 1


def test_forget_tail():
    g = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0, 3: 0})
    smaller, a = forget_tail(g, 3)
    assert len(tails(smaller)) == 3
    assert validate_combinatorial(a) == []
    # forgetting can destabilize; the operation itself does not care
    tripod = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    smaller2, _ = forget_tail(tripod, 0)
    assert not is_stable(smaller2)


def test_glue_tails_makes_loop():
    g = modular_graph({0: 1}, tails={0: 0, 1: 0})
    glued, c = glue_tails(g, 0, 1)
    assert len(edges(glued)) == 1
    assert validate_combinatorial(c) == []


def test_glue_joins_components():
    g = modular_graph({0: 1, 1: 1}, tails={0: 0, 1: 1})
    glued, _ = glue_tails(g, 0, 1)
    assert len(connected_components(glued)) == 1


def test_cut_then_glue_round_trip():
    rng = random.Random(47)
    for _ in range(30):
        g = rand_graph(rng, rank=1, max_flags=10, min_edges=1)
        if not edges(g):
            continue
        e = rng.choice(list(edges(g)))
        cut, _ = cut_edge(g, e)
        glued, _ = glue_tails(cut, e[0], e[1])
        assert glued == g
        assert is_isomorphic(glued, g)


def test_random_cut_morphisms_validate():
    rng = random.Random(53)
    for _ in range(30):
        g = rand_graph(rng, rank=1, max_flags=10, min_edges=1)
        if not edges(g):
            continue
        _, a = cut_edge(g, rng.choice(list(edges(g))))
        assert validate_combinatorial(a) == []


def test_random_forget_and_glue_morphisms_validate():
    rng = random.Random(55)
    forgets = glues = 0
    for _ in range(40):
        g = rand_graph(rng, rank=rng.randint(0, 2), max_flags=10)
        ts = list(tails(g))
        if not ts:
            continue
        _, a = forget_tail(g, rng.choice(ts))
        assert validate_combinatorial(a) == []
        forgets += 1
        if len(ts) >= 2:
            _, c = glue_tails(g, *rng.sample(ts, 2))
            assert validate_combinatorial(c) == []
            glues += 1
    assert forgets > 20 and glues > 10


def test_marked_combinatorial_covering():
    # source over N^0, target over N^1 with class (1), covered by the trivial hom
    tgt = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    src = marked_graph(0, {0: (1, 0)}, tails={0: 0})
    a = CombinatorialMorphism(
        source=src, target=tgt, flagmap={0: 0}, vertexmap={0: 0}, hom=MonoidHom.to_trivial(1)
    )
    assert validate_combinatorial(a) == []


def test_contraction_flagmap_preserves_partition():
    # equivalent flags of the target pull back to equivalent flags of the source
    rng = random.Random(163)
    for _ in range(40):
        c = rand_contraction(rng, num_edges=(1, 3), rank=1, max_flags=12)
        src_part = flag_partition(c.source)
        tgt_part = flag_partition(c.target)
        for block in tgt_part.blocks:
            for f in block[1:]:
                assert src_part.same_block(c.flagmap[block[0]], c.flagmap[f])


# -- the validators build no graph -----------------------------------------


def _remapped(rng, a):
    """a with one flag or one vertex sent somewhere else in the target."""
    flagmap, vertexmap = dict(a.flagmap), dict(a.vertexmap)
    if flagmap and rng.random() < 0.5:
        flagmap[rng.choice(list(flagmap))] = rng.choice(a.target.flags)
    elif vertexmap:
        vertexmap[rng.choice(list(vertexmap))] = rng.choice(a.target.vertices)
    return replace(a, flagmap=flagmap, vertexmap=vertexmap)


@pytest.fixture(scope="module")
def validator_cases():
    """Seeded morphisms over homs that kill the class of a genus-0 target
    vertex, the same with one flag or vertex remapped, and contractions
    whose target genus is moved by one at one vertex."""
    rng = random.Random(2024)
    covers, contractions = [], []
    while len(covers) < 2000:
        tau = rand_graph(rng, rank=2, max_flags=10)
        v = rng.choice(tau.vertices)
        tau = edit_graph(tau, vertices={v: (0, element(0, rng.randint(1, 2)))})
        # every row is zero on the second coordinate, so the hom kills v's class
        xi = MonoidHom(tuple((rng.randint(0, 2), 0) for _ in range(rng.randint(0, 2))), 2)
        a = rand_covering(rng, tau, xi)
        covers += [a, _remapped(rng, a)]
    while len(contractions) < 1000:
        c = rand_contraction(rng, num_edges=(1, 3), rank=1, max_flags=10)
        v = rng.choice(c.target.vertices)
        gv = c.target.genus[v]
        moved = gv + 1 if gv == 0 or rng.random() < 0.5 else gv - 1
        contractions.append(replace(c, target=edit_graph(c.target, vertices={v: (moved, c.target.classes[v])})))
    return covers, contractions


def test_validators_agree_with_the_graph_building_references(validator_cases):
    covers, contractions = validator_cases
    killed, conditions = 0, set()
    for a in covers:
        found = validate_combinatorial(a)
        assert found == validate_combinatorial_by_relabelling(a)
        conditions.update(x.condition for x in found)
        killed += flag_partition(relabel_classes(a.target, a.hom)) != flag_partition(a.target)
    for c in contractions:
        found = validate_contraction(c)
        assert found == validate_contraction_by_pieces(c)
        conditions.update(x.condition for x in found)
    # the kill changes the flag partition in most cases, and the perturbed
    # cases fail the checks whose route changed
    assert killed > len(covers) // 2
    assert {"combinatorial-3-equivalence", "combinatorial-4-class", "contraction-genus"} <= conditions


def test_validators_construct_no_graph(validator_cases, forbid_graphs):
    covers, contractions = validator_cases
    before = [validate_combinatorial(a) for a in covers] + [validate_contraction(c) for c in contractions]
    forbid_graphs()
    after = [validate_combinatorial(a) for a in covers] + [validate_contraction(c) for c in contractions]
    assert after == before


# -- several faults at once -----------------------------------------------------
#
# Each fault returns a copy of the morphism that breaks one condition, or None
# when the morphism leaves no room for it.  Faults on the target's vertices
# edit the target graph, so the maps stay total.


def _fault_boundary(rng, a):
    src, tgt = a.source, a.target
    moves = [(f, x) for f in src.flags for x in tgt.flags if tgt.boundary[x] != a.vertexmap[src.boundary[f]]]
    if not moves:
        return None
    f, x = rng.choice(moves)
    return replace(a, flagmap={**a.flagmap, f: x})


def _fault_injective(rng, a):
    crowded = [at_v for v in a.source.vertices if len(at_v := a.source.flags_at(v)) >= 2]
    if not crowded:
        return None
    f1, f2 = rng.sample(rng.choice(crowded), 2)
    return replace(a, flagmap={**a.flagmap, f2: a.flagmap[f1]})


def _fault_equivalence(rng, a):
    # one half of an edge goes to another flag at the same target vertex,
    # outside the block of the other half's image
    tgt = a.target
    part = flag_partition(tgt if a.hom is None else relabel_classes(tgt, a.hom))
    moves = [
        (f2, x)
        for f1, f2 in edges(a.source)
        for x in tgt.flags_at(tgt.boundary[a.flagmap[f2]])
        if not part.same_block(a.flagmap[f1], x)
    ]
    if not moves:
        return None
    f2, x = rng.choice(moves)
    return replace(a, flagmap={**a.flagmap, f2: x})


def _fault_genus(rng, a):
    tgt = a.target
    w = a.vertexmap[rng.choice(a.source.vertices)]
    return replace(a, target=edit_graph(tgt, vertices={w: (tgt.genus[w] + 1, tgt.classes[w])}))


def _fault_class(rng, a):
    tgt = a.target
    if not tgt.rank:
        return None
    w = a.vertexmap[rng.choice(a.source.vertices)]
    bumped = MonoidElement(tuple(x + 1 for x in tgt.classes[w].coords))
    return replace(a, target=edit_graph(tgt, vertices={w: (tgt.genus[w], bumped)}))


def _fault_rank(rng, a):
    tgt = a.target
    if a.hom is None:
        return replace(a, target=relabel_classes(tgt, MonoidHom.to_trivial(tgt.rank)))
    return replace(a, hom=MonoidHom.to_trivial(tgt.rank + 1))


def _fault_maps_total(rng, a):
    which = "flagmap" if a.flagmap and (rng.random() < 0.5 or not a.vertexmap) else "vertexmap"
    partial = dict(getattr(a, which))
    if not partial:
        return None
    del partial[rng.choice(list(partial))]
    return replace(a, **{which: partial})


_FAULT_PAIRS = [
    (_fault_boundary, _fault_genus),
    (_fault_injective, _fault_class),
    (_fault_equivalence, _fault_class),
    (_fault_rank, _fault_boundary),
    (_fault_genus, _fault_maps_total),  # a map made partial first leaves no image to edit
]


def _base_morphism(rng, with_hom):
    """A seeded valid morphism with at least one source vertex: over a hom
    that kills the class of a genus-0 target vertex, or with no hom."""
    while True:
        if with_hom:
            tau = rand_graph(rng, rank=2, max_flags=10)
            v = rng.choice(tau.vertices)
            tau = edit_graph(tau, vertices={v: (0, element(0, rng.randint(1, 2)))})
            xi = MonoidHom(tuple((rng.randint(1, 2), 0) for _ in range(rng.randint(1, 2))), 2)
            a = rand_covering(rng, tau, xi)
        else:
            tau = rand_graph(rng, rank=1, max_flags=10)
            a = replace(rand_covering(rng, tau, MonoidHom.identity(1)), hom=None)
        if a.source.vertices:
            return a


def test_validator_agrees_with_the_reference_on_two_faults_at_once():
    # the whole-condition checks must name the same first offenders, in the
    # same order, as the reference's walks, however the faults combine; each
    # fault is applied once or twice, so a condition may fail at two places
    rng = random.Random(1905)
    seen, both = set(), Counter()
    for with_hom in (False, True):
        for first, second in _FAULT_PAIRS:
            for _ in range(60):
                a = _base_morphism(rng, with_hom)
                for fault in (first, first, second, second)[rng.randint(0, 1) : 4 - rng.randint(0, 1)]:
                    a = a and fault(rng, a)
                if a is None:
                    continue
                found = validate_combinatorial(a)
                assert found == validate_combinatorial_by_relabelling(a)
                ids = [x.condition for x in found]
                seen.update(ids)
                both[first.__name__, second.__name__] += len(ids) >= 2
    assert seen == {
        "combinatorial-rank",
        "combinatorial-maps-total",
        "combinatorial-1-boundary",
        "combinatorial-2-injective",
        "combinatorial-3-equivalence",
        "combinatorial-4-class",
        "combinatorial-5-genus",
    }
    # the early returns report one violation; every other pair reports two
    # at once in some case
    assert both[_fault_rank.__name__, _fault_boundary.__name__] == 0
    assert both[_fault_genus.__name__, _fault_maps_total.__name__] == 0
    assert all(both[f.__name__, s.__name__] > 0 for f, s in _FAULT_PAIRS[:3]), both


def _class_moved(rng, c):
    """c with one unit of a class coordinate moved from one target vertex to
    another, and the two vertices; None when no unit can move."""
    tgt = c.target
    units = [(v, i) for v in tgt.vertices for i, x in enumerate(tgt.classes[v].coords) if x]
    if len(tgt.vertices) < 2 or not units:
        return None
    v, i = rng.choice(units)
    w = rng.choice([u for u in tgt.vertices if u != v])
    less, more = list(tgt.classes[v].coords), list(tgt.classes[w].coords)
    less[i] -= 1
    more[i] += 1
    moved = {v: (tgt.genus[v], MonoidElement(tuple(less))), w: (tgt.genus[w], MonoidElement(tuple(more)))}
    return replace(c, target=edit_graph(tgt, vertices=moved)), v, w


def test_contraction_class_check_agrees_with_the_fold():
    # the class condition sums each fiber's classes; moving one class unit
    # between two target vertices must fail it at both, as the reference's
    # fold over zero says, whether the fibers are single vertices or not
    rng = random.Random(4242)
    cases, fiber_kinds = 0, set()
    while cases < 1000:
        c = rand_contraction(rng, num_edges=(1, 3), rank=rng.randint(1, 2), max_flags=10, max_vertices=5)
        assert validate_contraction(c) == validate_contraction_by_pieces(c) == []
        moved = _class_moved(rng, c)
        if moved is None:
            continue
        bad, v, w = moved
        found = validate_contraction(bad)
        assert found == validate_contraction_by_pieces(bad)
        assert [(x.condition, x.detail) for x in found] == [
            ("contraction-class", f"class at target vertex {u} is not the fiber sum") for u in sorted((v, w))
        ]
        fiber_size = Counter(c.vertexmap.values())
        fiber_kinds.add((fiber_size[v] > 1, fiber_size[w] > 1))
        cases += 1
    assert fiber_kinds == {(False, False), (False, True), (True, False), (True, True)}


def _rand_cover(rng, tau, rank):
    """A covering of tau over a random hom into N^rank, or, for rank None,
    over tau's own monoid with no hom."""
    if rank is None:
        return replace(rand_covering(rng, tau, MonoidHom.identity(tau.rank)), hom=None)
    return rand_covering(rng, tau, rand_hom(rng, tau.rank, rank))


def test_every_composite_combinatorial_morphism_validates():
    # compose_combinatorial keeps its composite as passed: the composites of
    # 300 seeded pairs of valid coverings, with either hom or both missing
    # and ranks down to 0, pass the public validator and the one that builds
    # the relabelled target
    rng = random.Random(61)
    missing, into_zero = Counter(), 0
    for _ in range(300):
        tau = rand_graph(rng, rank=rng.randint(0, 2), max_flags=10, stable=True)
        outer = _rand_cover(rng, tau, None if rng.random() < 0.5 else rng.randint(0, 2))
        inner = _rand_cover(rng, outer.source, None if rng.random() < 0.5 else rng.randint(0, 2))
        composite = compose_combinatorial(outer, inner)
        assert validate_combinatorial(composite) == validate_combinatorial_by_relabelling(composite) == []
        missing[inner.hom is None, outer.hom is None] += 1
        into_zero += composite.hom is not None and composite.hom.target_rank == 0
    assert len(missing) == 4 and min(missing.values()) > 50 and into_zero > 50, (missing, into_zero)


def _empty_morphism(source_rank, target_rank, hom=None):
    return CombinatorialMorphism(empty_graph(source_rank), empty_graph(target_rank), {}, {}, hom)


@pytest.mark.parametrize("missing", ["inner", "outer"])
def test_compose_combinatorial_builds_no_identity_of_the_declared_rank(missing, identity_capped):
    # empty graphs that declare rank 3000; the side with no hom is the
    # identity, so the composite's hom is the other side's
    rank = 3000
    if missing == "inner":
        hom = MonoidHom(((),) * rank, 0)
        inner, outer = _empty_morphism(rank, rank), _empty_morphism(rank, 0, hom)
    else:
        hom = MonoidHom.to_trivial(rank)
        inner, outer = _empty_morphism(0, rank, hom), _empty_morphism(rank, rank)
    composite = compose_combinatorial(outer, inner)
    assert composite.hom == hom
    assert (composite.source.rank, composite.target.rank) == (inner.source.rank, outer.target.rank)


def test_compose_combinatorial_with_a_missing_hom_matches_the_identity():
    rng = random.Random(53)
    for _ in range(200):
        r0, r1, r2 = (rng.randint(0, 3) for _ in range(3))
        hom = MonoidHom(tuple(tuple(rng.randint(0, 2) for _ in range(r1)) for _ in range(r0)), r1)
        inner = _empty_morphism(r0, r1, hom)
        outer = _empty_morphism(r1, r1)
        assert compose_combinatorial(outer, inner).hom == hom.compose(MonoidHom.identity(r1))
        hom = MonoidHom(tuple(tuple(rng.randint(0, 2) for _ in range(r2)) for _ in range(r1)), r2)
        inner, outer = _empty_morphism(r1, r1), _empty_morphism(r1, r2, hom)
        assert compose_combinatorial(outer, inner).hom == MonoidHom.identity(r1).compose(hom)


def test_compose_combinatorial_rank_mismatch_keeps_its_message():
    # the rank refusal comes before the input checks, so a hom of the wrong
    # rank is refused with the message MonoidHom.compose gives
    mid = empty_graph(2)
    inner = CombinatorialMorphism(empty_graph(2), mid, {}, {})
    outer = CombinatorialMorphism(mid, empty_graph(1), {}, {}, MonoidHom(((1,), (0,), (1,)), 1))
    with pytest.raises(RankMismatchError, match=r"^cannot compose: inner target rank 3 != source rank 2$"):
        compose_combinatorial(outer, inner)
    inner = CombinatorialMorphism(empty_graph(1), mid, {}, {}, MonoidHom(((1, 0, 0),), 3))
    outer = CombinatorialMorphism(mid, empty_graph(2), {}, {})
    with pytest.raises(RankMismatchError, match=r"^cannot compose: inner target rank 2 != source rank 3$"):
        compose_combinatorial(outer, inner)


@pytest.mark.parametrize("cls", [Contraction, CombinatorialMorphism])
def test_morphism_constructor_copies_each_map(cls):
    # each field is written once, the two maps as the morphism's own copies:
    # a caller who edits its dicts afterwards leaves the morphism as it was,
    # and keyword, positional and replace construction agree
    g = two_vertex_graph()
    fields = dict(source=g, target=g, flagmap={f: f for f in g.flags}, vertexmap={v: v for v in g.vertices})
    m = cls(**fields)
    positional = cls(*fields.values())
    copy = replace(m)
    assert m.source is g and m.target is g
    assert positional == m and copy == m and repr(copy) == repr(m)
    for name in ("flagmap", "vertexmap"):
        assert getattr(m, name) is not fields[name] and getattr(positional, name) is not fields[name]
        assert getattr(copy, name) is not getattr(m, name)
    before = repr(m)
    fields["flagmap"].clear()
    fields["vertexmap"].clear()
    assert repr(m) == before and repr(positional) == before

