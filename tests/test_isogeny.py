import random
from dataclasses import replace

import pytest

from stablegraphs.errors import ValidationError
from stablegraphs.graphs import (
    connected_components,
    edges,
    empty_graph,
    marked_graph,
    modular_graph,
    tails,
)
from stablegraphs.isogeny import (
    ContractStep,
    ExtendedIsogeny,
    ForgetStep,
    compose_extended,
    elementary_glue_isogeny,
    extended_isogeny,
    identity_extended,
    stably_forget_tail,
    validate_extended,
)
from stablegraphs.morphisms import validate_combinatorial

from oracles import chi_drop
from strategies import rand_graph, rand_isogeny


# -- stably forgetting a tail ------------------------------------------------


def test_forget_type_i():
    g = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0, 3: 0})
    r = stably_forget_tail(g, 3)
    assert r.kind == "I"
    assert tails(r.graph) == (0, 1, 2)
    assert r.tail_map == {0: 0, 1: 1, 2: 2}
    assert validate_combinatorial(r.morphism) == []


def test_forget_type_ii_remembers_surviving_tail():
    # free vertex 0 with tails 0 (forgotten) and 1, edge half 2 joined to 3 at a genus-1 vertex
    g = modular_graph({0: 0, 1: 1}, tails={0: 0, 1: 0, 10: 1}, edges=[((2, 0), (3, 1))])
    r = stably_forget_tail(g, 0)
    assert r.kind == "II"
    assert set(tails(r.graph)) == {3, 10}
    # the new tail 3 remembers the tail 1 that lived on the removed vertex
    assert r.tail_map == {10: 10, 3: 1}
    assert 0 not in r.tail_map.values()


def test_forget_type_iii():
    g = modular_graph(
        {0: 1, 1: 0, 2: 1},
        tails={10: 0, 11: 1, 12: 2},
        edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))],
    )
    r = stably_forget_tail(g, 11)
    assert r.kind == "III"
    assert set(r.graph.vertices) == {0, 2}
    assert edges(r.graph) == ((0, 3),)


def test_forget_type_iv_lonely_tripod():
    g = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    r = stably_forget_tail(g, 0)
    assert r.kind == "IV"
    assert r.graph == empty_graph(0)


def test_forget_type_iv_lonely_elliptic():
    g = modular_graph({0: 1}, tails={0: 0})
    r = stably_forget_tail(g, 0)
    assert r.kind == "IV"
    assert r.graph == empty_graph(0)


def test_forget_requires_stable():
    g = marked_graph(1, {0: (0, 0)}, tails={0: 0, 1: 0})
    with pytest.raises(ValidationError):
        stably_forget_tail(g, 0)


def test_forget_clauses_random():
    rng = random.Random(127)
    done = 0
    while done < 60:
        g = rand_graph(rng, rank=1, max_flags=12, stable=True)
        ts = tails(g)
        if not ts:
            continue
        f = rng.choice(ts)
        r = stably_forget_tail(g, f)
        # the result is the stabilization of the plain forget
        from stablegraphs.morphisms import forget_tail
        from stablegraphs.stabilize import stabilize

        plain, _ = forget_tail(g, f)
        stab, _ = stabilize(plain)
        assert r.graph == stab
        # tails mapping to tails are fixed; the forgotten tail is never hit
        for h, target in r.tail_map.items():
            if r.morphism.flagmap[h] == h and g.involution[h] == h:
                assert target == h
        assert f not in r.tail_map.values()
        assert validate_combinatorial(r.morphism) == []
        assert (r.morphism.source, r.morphism.target) == (r.graph, g)
        done += 1


# -- extended isogenies --------------------------------------------------


def test_identity_isogeny():
    g = modular_graph({0: 1}, tails={0: 0})
    e = identity_extended(g)
    assert e.target == g
    assert e.is_isogeny()
    assert chi_drop(e) == 0


def test_glue_then_contract():
    g = modular_graph({0: 1, 1: 1}, tails={0: 0, 1: 1})
    e = extended_isogeny(g, ((0, 1),), (ContractStep((0, 1)),))
    assert len(e.target.vertices) == 1
    assert e.target.genus[list(e.target.vertices)[0]] == 2
    assert chi_drop(e) == 0


def test_validate_rejects_type_iv():
    # forgetting any tail of a lone tripod kills its whole component
    g = modular_graph({0: 0, 1: 1}, tails={0: 0, 1: 0, 2: 0, 9: 1})
    e = extended_isogeny(g, (), (ForgetStep(0),))
    assert e.forget_kinds == ("IV",)
    assert set(e.target.vertices) == {1}
    assert any(v.condition == "isogeny-pi0" for v in validate_extended(e))


def test_recorded_fields_cannot_be_passed_in():
    g = modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 2: 1, 3: 1}, edges=[((4, 0), (5, 1))])
    e = extended_isogeny(g, (), (ContractStep((4, 5)),))
    for name in ("glued_graph", "target", "step_results", "forget_kinds"):
        with pytest.raises(ValueError, match="init=False"):
            replace(e, **{name: getattr(e, name)})
    # replacing what the isogeny is made of runs the new steps
    forget = replace(e, steps=(ForgetStep(0),))
    assert forget.target == stably_forget_tail(g, 0).graph
    assert forget.forget_kinds == ("II",)
    assert replace(forget, steps=()).target == g


def test_construction_refuses_an_unstable_source():
    with pytest.raises(ValidationError) as err:
        ExtendedIsogeny(modular_graph({0: 0}, tails={0: 0}), (), ())
    assert err.value.conditions == ("isogeny-unstable-source",)


def test_construction_refuses_a_step_of_neither_kind():
    # an edge given as a bare pair, not as a ContractStep
    tripod = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
    with pytest.raises(TypeError, match=r"^unknown step \(0, 1\)$"):
        extended_isogeny(tripod, (), ((0, 1),))


@pytest.mark.parametrize("glued", [(1.0, 2), (1, 2.0), (1.5, 2.9)], ids=["first", "second", "both"])
def test_construction_refuses_glued_ids_that_are_not_ints(glued):
    # 1.0 equals flag 1 as a dict key, so glue_tails alone would glue it and
    # leave a float in the involution; nothing is truncated to an int either
    g = modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 4: 0, 2: 1, 3: 1, 5: 1})
    x, y = glued
    with pytest.raises(ValueError, match=f"^glued flag ids must be integers, not {x!r} and {y!r}$"):
        extended_isogeny(g, [glued])
    assert extended_isogeny(g, [(1, 2)]).target.involution[2] == 1


def test_constructor_records_what_extended_isogeny_records():
    # lists for glued and steps are normalised to tuples, and each step's
    # result starts where the one before it ended
    rng = random.Random(149)
    seen = set()
    for _ in range(60):
        e = rand_isogeny(rng, rand_graph(rng, rank=1, max_flags=12, stable=True))
        built = ExtendedIsogeny(e.source, [list(p) for p in e.glued], list(e.steps))
        assert built == e and repr(built) == repr(e)
        for name in ("glued_graph", "target", "step_results", "forget_kinds"):
            assert getattr(built, name) == getattr(e, name)
        current = built.glued_graph
        for kind, result in built.step_results:
            start, end = (result.morphism.target, result.graph) if kind == "forget" else (result.source, result.target)
            assert start == current
            current = end
            seen.add(kind)
        assert current == built.target
        if built.glued:
            seen.add("glue")
    assert seen == {"glue", "forget", "contract"}


def test_compose_identity():
    g = modular_graph({0: 1}, tails={0: 0, 1: 0})
    e = extended_isogeny(g, (), (ForgetStep(1),))
    left = compose_extended(identity_extended(e.target), e)
    right = compose_extended(e, identity_extended(g))
    assert left.target == e.target and right.target == e.target
    assert left.glued == e.glued and left.steps == e.steps


def test_compose_traces_glue_through_type_ii():
    # the composition that must re-glue at the remembered tail
    src = modular_graph({0: 0, 1: 1}, tails={0: 0, 1: 0, 10: 1}, edges=[((2, 0), (11, 1))])
    e1 = extended_isogeny(src, (), (ForgetStep(0),))
    assert set(tails(e1.target)) == {10, 11}
    e2 = elementary_glue_isogeny(e1.target, (11, 10))
    comp = compose_extended(e2, e1)
    assert comp.glued == ((1, 10),)
    assert comp.target == e2.target
    assert len(edges(comp.target)) == 1


def test_compose_chain_of_contractions():
    g = modular_graph(
        {0: 1, 1: 1, 2: 1},
        edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))],
    )
    e1 = extended_isogeny(g, (), (ContractStep((0, 1)),))
    e2 = extended_isogeny(e1.target, (), (ContractStep((2, 3)),))
    comp = compose_extended(e2, e1)
    assert len(comp.target.vertices) == 1
    assert comp.target == e2.target


def test_pi0_preserved_by_isogenies():
    rng = random.Random(137)
    done = 0
    while done < 40:
        g = rand_graph(rng, rank=1, max_flags=12, stable=True)
        iso = rand_isogeny(rng, g, allow_glue=False)
        if not iso.is_isogeny():
            continue
        assert len(connected_components(iso.source)) == len(connected_components(iso.target))
        done += 1


def test_compose_random_chains():
    rng = random.Random(139)
    done = 0
    while done < 30:
        g = rand_graph(rng, rank=1, max_flags=12, stable=True)
        e1 = rand_isogeny(rng, g)
        e2 = rand_isogeny(rng, e1.target)
        comp = compose_extended(e2, e1)
        assert comp.source == g
        assert comp.target == e2.target
        # tail traces compose
        t1, t2, tc = e1.tail_trace(), e2.tail_trace(), comp.tail_trace()
        for h, src in tc.items():
            assert t1[t2[h]] == src
        done += 1
