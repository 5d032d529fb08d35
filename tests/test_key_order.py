"""Outputs depend on the values of the inputs, not on the key order of their
dicts or on their ids.

Every mapping of every input is rebuilt in a shuffled key order; the rebuilt
inputs are equal to the originals, so each construction must give equal
outputs (compared field by field, computed fields included) and raise the
same violations in the same order.  CLI documents, golden and random,
must give byte-identical output with their JSON keys shuffled.  Inputs
whose ids are renamed are isomorphic to the originals, so the outputs must
be isomorphic too.
"""

import json
import random
from dataclasses import fields, is_dataclass, replace

import pytest

from stablegraphs.canonical import canonical_key
from stablegraphs.cartesian import CartesianObject, cartesian_pullback, pullback_object
from stablegraphs.cli import VERBS, main
from stablegraphs.errors import StableGraphsError, ValidationError
from stablegraphs.graphs import disjoint_union_with_maps, edges, marked_graph, tails
from stablegraphs.isogeny import ContractStep, ForgetStep, compose_extended, extended_isogeny, validate_extended
from stablegraphs.monoid import MonoidHom
from stablegraphs.morphisms import (
    CombinatorialMorphism,
    Contraction,
    contract_edges,
    validate_combinatorial,
    validate_contraction,
)
from stablegraphs.profiles import deg_graph
from stablegraphs.pullback import (
    MarkedMorphism,
    compose_marked,
    marked_key,
    pullback_diagram_key,
    stable_pullback,
    validate_marked,
)
from stablegraphs.serialize import (
    combinatorial_to_json,
    contraction_to_json,
    graph_to_json,
    hom_to_json,
    isogeny_to_json,
    marked_to_json,
)
from stablegraphs.stabilize import (
    _default_source_pool,
    enumerate_combinatorial_morphisms,
    pushforward,
    stabilize,
    stabilize_with_trace,
)

from strategies import (
    rand_contraction,
    rand_covering,
    rand_graph,
    rand_hom,
    rand_isogeny,
    rand_marked_morphism,
    rand_renaming,
    rand_unstable_graph,
)
from test_cartesian import member_keys, same, seeded_pullback_case, spliced_into_chain
from test_cli import CASES, GOLDEN, golden_input


def shuffled(x, rng):
    """x rebuilt with every dict, at any depth, in a random key order."""
    if isinstance(x, dict):
        items = list(x.items())
        rng.shuffle(items)
        return {k: shuffled(v, rng) for k, v in items}
    if isinstance(x, (list, tuple)):
        return type(x)(shuffled(v, rng) for v in x)
    if is_dataclass(x) and not isinstance(x, type):
        return type(x)(**{f.name: shuffled(getattr(x, f.name), rng) for f in fields(x) if f.init})
    return x


def deep(x):
    """A comparable form of x that also holds the fields left out of ==."""
    if isinstance(x, dict):
        return {k: deep(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [deep(v) for v in x]
    if is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__, [deep(getattr(x, f.name)) for f in fields(x)])
    return x


def outcome(fn, args):
    """What fn(*args) gives: its value, or its error with the violations in order."""
    try:
        return "value", fn(*args)
    except ValidationError as err:
        return "invalid", err.violations, str(err)
    except StableGraphsError as err:
        return type(err).__name__, str(err)


def assert_key_order_free(rng, fn, *args):
    """fn gives the same outcome on args and on args rebuilt in shuffled key
    order; returns that outcome."""
    expected = outcome(fn, args)
    for _ in range(3):
        again = shuffled(args, rng)
        assert again == args
        got = outcome(fn, again)
        assert got == expected
        assert deep(got) == deep(expected)
    return expected


def moved(rng, m):
    """m with one flag image replaced by another flag of its target, so that
    it is most often invalid in several ways at once."""
    if not m.flagmap:
        return m
    f = rng.choice(sorted(m.flagmap))
    return replace(m, flagmap={**m.flagmap, f: rng.choice(m.target.flags)})


def doubled(a):
    """a from two disjoint copies of its source, so that two vertices lie over
    each vertex a hits."""
    rho, f1, v1, f2, v2 = disjoint_union_with_maps(a.source, a.source)
    flagmap = {**{f1[f]: x for f, x in a.flagmap.items()}, **{f2[f]: x for f, x in a.flagmap.items()}}
    vertexmap = {**{v1[v]: w for v, w in a.vertexmap.items()}, **{v2[v]: w for v, w in a.vertexmap.items()}}
    return replace(a, source=rho, flagmap=flagmap, vertexmap=vertexmap)


def test_pullback_does_not_depend_on_the_key_order_of_the_covering():
    # two vertices of rho over the vertex a chain of two edges contracts to:
    # listed in either order, the covering is the same, and so is the square
    sigma = marked_graph(
        1, {0: (0, 1), 1: (0, 0), 2: (0, 1)}, tails={0: 0, 1: 1, 2: 2}, edges=[((3, 0), (4, 1)), ((5, 1), (6, 2))]
    )
    phi = contract_edges(sigma, [(3, 4), (5, 6)])
    (v0,) = phi.target.vertices
    rho = marked_graph(1, {0: (0, 2), 1: (0, 2)}, tails={0: 0, 1: 0, 2: 1, 3: 1})
    a, a2 = (
        CombinatorialMorphism(
            source=rho, target=phi.target, flagmap={0: 0, 1: 1, 2: 2, 3: 1}, vertexmap=vertexmap,
            hom=MonoidHom.identity(1),
        )
        for vertexmap in ({0: v0, 1: v0}, {1: v0, 0: v0})
    )
    assert a == a2
    assert stable_pullback(MonoidHom.identity(1), phi, a) == stable_pullback(MonoidHom.identity(1), phi, a2)


def test_stable_pullback_and_compose_marked_are_key_order_free():
    rng = random.Random(211)
    kinds = {"value": 0, "invalid": 0}
    for _ in range(60):
        phi = rand_contraction(rng, num_edges=(1, 3), rank=2, max_flags=10, max_vertices=4)
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, phi.target, xi)
        if rng.random() < 0.5:
            a = doubled(a)
        kinds[assert_key_order_free(rng, stable_pullback, xi, phi, a)[0]] += 1
        kinds[assert_key_order_free(rng, stable_pullback, xi, phi, moved(rng, a))[0]] += 1
        assert_key_order_free(rng, validate_combinatorial, moved(rng, a))
        assert_key_order_free(rng, validate_contraction, moved(rng, phi))
    for _ in range(30):
        inner = rand_marked_morphism(rng, source_rank=2, target_rank=rng.randint(1, 2), max_flags=8)
        sigma = inner.target_graph
        outer = rand_marked_morphism(rng, source=sigma, source_rank=sigma.rank, target_rank=1, max_flags=8)
        assert assert_key_order_free(rng, compose_marked, outer, inner)[0] == "value"
        assert_key_order_free(rng, validate_marked, replace(outer, comb=moved(rng, outer.comb)))
    assert min(kinds.values()) >= 20, kinds


def test_stabilization_and_morphism_search_are_key_order_free():
    rng = random.Random(223)
    for _ in range(60):
        g = rand_unstable_graph(rng, rank=1, max_flags=8)
        assert assert_key_order_free(rng, stabilize_with_trace, g)[0] == "value"
        stable = rand_graph(rng, rank=1, max_flags=8, max_vertices=3, stable=True)
        assert_key_order_free(rng, pushforward, rand_hom(rng, 1, rng.randint(0, 2)), stable)
    found = 0
    for _ in range(12):
        g = rand_unstable_graph(rng, rank=1, max_flags=7)
        stable, _ = stabilize(g)
        for sigma in _default_source_pool(stable)[:3]:
            kind, morphisms = assert_key_order_free(rng, enumerate_combinatorial_morphisms, sigma, g)
            assert kind == "value"
            found += len(morphisms)
    assert found >= 30


def test_isogenies_are_key_order_free():
    rng = random.Random(227)
    composed = 0
    for _ in range(50):
        g = rand_graph(rng, rank=1, max_flags=10, stable=True)
        inner = rand_isogeny(rng, g)
        assert assert_key_order_free(rng, extended_isogeny, g, inner.glued, inner.steps)[0] == "value"
        assert_key_order_free(rng, validate_extended, inner)
        outer = rand_isogeny(rng, inner.target)
        composed += assert_key_order_free(rng, compose_extended, outer, inner)[0] == "value"
    assert composed >= 40


def test_cartesian_pullbacks_are_key_order_free():
    rng = random.Random(229)
    kinds = set()
    for case in filter(None, (seeded_pullback_case(rng) for _ in range(200))):
        kind, p, phi, b = case
        if assert_key_order_free(rng, cartesian_pullback, p, phi, b)[0] == "value":
            kinds.add(kind)
        assert_key_order_free(rng, pullback_object, p, phi, CartesianObject(base=phi.target, family=((b, b.target),)))
        b_moved = moved(rng, b)
        broken = CartesianObject(base=phi.target, family=((b_moved, b.target),))
        assert assert_key_order_free(rng, pullback_object, p, phi, broken)[0] == ("value" if b_moved == b else "invalid")
    assert kinds == {"loop", "split", "forget I", "forget II", "forget III", "glue"}


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_inputs_with_shuffled_keys_give_the_golden_output(stem, tmp_path):
    verb, expected_exit = CASES[stem]
    golden = (GOLDEN / "out" / f"{stem}.out").read_bytes()
    doc = golden_input(stem)
    rng = random.Random(stem)
    for i in range(5):
        path, out = tmp_path / f"in{i}.json", tmp_path / f"out{i}"
        path.write_text(json.dumps(shuffled(doc, rng)))
        assert main([verb, "--in", str(path), "--out", str(out)]) == expected_exit
        assert out.read_bytes() == golden


def random_documents(rng):
    """Random input documents from the strategies, as (verb, document), at
    least one for each verb of the CLI."""
    g = rand_graph(rng, rank=1, max_flags=10, stable=True)
    graph = graph_to_json(g)
    inner = rand_isogeny(rng, g)
    first = rand_marked_morphism(rng)
    phi = rand_contraction(rng, num_edges=(1, 3), rank=2, max_flags=10, max_vertices=4)
    xi = rand_hom(rng, 2, rng.randint(1, 2))
    a = rand_covering(rng, phi.target, xi)
    yield from [("validate", graph), ("invariants", graph), ("export-dot", graph)]
    yield from [("validate", contraction_to_json(phi)), ("validate", combinatorial_to_json(a))]
    yield from [("validate", marked_to_json(first)), ("validate", isogeny_to_json(inner))]
    yield "stabilize", graph_to_json(rand_unstable_graph(rng))
    yield "pushforward", {"xi": hom_to_json(rand_hom(rng, 1, rng.randint(0, 2))), "graph": graph}
    chosen = rng.sample(edges(g), rng.randint(0, len(edges(g))))
    yield "contract", {"graph": graph, "edges": [list(e) for e in chosen]}
    if edges(g):
        yield "cut", {"graph": graph, "edge": list(rng.choice(edges(g)))}
    if len(tails(g)) >= 2:
        yield "glue", {"graph": graph, "tails": rng.sample(tails(g), 2)}
    if tails(g):
        yield "forget", {"graph": graph, "tail": rng.choice(tails(g))}
    outer = rand_isogeny(rng, inner.target)
    yield "compose", {"first": isogeny_to_json(inner), "second": isogeny_to_json(outer)}
    second = rand_marked_morphism(rng, source=first.target_graph)
    yield "compose", {"first": marked_to_json(first), "second": marked_to_json(second)}
    yield "pullback", {"xi": hom_to_json(xi), "phi": contraction_to_json(phi), "a": combinatorial_to_json(a)}
    case = seeded_pullback_case(rng)
    if case is not None:
        _, p, base_phi, b = case
        profile = {"name": p.name, "dim": p.dimension}
        profile.update(canonical=list(p.canonical.coeffs), ample=list(p.ample.coeffs))
        yield "cartesian", {"profile": profile, "phi": isogeny_to_json(base_phi), "b": combinatorial_to_json(b)}
    for verb in ("dim", "deg"):
        yield verb, {"profile": rng.choice(("P1", "P2")), "graph": graph}
    bounds = {"genus": rng.randint(0, 1), "tails": rng.randint(0, 3), "ample_bound": rng.randint(0, 1)}
    yield "boundary", {"profile": rng.choice(("point", "P1", "P2")), "max_vertices": rng.randint(1, 2), **bounds}


def test_random_documents_with_shuffled_keys_give_the_same_output(tmp_path, capsys):
    rng = random.Random(239)
    path = tmp_path / "doc.json"
    answered = set()
    for _ in range(10):
        for verb, doc in random_documents(rng):
            path.write_text(json.dumps(doc))
            code = main([verb, "--in", str(path)])
            out = capsys.readouterr().out
            for _ in range(3):
                path.write_text(json.dumps(shuffled(doc, rng)))
                assert main([verb, "--in", str(path)]) == code
                assert capsys.readouterr().out == out, (verb, doc)
            if code == 0:
                answered.add(verb)
    assert answered == set(VERBS)


def renamed(rng, g):
    """A copy of g with shuffled, spread-out ids, and the new id of each old
    flag and vertex."""
    r = rand_renaming(rng, g)
    return r.target, {old: new for new, old in r.flagmap.items()}, r.vertexmap


def carried(m, source, target, s_ids, t_ids):
    """m, a combinatorial morphism or a contraction, moved onto source and
    target: s_ids and t_ids are the (flag, vertex) renamings of its two ends,
    each from an old id to its new one."""
    (sf, sv), (tf, tv) = s_ids, t_ids
    vertexmap = {sv[v]: tv[w] for v, w in m.vertexmap.items()}
    if isinstance(m, Contraction):
        return Contraction(source, target, {tf[x]: sf[y] for x, y in m.flagmap.items()}, vertexmap)
    return CombinatorialMorphism(source, target, {sf[x]: tf[y] for x, y in m.flagmap.items()}, vertexmap, m.hom)


def inverse(ids):
    return tuple({new: old for old, new in d.items()} for d in ids)


def renamed_isogeny(e, source, fmap):
    """e's glues and steps, with every flag id sent through fmap, run from
    source.  Glues, forgets and contractions keep the ids of the flags they
    keep, so fmap also renames every graph the steps pass through."""
    steps = [
        ForgetStep(fmap[s.tail]) if isinstance(s, ForgetStep) else ContractStep((fmap[s.edge[0]], fmap[s.edge[1]]))
        for s in e.steps
    ]
    return extended_isogeny(source, [(fmap[x], fmap[y]) for x, y in e.glued], steps)


def vertex_renaming(e, e2, vmap):
    """The vertex map of the isomorphism e.target -> e2.target, where e2 runs
    e's glues and steps from a copy of e.source whose vertices vmap renames.
    Glues and forgets keep the ids of the vertices they keep, and a
    contraction sends each vertex to its fiber's id."""

    def trace(x):
        out = {v: v for v in x.source.vertices}
        for kind, res in x.step_results:
            if kind == "contract":
                out = {v: res.vertexmap[w] for v, w in out.items()}
            else:
                out = {v: w for v, w in out.items() if w in res.graph.genus}
        return out

    t2 = trace(e2)
    return {w: t2[vmap[v]] for v, w in trace(e).items()}


def test_outputs_do_not_depend_on_ids():
    # stabilize_with_trace gives isomorphic graphs, and stable_pullback gives
    # squares with equal keys once the maps out of pi are read back in the
    # original ids of rho and sigma
    rng = random.Random(233)
    for _ in range(60):
        g = rand_unstable_graph(rng, rank=1, max_flags=8)
        copy, _, _ = renamed(rng, g)
        assert canonical_key(stabilize_with_trace(copy)[0]) == canonical_key(stabilize_with_trace(g)[0])
    for _ in range(60):
        phi = rand_contraction(rng, num_edges=(1, 3), rank=2, max_flags=10, max_vertices=4)
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, phi.target, xi)
        sigma, *s_ids = renamed(rng, phi.source)
        tau, *t_ids = renamed(rng, phi.target)
        rho, *r_ids = renamed(rng, a.source)
        phi2 = carried(phi, sigma, tau, s_ids, t_ids)
        a2 = carried(a, rho, tau, r_ids, t_ids)
        pi, psi, b = stable_pullback(xi, phi, a)
        pi2, psi2, b2 = stable_pullback(xi, phi2, a2)
        psi_back = carried(psi2, pi2, a.source, same(pi2), inverse(r_ids))
        b_back = carried(b2, pi2, phi.source, same(pi2), inverse(s_ids))
        assert pullback_diagram_key(pi2, psi_back, b_back) == pullback_diagram_key(pi, psi, b)
    # pushforward gives isomorphic stable graphs
    for _ in range(60):
        stable = rand_graph(rng, rank=1, max_flags=8, max_vertices=3, stable=True)
        xi = rand_hom(rng, 1, rng.randint(0, 2))
        copy, _, _ = renamed(rng, stable)
        assert canonical_key(pushforward(xi, copy)[0]) == canonical_key(pushforward(xi, stable)[0])
    # an isogeny run from a renamed source, with its flag ids renamed to
    # match, and its composite with a renamed outer isogeny, reach isomorphic
    # targets through the same forget types
    for _ in range(50):
        g = rand_graph(rng, rank=1, max_flags=10, stable=True)
        inner = rand_isogeny(rng, g)
        outer = rand_isogeny(rng, inner.target)
        copy, gf, _ = renamed(rng, g)
        inner2 = renamed_isogeny(inner, copy, gf)
        outer2 = renamed_isogeny(outer, inner2.target, gf)
        for e, e2 in ((inner, inner2), (compose_extended(outer, inner), compose_extended(outer2, inner2))):
            assert canonical_key(e2.target) == canonical_key(e.target)
            assert e2.forget_kinds == e.forget_kinds
    # cartesian_pullback over a renamed phi, with b renamed at both ends,
    # gives as many members, isomorphic ones, of the same degrees
    lifted = 0
    for case in filter(None, (seeded_pullback_case(rng) for _ in range(200))):
        _, p, phi, b = case
        tau, tf, tv = renamed(rng, phi.source)
        phi2 = renamed_isogeny(phi, tau, tf)
        target, pf, pv = renamed(rng, b.target)
        b2 = carried(b, phi2.target, target, (tf, vertex_renaming(phi, phi2, tv)), (pf, pv))
        expected, got = outcome(cartesian_pullback, (p, phi, b)), outcome(cartesian_pullback, (p, phi2, b2))
        assert got[0] == expected[0]
        if expected[0] == "value":
            members, members2 = expected[1], got[1]
            assert len(members2) == len(members)
            assert sorted(canonical_key(m.graph) for m in members2) == sorted(canonical_key(m.graph) for m in members)
            assert sorted(deg_graph(p, m.graph) for m in members2) == sorted(deg_graph(p, m.graph) for m in members)
            lifted += len(members)
    assert lifted > 100
    # compose_marked of two morphisms renamed at all five of their graphs
    # gives a composite whose key, with its maps read back into the original
    # ids of its two ends, is the original composite's
    for _ in range(40):
        inner = rand_marked_morphism(rng, source_rank=2, target_rank=rng.randint(1, 2), max_flags=8)
        sigma = inner.target_graph
        outer = rand_marked_morphism(rng, source=sigma, source_rank=sigma.rank, target_rank=1, max_flags=8)
        (a, *a_ids), (m1, *m1_ids), (b, *b_ids), (m2, *m2_ids), (c, *c_ids) = (
            renamed(rng, g) for g in (inner.source_graph, inner.mid, sigma, outer.mid, outer.target_graph)
        )
        inner2 = MarkedMorphism(
            inner.hom, carried(inner.comb, m1, a, m1_ids, a_ids), m1, carried(inner.contr, m1, b, m1_ids, b_ids)
        )
        outer2 = MarkedMorphism(
            outer.hom, carried(outer.comb, m2, b, m2_ids, b_ids), m2, carried(outer.contr, m2, c, m2_ids, c_ids)
        )
        both, both2 = compose_marked(outer, inner), compose_marked(outer2, inner2)
        mid = both2.mid
        back = MarkedMorphism(
            both2.hom,
            carried(both2.comb, mid, inner.source_graph, same(mid), inverse(a_ids)),
            mid,
            carried(both2.contr, mid, outer.target_graph, same(mid), inverse(c_ids)),
        )
        assert marked_key(back) == marked_key(both)
    # pullback_object over a renamed phi and a renamed member gives members
    # with the same keys once the identifications are read back into the
    # base's original ids and the lifts' kept flags into the member's
    pulled = chains = 0
    for case in filter(None, (seeded_pullback_case(rng) for _ in range(200))):
        _, p, phi, b = case
        tau, *t_ids = renamed(rng, phi.source)
        phi2 = renamed_isogeny(phi, tau, t_ids[0])
        target, *p_ids = renamed(rng, b.target)
        b2 = carried(b, phi2.target, target, (t_ids[0], vertex_renaming(phi, phi2, t_ids[1])), p_ids)
        obj = CartesianObject(base=phi.target, family=((b, b.target),))
        obj2 = CartesianObject(base=phi2.target, family=((b2, target),))
        expected, got = outcome(pullback_object, (p, phi, obj)), outcome(pullback_object, (p, phi2, obj2))
        assert got[0] == expected[0]
        if expected[0] != "value":
            continue
        members, members2 = expected[1][0].family, got[1][0].family
        pulled += len(members)
        if spliced_into_chain(phi, b):
            # the new vertex goes next to the far end of the forgotten
            # vertex's edge half with the smaller flag id, so which edge of
            # the chain it splits depends on ids; only the graphs agree
            chains += 1
            assert sorted(canonical_key(g) for _, g in members2) == sorted(canonical_key(g) for _, g in members)
            continue
        keys = member_keys(*expected[1], same(phi.source), same(b.target)[0])
        assert sorted(member_keys(*got[1], inverse(t_ids), inverse(p_ids)[0])) == sorted(keys)
    assert pulled > 100 and chains >= 1
