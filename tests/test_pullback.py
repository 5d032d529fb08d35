import random
from collections import Counter
from dataclasses import replace
from itertools import permutations

import pytest

from stablegraphs.canonical import is_isomorphic
from stablegraphs.errors import ValidationError
from stablegraphs.graphs import MarkedGraph, edges, is_stable, marked_graph, relabel_classes
from stablegraphs.monoid import MonoidHom
from stablegraphs.morphisms import (
    compose_combinatorial,
    compose_contractions,
    CombinatorialMorphism,
    contract_edges,
    cut_edge,
    decompose_elementary,
    identity_contraction,
    validate_combinatorial,
    validate_contraction,
)
from stablegraphs.pullback import (
    MarkedMorphism,
    compose_marked,
    identity_marked,
    lift_combinatorial,
    lift_contraction,
    marked_key,
    pullback_diagram_key,
    stable_pullback,
    validate_marked,
)
from stablegraphs.serialize import marked_from_json

from strategies import (
    rand_contraction,
    rand_covering,
    rand_graph,
    rand_hom,
    rand_marked_morphism,
    rand_renaming,
)
from test_cli import golden_input


def identity_cover(g, rank=None):
    ident = MonoidHom.identity(g.rank if rank is None else rank)
    return CombinatorialMorphism(
        source=g, target=g, flagmap={f: f for f in g.flags}, vertexmap={v: v for v in g.vertices}, hom=ident
    )


def test_pullback_along_identity():
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    phi = contract_edges(g, ())
    a = identity_cover(g)
    pi, psi, b = stable_pullback(MonoidHom.identity(1), phi, a)
    assert pi == g
    assert psi.contracted_edges() == ()
    assert b.flagmap == a.flagmap


def test_pullback_case_ii_both_sides_stable():
    # contracting the bridge of two class-(1) vertices, pulled back along itself
    sigma = marked_graph(1, {0: (0, 1), 1: (0, 1)}, tails={0: 0, 1: 1}, edges=[((2, 0), (3, 1))])
    phi = contract_edges(sigma, [(2, 3)])
    tau = phi.target
    a = identity_cover(tau)
    pi, psi, b = stable_pullback(MonoidHom.identity(1), phi, a)
    assert is_isomorphic(pi, sigma)
    assert len(psi.contracted_edges()) == 1
    assert validate_combinatorial(b) == []


def test_pullback_case_ii_unstable_split_recontracts():
    # over N^2 both sides are stable; xi kills the second coordinate, so the
    # (0,1)-side of the split would become an unstable class-zero vertex and
    # the construction re-contracts, leaving rho unchanged
    sigma = marked_graph(
        2, {0: (0, (1, 0)), 1: (0, (0, 1))}, tails={0: 0, 1: 1}, edges=[((2, 0), (3, 1))]
    )
    phi = contract_edges(sigma, [(2, 3)])
    tau = phi.target
    xi = MonoidHom(((1, 0),), 2)  # (a, b) -> (a)
    rho = relabel_classes(tau, xi)
    assert is_stable(rho)
    a = CombinatorialMorphism(
        source=rho, target=tau, flagmap={f: f for f in tau.flags}, vertexmap={v: v for v in tau.vertices}, hom=xi
    )
    pi, psi, b = stable_pullback(xi, phi, a)
    assert pi == rho
    assert psi.contracted_edges() == ()
    assert validate_combinatorial(b) == []


def test_pullback_case_i_loop():
    sigma = marked_graph(1, {0: (1, 1)}, tails={4: 0}, edges=[((0, 0), (1, 0))])
    phi = contract_edges(sigma, [(0, 1)])
    tau = phi.target
    assert tau.genus[0] == 2
    a = identity_cover(tau)
    pi, psi, b = stable_pullback(MonoidHom.identity(1), phi, a)
    assert is_isomorphic(pi, sigma)
    assert pi.genus[0] == 1
    assert len(psi.contracted_edges()) == 1


def test_pullback_loop_requires_positive_genus():
    sigma = marked_graph(1, {0: (1, 1)}, edges=[((0, 0), (1, 0))])
    phi = contract_edges(sigma, [(0, 1)])
    tau = phi.target
    bad_rho = marked_graph(1, {0: (0, 2)}, tails={9: 0})
    a = CombinatorialMorphism(
        source=bad_rho, target=tau, flagmap={}, vertexmap={0: 0}, hom=MonoidHom.identity(1)
    )
    # the covering morphism itself is invalid: it is refused on its maps
    # (flag 9 has no image), before its class or genus is compared, so the
    # construction refuses before the loop case is even reached
    with pytest.raises(ValidationError):
        stable_pullback(MonoidHom.identity(1), phi, a)


def test_pullback_vertex_square_commutes():
    rng = random.Random(89)
    for _ in range(40):
        g = rand_graph(rng, rank=2, max_flags=10, stable=True, min_edges=1)
        if not edges(g):
            continue
        pool = list(edges(g))
        phi = contract_edges(g, rng.sample(pool, rng.randint(1, min(2, len(pool)))))
        tau = phi.target
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, tau, xi)
        pi, psi, b = stable_pullback(xi, phi, a)
        assert validate_contraction(psi) == []
        assert validate_combinatorial(b) == []
        assert is_stable(pi)
        for v in pi.vertices:
            assert a.vertexmap[psi.vertexmap[v]] == phi.vertexmap[b.vertexmap[v]]


def test_pullback_psi_over_long_chains_validates():
    # psi is built in one piece over 3 or 4 elementary steps; in many draws
    # some vertex of rho splits at least twice, so a fiber of psi has 3+ vertices
    rng = random.Random(113)
    split_twice = 0
    for _ in range(40):
        phi = rand_contraction(rng, num_edges=(3, 4), rank=2, max_flags=14, max_vertices=5)
        assert len(phi.contracted_edges()) >= 3
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, phi.target, xi)
        pi, psi, b = stable_pullback(xi, phi, a)
        assert validate_contraction(psi) == []
        assert validate_combinatorial(b) == []
        for v in pi.vertices:
            assert a.vertexmap[psi.vertexmap[v]] == phi.vertexmap[b.vertexmap[v]]
        split_twice += max(Counter(psi.vertexmap.values()).values()) >= 3
    assert split_twice >= 10


def test_every_pullback_square_validates():
    # stable_pullback keeps psi and b as passed: over 300 seeded squares,
    # across 0 to 4 contracted edges and homs into N^0 to N^2, psi and b pass
    # the public validators, and (xi, b, pi, psi) is a marked morphism
    rng = random.Random(167)
    seen = Counter()
    for _ in range(300):
        phi = rand_contraction(rng, num_edges=(0, 4), rank=2, max_flags=12, max_vertices=5)
        xi = rand_hom(rng, 2, rng.randint(0, 2))
        a = rand_covering(rng, phi.target, xi)
        pi, psi, b = stable_pullback(xi, phi, a)
        assert validate_contraction(psi) == [] and validate_combinatorial(b) == []
        assert validate_marked(MarkedMorphism(xi, b, pi, psi)) == []
        seen["split"] += len(pi.vertices) > len(a.source.vertices)
        seen["loop"] += len(pi.flags) - len(a.source.flags) > 2 * (len(pi.vertices) - len(a.source.vertices))
        seen["into N^0"] += xi.target_rank == 0
        seen["no edge"] += not phi.contracted_edges()
    assert min(seen.values()) > 30, seen


def test_pullback_builds_one_graph(constructed):
    # a chain of three vertices contracted to one, and two vertices of rho
    # over it: each splits at both steps, and pi is the only graph built;
    # the steps are read from phi's ids, so no factor graph is built
    sigma = marked_graph(
        1, {0: (0, 1), 1: (0, 0), 2: (0, 1)}, tails={0: 0, 1: 1, 2: 2}, edges=[((3, 0), (4, 1)), ((5, 1), (6, 2))]
    )
    phi = contract_edges(sigma, [(3, 4), (5, 6)])
    (v0,) = phi.target.vertices
    rho = marked_graph(1, {0: (0, 2), 1: (0, 2)}, tails={0: 0, 1: 0, 2: 1, 3: 1})
    a = CombinatorialMorphism(
        source=rho, target=phi.target, flagmap={0: 0, 1: 1, 2: 2, 3: 1}, vertexmap={0: v0, 1: v0},
        hom=MonoidHom.identity(1),
    )
    built = constructed(MarkedGraph)
    pi, psi, b = stable_pullback(MonoidHom.identity(1), phi, a)
    assert built == [pi] and built[0] is pi
    assert len(pi.vertices) == 6 and len(edges(pi)) == 4
    assert validate_contraction(psi) == [] and validate_combinatorial(b) == []
    rng = random.Random(127)
    for _ in range(60):
        phi = rand_contraction(rng, num_edges=(2, 3), rank=2, max_flags=12, max_vertices=5)
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, phi.target, xi)
        built.clear()
        pi, psi, b = stable_pullback(xi, phi, a)
        inserted = pi is not a.source
        assert built == ([pi] if inserted else [])
        assert not inserted or built[0] is pi


def _staged_pullback(xi, phi, a, order):
    # pull a back across one elementary factor at a time, last factor first
    psi = None
    for step in reversed(decompose_elementary(phi, order)):
        pi, step_psi, a = stable_pullback(xi, step, a)
        psi = step_psi if psi is None else compose_contractions(psi, step_psi)
    return pi, psi, a


def test_one_pass_equals_staged_pullback():
    # the one pass over phi's edges gives literally the square that pulling
    # back across each factor of decompose_elementary gives, dict order included
    rng = random.Random(163)
    cases = loops = 0
    for _ in range(80):
        phi = rand_contraction(rng, num_edges=(2, 4), rank=2, max_flags=12, max_vertices=5)
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, phi.target, xi)
        # phi contracts a loop at some step, in every order, exactly when it
        # contracts more edges than it merges vertices
        loops += len(phi.contracted_edges()) > len(phi.source.vertices) - len(phi.target.vertices)
        orders = list(permutations(phi.contracted_edges()))
        for order in rng.sample(orders, min(6, len(orders))):
            pi, psi, b = stable_pullback(xi, phi, a, edge_order=order)
            staged_pi, staged_psi, staged_b = _staged_pullback(xi, phi, a, order)
            # pi is not checked for stability where it is built
            assert is_stable(pi)
            assert pi == staged_pi and list(pi.boundary) == list(staged_pi.boundary)
            assert list(psi.flagmap.items()) == list(staged_psi.flagmap.items())
            assert list(psi.vertexmap.items()) == list(staged_psi.vertexmap.items())
            assert list(b.flagmap.items()) == list(staged_b.flagmap.items())
            assert list(b.vertexmap.items()) == list(staged_b.vertexmap.items())
            cases += 1
    assert cases > 300 and loops > 0


def test_pullback_refuses_a_cover_that_lowers_the_genus_over_a_loop():
    # rho's vertex has genus 0 over tau's genus-2 vertex, which a loop of
    # sigma's genus-1 vertex contracts onto: the covering morphism's genus
    # check refuses it, so no vertex over a contracted loop has genus 0
    sigma = marked_graph(1, {0: (1, 1)}, tails={4: 0}, edges=[((0, 0), (1, 0))])
    phi = contract_edges(sigma, [(0, 1)])
    rho = marked_graph(1, {0: (0, 1)}, tails={4: 0})
    ident = MonoidHom.identity(1)
    a = CombinatorialMorphism(source=rho, target=phi.target, flagmap={4: 4}, vertexmap={0: 0}, hom=ident)
    with pytest.raises(ValidationError) as err:
        stable_pullback(ident, phi, a)
    assert err.value.conditions == ("combinatorial-5-genus",)


def test_pullback_reads_a_missing_hom_as_the_identity():
    # a covering morphism with no hom covers exactly the identity of its rank
    sigma = marked_graph(1, {0: (0, 1), 1: (0, 1)}, tails={0: 0, 1: 1}, edges=[((2, 0), (3, 1))])
    phi = contract_edges(sigma, [(2, 3)])
    a = identity_cover(phi.target, rank=1)
    bare = CombinatorialMorphism(a.source, a.target, a.flagmap, a.vertexmap)
    assert stable_pullback(MonoidHom.identity(1), phi, bare) == stable_pullback(MonoidHom.identity(1), phi, a)
    for xi in (MonoidHom(((2,),), 1), MonoidHom(((1, 0),), 2), MonoidHom.identity(2)):
        with pytest.raises(ValidationError) as err:
            stable_pullback(xi, phi, bare)
        assert err.value.conditions == ("pullback-hom",)


def test_edge_order_must_permute_the_contracted_edges():
    sigma = marked_graph(
        1, {0: (0, 1), 1: (0, 0), 2: (0, 1)}, tails={0: 0, 1: 1, 2: 2}, edges=[((3, 0), (4, 1)), ((5, 1), (6, 2))]
    )
    phi = contract_edges(sigma, [(3, 4)])
    a = identity_cover(phi.target, rank=1)
    xi = MonoidHom.identity(1)
    # a repeated edge, a missing edge, and an edge phi does not contract
    for order in ([(3, 4), (3, 4)], [], [(3, 4), (5, 6)], [(5, 6)]):
        for call in (lambda: decompose_elementary(phi, order), lambda: stable_pullback(xi, phi, a, edge_order=order)):
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.conditions == ("contraction-order",)
    # an edge may be given from either end
    assert decompose_elementary(phi, [(4, 3)]) == decompose_elementary(phi)
    assert stable_pullback(xi, phi, a, edge_order=[(4, 3)]) == stable_pullback(xi, phi, a)


def test_pullback_along_isomorphisms_validates():
    # with no edge to contract, b is a followed by phi's inverse; phi here
    # renames every flag and vertex
    rng = random.Random(91)
    for _ in range(40):
        phi = rand_renaming(rng, rand_graph(rng, rank=2, max_flags=10, stable=True))
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, phi.target, xi)
        pi, psi, b = stable_pullback(xi, phi, a)
        assert pi == a.source
        assert validate_contraction(psi) == []
        assert validate_combinatorial(b) == []


def _find_commuting_iso(pi1, psi1, b1, pi2, psi2, b2):
    """Brute-force isomorphism pi1 -> pi2 commuting with both squares' maps."""
    if len(pi1.flags) != len(pi2.flags) or len(pi1.vertices) != len(pi2.vertices):
        return None
    pre1 = {mid: rho for rho, mid in psi1.flagmap.items()}
    pre2 = {mid: rho for rho, mid in psi2.flagmap.items()}

    def vdec(pi, psi, b, v):
        return (pi.genus[v], pi.classes[v], b.vertexmap[v], psi.vertexmap[v])

    def fdec(pi, psi, b, pre, f):
        return (b.flagmap[f], pre.get(f))

    v1s = list(pi1.vertices)
    for perm in permutations(pi2.vertices):
        vmap = dict(zip(v1s, perm))
        if any(vdec(pi1, psi1, b1, v) != vdec(pi2, psi2, b2, vmap[v]) for v in v1s):
            continue

        def extend(idx, fmap):
            if idx == len(v1s):
                if all(fmap[pi1.involution[f]] == pi2.involution[fmap[f]] for f in fmap):
                    return dict(fmap)
                return None
            v = v1s[idx]
            sflags = pi1.flags_at(v)
            tflags = pi2.flags_at(vmap[v])
            for pick in permutations(tflags):
                trial = dict(fmap)
                trial.update(zip(sflags, pick))
                if any(
                    fdec(pi1, psi1, b1, pre1, f) != fdec(pi2, psi2, b2, pre2, trial[f])
                    for f in sflags
                ):
                    continue
                found = extend(idx + 1, trial)
                if found is not None:
                    return found
            return None

        found = extend(0, {})
        if found is not None:
            return vmap, found
    return None


def test_equal_diagram_keys_certified_by_explicit_iso():
    rng = random.Random(93)
    done = 0
    while done < 10:
        g = rand_graph(rng, rank=2, max_flags=10, stable=True, min_edges=2, max_vertices=4)
        pool = list(edges(g))
        if len(pool) < 2:
            continue
        chosen = rng.sample(pool, 2)
        phi = contract_edges(g, chosen)
        xi = rand_hom(rng, 2, 1)
        a = rand_covering(rng, phi.target, xi, extra_ops=0)
        outputs = []
        for order in permutations(phi.contracted_edges()):
            outputs.append(stable_pullback(xi, phi, a, edge_order=order))
        (pi1, psi1, b1), (pi2, psi2, b2) = outputs[0], outputs[1]
        assert pullback_diagram_key(pi1, psi1, b1) == pullback_diagram_key(pi2, psi2, b2)
        assert _find_commuting_iso(pi1, psi1, b1, pi2, psi2, b2) is not None
        done += 1


def test_pullback_partition_square_commutes():
    # on flag-partition classes, mapping a cover flag into the pullback and
    # then down agrees with mapping it down and then into the contraction
    rng = random.Random(157)
    from stablegraphs.graphs import flag_partition

    done = 0
    while done < 25:
        g = rand_graph(rng, rank=2, max_flags=11, stable=True, min_edges=1, max_vertices=4)
        pool = list(edges(g))
        if not pool:
            continue
        phi = contract_edges(g, rng.sample(pool, rng.randint(1, min(2, len(pool)))))
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, phi.target, xi, extra_ops=1)
        pi, psi, b = stable_pullback(xi, phi, a)
        part_sigma = flag_partition(relabel_classes(phi.source, xi))
        for x in a.source.flags:
            via_pullback = b.flagmap[psi.flagmap[x]]
            via_base = phi.flagmap[a.flagmap[x]]
            assert part_sigma.same_block(via_pullback, via_base)
        done += 1


def test_vertical_pasting():
    # pulling back along a composite contraction equals pulling back in stages
    rng = random.Random(109)
    done = 0
    while done < 20:
        g = rand_graph(rng, rank=2, max_flags=12, stable=True, min_edges=2, max_vertices=5)
        pool = list(edges(g))
        if len(pool) < 2:
            continue
        first, second = rng.sample(pool, 2)
        inner = contract_edges(g, [first])  # sigma' -> sigma
        outer = contract_edges(inner.target, [second])
        composite = compose_contractions(outer, inner)
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, outer.target, xi, extra_ops=1)
        pi, psi, b = stable_pullback(xi, outer, a)
        pi2, psi2, b2 = stable_pullback(xi, inner, b)
        direct_pi, direct_psi, direct_b = stable_pullback(xi, composite, a)
        staged_psi = compose_contractions(psi, psi2)
        assert pullback_diagram_key(direct_pi, direct_psi, direct_b) == pullback_diagram_key(
            pi2, staged_psi, b2
        )
        done += 1


def test_horizontal_pasting():
    # pulling a twice-covered graph back along one contraction equals pulling
    # back each cover in turn; the homs compose
    rng = random.Random(111)
    done = 0
    while done < 20:
        g = rand_graph(rng, rank=2, max_flags=10, stable=True, min_edges=1, max_vertices=4)
        pool = list(edges(g))
        if not pool:
            continue
        phi = contract_edges(g, rng.sample(pool, rng.randint(1, min(2, len(pool)))))
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = rand_covering(rng, phi.target, xi, extra_ops=0)
        pi, psi, b = stable_pullback(xi, phi, a)
        eta = rand_hom(rng, a.source.rank, rng.randint(1, 2))
        a2 = rand_covering(rng, a.source, eta, extra_ops=0)
        pi2, chi, b2 = stable_pullback(eta, psi, a2)
        direct_pi, direct_psi, direct_b = stable_pullback(
            eta.compose(xi), phi, compose_combinatorial(a, a2)
        )
        staged_b = compose_combinatorial(b, b2)
        assert pullback_diagram_key(direct_pi, direct_psi, direct_b) == pullback_diagram_key(
            pi2, chi, staged_b
        )
        done += 1


# -- the category ------------------------------------------------------------


def test_identity_morphism_validates():
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    m = identity_marked(g)
    assert validate_marked(m) == []


def test_compose_with_identity():
    rng = random.Random(101)
    for _ in range(15):
        m = rand_marked_morphism(rng, max_flags=8)
        left = compose_marked(identity_marked(m.target_graph), m)
        right = compose_marked(m, identity_marked(m.source_graph))
        assert marked_key(left) == marked_key(m)
        assert marked_key(right) == marked_key(m)


def test_compose_endpoint_mismatch():
    rng = random.Random(103)
    m1 = rand_marked_morphism(rng, max_flags=8)
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0, 1: 0, 2: 0, 3: 0})
    m2 = identity_marked(g)
    if m1.target_graph != g:
        with pytest.raises(ValidationError):
            compose_marked(m2, m1)


@pytest.mark.parametrize(
    "edit, condition",
    [
        (lambda doc: doc["first"]["xi"].update(rows=[[2]]), "marked-hom"),
        (lambda doc: doc["second"]["xi"].update(rows=[[2]]), "marked-hom"),
        (lambda doc: doc["first"].update(mid=doc["second"]["mid"]), "marked-middle"),
    ],
    ids=["first-hom", "second-hom", "first-mid"],
)
def test_compose_marked_refuses_the_golden_pair_with_a_broken_relation(edit, condition):
    # the golden compose_marked pair with one input's hom or middle graph
    # replaced: the composite would be invalid, so the call refuses it
    doc = golden_input("compose_marked")
    edit(doc)
    outer, inner = marked_from_json(doc["second"]), marked_from_json(doc["first"])
    with pytest.raises(ValidationError) as err:
        compose_marked(outer, inner)
    assert err.value.conditions == (condition,)


def test_compose_marked_refuses_random_inputs_with_a_broken_relation():
    # seeded composable pairs, one input given another hom or another middle
    # graph: the call raises exactly what validate_marked gives for that input
    rng = random.Random(113)
    seen = Counter()
    while sum(seen.values()) < 60:
        inner = rand_marked_morphism(rng, max_flags=8)
        outer = rand_marked_morphism(rng, source=inner.target_graph, target_rank=rng.randint(1, 2), max_flags=8)
        side = rng.choice(["inner", "outer"])
        m, other = (inner, outer) if side == "inner" else (outer, inner)
        if rng.random() < 0.5:
            bad = replace(m, hom=MonoidHom(tuple(tuple(x + 1 for x in row) for row in m.hom.rows), m.hom.source_rank))
            condition = "marked-hom"
        else:
            mids = [g for g in (other.mid, m.comb.target, m.contr.target) if g != m.mid]
            if not mids:
                continue
            bad = replace(m, mid=mids[0])
            condition = "marked-middle"
        expected = tuple(v.condition for v in validate_marked(bad))
        assert condition in expected
        with pytest.raises(ValidationError) as err:
            compose_marked(*((outer, bad) if side == "inner" else (bad, inner)))
        assert err.value.conditions == expected
        seen[side, condition] += 1
    assert len(seen) == 4 and min(seen.values()) >= 8


def test_lift_contraction():
    sigma = marked_graph(1, {0: (0, 1), 1: (0, 1)}, tails={0: 0, 1: 1}, edges=[((2, 0), (3, 1))])
    phi = contract_edges(sigma, [(2, 3)])
    m = lift_contraction(phi)
    assert validate_marked(m) == []
    assert m.source_graph == sigma and m.target_graph == phi.target


def test_lift_cut_edge_reverses_direction():
    g = marked_graph(1, {0: (0, 1), 1: (0, 1)}, tails={0: 0, 1: 1}, edges=[((2, 0), (3, 1))])
    cut, a = cut_edge(g, (2, 3))
    m = lift_combinatorial(a)
    assert validate_marked(m) == []
    # the morphism runs from the glued graph's object to the cut graph's object
    assert m.source_graph == g and m.target_graph == cut


def test_lifted_identity_composes():
    g = marked_graph(1, {0: (1, 1)}, tails={0: 0})
    phi = contract_edges(g, ())
    m = lift_contraction(phi)
    composed = compose_marked(m, identity_marked(g))
    assert marked_key(composed) == marked_key(m)


def test_contraction_then_cut_composite():
    # refine the 4-tail boundary graph by one extra edge, lift the refining
    # contraction, then cut the boundary edge of its target; the composite's
    # middle graph must be the stable pullback of the cut across the
    # contraction
    refined = marked_graph(
        1,
        {0: (0, 1), 1: (0, 1), 2: (0, 1)},
        tails={0: 0, 1: 0, 4: 1, 5: 2},
        edges=[((2, 0), (3, 1)), ((6, 1), (7, 2))],
    )
    phi = contract_edges(refined, [(6, 7)])
    boundary_graph = phi.target  # two vertices, one edge, four tails
    m_contract = lift_contraction(phi)
    cut, a = cut_edge(boundary_graph, (2, 3))
    m_cut = lift_combinatorial(a)
    composite = compose_marked(m_cut, m_contract)
    assert composite.source_graph == refined
    assert composite.target_graph == cut
    pi, psi, b = stable_pullback(m_cut.hom, phi, m_cut.comb)
    assert is_isomorphic(composite.mid, pi)
    # the pullback cuts the corresponding edge upstairs and keeps the rest
    assert len(edges(pi)) == len(edges(refined)) - 1


def test_marked_key_separates_different_morphisms():
    # contracting distinguishable edges gives distinguishable morphisms
    g = marked_graph(
        1,
        {0: (0, 1), 1: (1, 0), 2: (2, 0)},
        edges=[((0, 0), (1, 1)), ((2, 1), (3, 2))],
    )
    m1 = lift_contraction(contract_edges(g, [(0, 1)]))
    m2 = lift_contraction(contract_edges(g, [(2, 3)]))
    assert marked_key(m1) != marked_key(m2)
    assert marked_key(m1) == marked_key(lift_contraction(contract_edges(g, [(0, 1)])))


# -- a passed check is kept on the morphism ---------------------------------


def _bridge_contraction():
    # two class-1 vertices joined by a bridge, contracted onto one stable vertex 0
    sigma = marked_graph(1, {0: (0, 1), 1: (0, 1)}, tails={0: 0, 1: 1}, edges=[((2, 0), (3, 1))])
    return contract_edges(sigma, [(2, 3)])


def _fresh(m):
    # the same marked morphism, with parts that no call has checked yet
    return replace(m, comb=replace(m.comb), contr=replace(m.contr))


def test_pullback_in_every_order_checks_phi_and_a_once(calls):
    validated = calls(validate_contraction, validate_combinatorial)
    rng = random.Random(131)
    for _ in range(20):
        phi = rand_contraction(rng, num_edges=(2, 3), rank=2, max_flags=12, max_vertices=5)
        xi = rand_hom(rng, 2, rng.randint(1, 2))
        a = replace(rand_covering(rng, phi.target, xi))
        validated.clear()
        for order in permutations(phi.contracted_edges()):
            stable_pullback(xi, phi, a, edge_order=order)
        assert len(validated) == 2 and validated[0] is phi and validated[1] is a


def test_both_bracketings_check_each_input_once_and_no_composite(calls):
    # compose_marked checks the inner contraction and the outer covering in
    # the pullback, and the inner covering and the outer contraction as it
    # composes them; the pullback square and the composite parts are valid
    # by construction and kept as passed, so each input part is checked
    # once and no composite part at all
    validated = calls(validate_contraction, validate_combinatorial)
    rng = random.Random(137)
    for _ in range(10):
        m1 = _fresh(rand_marked_morphism(rng, source_rank=2, target_rank=rng.randint(1, 2), max_flags=8))
        m2 = _fresh(rand_marked_morphism(rng, source=m1.target_graph, source_rank=m1.target_graph.rank,
                                         target_rank=rng.randint(1, 2), max_flags=8))
        m3 = _fresh(rand_marked_morphism(rng, source=m2.target_graph, source_rank=m2.target_graph.rank,
                                         target_rank=rng.randint(1, 2), max_flags=8))
        validated.clear()
        inner_left, inner_right = compose_marked(m2, m1), compose_marked(m3, m2)
        left, right = compose_marked(m3, inner_left), compose_marked(inner_right, m1)
        expected = [part for m in (m1, m2, m3) for part in (m.comb, m.contr)]
        assert sorted(map(id, validated)) == sorted(map(id, expected))
        assert marked_key(left) == marked_key(right)


@pytest.mark.parametrize(
    "call, condition",
    [
        (lambda phi, a: decompose_elementary(phi), "contraction-genus"),
        (lambda phi, a: stable_pullback(MonoidHom.identity(1), phi, identity_cover(phi.target)), "contraction-genus"),
        (lambda phi, a: lift_contraction(phi), "contraction-genus"),
        (lambda phi, a: stable_pullback(MonoidHom.identity(1), _bridge_contraction(), a), "combinatorial-2-injective"),
        (lambda phi, a: lift_combinatorial(a), "combinatorial-2-injective"),
        # each input of a composition invalid alone
        (lambda phi, a: compose_contractions(phi, identity_contraction(phi.source)), "contraction-genus"),
        (lambda phi, a: compose_contractions(identity_contraction(phi.target), phi), "contraction-genus"),
        (lambda phi, a: compose_combinatorial(a, identity_cover(a.source)), "combinatorial-2-injective"),
        (lambda phi, a: compose_combinatorial(identity_cover(a.target), a), "combinatorial-2-injective"),
        # compose_marked with the outer contraction or the inner covering invalid alone
        (lambda phi, a: compose_marked(
            MarkedMorphism(MonoidHom.identity(1), identity_cover(phi.source), phi.source, phi),
            identity_marked(phi.source)), "contraction-genus"),
        (lambda phi, a: compose_marked(
            identity_marked(a.target),
            MarkedMorphism(MonoidHom.identity(1), a, a.source, identity_contraction(a.source))),
         "combinatorial-2-injective"),
    ],
    ids=[
        "decompose", "pullback-phi", "lift-contraction", "pullback-a", "lift-combinatorial",
        "compose-contractions-outer", "compose-contractions-inner",
        "compose-combinatorial-outer", "compose-combinatorial-inner",
        "compose-marked-outer-contr", "compose-marked-inner-comb",
    ],
)
def test_invalid_morphisms_are_refused_on_every_call(call, condition):
    # a failed check is not kept: the same instance is refused again
    phi = _bridge_contraction()
    bad_phi = replace(phi, target=marked_graph(1, {0: (1, 2)}, tails={0: 0, 1: 0}))
    bad_a = replace(identity_cover(phi.target), flagmap={0: 0, 1: 0})
    for _ in range(2):
        with pytest.raises(ValidationError) as err:
            call(bad_phi, bad_a)
        assert err.value.conditions == (condition,)


def test_public_validators_check_a_passed_morphism_in_full():
    # breaking a passed instance's maps in place, which no code may do,
    # shows in the validators and in validate_marked at once
    phi = _bridge_contraction()
    a = identity_cover(phi.target)
    stable_pullback(MonoidHom.identity(1), phi, a)
    m = lift_contraction(phi)
    assert m.contr is phi
    phi.flagmap[1] = phi.flagmap[0]
    a.flagmap[1] = a.flagmap[0]
    assert "contraction-1-injective" in [v.condition for v in validate_contraction(phi)]
    assert "contraction-1-injective" in [v.condition for v in validate_marked(m)]
    assert [v.condition for v in validate_combinatorial(a)] == ["combinatorial-2-injective"]


def test_the_kept_pass_is_not_part_of_the_morphism(calls):
    # ==, repr and replace see only the fields: a replaced morphism starts
    # unchecked, so a broken replacement of a passed one is refused
    validated = calls(validate_contraction, validate_combinatorial)
    xi, phi = MonoidHom.identity(1), _bridge_contraction()
    a = identity_cover(phi.target)
    twins = (replace(phi), replace(a))
    stable_pullback(xi, phi, a)
    assert (phi, a) == twins and repr((phi, a)) == repr(twins)
    copies = (replace(phi), replace(a))
    validated.clear()
    stable_pullback(xi, *copies)
    assert len(validated) == 2 and validated[0] is copies[0] and validated[1] is copies[1]
    with pytest.raises(ValidationError) as err:
        stable_pullback(xi, phi, replace(a, vertexmap={0: 5}))
    assert err.value.conditions == ("combinatorial-maps-total",)
    with pytest.raises(ValidationError) as err:
        stable_pullback(xi, replace(phi, flagmap={0: 0, 1: 0}), a)
    assert "contraction-1-injective" in err.value.conditions
