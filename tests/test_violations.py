"""Every Violation id the package raises, raised by name.

Each row of ``CASES`` is ``(id, call)``: calling ``call`` must raise a
``ValidationError`` naming ``id``.  The table reaches the raise sites that
the rest of the suite leaves idle, and names each id no other test names.

``test_every_violation_id_is_named_in_a_test`` reads every ``Violation("...")``
id in ``src/`` and requires each to appear in some ``tests/test_*.py``.
"""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

from stablegraphs.cartesian import (
    CartesianMorphism,
    CartesianObject,
    ElementaryCartesianMorphism,
    cartesian_pullback,
    enumerate_stable_graphs,
    oplus,
    pullback_object,
    validate_cartesian_morphism,
    validate_cartesian_object,
    validate_elementary_cartesian,
)
from stablegraphs.errors import ValidationError, ensure_valid
from stablegraphs.graphs import MarkedGraph, marked_graph, modular_graph
from stablegraphs.isogeny import (
    ContractStep,
    compose_extended,
    elementary_contraction_isogeny,
    elementary_forget_isogeny,
    extended_isogeny,
    identity_extended,
    stably_forget_tail,
    validate_extended,
)
from stablegraphs.monoid import LinearForm, MonoidHom
from stablegraphs.morphisms import (
    CombinatorialMorphism,
    Contraction,
    compose_combinatorial,
    compose_contractions,
    contract_edges,
    cut_edge,
    forget_tail,
    glue_tails,
    identity_combinatorial,
    identity_contraction,
    inclusion,
    validate_combinatorial,
    validate_contraction,
)
from stablegraphs.profiles import BUILTIN_PROFILES, POINT, VarietyProfile
from stablegraphs.pullback import (
    MarkedMorphism,
    compose_marked,
    identity_marked,
    lift_combinatorial,
    lift_contraction,
    stable_pullback,
    validate_marked,
)
from stablegraphs.stabilize import pushforward

from test_cartesian import identification

P1, P2 = BUILTIN_PROFILES["P1"], BUILTIN_PROFILES["P2"]
SRC = Path(__file__).resolve().parent.parent / "src"

TRIPOD = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})
CURVE = modular_graph({0: 1}, tails={0: 0})  # stable, and not TRIPOD
LONE_TAIL = modular_graph({0: 0}, tails={0: 0})  # unstable
TWO_TAILS = modular_graph({0: 0}, tails={0: 0, 1: 0})  # unstable
FOUR_TAILS = modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0, 3: 0})
# a stable rank-1 graph with an edge; and a rank-1 graph whose vertex 5 is unstable
BRIDGE_P1 = marked_graph(1, {0: (0, 1), 1: (0, 1)}, tails={0: 0, 1: 1}, edges=[((2, 0), (3, 1))])
DANGLING_P1 = marked_graph(1, {0: (0, 0), 5: (0, 0)}, tails={0: 0, 1: 0, 2: 0, 3: 0}, edges=[((10, 0), (11, 5))])
# unstable: a genus-0 vertex with one tail hangs on the edge; contracting
# the edge gives a tripod
PENDANT = modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 4: 1}, edges=[((2, 0), (3, 1))])


def _check(violations):
    """Raise what a validator returns, as the package's callers do."""
    ensure_valid(violations)


def _member(base, genus, cls, tails):
    graph = marked_graph(1, {0: (genus, cls)}, tails={t: 0 for t in tails})
    return identification(base, graph), graph


# A bridge contracted onto a 4-tail vertex of class 2 (SIGMA), and the
# elementary morphism from the pullback of the object over SIGMA: its
# source family has 3 members, one per split of the class
BRIDGE = modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 2: 1, 3: 1}, edges=[((4, 0), (5, 1))])
PHI = elementary_contraction_isogeny(BRIDGE, (4, 5))
SIGMA = PHI.target
B, _ = _member(SIGMA, 0, 2, range(4))
_, SPLIT = pullback_object(P2, PHI, CartesianObject(SIGMA, ((B, B.target),)))


def _split_of_two_contracted_edges():
    """A one-member family over SIGMA whose member splits the class 2 as
    (0, 1), and whose lift contracts both of the member's edges: its
    degree is not SIGMA's, and its split neither sums to 2 nor covers the
    three splits that do."""
    member = marked_graph(
        1, {0: (0, 0), 1: (0, 1), 2: (0, 1)}, tails={0: 0, 1: 2, 2: 1, 3: 1}, edges=[((4, 0), (5, 1)), ((6, 0), (7, 2))]
    )
    a = CombinatorialMorphism(
        BRIDGE, member, {0: 0, 1: 6, 2: 2, 3: 3, 4: 4, 5: 5}, {0: 0, 1: 1}, MonoidHom.to_trivial(member.rank)
    )
    lift = extended_isogeny(member, (), (ContractStep((6, 7)), ContractStep((4, 5))))
    source = CartesianObject(BRIDGE, ((a, member),))
    return ElementaryCartesianMorphism(source, SPLIT.target, PHI, (0,), (lift,))


def _forget_fiber_of_two():
    """A type I forget whose one target member has two source members."""
    phi = elementary_forget_isogeny(FOUR_TAILS, 3)
    target = CartesianObject(phi.target, (_member(phi.target, 0, 1, range(3)),))
    source, m = pullback_object(P1, phi, target)
    doubled = CartesianObject(source.base, source.family * 2)
    return replace(m, source=doubled, index_map=(0, 0), lifts=m.lifts * 2)


def _lift_non_identity_hom():
    tau = marked_graph(1, {0: (0, 1)}, tails={0: 0, 1: 0, 2: 0})
    rho = marked_graph(1, {0: (0, 2)}, tails={0: 0, 1: 0, 2: 0})
    return lift_combinatorial(replace(inclusion(rho, tau), hom=MonoidHom(((2,),), 1)))


CASES = [
    # cartesian objects and morphisms
    # the base isogeny's wrong source, then its wrong target alone
    ("cartesian-base-endpoints", lambda: _check(
        validate_elementary_cartesian(P2, replace(SPLIT, base_isogeny=identity_extended(SIGMA))))),
    ("cartesian-base-endpoints", lambda: _check(
        validate_elementary_cartesian(P2, replace(SPLIT, base_isogeny=identity_extended(BRIDGE))))),
    # phi is checked before b, so b need not fit it
    ("cartesian-base-rank", lambda: cartesian_pullback(P1, elementary_contraction_isogeny(BRIDGE_P1, (2, 3)), B)),
    ("cartesian-base-rank", lambda: _check(validate_cartesian_object(P1, CartesianObject(BRIDGE_P1, ())))),
    ("cartesian-base-unstable", lambda: _check(validate_cartesian_object(P1, CartesianObject(LONE_TAIL, ())))),
    ("cartesian-chain", lambda: _check(validate_cartesian_morphism(P2, CartesianMorphism((SPLIT, SPLIT))))),
    ("cartesian-empty", lambda: _check(validate_cartesian_morphism(P2, CartesianMorphism(())))),
    ("cartesian-endpoints", lambda: cartesian_pullback(P1, PHI, _member(TRIPOD, 0, 1, range(3))[0])),
    ("cartesian-endpoints", lambda: pullback_object(P2, PHI, CartesianObject(TRIPOD, ()))),
    ("cartesian-family-shape", lambda: _check(validate_elementary_cartesian(P2, replace(SPLIT, index_map=(0, 0))))),
    ("cartesian-family-shape", lambda: _check(validate_elementary_cartesian(P2, replace(SPLIT, index_map=(0, 0, 1))))),
    ("cartesian-family-shape", lambda: _check(validate_elementary_cartesian(P1, _forget_fiber_of_two()))),
    # an index map of the right length with one lift too few
    ("cartesian-family-shape", lambda: _check(validate_elementary_cartesian(P2, replace(SPLIT, lifts=SPLIT.lifts[:-1])))),
    ("cartesian-member-degree", lambda: _check(validate_elementary_cartesian(P2, _split_of_two_contracted_edges()))),
    # an identification into another member, then one from another base
    ("cartesian-member-endpoints", lambda: _check(validate_cartesian_object(
        P1, CartesianObject(TRIPOD, ((_member(TRIPOD, 0, 1, range(3))[0], _member(TRIPOD, 0, 2, range(3))[1]),))))),
    ("cartesian-member-endpoints", lambda: _check(
        validate_cartesian_object(P1, CartesianObject(TRIPOD, (_member(CURVE, 0, 1, range(1)),))))),
    # lifts from other members, then lifts from the right members to themselves
    ("cartesian-member-lift", lambda: _check(
        validate_elementary_cartesian(P2, replace(SPLIT, lifts=SPLIT.lifts[::-1])))),
    ("cartesian-member-lift", lambda: _check(validate_elementary_cartesian(
        P2, replace(SPLIT, lifts=tuple(identity_extended(lift.source) for lift in SPLIT.lifts))))),
    ("cartesian-member-stabilization", lambda: _check(validate_cartesian_object(
        P1, CartesianObject(CURVE, (_member(CURVE, 0, 1, range(1)),))))),
    ("cartesian-member-unstable", lambda: _check(validate_cartesian_object(
        P1, CartesianObject(FOUR_TAILS, ((identification(FOUR_TAILS, DANGLING_P1), DANGLING_P1),))))),
    ("cartesian-not-elementary", lambda: _check(validate_elementary_cartesian(
        P1, ElementaryCartesianMorphism(CartesianObject(TRIPOD, ()), CartesianObject(TRIPOD, ()),
                                        identity_extended(TRIPOD), (), ())))),
    ("cartesian-profile-rank", lambda: _check(
        validate_cartesian_object(P1, CartesianObject(TRIPOD, ((identification(TRIPOD, TRIPOD), TRIPOD),))))),
    ("cartesian-profile-rank", lambda: cartesian_pullback(POINT, PHI, B)),
    ("cartesian-target-unstable", lambda: cartesian_pullback(P1, PHI, identification(SIGMA, DANGLING_P1))),
    ("cartesian-wrong-splits", lambda: _check(validate_elementary_cartesian(P2, _split_of_two_contracted_edges()))),
    # one row per clause of the bounds check, each the only bound out of range
    ("enumerate-bounds", lambda: enumerate_stable_graphs(POINT, -1, 0, 0, 1)),
    ("enumerate-bounds", lambda: enumerate_stable_graphs(POINT, 0, -1, 0, 1)),
    ("enumerate-bounds", lambda: enumerate_stable_graphs(POINT, 0, 3, -1, 1)),
    ("enumerate-bounds", lambda: enumerate_stable_graphs(POINT, 0, 3, 0, 0)),
    ("oplus-base", lambda: oplus(CartesianObject(TRIPOD, ()), CartesianObject(CURVE, ()))),
    # contractions and combinatorial morphisms
    ("combinatorial-compose-endpoints", lambda: compose_combinatorial(
        identity_combinatorial(TRIPOD), identity_combinatorial(CURVE))),
    # ends that do not meet are refused before the inputs are checked, here an invalid inner one
    ("combinatorial-compose-endpoints", lambda: compose_combinatorial(
        identity_combinatorial(TRIPOD), replace(identity_combinatorial(CURVE), flagmap={0: 9}))),
    # every flag of the source is mapped, one of them outside the target
    ("combinatorial-maps-total", lambda: _check(
        validate_combinatorial(replace(identity_combinatorial(TRIPOD), flagmap={0: 0, 1: 1, 2: 9})))),
    # the hom's target rank is the source's, its source rank is not the target's
    ("combinatorial-rank", lambda: _check(
        validate_combinatorial(replace(identity_combinatorial(TRIPOD), hom=MonoidHom.to_trivial(1))))),
    ("contraction-1-injective", lambda: _check(
        validate_contraction(Contraction(TRIPOD, FOUR_TAILS, {0: 0, 1: 1, 2: 2, 3: 2}, {0: 0})))),
    ("contraction-1-surjective", lambda: _check(validate_contraction(
        Contraction(TRIPOD, modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 2: 0}), {0: 0, 1: 1, 2: 2}, {0: 0})))),
    ("contraction-2-boundary", lambda: _check(validate_contraction(Contraction(
        modular_graph({0: 0, 1: 1}, tails={0: 0, 1: 0, 2: 0, 3: 1}),
        modular_graph({0: 0, 1: 1}, tails={0: 0, 1: 0, 2: 0, 3: 1}),
        {0: 0, 1: 1, 2: 2, 3: 3}, {0: 1, 1: 0})))),
    ("contraction-3-involution", lambda: _check(validate_contraction(Contraction(
        modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 2: 1, 3: 1}, edges=[((4, 0), (5, 1))]),
        modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1}),
        {f: f for f in range(6)}, {0: 0, 1: 1})))),
    ("contraction-4-tails", lambda: _check(
        validate_contraction(Contraction(FOUR_TAILS, TRIPOD, {0: 0, 1: 1, 2: 2}, {0: 0})))),
    ("contraction-5-fibers", lambda: _check(validate_contraction(Contraction(
        modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 2: 1, 3: 1}), FOUR_TAILS,
        {f: f for f in range(4)}, {0: 0, 1: 0})))),
    ("contraction-compose-endpoints", lambda: compose_contractions(
        identity_contraction(TRIPOD), identity_contraction(CURVE))),
    # ends that do not meet are refused before the inputs are checked, here an invalid inner one
    ("contraction-compose-endpoints", lambda: compose_contractions(
        identity_contraction(CURVE), Contraction(FOUR_TAILS, TRIPOD, {0: 0, 1: 1, 2: 2}, {0: 0}))),
    ("contraction-edge-unknown", lambda: contract_edges(TRIPOD, [(0, 1)])),
    # one row per clause: flag map keys, flag images, vertex map keys, vertex images
    ("contraction-maps-total", lambda: _check(validate_contraction(Contraction(TRIPOD, TRIPOD, {}, {0: 0})))),
    ("contraction-maps-total", lambda: _check(
        validate_contraction(Contraction(TRIPOD, TRIPOD, {0: 0, 1: 1, 2: 9}, {0: 0})))),
    ("contraction-maps-total", lambda: _check(validate_contraction(Contraction(TRIPOD, TRIPOD, {0: 0, 1: 1, 2: 2}, {})))),
    ("contraction-maps-total", lambda: _check(
        validate_contraction(Contraction(TRIPOD, TRIPOD, {0: 0, 1: 1, 2: 2}, {0: 9})))),
    ("contraction-rank", lambda: _check(validate_contraction(Contraction(
        TRIPOD, marked_graph(1, {0: (0, 0)}, tails={0: 0, 1: 0, 2: 0}), {0: 0, 1: 1, 2: 2}, {0: 0})))),
    # two tails, then a tail given as both halves
    ("cut-not-edge", lambda: cut_edge(TRIPOD, (0, 1))),
    ("cut-not-edge", lambda: cut_edge(TRIPOD, (0, 0))),
    # no flag, then an edge half
    ("forget-not-tail", lambda: forget_tail(TRIPOD, 9)),
    ("forget-not-tail", lambda: forget_tail(BRIDGE, 4)),
    # one tail twice, then an edge half first or second
    ("glue-not-tails", lambda: glue_tails(TRIPOD, 0, 0)),
    ("glue-not-tails", lambda: glue_tails(BRIDGE, 4, 0)),
    ("glue-not-tails", lambda: glue_tails(BRIDGE, 0, 4)),
    # isogenies
    ("forget-unstable", lambda: stably_forget_tail(TWO_TAILS, 0)),
    ("isogeny-compose-endpoints", lambda: compose_extended(identity_extended(TRIPOD), identity_extended(CURVE))),
    ("isogeny-pi0", lambda: _check(validate_extended(elementary_forget_isogeny(TRIPOD, 0)))),
    ("isogeny-unstable-source", lambda: extended_isogeny(LONE_TAIL)),
    # marked morphisms, the stable pullback and pushforward
    ("lift-hom", _lift_non_identity_hom),
    # each end unstable alone, for contractions and combinatorial morphisms;
    # a stable source and an unstable target make an invalid contraction,
    # refused for its ends before it is checked
    ("lift-unstable", lambda: lift_contraction(identity_contraction(TWO_TAILS))),
    ("lift-unstable", lambda: lift_combinatorial(inclusion(TWO_TAILS, TRIPOD))),
    ("lift-unstable", lambda: lift_contraction(contract_edges(PENDANT, [(2, 3)]))),
    ("lift-unstable", lambda: lift_contraction(Contraction(TRIPOD, TWO_TAILS, {0: 0, 1: 1}, {0: 0}))),
    ("lift-unstable", lambda: lift_combinatorial(
        inclusion(TRIPOD, modular_graph({0: 0, 1: 0}, tails={0: 0, 1: 0, 2: 0, 3: 1, 4: 1})))),
    ("marked-compose-endpoints", lambda: compose_marked(identity_marked(TRIPOD), identity_marked(CURVE))),
    # both parts from another graph, then each alone
    ("marked-middle", lambda: _check(validate_marked(replace(identity_marked(TRIPOD), mid=CURVE)))),
    ("marked-middle", lambda: _check(
        validate_marked(replace(identity_marked(TRIPOD), comb=identity_combinatorial(CURVE))))),
    ("marked-middle", lambda: _check(validate_marked(replace(identity_marked(TRIPOD), contr=identity_contraction(CURVE))))),
    ("marked-middle-unstable", lambda: _check(validate_marked(MarkedMorphism(
        MonoidHom.identity(0), identity_combinatorial(TWO_TAILS), TWO_TAILS, identity_contraction(TWO_TAILS))))),
    ("marked-unstable", lambda: identity_marked(TWO_TAILS)),
    ("pullback-endpoints", lambda: stable_pullback(
        MonoidHom.identity(0), identity_contraction(TRIPOD), identity_combinatorial(CURVE))),
    ("pullback-unstable-input", lambda: stable_pullback(
        MonoidHom.identity(0), identity_contraction(TRIPOD), inclusion(TWO_TAILS, TRIPOD))),
    ("pushforward-unstable-source", lambda: pushforward(MonoidHom.identity(0), TWO_TAILS)),
    # graphs: a genus that is not an int, though not negative, then a bool
    ("genus-integer", lambda: modular_graph({0: 1.5}, tails={0: 0})),
    ("genus-integer", lambda: modular_graph({0: 0, 1: True}, tails={0: 0, 1: 1})),
    # an empty graph of negative rank, the only fault it has
    ("rank-negative", lambda: MarkedGraph((), (), {}, {}, {}, {}, -1)),
    # profiles
    ("profile-ample", lambda: VarietyProfile("flat", 1, LinearForm((-2,)), LinearForm((0,)))),
    ("profile-dimension", lambda: VarietyProfile("negative", -1, LinearForm(()), LinearForm(()))),
]


def _row_ids():
    seen: dict[str, int] = {}
    for condition, _ in CASES:
        seen[condition] = seen.get(condition, 0) + 1
        yield condition if seen[condition] == 1 else f"{condition}-{seen[condition]}"


@pytest.mark.parametrize("condition, call", CASES, ids=list(_row_ids()))
def test_violation_is_raised_by_name(condition, call):
    with pytest.raises(ValidationError) as err:
        call()
    assert condition in err.value.conditions


def _raised_ids() -> set[str]:
    ids = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Violation" and node.args:
                first = node.args[0]
                assert isinstance(first, ast.Constant) and isinstance(first.value, str), (path, node.lineno)
                ids.add(first.value)
    return ids


def test_every_violation_id_is_named_in_a_test():
    ids = _raised_ids()
    assert len(ids) > 50
    tests = "".join(path.read_text() for path in sorted(Path(__file__).parent.glob("test_*.py")))
    assert sorted(i for i in ids if f'"{i}"' not in tests) == []
