"""Cartesian families over elementary isogenies: the splitting bookkeeping.

Objects pair a stable rank-0 base graph with a finite family of stable
profile-marked graphs, each exhibiting the base as its absolute
stabilization.  Pulling such a family back along an elementary isogeny of
base graphs produces the family of all compatible lifts; for a non-loop
edge contraction these are indexed by all ways of splitting the class at
the contracted vertex, which is the combinatorial shadow of the splitting
axiom.  Degrees are preserved along every pullback.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canonical import DEFAULT_MAX_FLAGS, canonical_form, canonical_key
from .errors import SizeCapError, ValidationError, Violation, ensure_valid
from .graphs import (
    MarkedGraph,
    add_loop,
    disjoint_union_with_maps,
    edit_graph,
    empty_graph,
    is_forest,
    is_stable,
    marked_graph,
    next_id,
    split_vertex,
)
from .monoid import LinearForm, MonoidElement, MonoidHom, enumerate_pair_decompositions
from .morphisms import CombinatorialMorphism, validate_combinatorial
from .profiles import VarietyProfile, deg_graph
from .isogeny import (
    ContractStep,
    ExtendedIsogeny,
    elementary_contraction_isogeny,
    elementary_forget_isogeny,
    elementary_glue_isogeny,
    is_elementary_extended,
    validate_extended,
)
from .stabilize import absolute_stabilization


def is_stabilization_identification(b: CombinatorialMorphism) -> bool:
    """Does b exhibit its source as the absolute stabilization of its target?

    Requires b injective on flags and vertices, valid as a morphism covering
    the class-forgetting homomorphism, with image exactly the stable part and
    matching structure there.
    """
    src, tgt = b.source, b.target
    if src.rank != 0:
        return False
    hom = b.hom if b.hom is not None else MonoidHom.identity(tgt.rank)
    if hom != MonoidHom.to_trivial(tgt.rank):
        return False
    if validate_combinatorial(b):
        return False
    if len(set(b.flagmap.values())) != len(b.flagmap):
        return False
    if len(set(b.vertexmap.values())) != len(b.vertexmap):
        return False
    stab, _ = absolute_stabilization(tgt)
    if set(b.flagmap.values()) != set(stab.flags):
        return False
    if set(b.vertexmap.values()) != set(stab.vertices):
        return False
    for f in src.flags:
        if stab.involution[b.flagmap[f]] != b.flagmap[src.involution[f]]:
            return False
        if stab.boundary[b.flagmap[f]] != b.vertexmap[src.boundary[f]]:
            return False
    for v in src.vertices:
        if stab.genus[b.vertexmap[v]] != src.genus[v]:
            return False
    return True


@dataclass(frozen=True)
class FamilyMember:
    """One lift in a cartesian family: (a_i, tau_i, Phi_i)."""

    identification: CombinatorialMorphism  # base -> graph, covering the trivial hom
    graph: MarkedGraph  # stable profile-graph
    lift: ExtendedIsogeny  # graph -> the target profile-graph


def _check_member(p: VarietyProfile, base: MarkedGraph, member: FamilyMember, sigma_prime: MarkedGraph) -> None:
    a, taui, lift = member.identification, member.graph, member.lift
    if a.source != base or a.target != taui:
        raise ValidationError([Violation("cartesian-member-endpoints", "identification endpoints wrong")])
    ensure_valid(validate_combinatorial(a), "cartesian member identification invalid")
    if not is_stabilization_identification(a):
        raise ValidationError([Violation("cartesian-member-stabilization", "base is not the absolute stabilization")])
    if not is_stable(taui):
        raise ValidationError([Violation("cartesian-member-unstable", "family member must be stable")])
    if lift.source != taui or lift.target != sigma_prime:
        raise ValidationError([Violation("cartesian-member-lift", "lift endpoints wrong")])
    if deg_graph(p, taui) != deg_graph(p, sigma_prime):
        raise ValidationError([Violation("cartesian-member-degree", "degree not preserved along the pullback")])


def _pullback_contraction(
    p: VarietyProfile, phi: ExtendedIsogeny, b: CombinatorialMorphism
) -> list[FamilyMember]:
    tau, sigma_prime = phi.source, b.target
    contr = phi.step_results[0][1]
    ((f, fbar),) = [contr.contracted_edges()[0]]
    v1, v2 = tau.boundary[f], tau.boundary[fbar]
    v0 = contr.vertexmap[v1]
    w0 = b.vertexmap[v0]
    inv_flag = {pre: t for t, pre in contr.flagmap.items()}  # tau flag -> sigma flag
    zero_hom = MonoidHom.to_trivial(sigma_prime.rank)

    def outer_flag(x: int) -> int:
        return b.flagmap[inv_flag[x]]

    def outer_vertex(v: int) -> int:
        return b.vertexmap[contr.vertexmap[v]]

    members: list[FamilyMember] = []
    if v1 == v2:
        # loop case: one lift, hanging a loop at w0 and dropping its genus
        if sigma_prime.genus[w0] < 1:
            raise ValidationError([Violation("cartesian-loop-genus", "loop pullback needs genus >= 1 at the target vertex")])
        tau0, (l1, l2) = add_loop(sigma_prime, w0)
        a0 = CombinatorialMorphism(
            source=tau,
            target=tau0,
            flagmap={x: (l1 if x == f else l2 if x == fbar else outer_flag(x)) for x in tau.flags},
            vertexmap={v: outer_vertex(v) for v in tau.vertices},
            hom=zero_hom,
        )
        lift = elementary_contraction_isogeny(tau0, (l1, l2))
        if lift.target != sigma_prime:
            raise AssertionError("loop pullback did not contract back onto the target")
        members.append(FamilyMember(a0, tau0, lift))
    else:
        splits = enumerate_pair_decompositions(sigma_prime.classes[w0])
        at_w0 = sigma_prime.flags_at(w0)
        b_inv = {img: x for x, img in b.flagmap.items()}
        side2_flags = [
            x for x in at_w0 if tau.boundary[contr.flagmap[b_inv[x]]] == v2
        ]
        for beta1, beta2 in splits:
            taui, (e1, e2), wsecond = split_vertex(
                sigma_prime, w0, side2_flags, (tau.genus[v1], beta1), (tau.genus[v2], beta2)
            )
            if not is_stable(taui):
                raise AssertionError("class split destabilized an already stable vertex")
            ai = CombinatorialMorphism(
                source=tau,
                target=taui,
                flagmap={x: (e1 if x == f else e2 if x == fbar else outer_flag(x)) for x in tau.flags},
                vertexmap={
                    v: (w0 if v == v1 else wsecond if v == v2 else outer_vertex(v)) for v in tau.vertices
                },
                hom=zero_hom,
            )
            lift = elementary_contraction_isogeny(taui, (e1, e2))
            if lift.target != sigma_prime:
                raise AssertionError("split pullback did not contract back onto the target")
            members.append(FamilyMember(ai, taui, lift))
    return members


def _pullback_forget(
    p: VarietyProfile, phi: ExtendedIsogeny, b: CombinatorialMorphism
) -> list[FamilyMember]:
    tau, sigma_prime = phi.source, b.target
    res = phi.step_results[0][1]
    t = res.forgotten
    v = tau.boundary[t]
    zero_hom = MonoidHom.to_trivial(sigma_prime.rank)
    fresh = next_id(sigma_prime.flags)
    # types II and III lift to a new genus-zero, class-zero vertex u
    u = next_id(sigma_prime.vertices)
    new_vertex = {u: (0, MonoidElement.zero(sigma_prime.rank))}

    def base_map(extra_flags: dict[int, int], extra_vertices: dict[int, int], tau0: MarkedGraph) -> CombinatorialMorphism:
        return CombinatorialMorphism(
            source=tau,
            target=tau0,
            flagmap={x: extra_flags.get(x, b.flagmap.get(x)) for x in tau.flags},
            vertexmap={vv: extra_vertices.get(vv, b.vertexmap.get(vv)) for vv in tau.vertices},
            hom=zero_hom,
        )

    if res.kind == "I":
        t0 = fresh
        tau0 = edit_graph(sigma_prime, attach={t0: b.vertexmap[v]})
        a0 = base_map({t: t0}, {}, tau0)
        expect_kind = "I"
    elif res.kind == "II":
        # flags at the dying vertex: the forgotten tail t, another tail s, one edge half
        at_v = tau.flags_at(v)
        s = next(x for x in at_v if tau.involution[x] == x and x != t)
        pflag = next(x for x in at_v if tau.involution[x] != x)
        q = tau.involution[pflag]
        r = b.flagmap[q]
        t0, s0, p0 = fresh, fresh + 1, fresh + 2
        pair = {p0: r, r: p0}
        expect_kind = "II"
        if sigma_prime.involution[r] != r:
            c = sigma_prime.involution[r]
            pair.update({s0: c, c: s0})
            expect_kind = "III"
        tau0 = edit_graph(sigma_prime, attach={t0: u, s0: u, p0: u}, vertices=new_vertex, pair=pair)
        a0 = base_map({t: t0, s: s0, pflag: p0}, {v: u}, tau0)
    elif res.kind == "III":
        at_v = tau.flags_at(v)
        p1, p2 = sorted(x for x in at_v if x != t)
        q1 = tau.involution[p1]
        r = b.flagmap[q1]
        c = sigma_prime.involution[r]
        t0, p10, p20 = fresh, fresh + 1, fresh + 2
        tau0 = edit_graph(
            sigma_prime, attach={t0: u, p10: u, p20: u}, vertices=new_vertex, pair={p10: r, r: p10, p20: c, c: p20}
        )
        a0 = base_map({t: t0, p1: p10, p2: p20}, {v: u}, tau0)
        expect_kind = "III"
    else:
        raise ValidationError([Violation("cartesian-forget-iv", "a component-killing forget is not an isogeny")])

    lift = elementary_forget_isogeny(tau0, fresh)
    if lift.target != sigma_prime or lift.forget_kinds[0] != expect_kind:
        raise AssertionError("tail pullback did not forget back onto the target")
    return [FamilyMember(a0, tau0, lift)]


def _pullback_glue(
    p: VarietyProfile, phi: ExtendedIsogeny, b: CombinatorialMorphism
) -> list[FamilyMember]:
    tau, sigma_prime = phi.source, b.target
    x, xbar = phi.glued[0]
    y, ybar = b.flagmap[x], b.flagmap[xbar]
    if sigma_prime.involution[y] != ybar:
        raise ValidationError(
            [
                Violation(
                    "cartesian-glue-no-edge",
                    "the glued tails do not correspond to a literal edge of the target; "
                    "no canonical pullback exists",
                )
            ]
        )
    tau0 = edit_graph(sigma_prime, pair={y: y, ybar: ybar})
    a0 = CombinatorialMorphism(
        source=tau,
        target=tau0,
        flagmap=dict(b.flagmap),
        vertexmap=dict(b.vertexmap),
        hom=MonoidHom.to_trivial(sigma_prime.rank),
    )
    lift = elementary_glue_isogeny(tau0, (y, ybar))
    if lift.target != sigma_prime:
        raise AssertionError("glue pullback did not glue back onto the target")
    return [FamilyMember(a0, tau0, lift)]


def cartesian_pullback(
    p: VarietyProfile, phi: ExtendedIsogeny, b: CombinatorialMorphism
) -> list[FamilyMember]:
    """The canonical cartesian family lifting b's target across phi.

    phi must be an elementary extended isogeny of stable rank-0 graphs with
    target b.source; b must identify that target as the absolute
    stabilization of a stable profile-graph.  The family is a singleton
    except over a non-loop edge contraction, where it runs over all class
    splittings at the contracted vertex, ordered lexicographically.
    """
    if phi.source.rank != 0:
        raise ValidationError([Violation("cartesian-base-rank", "the isogeny must live over rank-0 graphs")])
    if not is_elementary_extended(phi):
        raise ValidationError([Violation("cartesian-not-elementary", "phi must be elementary")])
    ensure_valid(validate_extended(phi), "phi must be an isogeny")
    if b.source != phi.target:
        raise ValidationError([Violation("cartesian-endpoints", "b must start at phi's target")])
    if b.target.rank != p.rank:
        raise ValidationError([Violation("cartesian-profile-rank", "target graph rank differs from profile rank")])
    if not is_stable(b.target):
        raise ValidationError([Violation("cartesian-target-unstable", "the profile-graph must be stable")])
    if not is_stabilization_identification(b):
        raise ValidationError([Violation("cartesian-not-stabilization", "b must identify the absolute stabilization")])

    if phi.glued:
        members = _pullback_glue(p, phi, b)
    elif isinstance(phi.steps[0], ContractStep):
        members = _pullback_contraction(p, phi, b)
    else:
        members = _pullback_forget(p, phi, b)
    for m in members:
        _check_member(p, phi.source, m, b.target)
    return members


# -- the cartesian category: objects, elementary morphisms, validation ----


@dataclass(frozen=True)
class CartesianObject:
    """A stable rank-0 base with a family of stable profile-graphs over it."""

    base: MarkedGraph
    family: tuple[tuple[CombinatorialMorphism, MarkedGraph], ...]


def validate_cartesian_object(p: VarietyProfile, x: CartesianObject) -> list[Violation]:
    out: list[Violation] = []
    if x.base.rank != 0:
        out.append(Violation("cartesian-base-rank", "base must be a rank-0 graph"))
        return out
    if not is_stable(x.base):
        out.append(Violation("cartesian-base-unstable", "base must be stable"))
    for i, (a, taui) in enumerate(x.family):
        if taui.rank != p.rank:
            out.append(Violation("cartesian-profile-rank", f"member {i} has rank {taui.rank}"))
            continue
        if a.source != x.base or a.target != taui:
            out.append(Violation("cartesian-member-endpoints", f"member {i} identification endpoints wrong"))
            continue
        if not is_stable(taui):
            out.append(Violation("cartesian-member-unstable", f"member {i} is unstable"))
        if not is_stabilization_identification(a):
            out.append(Violation("cartesian-member-stabilization", f"member {i}: base is not its stabilization"))
    return out


@dataclass(frozen=True)
class ElementaryCartesianMorphism:
    """One elementary morphism of cartesian objects with its fiber data."""

    source: CartesianObject
    target: CartesianObject
    base_isogeny: ExtendedIsogeny  # source.base -> target.base, elementary
    index_map: tuple[int, ...]  # source family index -> target family index
    lifts: tuple[ExtendedIsogeny, ...]  # per source family member


@dataclass(frozen=True)
class CartesianMorphism:
    """A composite of elementary morphisms, stored as its factorization."""

    factors: tuple[ElementaryCartesianMorphism, ...]

    @property
    def source(self) -> CartesianObject:
        return self.factors[0].source

    @property
    def target(self) -> CartesianObject:
        return self.factors[-1].target


def _class_pairs_of_family(
    phi: ExtendedIsogeny, fiber: list[tuple[CombinatorialMorphism, MarkedGraph, ExtendedIsogeny]]
) -> list[tuple[MonoidElement, MonoidElement]]:
    contr = phi.step_results[0][1]
    ((f, fbar),) = [contr.contracted_edges()[0]]
    v1, v2 = phi.source.boundary[f], phi.source.boundary[fbar]
    pairs = []
    for a, taui, _ in fiber:
        pairs.append((taui.classes[a.vertexmap[v1]], taui.classes[a.vertexmap[v2]]))
    return pairs


def validate_elementary_cartesian(p: VarietyProfile, m: ElementaryCartesianMorphism) -> list[Violation]:
    out: list[Violation] = []
    out.extend(validate_cartesian_object(p, m.source))
    out.extend(validate_cartesian_object(p, m.target))
    if out:
        return out
    phi = m.base_isogeny
    if phi.source != m.source.base or phi.target != m.target.base:
        return [Violation("cartesian-base-endpoints", "base isogeny endpoints wrong")]
    if not is_elementary_extended(phi):
        return [Violation("cartesian-not-elementary", "base isogeny must be elementary")]
    out.extend(validate_extended(phi))
    if len(m.index_map) != len(m.source.family) or len(m.lifts) != len(m.source.family):
        return [Violation("cartesian-family-shape", "index map and lifts must match the source family")]
    if any(j >= len(m.target.family) or j < 0 for j in m.index_map):
        return [Violation("cartesian-family-shape", "index map hits a missing target member")]

    nonloop = False
    if not phi.glued and isinstance(phi.steps[0], ContractStep):
        e = phi.step_results[0][1].contracted_edges()[0]
        nonloop = phi.source.boundary[e[0]] != phi.source.boundary[e[1]]

    for j, (bj, sigma_j) in enumerate(m.target.family):
        fiber = [
            (m.source.family[i][0], m.source.family[i][1], m.lifts[i])
            for i in range(len(m.index_map))
            if m.index_map[i] == j
        ]
        for a, taui, lift in fiber:
            if lift.source != taui or lift.target != sigma_j:
                out.append(Violation("cartesian-member-lift", f"lift endpoints wrong over target member {j}"))
                continue
            if deg_graph(p, taui) != deg_graph(p, sigma_j):
                out.append(Violation("cartesian-member-degree", f"degree not preserved over target member {j}"))
        if nonloop:
            contr = phi.step_results[0][1]
            v0 = contr.vertexmap[phi.source.boundary[contr.contracted_edges()[0][0]]]
            w0 = bj.vertexmap[v0]
            expected = enumerate_pair_decompositions(sigma_j.classes[w0])
            got = _class_pairs_of_family(phi, fiber)
            if len(set(got)) != len(got):
                out.append(Violation("cartesian-repetitive", f"repeated class split over target member {j}"))
            missing = set(expected) - set(got)
            extra = set(got) - set(expected)
            if missing:
                out.append(Violation("cartesian-incomplete", f"missing class splits over target member {j}: {sorted(missing)}"))
            if extra:
                out.append(Violation("cartesian-wrong-splits", f"splits not summing to the class over member {j}"))
        else:
            if len(fiber) != 1:
                out.append(Violation("cartesian-family-shape", f"fiber over target member {j} must be a singleton"))
    return out


def validate_cartesian_morphism(p: VarietyProfile, m: CartesianMorphism) -> list[Violation]:
    if not m.factors:
        return [Violation("cartesian-empty", "a morphism needs at least one elementary factor")]
    out: list[Violation] = []
    for k, factor in enumerate(m.factors):
        out.extend(validate_elementary_cartesian(p, factor))
        if k + 1 < len(m.factors) and factor.target != m.factors[k + 1].source:
            out.append(Violation("cartesian-chain", f"factor {k} target differs from factor {k + 1} source"))
    return out


def pullback_object(
    p: VarietyProfile, phi: ExtendedIsogeny, target: CartesianObject
) -> tuple[CartesianObject, ElementaryCartesianMorphism]:
    """Pull a whole cartesian object back along an elementary isogeny."""
    ensure_valid(validate_cartesian_object(p, target), "invalid cartesian object")
    if phi.target != target.base:
        raise ValidationError([Violation("cartesian-endpoints", "phi must land at the object's base")])
    family: list[tuple[CombinatorialMorphism, MarkedGraph]] = []
    index_map: list[int] = []
    lifts: list[ExtendedIsogeny] = []
    for j, (bj, _) in enumerate(target.family):
        for member in cartesian_pullback(p, phi, bj):
            family.append((member.identification, member.graph))
            index_map.append(j)
            lifts.append(member.lift)
    source = CartesianObject(base=phi.source, family=tuple(family))
    morphism = ElementaryCartesianMorphism(
        source=source,
        target=target,
        base_isogeny=phi,
        index_map=tuple(index_map),
        lifts=tuple(lifts),
    )
    ensure_valid(validate_elementary_cartesian(p, morphism), "pullback produced an invalid morphism")
    return source, morphism


# -- direct sum, tensor, degree decomposition -----------------------------


def oplus(x: CartesianObject, y: CartesianObject) -> CartesianObject:
    """Concatenate families over one and the same base."""
    if x.base != y.base:
        raise ValidationError([Violation("oplus-base", "direct sum needs equal bases")])
    return CartesianObject(base=x.base, family=x.family + y.family)


def otimes(x: CartesianObject, y: CartesianObject) -> CartesianObject:
    """Disjoint-union bases and members pairwise, re-threading the maps."""
    base, xf, xv, yf, yv = disjoint_union_with_maps(x.base, y.base)
    family: list[tuple[CombinatorialMorphism, MarkedGraph]] = []
    for ax, gx in x.family:
        for ay, gy in y.family:
            member, mxf, mxv, myf, myv = disjoint_union_with_maps(gx, gy)
            flagmap: dict[int, int] = {}
            vertexmap: dict[int, int] = {}
            for f in x.base.flags:
                flagmap[xf[f]] = mxf[ax.flagmap[f]]
            for f in y.base.flags:
                flagmap[yf[f]] = myf[ay.flagmap[f]]
            for v in x.base.vertices:
                vertexmap[xv[v]] = mxv[ax.vertexmap[v]]
            for v in y.base.vertices:
                vertexmap[yv[v]] = myv[ay.vertexmap[v]]
            a = CombinatorialMorphism(
                source=base, target=member, flagmap=flagmap, vertexmap=vertexmap,
                hom=MonoidHom.to_trivial(member.rank),
            )
            family.append((a, member))
    return CartesianObject(base=base, family=tuple(family))


def tensor_unit(rank: int) -> CartesianObject:
    """The one-member family with value the empty graph over an empty base."""
    base = empty_graph(0)
    member = empty_graph(rank)
    a = CombinatorialMorphism(source=base, target=member, flagmap={}, vertexmap={}, hom=MonoidHom.to_trivial(rank))
    return CartesianObject(base=base, family=((a, member),))


def homogeneous_decomposition(p: VarietyProfile, x: CartesianObject) -> dict[int, CartesianObject]:
    """Split the family by degree; keys ascending."""
    by_degree: dict[int, list[tuple[CombinatorialMorphism, MarkedGraph]]] = {}
    for a, g in x.family:
        by_degree.setdefault(deg_graph(p, g), []).append((a, g))
    return {
        n: CartesianObject(base=x.base, family=tuple(members))
        for n, members in sorted(by_degree.items())
    }


# -- admissible subcategories and enumeration -----------------------------


@dataclass(frozen=True)
class ForestCriterion:
    """Tree level: no cycles, all genera zero."""

    def accepts(self, g: MarkedGraph) -> bool:
        return is_forest(g)


@dataclass(frozen=True)
class DegreeBoundCriterion:
    """Every vertex class measures strictly below the limit."""

    form: LinearForm
    limit: int

    def accepts(self, g: MarkedGraph) -> bool:
        return all(self.form(g.classes[v]) < self.limit for v in g.vertices)


def is_admissible_member(g: MarkedGraph, criterion) -> bool:
    return bool(criterion.accepts(g))


def _classes_up_to(p: VarietyProfile, bound: int) -> list[MonoidElement]:
    """All classes whose ample degree is at most the bound."""
    if p.rank == 0:
        return [MonoidElement(())]
    out: list[MonoidElement] = []

    def rec(prefix: tuple[int, ...], remaining: int):
        idx = len(prefix)
        if idx == p.rank:
            out.append(MonoidElement(prefix))
            return
        coeff = p.ample.coeffs[idx]
        for c in range(remaining // coeff + 1):
            rec(prefix + (c,), remaining - coeff * c)

    rec((), bound)
    return out


def _splittings(g: MarkedGraph, max_vertices: int):
    """The stable graphs one elementary splitting away from the stable graph
    g, with at most max_vertices vertices; each isomorphism class among them
    comes at least once.

    A splitting at v hangs a loop (v loses one genus) or splits v's flags,
    genus and class between v and a new vertex.  Tails at v can be swapped by
    an automorphism, so only how many of them move matters, and the first k
    move.  A split and its mirror (the complementary flags move, the two
    halves swap their data) give isomorphic graphs, so the first edge half
    at v stays, or, with no edge half at v, at most half of the tails move.
    """
    for v in g.vertices:
        gv, cv = g.genus[v], g.classes[v]
        if gv >= 1:
            # 2 * genus + valence does not change, so v stays stable
            yield add_loop(g, v)[0]
        if len(g.vertices) >= max_vertices:
            continue
        at_v = g.flags_at(v)
        tails_at_v = [f for f in at_v if g.involution[f] == f]
        halves = [f for f in at_v if g.involution[f] != f]
        counts = range(len(tails_at_v) + 1 if halves else len(tails_at_v) // 2 + 1)
        half_sets = [s for k in range(len(halves)) for s in combinations(halves[1:], k)] or [()]
        pairs = enumerate_pair_decompositions(cv)
        data = [(g1, c1, gv - g1, c2) for g1 in range(gv + 1) for c1, c2 in pairs]
        for k in counts:
            for half_set in half_sets:
                moved = tails_at_v[:k] + list(half_set)
                kept_valence, new_valence = len(at_v) - len(moved) + 1, len(moved) + 1
                for g1, c1, g2, c2 in data:
                    if (c1 or 2 * g1 + kept_valence >= 3) and (c2 or 2 * g2 + new_valence >= 3):
                        yield split_vertex(g, v, moved, (g1, c1), (g2, c2))[0]


def enumerate_stable_graphs(
    p: VarietyProfile,
    genus_total: int,
    num_tails: int,
    ample_bound: int,
    max_vertices: int,
    cap: int = 500_000,
) -> list[MarkedGraph]:
    """All connected stable profile-graphs within the bounds, up to isomorphism.

    Bounds: total graph genus (vertex genera plus cycle rank), tail count,
    ample degree of the total class, and vertex count.  Output graphs are in
    canonical form, sorted by canonical key, each appearing once.

    Contracting an edge keeps a graph stable and never adds a vertex, so
    every output arises from a stable one-vertex graph by elementary
    splittings (hang a loop, or split a vertex) through stable graphs within
    the vertex bound.  The graphs are generated level by level, one edge per
    level, from one representative of each isomorphism class found.  ``cap``
    bounds the number of child graphs built and keyed.
    """
    if genus_total < 0 or num_tails < 0 or ample_bound < 0 or max_vertices < 1:
        raise ValidationError([Violation("enumerate-bounds", "bounds must be non-negative (and at least one vertex)")])
    if num_tails + 2 * genus_total > DEFAULT_MAX_FLAGS:
        # the rose (all genus as loops at one vertex, class zero) is stable
        # and is output here, and canonical labelling refuses it
        raise SizeCapError(f"graph has {num_tails + 2 * genus_total} flags, cap is {DEFAULT_MAX_FLAGS}")
    # Summed over the vertices, 2*g_v - 2 + val_v equals 2g - 2 + n.  With two
    # or more vertices every vertex has an edge, so a stable class-zero vertex
    # adds at least 1 and a vertex with a nonzero class (ample degree >= 1, so
    # at most ample_bound of them) adds at least -1.  No stable graph has more
    # vertices than this clamp.
    max_vertices = min(max_vertices, max(1, 2 * genus_total - 2 + num_tails + 2 * ample_bound))
    tails = {f: 0 for f in range(num_tails)}
    starts = (marked_graph(p.rank, {0: (genus_total, beta)}, tails=tails) for beta in _classes_up_to(p, ample_bound))
    level = {canonical_key(g): g for g in starts if is_stable(g)}
    seen = dict(level)
    built = 0
    while level:
        found: dict[tuple, MarkedGraph] = {}
        for g in level.values():
            for child in _splittings(g, max_vertices):
                built += 1
                if built > cap:
                    raise SizeCapError(f"enumeration exceeded {cap} candidates")
                key = canonical_key(child)
                if key not in seen:
                    seen[key] = found[key] = child
        level = found
    return [canonical_form(seen[k]) for k in sorted(seen)]
