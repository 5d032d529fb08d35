"""Cartesian families over elementary isogenies: the splitting bookkeeping.

Objects pair a stable rank-0 base graph with a finite family of stable
profile-marked graphs, each exhibiting the base as its absolute
stabilization.  Pulling such a family back along an elementary isogeny of
base graphs produces the family of all compatible lifts over a contraction;
over a forget or glue whose edge runs through a chain of class vertices of
the profile-graph, it gives one lift chosen by flag ids, or a refusal.  For
a non-loop edge contraction the lifts are indexed by all ways of splitting
the class at the contracted vertex, which is the combinatorial shadow of the
splitting axiom.  Degrees are preserved along every pullback.

The lifts of a profile-graph sigma' over each kind of elementary isogeny,
where w0 is the vertex of sigma' over the base vertex the step acts at:

* loop contraction: one lift, a new loop at w0, whose genus drops by one;
* non-loop contraction: one lift per splitting of w0's class in two,
  splitting w0 along the contracted edge (``split_vertex``);
* forget, type I: one lift, the forgotten tail added back at w0;
* forget, types II and III: one lift, a new genus-zero, class-zero vertex
  carrying the forgotten tail and copies of the dying vertex's two other
  flags, spliced into sigma'; a type II forget lifts to type III when the
  surviving tail is an edge half in sigma';
* glue: one lift, the target edge cut into two tails, and only when the
  glued tails are a literal edge of sigma'.

``cartesian_pullback`` and ``pullback_object`` check their inputs once, up
front.  The members they build, and the morphism ``pullback_object``
returns, are valid by construction and are not checked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import prod

from .canonical import DEFAULT_MAX_FLAGS, canonical_encoding, canonical_form, canonical_key
from .errors import SizeCapError, ValidationError, Violation, ensure_valid
from .graphs import (
    MarkedGraph,
    add_loop,
    disjoint_union_with_maps,
    edges,
    edit_graph,
    empty_graph,
    is_forest,
    is_stable,
    marked_graph,
    next_id,
    split_vertex,
)
from .monoid import LinearForm, MonoidElement, MonoidHom, enumerate_pair_decompositions
from .morphisms import CombinatorialMorphism, contract_edges, validate_combinatorial
from .profiles import VarietyProfile, deg_graph
from .isogeny import (
    ExtendedIsogeny,
    elementary_contraction_isogeny,
    elementary_forget_isogeny,
    elementary_glue_isogeny,
    is_elementary_extended,
    validate_extended,
)
from .stabilize import absolute_stabilization

# The most lifts a non-loop contraction may have: its family has one member
# per splitting of the class at w0, prod(b_j + 1) for the class b, and each
# member costs about a millisecond to build and check.
_MAX_FAMILY = 1_000


def _class_splits(beta: MonoidElement) -> list[tuple[MonoidElement, MonoidElement]]:
    """The splits of the class beta, one family member each, once their count
    is charged against ``_MAX_FAMILY``."""
    size = prod(c + 1 for c in beta.coords)
    if size > _MAX_FAMILY:
        raise SizeCapError(f"cartesian family has {size} members, cap is {_MAX_FAMILY}")
    return enumerate_pair_decompositions(beta)


def is_stabilization_identification(b: CombinatorialMorphism) -> bool:
    """Does b exhibit its source as the absolute stabilization of its target?

    Requires b injective on flags and vertices, valid as a morphism covering
    the class-forgetting homomorphism, with image exactly the stable part and
    matching involution there.  Validity already matches boundaries and
    genera, which stabilization keeps on what survives.
    """
    src, tgt = b.source, b.target
    if src.rank != 0:
        return False
    # a missing hom is the identity, which forgets every class only at rank 0
    forgets = b.hom == MonoidHom.to_trivial(tgt.rank) if b.hom is not None else tgt.rank == 0
    if not forgets:
        return False
    if validate_combinatorial(b):
        return False
    stab, _ = absolute_stabilization(tgt)
    # a valid b is total on src, so images that sort to stab's sorted ids
    # make it injective with image exactly the stable part
    if sorted(b.flagmap.values()) != list(stab.flags):
        return False
    if sorted(b.vertexmap.values()) != list(stab.vertices):
        return False
    return all(stab.involution[b.flagmap[f]] == b.flagmap[src.involution[f]] for f in src.flags)


@dataclass(frozen=True)
class FamilyMember:
    """One lift in a cartesian family: (a_i, tau_i, Phi_i)."""

    identification: CombinatorialMorphism  # base -> graph, covering the trivial hom
    graph: MarkedGraph  # stable profile-graph
    lift: ExtendedIsogeny  # graph -> the target profile-graph


def _elementary_step(phi: ExtendedIsogeny) -> tuple[str, object]:
    """The one step of an elementary phi, as (kind, data).

    "glue" comes with the glued pair, "forget" with its StableForget, and
    "contract" with (f, fbar, v1, v2, v0): the contracted edge (f, fbar) of
    phi.source, the vertices v1 and v2 it joins, and the target vertex v0
    they become.
    """
    if phi.glued:
        return "glue", phi.glued[0]
    kind, result = phi.step_results[0]
    if kind == "forget":
        return kind, result
    f, fbar = phi.steps[0].edge
    v1, v2 = phi.source.boundary[f], phi.source.boundary[fbar]
    return kind, (f, fbar, v1, v2, result.vertexmap[v1])


def _member(
    tau: MarkedGraph,
    b: CombinatorialMorphism,
    graph: MarkedGraph,
    lift: ExtendedIsogeny,
    flags: dict[int, int],
    vertices: dict[int, int],
) -> FamilyMember:
    """The member (a, graph, lift) over b's target; a covers the trivial hom.

    a sends the flags and vertices of tau that ``flags`` and ``vertices``
    list where they say, and every other one where b sends it: phi's step
    keeps the ids of what survives it, so those are ids of b's source too.
    Nothing is checked here, as the module docstring says: each builder adds
    to b's target only what the lift's one step removes, so the lift ends at
    b's target with the forget type it made; seeded tests pin every kind.
    """
    a = CombinatorialMorphism(
        source=tau,
        target=graph,
        flagmap={x: flags[x] if x in flags else b.flagmap[x] for x in tau.flags},
        vertexmap={v: vertices[v] if v in vertices else b.vertexmap[v] for v in tau.vertices},
        hom=MonoidHom.to_trivial(b.target.rank),
    )
    return FamilyMember(a, graph, lift)


def _pullback_contraction(phi: ExtendedIsogeny, b: CombinatorialMorphism, step) -> list[FamilyMember]:
    tau, sigma_prime = phi.source, b.target
    f, fbar, v1, v2, v0 = step
    w0 = b.vertexmap[v0]
    # each lift: (graph, the new edge (e1 at w0, e2), the vertex v2 goes to)
    if v1 == v2:
        # one lift, hanging a loop at w0 and dropping its genus, which is at
        # least 1: the validated b keeps genus, and v0 has genus >= 1 since
        # a loop was contracted into it
        lifts = [add_loop(sigma_prime, w0) + (w0,)]
    else:
        # one lift per class splitting, the flags from v2's side moving to the new vertex
        splits = _class_splits(sigma_prime.classes[w0])
        b_inv = {img: x for x, img in b.flagmap.items()}
        side2 = [x for x in sigma_prime.flags_at(w0) if tau.boundary[b_inv[x]] == v2]
        lifts = [
            split_vertex(sigma_prime, w0, side2, (tau.genus[v1], beta1), (tau.genus[v2], beta2))
            for beta1, beta2 in splits
        ]
    return [
        _member(tau, b, taui, elementary_contraction_isogeny(taui, (e1, e2)), {f: e1, fbar: e2}, {v1: w0, v2: w2})
        for taui, (e1, e2), w2 in lifts
    ]


def _pullback_forget(phi: ExtendedIsogeny, b: CombinatorialMorphism, res) -> list[FamilyMember]:
    tau, sigma_prime = phi.source, b.target
    t = res.forgotten
    v = tau.boundary[t]
    fresh = next_id(sigma_prime.flags)
    if res.kind == "I":
        tau0 = edit_graph(sigma_prime, attach={fresh: b.vertexmap[v]})
        return [_member(tau, b, tau0, elementary_forget_isogeny(tau0, fresh), {t: fresh}, {})]
    # types II and III; phi's check refuses every type IV forget as isogeny-pi0
    # v lifts to a new genus-zero, class-zero vertex u carrying copies of
    # its flags: t as fresh, the other two (tails first) as fresh + 1, + 2
    u = next_id(sigma_prime.vertices)
    others = sorted((x for x in tau.flags_at(v) if x != t), key=lambda x: (tau.involution[x] != x, x))
    extra_flags = {t: fresh, others[0]: fresh + 1, others[1]: fresh + 2}
    # the first edge half's copy joins the image r of its far half; if r
    # is an edge half in sigma', the other copy joins r's partner (type III)
    anchor = next(x for x in others if tau.involution[x] != x)
    (other,) = (x for x in others if x != anchor)
    r = b.flagmap[tau.involution[anchor]]
    pair = {extra_flags[anchor]: r, r: extra_flags[anchor]}
    if sigma_prime.involution[r] != r:
        c = sigma_prime.involution[r]
        pair.update({extra_flags[other]: c, c: extra_flags[other]})
    tau0 = edit_graph(
        sigma_prime,
        attach={fresh: u, fresh + 1: u, fresh + 2: u},
        vertices={u: (0, MonoidElement.zero(sigma_prime.rank))},
        pair=pair,
    )
    return [_member(tau, b, tau0, elementary_forget_isogeny(tau0, fresh), extra_flags, {v: u})]


def _pullback_glue(phi: ExtendedIsogeny, b: CombinatorialMorphism, pair: tuple[int, int]) -> list[FamilyMember]:
    tau, sigma_prime = phi.source, b.target
    x, xbar = pair
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
    return [_member(tau, b, tau0, elementary_glue_isogeny(tau0, (y, ybar)), {}, {})]


_PULLBACKS = {"glue": _pullback_glue, "forget": _pullback_forget, "contract": _pullback_contraction}


def _check_phi(phi: ExtendedIsogeny) -> None:
    """Raise unless phi is an elementary isogeny of rank-0 graphs."""
    if phi.source.rank != 0:
        raise ValidationError([Violation("cartesian-base-rank", "the isogeny must live over rank-0 graphs")])
    if not is_elementary_extended(phi):
        raise ValidationError([Violation("cartesian-not-elementary", "phi must be elementary")])
    ensure_valid(validate_extended(phi), "phi must be an isogeny")


def cartesian_pullback(
    p: VarietyProfile, phi: ExtendedIsogeny, b: CombinatorialMorphism
) -> list[FamilyMember]:
    """The canonical cartesian family lifting b's target across phi.

    phi must be an elementary extended isogeny of stable rank-0 graphs with
    target b.source; b must identify that target as the absolute
    stabilization of a stable profile-graph.  The family is a singleton
    except over a non-loop edge contraction, where it runs over all class
    splittings at the contracted vertex, ordered lexicographically.

    phi and b are validated; the members, built from them as the module
    docstring lists, are not checked again.
    """
    _check_phi(phi)
    if b.source != phi.target:
        raise ValidationError([Violation("cartesian-endpoints", "b must start at phi's target")])
    if b.target.rank != p.rank:
        raise ValidationError([Violation("cartesian-profile-rank", "target graph rank differs from profile rank")])
    if not is_stable(b.target):
        raise ValidationError([Violation("cartesian-target-unstable", "the profile-graph must be stable")])
    if not is_stabilization_identification(b):
        raise ValidationError([Violation("cartesian-not-stabilization", "b must identify the absolute stabilization")])

    kind, step = _elementary_step(phi)
    return _PULLBACKS[kind](phi, b, step)


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
            out.append(Violation("cartesian-member-endpoints", f"member {i}: identification endpoints wrong"))
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


def validate_elementary_cartesian(p: VarietyProfile, m: ElementaryCartesianMorphism) -> list[Violation]:
    """The conditions m violates, or [] when m is valid.

    Over a non-loop contraction each fiber must hold the class splits of its
    target member, whose count is charged against the family cap first:
    more than ``_MAX_FAMILY`` of them raise ``SizeCapError``, as building
    that family does.
    """
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

    # v1 != v2 only over a non-loop contraction, whose fibers run over the class splits
    kind, step = _elementary_step(phi)
    _, _, v1, v2, v0 = step if kind == "contract" else (None,) * 5
    for j, (bj, sigma_j) in enumerate(m.target.family):
        fiber = [i for i, target_index in enumerate(m.index_map) if target_index == j]
        for i in fiber:
            where = f"member {i} over target member {j}"
            taui, lift = m.source.family[i][1], m.lifts[i]
            if lift.source != taui or lift.target != sigma_j:
                out.append(Violation("cartesian-member-lift", f"{where}: lift endpoints wrong"))
            elif deg_graph(p, taui) != deg_graph(p, sigma_j):
                out.append(Violation("cartesian-member-degree", f"{where}: degree not preserved along the lift"))
        if v1 != v2:
            expected = _class_splits(sigma_j.classes[bj.vertexmap[v0]])
            members = [m.source.family[i] for i in fiber]
            got = [(taui.classes[a.vertexmap[v1]], taui.classes[a.vertexmap[v2]]) for a, taui in members]
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
    """Pull a whole cartesian object back along an elementary isogeny.

    The inputs are checked once, up front: the target object, then that phi
    lands at its base, then phi itself.  Each member's family is then built
    as ``cartesian_pullback`` builds it, and neither the members nor the
    morphism are checked again: they are valid by construction.
    """
    ensure_valid(validate_cartesian_object(p, target), "invalid cartesian object")
    if phi.target != target.base:
        raise ValidationError([Violation("cartesian-endpoints", "phi must land at the object's base")])
    _check_phi(phi)
    kind, step = _elementary_step(phi)
    members = [(j, m) for j, (bj, _) in enumerate(target.family) for m in _PULLBACKS[kind](phi, bj, step)]
    source = CartesianObject(base=phi.source, family=tuple((m.identification, m.graph) for _, m in members))
    index_map, lifts = tuple(j for j, _ in members), tuple(m.lift for _, m in members)
    return source, ElementaryCartesianMorphism(source, target, phi, index_map, lifts)


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


def _classes_up_to(p: VarietyProfile, bound: int):
    """The coordinates of every class whose ample degree is at most the
    bound, in lexicographic order, made one at a time.

    An odometer: the last coordinate that still fits in the remaining degree
    goes up by one, and every coordinate after it goes back to zero.  It
    keeps no stack, so a profile of any rank works.
    """
    coeffs = p.ample.coeffs
    coords = [0] * len(coeffs)
    remaining = bound
    while True:
        yield tuple(coords)
        i = len(coeffs) - 1
        while i >= 0 and remaining < coeffs[i]:
            remaining += coeffs[i] * coords[i]
            coords[i] = 0
            i -= 1
        if i < 0:
            return
        coords[i] += 1
        remaining -= coeffs[i]


def _splittings(g: MarkedGraph, max_vertices: int):
    """The elementary splittings of the stable graph g whose children are
    stable with at most max_vertices vertices, as (v, moved, kept, new,
    verdict).  Nothing is built here.

    A splitting at v hangs a loop (``moved`` is None, and v loses one genus)
    or moves the flags in ``moved`` from v to a new vertex joined to v by a
    new edge, with ``kept`` and ``new`` the (genus, class) of v and of the
    new vertex.

    ``verdict`` is tests (a) and the same-ends half of (b) of the
    canonical-parent rule (see ``enumerate_stable_graphs``) for the child,
    read from g and the splitting alone.  False: an edge of the child has a
    greater iota than the new edge.  True: every edge with the new edge's
    iota joins the new edge's ends.  None: some edge with that iota joins
    other ends, and the built child decides.  A splitting at v leaves the
    edges away from v and their ends as they are.

    Completeness: for every stable child C within the bounds and every edge
    e of C whose contraction gives g, some splitting gives a child
    isomorphic to C by an isomorphism that takes its new edge to e.  The two
    prunings keep this true.  Tails at v can be swapped by an automorphism
    of g, so only how many of them move matters, and the first k move.  A
    split and its mirror (the complementary flags move, the two halves swap
    their data) are isomorphic by swapping the ends of the new edge, which
    takes the new edge to itself, so the first edge half at v stays, or,
    with no edge half at v, at most half of the tails move.
    """
    sigma, iota = g._vertex_invariants, _edge_invariants(g)
    split = len(g.vertices) < max_vertices
    for v in g.vertices:
        genus, coords, valence, tails, loop_halves = sigma[v]
        if not (genus or split):
            continue
        # the greatest iota of an edge away from v; () is below every iota
        rival = max((i for (f, p), i in iota.items() if v != g.boundary[f] and v != g.boundary[p]), default=())
        if genus:
            # 2 * genus + valence does not change, so v stays stable; v's
            # loops share the new loop's iota and ends, and its other edges
            # are not loops, so they rank below it
            s = (genus - 1, coords, valence + 2, tails, loop_halves + 2)
            yield v, None, None, None, _verdict((True, s, s), rival)
        if not split:
            continue
        tails_at_v, loops, ends = g._flag_kinds[v]
        halves = [f for f in g.flags_at(v) if g.involution[f] != f]
        counts = range(tails + 1 if halves else tails // 2 + 1)
        half_sets = [s for k in range(len(halves)) for s in combinations(halves[1:], k)] or [()]
        pairs = enumerate_pair_decompositions(g.classes[v])
        data = [(g1, c1, genus - g1, c2) for g1 in range(genus + 1) for c1, c2 in pairs]
        for k in counts:
            for half_set in half_sets:
                moved = tails_at_v[:k] + half_set
                kept_valence, new_valence = valence - len(moved) + 1, len(moved) + 1
                stable = [
                    (g1, c1, g2, c2)
                    for g1, c1, g2, c2 in data
                    if (c1 or 2 * g1 + kept_valence >= 3) and (c2 or 2 * g2 + new_valence >= 3)
                ]
                if not stable:
                    continue
                inside = set(moved)
                # a loop kept whole at v, or moved whole, outranks the new
                # edge, which is not a loop; a loop split in two joins the
                # new edge's ends
                refused = any((f in inside) == (p in inside) for f, p in loops)
                far = [(f in inside, sigma[x]) for f, _, x in ends]
                for g1, c1, g2, c2 in stable:
                    verdict = False
                    if not refused:
                        # with every loop split, neither end keeps one
                        sv = (g1, c1.coords, kept_valence, tails - k, 0)
                        sw = (g2, c2.coords, new_valence, k, 0)
                        near = [_edge_invariant(False, sw if m else sv, sx) for m, sx in far]
                        verdict = _verdict(_edge_invariant(False, sv, sw), max([rival, *near]))
                    yield v, moved, (g1, c1), (g2, c2), verdict


def _edge_invariants(g: MarkedGraph) -> dict[tuple[int, int], tuple]:
    """iota per edge (f, p): (is it a loop, the smaller sigma of its ends,
    the larger), with sigma the graph's ``_vertex_invariants``."""
    sigma = g._vertex_invariants
    iota = {}
    for f, p in edges(g):
        u, x = g.boundary[f], g.boundary[p]
        iota[f, p] = _edge_invariant(u == x, sigma[u], sigma[x])
    return iota


def _edge_invariant(is_loop: bool, s: tuple, t: tuple) -> tuple:
    """iota of an edge whose ends have the invariants s and t."""
    return (is_loop, s, t) if s <= t else (is_loop, t, s)


def _verdict(top: tuple, rival: tuple) -> bool | None:
    """False when the greatest other iota outranks the new edge's, None on a tie."""
    return False if rival > top else None if rival == top else True


def _contracts_to_parent(c: MarkedGraph, parent_key: tuple) -> bool:
    """The rest of test (b): contracting m, the edge of greatest iota whose
    flags take the least slot in c's canonical labelling, gives the parent's
    class.  c must be keyed already, so its labelling is kept on it."""
    iota = _edge_invariants(c)
    top = max(iota.values())
    _, (slot, _) = canonical_encoding(c)
    m = min((e for e, i in iota.items() if i == top), key=lambda e: min(slot[e[0]], slot[e[1]]))
    return canonical_key(contract_edges(c, [m]).target) == parent_key


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
    level, from one representative of each isomorphism class found.

    Each class is accepted only from its canonical parent (McKay's canonical
    augmentation, "Isomorph-free exhaustive generation", J. Algorithms 26,
    1998).  A vertex has the invariant sigma = (genus, class coordinates,
    valence, tail count, loop half count), the graph's
    ``_vertex_invariants``; an edge has iota = (is it a loop, the smaller
    sigma of its ends, the larger).  A child C with new edge e is
    accepted only when (a) iota(e) is the greatest iota of an edge of C, and
    (b) either every edge with that iota joins the ends of e (parallel edges
    are swapped by an automorphism, and so are loops at one vertex), or
    contracting m gives the parent's class, where m is the edge of greatest
    iota whose flags take the least slot in C's canonical labelling.  (a)
    and the first half of (b) are the verdict ``_splittings`` yields with
    each splitting, read from the parent and the splitting alone, so most
    rejected children are never built or keyed.  C/m is the same
    class whichever canonical labelling is taken, so each class of C is
    accepted from the one representative of the class of C/m, and accepted
    siblings are deduplicated by key; no other lookup is needed.

    ``cap`` bounds the work: the start graphs, one per class within the
    ample bound, and then every splitting considered, whether it is built
    or not.  The classes are counted before any start graph is built, so
    too many of them raise ``SizeCapError`` up front.

    Bounds that admit a graph with more flags than canonical labelling
    accepts (``n + 2(g + V - 1)``, with V the vertex bound clamped to what
    stability allows) are refused with ``SizeCapError`` before any graph is
    built.

    Each built child is keyed once with ``canonical_key``.  The uncolored
    labelling is computed once per graph instance and kept on it (colored
    labellings are not memoised), so the canonical form of each output, and
    the labelling that test (b) reads, reuse the search its key already ran.
    """
    if genus_total < 0 or num_tails < 0 or ample_bound < 0 or max_vertices < 1:
        raise ValidationError([Violation("enumerate-bounds", "bounds must be non-negative (and at least one vertex)")])
    # Summed over the vertices, 2*g_v - 2 + val_v equals 2g - 2 + n.  With two
    # or more vertices every vertex has an edge, so a stable class-zero vertex
    # adds at least 1 and a vertex with a nonzero class adds at least -1.  A
    # nonzero class has ample degree at least the least ample coefficient, so
    # at most ``classed`` vertices carry one.  No stable graph has more
    # vertices than this clamp.
    classed = ample_bound // min(p.ample.coeffs) if p.rank else 0
    max_vertices = min(max_vertices, max(1, 2 * genus_total - 2 + num_tails + 2 * classed))
    # a connected graph has b1 + V - 1 edges and b1 <= g, so none has more flags
    most_flags = num_tails + 2 * (genus_total + max_vertices - 1)
    if most_flags > DEFAULT_MAX_FLAGS:
        raise SizeCapError(f"graphs within the bounds have up to {most_flags} flags, cap is {DEFAULT_MAX_FLAGS}")
    # one start graph per class: count them before building any
    considered = sum(1 for _ in islice(_classes_up_to(p, ample_bound), cap + 1))
    if considered > cap:
        raise SizeCapError(f"enumeration exceeded {cap} candidates")
    tails = {f: 0 for f in range(num_tails)}
    starts = (marked_graph(p.rank, {0: (genus_total, beta)}, tails=tails) for beta in _classes_up_to(p, ample_bound))
    level = {canonical_key(g): g for g in starts if is_stable(g)}
    found = dict(level)
    while level:
        children: dict[tuple, MarkedGraph] = {}
        for parent_key, g in level.items():
            for v, moved, kept, new, verdict in _splittings(g, max_vertices):
                considered += 1
                if considered > cap:
                    raise SizeCapError(f"enumeration exceeded {cap} candidates")
                if verdict is False:
                    continue
                child = add_loop(g, v)[0] if moved is None else split_vertex(g, v, moved, kept, new)[0]
                key = canonical_key(child)
                if key not in children and (verdict or _contracts_to_parent(child, parent_key)):
                    children[key] = child
        found.update(children)
        level = children
    return [canonical_form(found[k]) for k in sorted(found)]
