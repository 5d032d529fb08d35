"""Stable pullback and the category of marked stable graphs.

A morphism (A, tau) -> (B, sigma) is a quadruple: a monoid homomorphism
xi: A -> B, a stable B-graph mid, a combinatorial morphism mid -> tau
covering xi, and a contraction mid -> sigma.  Every such quadruple built
from its parts (the identity, a lifted contraction or combinatorial
morphism, and the pushforward in ``stabilize``) comes from ``_marked``,
which takes mid to be the combinatorial part's source and sets that part's
hom to xi.

Composition lifts the middle combinatorial morphism across the other
morphism's contraction via the stable pullback construction.  It reads the
elementary steps of the contraction from the contraction's own ids, walks
them back in one pass and builds the lifted graph once, at the end.  For
each contracted edge, every vertex lying over the vertex it is contracted
onto:

* across a loop contraction, gets a loop (and drops the genus by one);
* across a non-loop edge contraction, splits into two halves joined by a
  new edge, distributing its flags by where they go in the contraction
  source, or stays whole when one half would be unstable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .canonical import diagram_key
from .errors import ValidationError, Violation, ensure_valid
from .graphs import MarkedGraph, edit_graph, is_stable, next_id
from .monoid import MonoidHom, _is_identity
from .morphisms import (
    CombinatorialMorphism,
    Contraction,
    _contraction_order,
    _ensure_checked,
    _keep_checked,
    compose_combinatorial,
    compose_contractions,
    identity_combinatorial,
    identity_contraction,
    validate_combinatorial,
    validate_contraction,
)


@dataclass(frozen=True)
class MarkedMorphism:
    """Morphism (A, tau) -> (B, sigma) in the marked stable graph category."""

    hom: MonoidHom  # xi: A -> B
    comb: CombinatorialMorphism  # mid -> tau, covering xi
    mid: MarkedGraph  # stable B-graph
    contr: Contraction  # mid -> sigma

    @property
    def source_graph(self) -> MarkedGraph:
        return self.comb.target

    @property
    def target_graph(self) -> MarkedGraph:
        return self.contr.target


def validate_marked(m: MarkedMorphism) -> list[Violation]:
    out: list[Violation] = []
    if m.comb.source != m.mid or m.contr.source != m.mid:
        out.append(Violation("marked-middle", "combinatorial part and contraction must share the middle graph"))
        return out
    if not is_stable(m.mid):
        out.append(Violation("marked-middle-unstable", "middle graph must be stable"))
    if m.comb.hom != m.hom:
        out.append(Violation("marked-hom", "combinatorial part does not cover the stored homomorphism"))
    out.extend(validate_combinatorial(m.comb))
    out.extend(validate_contraction(m.contr))
    return out


def _check_marked(m: MarkedMorphism, message: str) -> None:
    """``ensure_valid(validate_marked(m), message)``, keeping the pass on
    ``m.comb`` and ``m.contr`` as ``_ensure_checked`` does, so the package's
    own checks of either part (in ``compose_marked``, say) skip it."""
    ensure_valid(validate_marked(m), message)
    _keep_checked(m.comb, m.contr)


def _marked(hom: MonoidHom, comb: CombinatorialMorphism, contr: Contraction) -> MarkedMorphism:
    """The morphism (hom, comb covering hom, comb's source, contr)."""
    return MarkedMorphism(hom, replace(comb, hom=hom), comb.source, contr)


def identity_marked(g: MarkedGraph) -> MarkedMorphism:
    if not is_stable(g):
        raise ValidationError([Violation("marked-unstable", "identity morphism needs a stable graph")])
    return _marked(MonoidHom.identity(g.rank), identity_combinatorial(g), identity_contraction(g))


def stable_pullback(
    xi: MonoidHom,
    phi: Contraction,
    a: CombinatorialMorphism,
    edge_order=None,
) -> tuple[MarkedGraph, Contraction, CombinatorialMorphism]:
    """Lift a covering morphism across a contraction.

    Inputs: phi: sigma -> tau a contraction over the source monoid,
    a: rho -> tau a combinatorial morphism covering xi with rho stable.
    Returns (pi, psi: pi -> rho, b: pi -> sigma covering xi); psi contracts
    exactly the edges inserted by the construction.

    phi is taken one contracted edge at a time, in ascending order (or the
    given ``edge_order``); the result does not depend on this choice, up to
    isomorphism of the whole output diagram.

    No intermediate graph is built.  A forward pass over sigma = phi.source
    records, for each edge (f, fbar), its ends v1, v2 as the least vertex of
    the part the edges before it join them into (the vertex that
    ``contract_edges`` keeps, so the edge lands on v0 = min(v1, v2)), each
    end's (genus, class) then, and that part for every vertex of sigma, which
    tells the end a flag sits at.  The edges are walked back from tau to
    sigma over one working copy of rho's edits and of the maps bf, bv from
    the growing graph into sigma: bf starts as phi.flagmap after a.flagmap,
    and bv at the least vertex of each fiber of phi.  New flags and vertices
    take the next free ids of the growing graph, the vertices over v0 come in
    rho's vertex order and then in the order they were made, and pi is
    built once, from rho, at the end.  With no edge to contract, pi is rho
    and b is a followed by the inverse of phi.

    Every vertex of the growing graph carries the genus of the part of sigma
    it maps to: a valid a gives this at the start, a split gives each half
    its part's genus, and a vertex is re-contracted only when its other half
    is unstable, and so of genus 0.  A vertex over a contracted loop thus
    has genus at least 1.  A loop keeps 2g + n, a split happens only when
    both halves are stable, and a re-contraction keeps the vertex whole, so
    pi is stable because rho is.

    phi and a are validated, each at its first call only: a passed check is
    kept on the instance, so pulling one (phi, a) back in every edge order
    checks each once.  psi and b are valid by construction, and are kept as
    passed.  psi keeps rho's flags and sends each vertex of pi to the vertex
    of rho it was split from; b maps every flag and vertex not inserted
    through a and phi.
    """
    order = _contraction_order(phi, edge_order)  # validates phi first
    _ensure_checked(a, validate_combinatorial, "stable_pullback: invalid covering morphism")
    # a missing hom is the identity; xi is compared with it without building it
    covers = a.hom == xi if a.hom is not None else _is_identity(xi, a.source.rank)
    if not covers:
        raise ValidationError([Violation("pullback-hom", "covering morphism does not cover xi")])
    if not is_stable(a.source):
        raise ValidationError([Violation("pullback-unstable-input", "the graph being pulled back must be stable")])
    if a.target != phi.target:
        raise ValidationError([Violation("pullback-endpoints", "covering morphism must land in the contraction target")])

    sigma, rho = phi.source, a.source
    rep = {v: v for v in sigma.vertices}  # vertex of sigma -> least vertex of its part
    ends = {v: (sigma.genus[v], sigma.classes[v]) for v in sigma.vertices}
    steps = []
    for f, fbar in order:
        v1, v2 = rep[sigma.boundary[f]], rep[sigma.boundary[fbar]]
        v0 = min(v1, v2)
        steps.append((f, fbar, v0, v1, v2, ends[v1], ends[v2], rep))
        (g1, c1), (g2, c2) = ends[v1], ends[v2]
        if v1 == v2:
            ends[v0] = (g1 + 1, c1)
        else:
            ends[v0] = (g1 + g2, c1 + c2)
            rep = {v: v0 if r in (v1, v2) else r for v, r in rep.items()}
    least = {phi.vertexmap[v]: r for v, r in rep.items()}
    bf = {x: phi.flagmap[y] for x, y in a.flagmap.items()}
    bv = {w: least[a.vertexmap[w]] for w in rho.vertices}
    at = {w: list(rho.flags_at(w)) for w in rho.vertices}
    attach: dict[int, int] = {}
    pair: dict[int, int] = {}
    data: dict[int, tuple] = {}  # (genus, class) of the new and changed vertices
    origin: dict[int, int] = {}  # new vertex -> the vertex of rho it was split from
    next_flag, next_vertex = next_id(rho.flags), next_id(rho.vertices)
    for f, fbar, v0, v1, v2, (g1, c1), (g2, c2), rep in reversed(steps):
        # bv lists rho's vertices, then the new ones in the order they were made
        over = [w for w, t in bv.items() if t == v0]
        # the classes the halves of a split take, pushed from sigma's monoid to rho's
        c1, c2 = xi(c1), xi(c2)
        for w in over:
            if v1 == v2:
                gw, cw = data[w] if w in data else (rho.genus[w], rho.classes[w])
                l1, l2 = next_flag, next_flag + 1
                next_flag += 2
                attach[l1] = attach[l2] = w
                pair[l1], pair[l2] = l2, l1
                data[w] = (gw - 1, cw)
                at[w] += [l1, l2]
                bf[l1], bf[l2] = f, fbar
                continue
            side1 = [x for x in at[w] if rep[sigma.boundary[bf[x]]] == v1]
            side2 = [x for x in at[w] if rep[sigma.boundary[bf[x]]] == v2]
            stable1 = bool(c1) or 2 * g1 + len(side1) + 1 >= 3
            stable2 = bool(c2) or 2 * g2 + len(side2) + 1 >= 3
            if stable1 and stable2:
                e1, e2, w2 = next_flag, next_flag + 1, next_vertex
                next_flag += 2
                next_vertex += 1
                attach[e1], attach[e2] = w, w2
                attach.update((x, w2) for x in side2)
                pair[e1], pair[e2] = e2, e1
                data[w], data[w2] = (g1, c1), (g2, c2)
                at[w], at[w2] = [x for x in at[w] if x not in side2] + [e1], side2 + [e2]
                bf[e1], bf[e2] = f, fbar
                bv[w], bv[w2] = v1, v2
                origin[w2] = origin.get(w, w)
            else:
                # re-contract: w is stable, so one side is; keep w whole on
                # it and send the other side's flags to the kept side's half
                bv[w], half, other = (v1, f, side2) if stable1 else (v2, fbar, side1)
                for x in other:
                    bf[x] = half
    # with nothing inserted pi is rho itself, and no graph is built
    pi = edit_graph(rho, attach=attach, pair=pair, vertices=data) if attach else rho
    psi = Contraction(
        source=pi, target=rho, flagmap={x: x for x in rho.flags}, vertexmap={v: origin.get(v, v) for v in pi.vertices}
    )
    b = CombinatorialMorphism(source=pi, target=phi.source, flagmap=bf, vertexmap=bv, hom=xi)
    _keep_checked(psi, b)
    return pi, psi, b


def compose_marked(outer: MarkedMorphism, inner: MarkedMorphism) -> MarkedMorphism:
    """Compose (B,sigma) -> (C,rho) after (A,tau) -> (B,sigma).

    The middle graph of the composite is the stable pullback of the outer
    middle across the inner contraction, which ``stable_pullback`` checks is
    stable.  ``stable_pullback`` validates ``inner.contr`` and
    ``outer.comb``, and ``compose_combinatorial`` and
    ``compose_contractions`` validate ``inner.comb`` and ``outer.contr``,
    each once per instance; the pullback square and the two composite parts
    are valid by construction from them, so for valid inputs the composite
    is valid, and composing a composite again checks none of its parts.  Of
    each input, that comb covers hom and that comb and contr start at mid
    are checked first, raising what ``validate_marked`` gives; whether
    ``inner.mid`` is stable is the caller's to check.  The composite's hom
    is its combinatorial part's, ``outer.hom.compose(inner.hom)``.
    """
    for m in (inner, outer):
        if m.comb.hom != m.hom or m.comb.source != m.mid or m.contr.source != m.mid:
            ensure_valid(validate_marked(m), "compose_marked: invalid input")
    if inner.target_graph != outer.source_graph:
        raise ValidationError([Violation("marked-compose-endpoints", "inner target differs from outer source")])
    pi, chi, c = stable_pullback(outer.hom, inner.contr, outer.comb)
    comb = compose_combinatorial(inner.comb, c)
    return MarkedMorphism(hom=comb.hom, comb=comb, mid=pi, contr=compose_contractions(outer.contr, chi))


def pullback_diagram_key(
    pi: MarkedGraph, psi: Contraction, b: CombinatorialMorphism
) -> tuple:
    """Isomorphism invariant of a pullback square with rho and sigma fixed.

    Only pi is relabelled; the maps out of it (psi into rho, b into sigma)
    ride along as decorations, so two squares over the same rho and sigma
    get equal keys exactly when they differ by an isomorphism of pi
    commuting with both maps.
    """
    psi_preimage = {src_flag: rho_flag for rho_flag, src_flag in psi.flagmap.items()}
    flag_dec = {f: (b.flagmap[f], psi_preimage.get(f)) for f in pi.flags}
    vertex_dec = {v: (b.vertexmap[v], psi.vertexmap[v]) for v in pi.vertices}
    return diagram_key(pi, flag_dec, vertex_dec)


def marked_key(m: MarkedMorphism) -> tuple:
    """Isomorphism-class invariant of a marked morphism.

    Two morphisms between the same literal endpoint graphs are the same
    morphism of the category exactly when their keys agree: the middle graph
    is relabelled, its maps to the endpoints become decorations, and the
    marking homomorphism is compared on the nose.
    """
    return (m.hom.rows, m.hom.source_rank, pullback_diagram_key(m.mid, m.contr, m.comb))


def lift_contraction(phi: Contraction) -> MarkedMorphism:
    """A contraction of stable graphs as a morphism in the same direction."""
    if not is_stable(phi.source) or not is_stable(phi.target):
        raise ValidationError([Violation("lift-unstable", "lifting requires stable endpoints")])
    _ensure_checked(phi, validate_contraction, "cannot lift an invalid contraction")
    return _marked(MonoidHom.identity(phi.source.rank), identity_combinatorial(phi.source), phi)


def lift_combinatorial(a: CombinatorialMorphism) -> MarkedMorphism:
    """A combinatorial morphism of stable graphs as a morphism in the
    opposite direction: from its target object to its source object."""
    if not is_stable(a.source) or not is_stable(a.target):
        raise ValidationError([Violation("lift-unstable", "lifting requires stable endpoints")])
    _ensure_checked(a, validate_combinatorial, "cannot lift an invalid combinatorial morphism")
    if a.hom is not None and not _is_identity(a.hom, a.target.rank):
        raise ValidationError([Violation("lift-hom", "only same-monoid morphisms lift directly")])
    return _marked(MonoidHom.identity(a.source.rank), a, identity_contraction(a.source))
