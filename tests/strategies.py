"""Seeded random generators for graphs and morphisms.

Everything takes an explicit random.Random so suites are reproducible; the
generators build morphisms by construction (stabilize, cut, forget, include)
so that every emitted value is valid by the library's own validators.
"""

from __future__ import annotations

import random

from stablegraphs.errors import ensure_valid
from stablegraphs.graphs import (
    MarkedGraph,
    component_of,
    connected_components,
    edges,
    edit_graph,
    is_stable,
    next_id,
    relabel_classes,
)
from stablegraphs.monoid import MonoidElement, MonoidHom
from stablegraphs.morphisms import (
    CombinatorialMorphism,
    Contraction,
    compose_combinatorial,
    contract_edges,
    cut_edge,
    forget_tail,
)
from stablegraphs.pullback import MarkedMorphism, validate_marked
from stablegraphs.stabilize import stabilize

from oracles import component_inclusion


def rand_element(rng: random.Random, rank: int, max_coord: int = 2) -> MonoidElement:
    return MonoidElement(tuple(rng.randint(0, max_coord) for _ in range(rank)))


def rand_hom(rng: random.Random, source_rank: int, target_rank: int, max_entry: int = 2) -> MonoidHom:
    return MonoidHom(
        tuple(tuple(rng.randint(0, max_entry) for _ in range(source_rank)) for _ in range(target_rank)),
        source_rank,
    )


def rand_graph(
    rng: random.Random,
    rank: int = 1,
    max_flags: int = 12,
    max_vertices: int = 4,
    max_genus: int = 2,
    max_class: int = 2,
    stable: bool = False,
    connected: bool = False,
    min_edges: int = 0,
) -> MarkedGraph:
    nv = rng.randint(1, max_vertices)
    genus = {v: rng.randint(0, max_genus) for v in range(nv)}
    classes = {v: rand_element(rng, rank, max_class) for v in range(nv)}
    boundary: dict[int, int] = {}
    involution: dict[int, int] = {}
    nxt = 0
    budget = max_flags

    def new_edge(v1: int, v2: int) -> None:
        nonlocal nxt, budget
        boundary[nxt], boundary[nxt + 1] = v1, v2
        involution[nxt], involution[nxt + 1] = nxt + 1, nxt
        nxt += 2
        budget -= 2

    if connected:
        order = list(range(nv))
        rng.shuffle(order)
        for i in range(1, nv):
            if budget < 2:
                break
            new_edge(order[i], order[rng.randrange(i)])
    wanted_edges = max(min_edges, rng.randint(0, max(0, budget // 2 - 1)))
    placed = len(involution) // 2
    while placed < wanted_edges and budget >= 2:
        new_edge(rng.randrange(nv), rng.randrange(nv))
        placed += 1
    for _ in range(rng.randint(0, max(0, budget))):
        if budget < 1:
            break
        boundary[nxt] = rng.randrange(nv)
        involution[nxt] = nxt
        nxt += 1
        budget -= 1

    g = MarkedGraph(
        flags=tuple(boundary),
        vertices=tuple(range(nv)),
        boundary=boundary,
        involution=involution,
        genus=genus,
        classes=classes,
        rank=rank,
    )
    if stable:
        g = make_stable(rng, g)
    return g


def make_stable(rng: random.Random, g: MarkedGraph) -> MarkedGraph:
    """Patch every unstable vertex by a non-zero class or extra tails."""
    boundary = dict(g.boundary)
    involution = dict(g.involution)
    classes = dict(g.classes)
    genus = dict(g.genus)
    nxt = next_id(g.flags)
    for v in g.vertices:
        valence = sum(1 for f in boundary if boundary[f] == v)
        if not classes[v].is_zero() or 2 * genus[v] + valence >= 3:
            continue
        if g.rank > 0 and rng.random() < 0.5:
            coords = [0] * g.rank
            coords[rng.randrange(g.rank)] = rng.randint(1, 2)
            classes[v] = MonoidElement(tuple(coords))
        else:
            for _ in range(3 - 2 * genus[v] - valence):
                boundary[nxt] = v
                involution[nxt] = nxt
                nxt += 1
    return MarkedGraph(
        flags=tuple(boundary),
        vertices=g.vertices,
        boundary=boundary,
        involution=involution,
        genus=genus,
        classes=classes,
        rank=g.rank,
    )


def rand_contraction(
    rng: random.Random, g: MarkedGraph | None = None, num_edges: tuple[int, int] = (1, 3), **graph_kw
) -> Contraction:
    """A contraction of a (default random stable) graph over a random edge set."""
    if g is None:
        graph_kw.setdefault("stable", True)
        graph_kw.setdefault("min_edges", num_edges[1])
        g = rand_graph(rng, **graph_kw)
    pool = list(edges(g))
    if not pool:
        return contract_edges(g, ())
    count = min(len(pool), rng.randint(*num_edges))
    return contract_edges(g, rng.sample(pool, count))


def rand_covering(
    rng: random.Random, tau: MarkedGraph, xi: MonoidHom, extra_ops: int = 2
) -> CombinatorialMorphism:
    """A combinatorial morphism rho -> tau covering xi, rho stable.

    Starts from the stabilization of tau's class relabelling and optionally
    chains edge cuts, stable tail forgets and component inclusions.
    """
    relabeled = relabel_classes(tau, xi)
    rho, a0 = stabilize(relabeled)
    cover = CombinatorialMorphism(
        source=rho, target=tau, flagmap=dict(a0.flagmap), vertexmap=dict(a0.vertexmap), hom=xi
    )
    for _ in range(rng.randint(0, extra_ops)):
        rho = cover.source
        choice = rng.random()
        if choice < 0.4 and edges(rho):
            smaller, step = cut_edge(rho, rng.choice(list(edges(rho))))
        elif choice < 0.7:
            tails_now = [f for f in rho.flags if rho.involution[f] == f]
            rng.shuffle(tails_now)
            for t in tails_now:
                candidate, step = forget_tail(rho, t)
                if is_stable(candidate):
                    smaller = candidate
                    break
            else:
                continue
        else:
            comps = connected_components(rho)
            if len(comps) <= 1:
                continue
            smaller = component_of(rho, min(rng.choice(comps)))
            step = component_inclusion(rho, smaller)
        cover = compose_combinatorial(cover, step)
    return cover


def rand_marked_morphism(
    rng: random.Random,
    source: MarkedGraph | None = None,
    source_rank: int = 1,
    target_rank: int | None = None,
    max_flags: int = 10,
) -> MarkedMorphism:
    """A random morphism (A, tau) -> (B, sigma) built by construction."""
    if source is None:
        source = rand_graph(rng, rank=source_rank, max_flags=max_flags, stable=True)
    target_rank = source_rank if target_rank is None else target_rank
    xi = rand_hom(rng, source.rank, target_rank)
    cover = rand_covering(rng, source, xi)
    mid = cover.source
    pool = list(edges(mid))
    chosen = rng.sample(pool, rng.randint(0, min(2, len(pool)))) if pool else []
    contr = contract_edges(mid, chosen)
    m = MarkedMorphism(hom=xi, comb=cover, mid=mid, contr=contr)
    ensure_valid(validate_marked(m))
    return m


def rand_isogeny(rng: random.Random, g: MarkedGraph, max_steps: int = 3, allow_glue: bool = True):
    """Random extended isogeny out of a stable graph, avoiding type IV forgets."""
    from stablegraphs.graphs import tails
    from stablegraphs.isogeny import ContractStep, ForgetStep, extended_isogeny, stably_forget_tail

    glues = []
    if allow_glue and rng.random() < 0.4:
        ts = list(tails(g))
        if len(ts) >= 2:
            glues.append(tuple(rng.sample(ts, 2)))
    iso = extended_isogeny(g, glues, ())
    current = iso.glued_graph
    steps = list(iso.steps)
    for _ in range(rng.randint(0, max_steps)):
        choice = rng.random()
        if choice < 0.5 and edges(current):
            steps.append(ContractStep(rng.choice(list(edges(current)))))
        else:
            ts = list(tails(current))
            rng.shuffle(ts)
            for t in ts:
                if stably_forget_tail(current, t).kind != "IV":
                    steps.append(ForgetStep(t))
                    break
            else:
                continue
        iso = extended_isogeny(g, glues, steps)
        current = iso.target
    return iso


def rand_renaming(rng: random.Random, g: MarkedGraph) -> Contraction:
    """The isomorphism, as a contraction of no edges, from g onto a copy of g
    whose flag and vertex ids are sent to shuffled, spread-out ids."""
    fmap = dict(zip(g.flags, rng.sample(range(3 * len(g.flags) + 1), len(g.flags))))
    vmap = dict(zip(g.vertices, rng.sample(range(3 * len(g.vertices) + 1), len(g.vertices))))
    copy = MarkedGraph(
        flags=tuple(fmap.values()),
        vertices=tuple(vmap.values()),
        boundary={fmap[f]: vmap[v] for f, v in g.boundary.items()},
        involution={fmap[f]: fmap[p] for f, p in g.involution.items()},
        genus={vmap[v]: x for v, x in g.genus.items()},
        classes={vmap[v]: c for v, c in g.classes.items()},
        rank=g.rank,
    )
    return Contraction(source=g, target=copy, flagmap={new: old for old, new in fmap.items()}, vertexmap=vmap)


def relabelled(rng: random.Random, g: MarkedGraph) -> MarkedGraph:
    """g with its flag and vertex ids sent to shuffled, spread-out ids."""
    return rand_renaming(rng, g).target


def rand_unstable_graph(rng: random.Random, rank: int = 1, max_flags: int = 8) -> MarkedGraph:
    """A graph guaranteed to have at least one unstable vertex."""
    for _ in range(200):
        g = rand_graph(rng, rank=rank, max_flags=max_flags, max_genus=1, max_class=1)
        if not is_stable(g):
            return g
    # fall back: bolt an unstable two-tail vertex onto a random stable graph
    g = rand_graph(rng, rank=rank, max_flags=max_flags - 2, stable=True)
    nxt = next_id(g.flags)
    nv = next_id(g.vertices)
    return edit_graph(g, attach={nxt: nv, nxt + 1: nv}, vertices={nv: (0, MonoidElement.zero(g.rank))})
