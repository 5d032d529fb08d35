"""The four benchmark workloads: seeded input generators, ops and output checks.

A run repeats one seeded op list for a fixed number of rounds.  Every
workload has the same shape:

* ``specs(seed)`` is the op list of every round and ``warmup()`` the ops
  run before timing starts; a spec is a ``(kind, data)`` pair;
* ``prepare(spec)`` builds the op's arguments outside the timed interval,
  from new graph instances each time, so every round starts cold;
* ``op(spec, args)`` is the op itself, the only code that is timed;
* ``check(spec, args, out)`` verifies the output outside the timed
  interval and returns a list of problems.

The generators below are the benchmark's own.  They deliberately do not
import ``tests/strategies.py``: a later change to the test suite must not
shift a workload.  The library only receives the generated inputs.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import random
from itertools import permutations
from pathlib import Path

import stablegraphs as sg
from stablegraphs import cli as sg_cli
from stablegraphs.stabilize import absolute_stabilization

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


# -- plain-data helpers (labelling-free, independent of the library) -------


def edge_pairs(g: sg.MarkedGraph) -> list[tuple[int, int]]:
    return sorted({(min(f, p), max(f, p)) for f, p in g.involution.items() if f != p})


def invariant_digest(graphs) -> str:
    """Digest of the sorted multiset of labelling-free graph invariants.

    Per graph: vertex count, edge count and the sorted per-vertex
    (genus, class, valence) triples.  Any correct canonical labelling or
    generator yields the same digest; a wrong set of graphs almost surely
    does not.
    """
    items = []
    for g in graphs:
        valence = {v: 0 for v in g.vertices}
        for f in g.flags:
            valence[g.boundary[f]] += 1
        per_vertex = sorted((g.genus[v], list(g.classes[v].coords), valence[v]) for v in g.vertices)
        items.append([len(g.vertices), len(edge_pairs(g)), per_vertex])
    items.sort()
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def fresh(obj, memo=None):
    """Rebuild library objects through their constructors.

    Sharing inside one input is kept (the same graph object reached twice is
    rebuilt once), but nothing is shared with the original, so a cache kept
    on a graph instance starts cold for every op.
    """
    if memo is None:
        memo = {}
    key = id(obj)
    if key in memo:
        return memo[key]
    if isinstance(obj, sg.MarkedGraph):
        out = sg.MarkedGraph(
            obj.flags, obj.vertices, dict(obj.boundary), dict(obj.involution), dict(obj.genus),
            {v: sg.MonoidElement(c.coords) for v, c in obj.classes.items()}, obj.rank,
        )
    elif isinstance(obj, sg.CombinatorialMorphism):
        out = sg.CombinatorialMorphism(
            fresh(obj.source, memo), fresh(obj.target, memo), dict(obj.flagmap), dict(obj.vertexmap), obj.hom
        )
    elif isinstance(obj, sg.Contraction):
        out = sg.Contraction(fresh(obj.source, memo), fresh(obj.target, memo), dict(obj.flagmap), dict(obj.vertexmap))
    elif isinstance(obj, sg.MarkedMorphism):
        out = sg.MarkedMorphism(obj.hom, fresh(obj.comb, memo), fresh(obj.mid, memo), fresh(obj.contr, memo))
    elif isinstance(obj, sg.ExtendedIsogeny):
        out = sg.extended_isogeny(fresh(obj.source, memo), obj.glued, obj.steps)
    elif isinstance(obj, (list, tuple)):
        out = type(obj)(fresh(x, memo) for x in obj)
    else:
        return obj  # immutable values: ints, strings, homs, profiles, steps
    memo[key] = out
    return out


# -- random inputs ----------------------------------------------------------


def rand_element(rng: random.Random, rank: int, max_coord: int) -> sg.MonoidElement:
    return sg.MonoidElement(tuple(rng.randint(0, max_coord) for _ in range(rank)))


def rand_hom(rng: random.Random, source_rank: int, target_rank: int) -> sg.MonoidHom:
    rows = tuple(tuple(rng.randint(0, 2) for _ in range(source_rank)) for _ in range(target_rank))
    return sg.MonoidHom(rows, source_rank)


def rand_graph(
    rng: random.Random,
    rank: int,
    max_flags: int = 12,
    max_vertices: int = 4,
    max_genus: int = 2,
    max_class: int = 2,
    min_edges: int = 0,
    stable: bool = False,
) -> sg.MarkedGraph:
    """A random graph; with ``stable`` every unstable vertex is patched by a
    class or extra tails.  Graphs over 14 flags are redrawn, which keeps
    every op below the canonical labelling's 16-flag cap."""
    while True:
        nv = rng.randint(1, max_vertices)
        genus = {v: rng.randint(0, max_genus) for v in range(nv)}
        classes = {v: rand_element(rng, rank, max_class) for v in range(nv)}
        boundary: dict[int, int] = {}
        involution: dict[int, int] = {}
        ne = min(max(min_edges, rng.randint(0, max(0, max_flags // 2 - 1))), max_flags // 2)
        for _ in range(ne):
            f = len(boundary)
            boundary[f], boundary[f + 1] = rng.randrange(nv), rng.randrange(nv)
            involution[f], involution[f + 1] = f + 1, f
        for _ in range(rng.randint(0, max_flags - 2 * ne)):
            f = len(boundary)
            boundary[f] = rng.randrange(nv)
            involution[f] = f
        if stable:
            for v in range(nv):
                valence = sum(1 for w in boundary.values() if w == v)
                if not classes[v].is_zero() or 2 * genus[v] + valence >= 3:
                    continue
                if rank > 0 and rng.random() < 0.5:
                    coords = [0] * rank
                    coords[rng.randrange(rank)] = rng.randint(1, 2)
                    classes[v] = sg.MonoidElement(tuple(coords))
                else:
                    for _ in range(3 - 2 * genus[v] - valence):
                        f = len(boundary)
                        boundary[f] = v
                        involution[f] = f
        if len(boundary) <= 14:
            return sg.MarkedGraph(tuple(boundary), tuple(range(nv)), boundary, involution, genus, classes, rank)


def rand_covering(rng: random.Random, tau: sg.MarkedGraph, xi: sg.MonoidHom) -> sg.CombinatorialMorphism:
    """A stable graph over xi's target mapping onto tau: the stabilization of
    tau's relabelling, sometimes followed by one edge cut."""
    rho, a0 = sg.stabilize(sg.relabel_classes(tau, xi))
    cover = sg.CombinatorialMorphism(rho, tau, a0.flagmap, a0.vertexmap, hom=xi)
    pool = edge_pairs(rho)
    if pool and rng.random() < 0.5:
        _, step = sg.cut_edge(rho, rng.choice(pool))
        cover = sg.compose_combinatorial(cover, step)
    return cover


def rand_marked(rng: random.Random, source: sg.MarkedGraph, target_rank: int) -> sg.MarkedMorphism:
    xi = rand_hom(rng, source.rank, target_rank)
    cover = rand_covering(rng, source, xi)
    mid = cover.source
    pool = edge_pairs(mid)
    chosen = rng.sample(pool, rng.randint(0, min(2, len(pool))))
    return sg.MarkedMorphism(xi, cover, mid, sg.contract_edges(mid, chosen))


def rand_isogeny_steps(rng: random.Random, g: sg.MarkedGraph, max_steps: int = 3) -> list:
    """Contractions and stable forgets of types I-III (never IV), so the
    result is an isogeny."""
    current, steps = g, []
    for _ in range(rng.randint(1, max_steps)):
        pool = edge_pairs(current)
        if pool and rng.random() < 0.5:
            e = rng.choice(pool)
            steps.append(sg.ContractStep(e))
            current = sg.contract_edges(current, [e]).target
            continue
        tails = [f for f in current.flags if current.involution[f] == f]
        rng.shuffle(tails)
        for t in tails:
            res = sg.stably_forget_tail(current, t)
            if res.kind != "IV":
                steps.append(sg.ForgetStep(t))
                current = res.graph
                break
    return steps


class Workload:
    """What the four workloads share.  Their warm-up ops do not depend on
    the seed, so that setup_s compares across seeds."""

    round_s: float  # nominal elapsed seconds of one round on the reference machine
    long_ops = False  # has ops of 0.1 s and more: rescale by the reference loop (worker.py)

    def rounds(self, seconds: int) -> int:
        """Fixed by --seconds alone, so a faster program does the same work."""
        return max(5, round(seconds / self.round_s))

    def prepare(self, spec):
        return fresh(spec[1])


# -- enumerate ----------------------------------------------------------------

# (profile, genus, tails, ample bound, max vertices).  Genus varies the cycles
# (symmetric graphs for canonical labelling); tails, class degree and profile
# rank vary the candidate product.  Genus 4 is left out: it exceeds the
# 16-flag cap of canonical labelling after about a minute.  The eight-tail
# P2 cell is capped at 4 vertices: at 5 it takes three quarters of a round,
# and a run then holds too few rounds for a steady latency per cell.
ENUMERATE_GRID = (
    ("point", 2, 0, 0, 2),
    ("point", 3, 0, 0, 4),
    ("point", 1, 4, 0, 4),
    ("point", 2, 2, 0, 4),
    ("P2", 1, 2, 2, 3),
    ("P1", 0, 4, 3, 3),
    ("P2", 0, 8, 0, 4),
)

# Stable graphs of genus 2 and 3 without tails (Maggiolo and Pagani,
# "Generating stable modular graphs", J. Symb. Comput. 46, 2011).
PUBLISHED_COUNTS = {("point", 2, 0, 0, 2): 7, ("point", 3, 0, 0, 4): 42}

# Count and invariant digest of the other cells, pinned from the library as
# first committed.
PINNED_CELLS = {
    ("point", 1, 4, 0, 4): (30, "7577b894386e2048"),
    ("point", 2, 2, 0, 4): (60, "5adabf308f6279b7"),
    ("P2", 1, 2, 2, 3): (109, "0cb2fe41553458f7"),
    ("P1", 0, 4, 3, 3): (77, "f7de5dbc8a97d711"),
    ("P2", 0, 8, 0, 4): (20, "bfeb138c127eb65c"),
    # warm-up cell; acceptance criterion 10's brute-force oracle also finds 6
    ("P1", 0, 4, 1, 2): (6, "f8482e923be10163"),
}


class Enumerate(Workload):
    """Each op enumerates the stable graphs of one grid cell; every round
    runs the whole grid in a seeded order."""

    round_s = 2.0
    long_ops = True

    def specs(self, seed: int) -> list:
        cells = list(ENUMERATE_GRID)
        random.Random(seed).shuffle(cells)
        return [("enumerate", cell) for cell in cells]

    def warmup(self) -> list:
        return [("enumerate", ("point", 2, 0, 0, 2)), ("enumerate", ("P1", 0, 4, 1, 2))]

    def prepare(self, spec):
        profile, genus, tails, bound, nv = spec[1]
        return (sg.BUILTIN_PROFILES[profile], genus, tails, bound, nv)

    def op(self, spec, args):
        return sg.enumerate_stable_graphs(*args)

    def check(self, spec, args, out) -> list[str]:
        cell = spec[1]
        if cell in PUBLISHED_COUNTS:
            expected = PUBLISHED_COUNTS[cell]
            return [] if len(out) == expected else [f"{cell}: {len(out)} graphs, published count {expected}"]
        got = (len(out), invariant_digest(out))
        return [] if got == PINNED_CELLS[cell] else [f"{cell}: got {got}, pinned {PINNED_CELLS[cell]}"]


# -- calculus -----------------------------------------------------------------

# Tasks per block of ten; the op list is several blocks, each in a seeded order.
CALCULUS_MIX = (("pullback", 3), ("compose", 2), ("pushforward", 2), ("isogeny", 2), ("cartesian", 1))

SURFACE = sg.VarietyProfile("surface", 2, sg.LinearForm((-2, -2)), sg.LinearForm((1, 1)))
CARTESIAN_PROFILES = (sg.projective_space(1), sg.projective_space(2), sg.projective_space(3), SURFACE)


def gen_pullback(rng: random.Random):
    """A 2-3 edge contraction of a stable rank-2 graph and a covering of its
    target; the op pulls back in every elementary order."""
    while True:
        g = rand_graph(rng, rank=2, max_vertices=5, min_edges=3, stable=True)
        pool = edge_pairs(g)
        if len(pool) >= 2:
            break
    phi = sg.contract_edges(g, rng.sample(pool, rng.randint(2, min(3, len(pool)))))
    xi = rand_hom(rng, 2, rng.randint(1, 2))
    return (xi, phi, rand_covering(rng, phi.target, xi), tuple(permutations(phi.contracted_edges())))


def gen_compose(rng: random.Random):
    m1 = rand_marked(rng, rand_graph(rng, rank=2, max_flags=9, stable=True), rng.randint(1, 2))
    m2 = rand_marked(rng, m1.target_graph, rng.randint(1, 2))
    return (m1, m2, rand_marked(rng, m2.target_graph, rng.randint(1, 2)))


def gen_pushforward(rng: random.Random):
    g = rand_graph(rng, rank=2)
    stable_g = rand_graph(rng, rank=2, max_flags=10, stable=True)
    xi = rand_hom(rng, 2, rng.randint(0, 2))
    return (g, stable_g, xi, rand_hom(rng, xi.target_rank, rng.randint(0, 2)))


def gen_isogeny(rng: random.Random):
    g = rand_graph(rng, rank=1, stable=True)
    steps1 = tuple(rand_isogeny_steps(rng, g))
    mid = sg.extended_isogeny(g, (), steps1).target
    return (g, steps1, tuple(rand_isogeny_steps(rng, mid)))


def gen_cartesian(rng: random.Random):
    """Two vertices joined by one edge, contracted; the profile-graph over
    the contraction carries a random class, so the family runs over all its
    splittings."""
    p = rng.choice(CARTESIAN_PROFILES)
    g1, g2 = rng.choice((0, 0, 1)), rng.choice((0, 0, 1))
    t1, t2 = rng.randint(2 - 2 * g1, 3), rng.randint(2 - 2 * g2, 3)
    tails = {f: (0 if f < t1 else 1) for f in range(t1 + t2)}
    e = (t1 + t2, t1 + t2 + 1)
    tau = sg.modular_graph({0: g1, 1: g2}, tails=tails, edges=[((e[0], 0), (e[1], 1))])
    phi = sg.extended_isogeny(tau, (), (sg.ContractStep(e),))
    beta = tuple(rng.randint(0, 3 if p.rank == 1 else 2) for _ in range(p.rank))
    sigma = sg.marked_graph(p.rank, {0: (g1 + g2, beta)}, tails={f: 0 for f in tails})
    b = sg.CombinatorialMorphism(
        phi.target, sigma, {f: f for f in phi.target.flags}, {v: 0 for v in phi.target.vertices},
        hom=sg.MonoidHom.to_trivial(p.rank),
    )
    return (p, phi, b)


CALCULUS_GENERATORS = {
    "pullback": gen_pullback,
    "compose": gen_compose,
    "pushforward": gen_pushforward,
    "isogeny": gen_isogeny,
    "cartesian": gen_cartesian,
}


def run_calculus(kind: str, args):
    if kind == "pullback":
        xi, phi, a, orders = args
        return [sg.stable_pullback(xi, phi, a, edge_order=order) for order in orders]
    if kind == "compose":
        m1, m2, m3 = args
        return (sg.compose_marked(m3, sg.compose_marked(m2, m1)), sg.compose_marked(sg.compose_marked(m3, m2), m1))
    if kind == "pushforward":
        g, stable_g, xi, eta = args
        s, _ = sg.stabilize(g)
        again, _ = sg.stabilize(s)
        one_shot, _ = sg.pushforward(eta.compose(xi), stable_g)
        staged, _ = sg.pushforward(eta, sg.pushforward(xi, stable_g)[0])
        return (s, again, one_shot, staged)
    if kind == "isogeny":
        g, steps1, steps2 = args
        iso1 = sg.extended_isogeny(g, (), steps1)
        iso2 = sg.extended_isogeny(iso1.target, (), steps2)
        return (iso1, iso2, sg.compose_extended(iso2, iso1))
    p, phi, b = args
    members = sg.cartesian_pullback(p, phi, b)
    ledger = [(sg.deg_graph(p, m.graph), sg.dim_graph(p, m.graph)) for m in members]
    return (members, ledger, sg.deg_graph(p, b.target))


def check_calculus(kind: str, args, out) -> list[str]:
    """The consistency checks of acceptance criteria 1, 2, 4, 7, 8 and 9."""
    chi = sg.euler_characteristic
    if kind == "pullback":
        keys = {sg.pullback_diagram_key(*square) for square in out}
        return [] if len(keys) == 1 else [f"pullback: {len(keys)} distinct diagrams over {len(out)} orders"]
    if kind == "compose":
        left, right = out
        same = left.hom == right.hom and sg.marked_key(left) == sg.marked_key(right)
        return [] if same else ["compose: the two bracketings disagree"]
    if kind == "pushforward":
        s, again, one_shot, staged = out
        problems = [] if again == s else ["stabilize: not idempotent"]
        if sg.canonical_key(one_shot) != sg.canonical_key(staged):
            problems.append("pushforward: not functorial")
        return problems
    if kind == "isogeny":
        iso1, iso2, comp = out
        ok = (
            iso1.is_isogeny() and iso2.is_isogeny() and comp.target == iso2.target
            and chi(iso1.source) == chi(iso1.target) == chi(iso2.target) == chi(comp.target)
        )
        return [] if ok else ["isogeny: chi not invariant or composite target wrong"]
    p, phi, b = args
    members, ledger, target_deg = out
    beta = b.target.classes[0]
    splits = [
        (m.graph.classes[m.identification.vertexmap[0]], m.graph.classes[m.identification.vertexmap[1]])
        for m in members
    ]
    problems = []
    if len(members) != math.prod(c + 1 for c in beta.coords) or splits != sg.enumerate_pair_decompositions(beta):
        problems.append("cartesian: family is not the set of class splits")
    for m, (deg, dim) in zip(members, ledger):
        stab, _ = absolute_stabilization(m.graph)
        if not sg.is_stable(m.graph) or deg != target_deg:
            problems.append("cartesian: member unstable or degree not preserved")
        if dim - sg.dim_graph(sg.POINT, stab) != chi(stab) * p.dimension - deg:
            problems.append("cartesian: dimension/degree identity fails")
    return problems


class Calculus(Workload):
    """Each op is one task of the mix over its own random graphs.

    The tasks are one fixed draw and the seed sets their order.  Task cost
    is heavy-tailed, so a fresh draw per seed would move the op list's
    total time from seed to seed.
    """

    blocks = 10
    round_s = 0.4

    def __init__(self) -> None:
        rng = random.Random("calculus-tasks")
        self.tasks = []
        for _ in range(self.blocks):
            kinds = [kind for kind, count in CALCULUS_MIX for _ in range(count)]
            rng.shuffle(kinds)
            self.tasks.extend((kind, CALCULUS_GENERATORS[kind](rng)) for kind in kinds)

    def specs(self, seed: int) -> list:
        out = list(self.tasks)
        random.Random(f"calculus-{seed}").shuffle(out)
        return out

    def warmup(self) -> list:
        rng = random.Random("calculus-warmup")
        return [(kind, CALCULUS_GENERATORS[kind](rng)) for kind, _ in CALCULUS_MIX]

    def op(self, spec, args):
        return run_calculus(spec[0], args)

    def check(self, spec, args, out) -> list[str]:
        return check_calculus(spec[0], args, out)


# -- certify ------------------------------------------------------------------


def relabel(rng: random.Random, g: sg.MarkedGraph) -> sg.MarkedGraph:
    """The same graph under seeded flag and vertex ids."""
    fs = rng.sample(range(len(g.flags)), len(g.flags))
    vs = rng.sample(range(len(g.vertices)), len(g.vertices))
    fmap, vmap = dict(zip(g.flags, fs)), dict(zip(g.vertices, vs))
    return sg.MarkedGraph(
        tuple(fs), tuple(vs),
        {fmap[f]: vmap[v] for f, v in g.boundary.items()},
        {fmap[f]: fmap[p] for f, p in g.involution.items()},
        {vmap[v]: x for v, x in g.genus.items()},
        {vmap[v]: c for v, c in g.classes.items()},
        g.rank,
    )


def certify_graphs(count: int = 60, max_valence: int = 4) -> list[sg.MarkedGraph]:
    """A fixed draw of unstable rank-1 graphs with at most 8 flags, distinct
    by labelling-free invariants.

    Per-op cost grows factorially with vertex valence (a valence-6 vertex
    takes seconds), and on random draws the sum over a round then varies by
    tens of percent from seed to seed.  So the isomorphism classes are fixed
    and capped at valence 4; the seed picks their labelling and order.
    """
    rng = random.Random("certify-graphs")
    out, seen = [], set()
    while len(out) < count:
        g = rand_graph(rng, rank=1, max_flags=8, max_genus=1, max_class=1)
        valence = collections.Counter(g.boundary.values())
        key = invariant_digest([g])
        if sg.is_stable(g) or max(valence.values(), default=0) > max_valence or key in seen:
            continue
        seen.add(key)
        out.append(g)
    return out


def certify_pool() -> list[sg.MarkedGraph]:
    """Enumerated stable P1 sources with at most 6 flags (the criterion-3 pool)."""
    p1 = sg.projective_space(1)
    return [
        g
        for genus in (0, 1)
        for tails in (1, 2, 3, 4)
        for g in sg.enumerate_stable_graphs(p1, genus, tails, ample_bound=1, max_vertices=2)
        if len(g.flags) <= 6
    ]


class Certify(Workload):
    """Each op certifies the universal property of one unstable graph's
    stabilization, against its default pool or the enumerated P1 pool."""

    round_s = 3.0
    long_ops = True

    def __init__(self) -> None:
        self.graphs = certify_graphs()
        self.pool = certify_pool()

    def specs(self, seed: int) -> list:
        rng = random.Random(f"certify-{seed}")
        out = [("certify", (relabel(rng, g), which)) for g in self.graphs for which in ("default", "pool")]
        rng.shuffle(out)
        return out

    def warmup(self) -> list:
        return [("certify", (self.graphs[0], which)) for which in ("default", "pool")]

    def op(self, spec, args):
        g, which = args
        if which == "pool":
            return sg.check_universal_property(g, pool=self.pool, pool_limit=len(self.pool), max_flags=8)
        return sg.check_universal_property(g, max_flags=8)

    def check(self, spec, args, out) -> list[str]:
        problems = list(out.counterexamples)
        if args[1] == "pool" and out.sources_checked != len(self.pool):
            problems.append(f"certify: {out.sources_checked} of {len(self.pool)} pool sources checked")
        return problems


# -- cli ----------------------------------------------------------------------

# Golden case -> (verb, expected exit code), as committed under tests/golden.
CLI_CASES = {
    "invariants_tripod": ("invariants", 0),
    "validate_bad_involution": ("validate", 3),
    "stabilize_case2": ("stabilize", 0),
    "pushforward_absolute": ("pushforward", 0),
    "contract_bridge": ("contract", 0),
    "cut_bridge": ("cut", 0),
    "glue_loop": ("glue", 0),
    "forget_type2": ("forget", 0),
    "compose_isogenies": ("compose", 0),
    "compose_marked": ("compose", 0),
    "pullback_case2": ("pullback", 0),
    "cartesian_case2": ("cartesian", 0),
    "boundary_tree4": ("boundary", 0),
    "dim_p2_d2": ("dim", 0),
    "deg_p2_d2": ("deg", 0),
    "export_dot": ("export-dot", 0),
}


class Cli(Workload):
    """Each op is one in-process CLI call on a golden input; a round runs all
    16 cases, four times over, in a seeded order (64 ops, enough for a tail
    percentile with 10 ops beyond it)."""

    passes = 4
    round_s = 0.1

    def __init__(self) -> None:
        self.golden = {stem: (GOLDEN / "out" / f"{stem}.out").read_bytes() for stem in CLI_CASES}

    def specs(self, seed: int) -> list:
        stems = sorted(CLI_CASES) * self.passes
        random.Random(seed).shuffle(stems)
        return [("cli", stem) for stem in stems]

    def warmup(self) -> list:
        return [("cli", stem) for stem in sorted(CLI_CASES)]

    def prepare(self, spec):
        stem = spec[1]
        return [CLI_CASES[stem][0], "--in", str(GOLDEN / "in" / f"{stem}.json")]

    def op(self, spec, args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sg_cli.main(args)
        return code, buf.getvalue()

    def check(self, spec, args, out) -> list[str]:
        stem = spec[1]
        code, text = out
        problems = [] if code == CLI_CASES[stem][1] else [f"cli {stem}: exit {code}"]
        if text.encode("utf-8") != self.golden[stem]:
            problems.append(f"cli {stem}: output differs from the golden file")
        return problems


WORKLOADS = {"enumerate": Enumerate, "calculus": Calculus, "certify": Certify, "cli": Cli}
