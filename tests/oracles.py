"""Independent oracles the test suite checks the library against.

These deliberately re-derive answers by different routes: linear algebra
over GF(2) for cycle ranks, a literal breadth-first chain search for the
flag-equivalence condition, a raw product enumeration for boundary graph
listings, for combinatorial morphisms and for the canonical labelling's
vertex orderings, the two morphism validators written the way that builds
graphs (each contracted piece, and the relabelled target), an
automorphism count that backtracks over vertex bijections, the product of
two monoid homomorphisms summed entry by entry over an index, and sums over
whole enumerator outputs by a Feynman expansion that builds no graph, and
the cartesian lifts over a forget or glue as every candidate graph that
passes the lift's conditions.
None of them call the code paths they certify; the labelling oracle shares
only the labeller's refinement and its encoding of one ordering, which
define the minimum it checks the search against.  At the end are two checked
helpers that only the tests call.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product
from fractions import Fraction
from math import factorial, prod
from operator import add, le, mul

from stablegraphs.canonical import (
    _encode_with_vertex_order,
    _flag_groups,
    _vertex_classes,
    canonical_encoding,
    canonical_form,
    canonical_key,
)
from stablegraphs.cartesian import FamilyMember, is_stabilization_identification
from stablegraphs.errors import SizeCapError, Violation, ensure_valid
from stablegraphs.graphs import (
    MarkedGraph,
    connected_components,
    edges,
    edit_graph,
    equivalence_classes,
    euler_characteristic,
    flag_partition,
    is_stable,
    next_id,
    relabel_classes,
    tails,
    valence,
)
from stablegraphs.isogeny import ExtendedIsogeny, elementary_forget_isogeny, elementary_glue_isogeny
from stablegraphs.monoid import MonoidElement, MonoidHom
from stablegraphs.morphisms import (
    CombinatorialMorphism,
    Contraction,
    contracted_piece,
    inclusion,
    validate_combinatorial,
)
from stablegraphs.profiles import VarietyProfile, deg_graph
from stablegraphs.stabilize import absolute_stabilization


def betti1_gf2(g: MarkedGraph) -> int:
    """Cycle rank as #E minus the GF(2) rank of the vertex/edge incidence matrix.

    Each non-loop edge contributes a column with ones at its two endpoint
    vertices; loops contribute zero columns.  Rows are vertices encoded as
    bits of an integer, and rank is computed by elimination on columns.
    """
    vidx = {v: i for i, v in enumerate(g.vertices)}
    columns = []
    for f1, f2 in edges(g):
        v1, v2 = g.boundary[f1], g.boundary[f2]
        col = 0
        if v1 != v2:
            col = (1 << vidx[v1]) | (1 << vidx[v2])
        columns.append(col)
    rank = 0
    basis: list[int] = []
    for col in columns:
        cur = col
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
            rank += 1
    return len(columns) - rank


def chain_condition_holds(a: CombinatorialMorphism, f: int, fbar: int) -> bool:
    """Literal search for the flag chain certifying condition 3 at one edge.

    Looks for flags f_1 .. f_n, fbar_1 .. fbar_n in the target with
    f_1 = a(f), fbar_n = a(fbar), fbar_i the involution partner of f_i,
    consecutive fbar_i and f_{i+1} sharing a vertex, and any actual jump
    happening only at genus-zero class-zero vertices.
    """
    tgt = a.target
    start = a.flagmap[f]
    goal = a.flagmap[fbar]
    # n = 1 chain: the pair (start, j(start)) with j(start) = goal
    if tgt.involution[start] == goal:
        return True
    # BFS over "fbar positions": from j(start), extend by a vertex move then j
    frontier = [tgt.involution[start]]
    seen = set(frontier)
    while frontier:
        new_frontier = []
        for pos in frontier:
            if pos == goal:
                return True
            v = tgt.boundary[pos]
            free = tgt.genus[v] == 0 and tgt.classes[v].is_zero()
            nexts = [pos] if not free else list(tgt.flags_at(v))
            for nxt in nexts:
                partner = tgt.involution[nxt]
                if partner not in seen:
                    seen.add(partner)
                    new_frontier.append(partner)
        frontier = new_frontier
    return goal in seen


def compose_homs_by_index(outer: MonoidHom, inner: MonoidHom) -> MonoidHom:
    """outer o inner, each entry a sum over inner's target index, for homs
    whose ranks fit."""
    rows = tuple(
        tuple(sum(row[i] * inner.rows[i][j] for i in range(inner.target_rank)) for j in range(inner.source_rank))
        for row in outer.rows
    )
    return MonoidHom(rows, inner.source_rank)


def validate_contraction_by_pieces(c: Contraction) -> list[Violation]:
    """``validate_contraction``, taking each genus gain from the contracted
    piece built as a graph, by its GF(2) cycle rank."""
    out: list[Violation] = []
    src, tgt = c.source, c.target
    if src.rank != tgt.rank:
        return [Violation("contraction-rank", f"source rank {src.rank} != target rank {tgt.rank}")]
    if set(c.flagmap) != set(tgt.flags) or not set(c.flagmap.values()) <= set(src.flags):
        return [Violation("contraction-maps-total", "flag map must send exactly the target flags into source flags")]
    if set(c.vertexmap) != set(src.vertices) or not set(c.vertexmap.values()) <= set(tgt.vertices):
        return [Violation("contraction-maps-total", "vertex map must send exactly the source vertices into target vertices")]
    if len(set(c.flagmap.values())) != len(c.flagmap):
        out.append(Violation("contraction-1-injective", "flag map is not injective"))
    if set(c.vertexmap.values()) != set(tgt.vertices):
        out.append(Violation("contraction-1-surjective", "vertex map is not surjective"))
    for f, pre in c.flagmap.items():
        if c.vertexmap[src.boundary[pre]] != tgt.boundary[f]:
            out.append(Violation("contraction-2-boundary", f"boundary square fails at target flag {f}"))
            break
    for f, pre in c.flagmap.items():
        if c.flagmap[tgt.involution[f]] != src.involution[pre]:
            out.append(Violation("contraction-3-involution", f"involution square fails at target flag {f}"))
            break
    else:
        src_tails = {f for f in src.flags if src.involution[f] == f}
        if {c.flagmap[f] for f in tgt.flags if tgt.involution[f] == f} != src_tails:
            out.append(Violation("contraction-4-tails", "tails do not correspond bijectively"))
    if out:
        return out
    gone = set(src.flags) - set(c.flagmap.values())
    joined = ((src.boundary[f], src.boundary[src.involution[f]]) for f in gone)
    fibers = {v: [w for w in src.vertices if c.vertexmap[w] == v] for v in sorted(tgt.vertices)}
    if sorted(fibers.values()) != equivalence_classes(src.vertices, joined):
        return [Violation("contraction-5-fibers", "vertex fibers differ from contracted-edge connectivity classes")]
    for v, fiber in fibers.items():
        expected_g = sum(src.genus[w] for w in fiber) + betti1_gf2(contracted_piece(c, v))
        if tgt.genus[v] != expected_g:
            out.append(Violation("contraction-genus", f"genus at target vertex {v}: {tgt.genus[v]} != {expected_g}"))
        if tgt.classes[v] != sum((src.classes[w] for w in fiber), MonoidElement.zero(src.rank)):
            out.append(Violation("contraction-class", f"class at target vertex {v} is not the fiber sum"))
    return out


def validate_combinatorial_by_relabelling(a: CombinatorialMorphism) -> list[Violation]:
    """``validate_combinatorial``, reading the flag partition and the classes
    off the target relabelled through the hom, built as a graph."""
    out: list[Violation] = []
    src, tgt = a.source, a.target
    if a.hom is None and src.rank != tgt.rank:
        return [Violation("combinatorial-rank", f"source rank {src.rank} != target rank {tgt.rank}")]
    if a.hom is not None and (a.hom.source_rank != tgt.rank or a.hom.target_rank != src.rank):
        return [Violation("combinatorial-rank", "marking homomorphism ranks do not match the graphs")]
    if set(a.flagmap) != set(src.flags) or not set(a.flagmap.values()) <= set(tgt.flags):
        return [Violation("combinatorial-maps-total", "flag map must send exactly the source flags into target flags")]
    if set(a.vertexmap) != set(src.vertices) or not set(a.vertexmap.values()) <= set(tgt.vertices):
        return [Violation("combinatorial-maps-total", "vertex map must send exactly the source vertices into target vertices")]
    for f in src.flags:
        if tgt.boundary[a.flagmap[f]] != a.vertexmap[src.boundary[f]]:
            out.append(Violation("combinatorial-1-boundary", f"boundary square fails at flag {f}"))
            break
    for v in src.vertices:
        if len({a.flagmap[f] for f in src.flags_at(v)}) != len(src.flags_at(v)):
            out.append(Violation("combinatorial-2-injective", f"flag map not injective at vertex {v}"))
            break
    marked = relabel_classes(tgt, a.hom) if a.hom is not None else tgt
    part = flag_partition(marked)
    for f1, f2 in edges(src):
        if not part.same_block(a.flagmap[f1], a.flagmap[f2]):
            out.append(Violation("combinatorial-3-equivalence", f"edge ({f1},{f2}) maps to inequivalent flags"))
            break
    for v in src.vertices:
        if src.classes[v] != marked.classes[a.vertexmap[v]]:
            out.append(Violation("combinatorial-4-class", f"class mismatch at vertex {v}"))
            break
    for v in src.vertices:
        if src.genus[v] != tgt.genus[a.vertexmap[v]]:
            out.append(Violation("combinatorial-5-genus", f"genus mismatch at vertex {v}"))
            break
    return out


def enumerate_combinatorial_morphisms_by_product(
    src: MarkedGraph, tgt: MarkedGraph, cap: int = 200_000
) -> list[CombinatorialMorphism]:
    """``enumerate_combinatorial_morphisms`` without pruning: every product
    of per-vertex flag injections over every compatible vertex assignment
    is built and validated in full.  ``cap`` counts complete candidates.
    """
    if src.rank != tgt.rank:
        return []
    candidates: dict[int, list[int]] = {}
    for v in src.vertices:
        opts = [
            w
            for w in tgt.vertices
            if tgt.genus[w] == src.genus[v]
            and tgt.classes[w] == src.classes[v]
            and valence(tgt, w) >= valence(src, v)
        ]
        if not opts:
            return []
        candidates[v] = opts

    results: list[CombinatorialMorphism] = []
    svs = list(src.vertices)

    def flag_assignments(vmap: dict[int, int]):
        per_vertex: list[list[dict[int, int]]] = []
        for v in svs:
            at_v = src.flags_at(v)
            tgt_at = tgt.flags_at(vmap[v])
            options = [dict(zip(at_v, pick)) for pick in permutations(tgt_at, len(at_v))]
            if not options:
                return
            per_vertex.append(options)
        for combo in product(*per_vertex):
            fmap: dict[int, int] = {}
            for d in combo:
                fmap.update(d)
            yield fmap

    count = 0
    for assignment in product(*(candidates[v] for v in svs)):
        vmap = dict(zip(svs, assignment))
        for fmap in flag_assignments(vmap):
            count += 1
            if count > cap:
                raise SizeCapError(f"morphism enumeration exceeded {cap} candidates")
            cand = CombinatorialMorphism(source=src, target=tgt, flagmap=fmap, vertexmap=vmap)
            if not validate_combinatorial(cand):
                results.append(cand)
    return results


def isomorphic_brute_force(g1: MarkedGraph, g2: MarkedGraph) -> bool:
    """Decide isomorphism by trying every structure-respecting bijection.

    Exponential; only for cross-checking the canonical-labelling key on
    small graphs.
    """
    if (
        g1.rank != g2.rank
        or len(g1.flags) != len(g2.flags)
        or len(g1.vertices) != len(g2.vertices)
    ):
        return False

    def vertex_sig(g, v):
        return (g.genus[v], g.classes[v].coords, len(g.flags_at(v)))

    from itertools import permutations

    v1 = list(g1.vertices)
    v2 = list(g2.vertices)
    for perm in permutations(v2):
        vmap = dict(zip(v1, perm))
        if any(vertex_sig(g1, v) != vertex_sig(g2, vmap[v]) for v in v1):
            continue
        # extend to flags vertex by vertex
        def extend(idx: int, fmap: dict) -> bool:
            if idx == len(v1):
                return all(fmap[g1.involution[f]] == g2.involution[fmap[f]] for f in fmap)
            v = v1[idx]
            source_flags = g1.flags_at(v)
            target_flags = g2.flags_at(vmap[v])
            for pick in permutations(target_flags):
                trial = dict(fmap)
                trial.update(zip(source_flags, pick))
                ok = True
                for f in source_flags:
                    partner = g1.involution[f]
                    if partner in trial and trial[partner] != g2.involution[trial[f]]:
                        ok = False
                        break
                if ok and extend(idx + 1, trial):
                    return True
            return False

        if extend(0, {}):
            return True
    return False


def canonical_encoding_by_product(g: MarkedGraph, flag_colors=None, vertex_colors=None) -> tuple:
    """``canonical_encoding``'s (encoding, witness) from every ordering.

    Each component tries every product of permutations within its refined
    vertex classes and keeps the first minimal encoding; the pieces are
    then sorted and their slots offset, as the labeller does.  It shares
    the labeller's refinement and its encoding of one ordering, which
    define the minimum, and not its search.  Exponential in the class sizes.
    """
    frepr = vrepr = None
    if flag_colors or vertex_colors:
        frepr = {f: repr((flag_colors or {}).get(f)) for f in g.flags}
        vrepr = {v: repr((vertex_colors or {}).get(v)) for v in g.vertices}
    pieces = []
    for comp in connected_components(g):
        comp = sorted(comp)
        groups = _flag_groups(g, comp, frepr)
        classes = _vertex_classes(g, comp, groups, frepr, vrepr)
        orders = product(*(permutations(c) for c in classes))
        encodings = (_encode_with_vertex_order(g, [v for c in o for v in c], groups, frepr, vrepr) for o in orders)
        pieces.append(min(encodings, key=lambda r: r[0]))
    pieces.sort(key=lambda p: p[0])
    flag_lab, vertex_lab = {}, {}
    foff = voff = 0
    for enc, (fslot, vslot) in pieces:
        flag_lab.update({f: s + foff for f, s in fslot.items()})
        vertex_lab.update({v: s + voff for v, s in vslot.items()})
        voff += enc[0]
        foff += enc[1]
    return (g.rank, len(g.vertices), len(g.flags), tuple(p[0] for p in pieces)), (flag_lab, vertex_lab)


def automorphism_count(g: MarkedGraph) -> int:
    """|Aut g|, tails unlabelled, by backtracking over vertex bijections.

    A vertex bijection extends to an automorphism exactly when it keeps the
    genus, class, tail count and loop count of every vertex and the number
    of edges between every pair of vertices.  Each one extends in
    prod_v t_v! l_v! 2^l_v prod_{u<v} m_uv! ways: tails, loops (each either
    way round) and parallel edges permute freely.  Exponential in the
    vertex count; only for small graphs.
    """
    tails = {v: 0 for v in g.vertices}
    loops = dict(tails)
    between: dict[tuple[int, int], int] = {}
    for f in g.flags:
        p = g.involution[f]
        u, v = sorted((g.boundary[f], g.boundary[p]))
        if p == f:
            tails[u] += 1
        elif f < p and u == v:
            loops[u] += 1
        elif f < p:
            between[u, v] = between.get((u, v), 0) + 1

    def sig(v: int) -> tuple:
        return (g.genus[v], g.classes[v].coords, tails[v], loops[v])

    def mult(u: int, v: int) -> int:
        return between.get((min(u, v), max(u, v)), 0)

    verts = list(g.vertices)
    image: dict[int, int] = {}

    def bijections(i: int) -> int:
        if i == len(verts):
            return 1
        v, total = verts[i], 0
        for w in verts:
            if w in image.values() or sig(w) != sig(v):
                continue
            if any(mult(u, v) != mult(image[u], w) for u in verts[:i]):
                continue
            image[v] = w
            total += bijections(i + 1)
            del image[v]
        return total

    per = 1
    for v in verts:
        per *= factorial(tails[v]) * factorial(loops[v]) * 2 ** loops[v]
    for m in between.values():
        per *= factorial(m)
    return bijections(0) * per


def _times(a: dict, b: dict, limits: tuple) -> dict:
    """The product of two series whose keys are exponent tuples, dropping
    every term with an exponent above its limit.  b's terms are taken in
    order of their first exponent, so each term of a stops at its room."""
    out: dict = {}
    terms = sorted(b.items())
    for ka, ca in a.items():
        room = limits[0] - ka[0]
        for kb, cb in terms:
            if kb[0] > room:
                break
            key = tuple(map(add, ka, kb))
            if all(map(le, key, limits)):
                out[key] = out.get(key, 0) + ca * cb
    return out


def _reachable(series: dict, aim: int, most: int) -> dict:
    """The terms of a series in (grade, degree, class, x, y, w) from which
    some term with grade - 3 degree = aim and at most ``most`` vertices can
    grow.  Each vertex more adds 2g - 2 + k + j >= -2 to grade - 3 degree."""
    return {key: c for key, c in series.items() if key[0] - 3 * key[1] - 2 * (most - key[-1]) <= aim}


def graph_sums(
    genus: int, tails: int, bound: int, max_vertices: int, weight=lambda g, m: 1, ample: tuple = (1,)
) -> dict:
    """class vector c -> per vertex count V up to max_vertices, the sum over
    the connected stable graphs with the genus, the tails, total class c and
    V vertices of prod_v weight(genus_v, valence_v) / |Aut|, tails
    unlabelled, in exact fractions; ``weight`` gives integers.  The classes
    are those of rank r = len(ample) whose degree under the ample form
    ``ample`` is at most ``bound``; at rank 0 the one class is ().

    A Feynman expansion that builds no graph (Bessis, Itzykson and Zuber,
    "Quantum field theory techniques in graphical enumeration", Adv. Appl.
    Math. 1, 1980): the sum is the coefficient of h^(g-1) q^c y^n w^V in the
    log of the Gaussian average, <x^2m> = (2m-1)!! h^m, of exp of the sum
    over stable (g, c, k, j) of weight h^(g-1) q^c w x^k y^j / (k! j!).
    With d the ample degree of c, every stable vertex has the grade
    e = 2g - 2 + k + j + 3d >= 1, and e sums to 2g - 2 + n + 3d over a
    graph, so the series are cut at that grade.  The power of h follows
    from the grade, the degree and the tails, so the series carry exponents
    of (grade, d, c_1..c_r, x, y, w) only.  They hold integer numerators
    over one denominator per series.
    """
    classes = {c: sum(map(mul, ample, c)) for c in product(*(range(bound // a + 1) for a in ample))}
    classes = {c: d for c, d in classes.items() if d <= bound}
    aim = 2 * genus - 2 + tails
    top = aim + 3 * max(classes.values())
    # no graph has more vertices than grade
    most = max(0, min(max_vertices, top))
    limits = (top, bound, *(bound // a for a in ample), 2 * top + 4 * most, tails, most)
    # the vertex terms over `scale`, so their m-th power is over scale^m
    scale = factorial(top + 2) * factorial(tails)
    vertex = {}
    for c, d in classes.items():
        for j in range(tails + 1):
            for g in range(top // 2 + 2):
                for k in range(top + 3):
                    e = 2 * g - 2 + k + j + 3 * d
                    if 1 <= e <= top:
                        vertex[(e, d, *c, k, j, 1)] = weight(g, k + j) * scale // (factorial(k) * factorial(j))
    # z, the average of exp less its constant term, over z_scale: each
    # x^k goes to its (k-1)!! pairings, and V^m comes with 1/m!
    z_scale = scale**most * factorial(most)
    z: dict = {}
    one = {(0,) * len(limits): 1}
    power = one
    for m in range(1, most + 1):
        power = _reachable(_times(power, vertex, limits), aim, most)
        lift = scale ** (most - m) * factorial(most) // factorial(m)
        for (*head, k, j, w), coeff in power.items():
            if k % 2 == 0:
                key = (*head, 0, j, w)
                z[key] = z.get(key, 0) + coeff * prod(range(k - 1, 0, -2)) * lift
    # log(1 + z) over z_scale^most most!: each term of z has w >= 1, so
    # `most` terms suffice
    log: dict = {}
    power = one
    for r in range(1, most + 1):
        power = _reachable(_times(power, z, limits), aim, most)
        lift = (-1) ** (r + 1) * factorial(most) // r * z_scale ** (most - r)
        for key, coeff in power.items():
            log[key] = log.get(key, 0) + coeff * lift
    denominator = z_scale**most * factorial(most)
    return {
        c: [Fraction(log.get((aim + 3 * d, d, *c, 0, tails, w), 0), denominator) for w in range(most + 1)]
        for c, d in classes.items()
    }


def enumerate_by_shapes(
    p: VarietyProfile, genus_total: int, num_tails: int, ample_bound: int, max_vertices: int
) -> list:
    """Reference listing of connected stable profile-graphs within the bounds.

    Takes the raw product of vertex counts, genus compositions, connected
    multigraph shapes, tail compositions and class tuples, keeps the stable
    candidates and deduplicates them by canonical key.  Same output contract
    as ``enumerate_stable_graphs``, reached by the opposite route: no
    splitting, and no clamp on the vertex count.
    """
    class_pool = [
        MonoidElement(c)
        for c in product(*(range(ample_bound // a + 1) for a in p.ample.coeffs))
        if p.ample(MonoidElement(c)) <= ample_bound
    ]
    seen: dict[tuple, MarkedGraph] = {}
    for nv in range(1, max_vertices + 1):
        for genus_sum in range(genus_total + 1):
            for genera in _compositions(genus_sum, nv):
                ne = genus_total - genus_sum + nv - 1
                for edge_combo in _connected_multigraphs(nv, ne):
                    for tail_split in _compositions(num_tails, nv):
                        for classes in product(class_pool, repeat=nv):
                            total = MonoidElement.zero(p.rank)
                            for c in classes:
                                total = total + c
                            if p.ample(total) > ample_bound:
                                continue
                            g = _assemble(p.rank, genera, classes, tail_split, edge_combo)
                            if not is_stable(g):
                                continue
                            key = canonical_key(g)
                            if key not in seen:
                                seen[key] = canonical_form(g)
    return [seen[k] for k in sorted(seen)]


def _connected_multigraphs(nv: int, ne: int):
    """Multisets of vertex pairs (loops allowed) forming connected graphs."""
    pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
    for combo in combinations_with_replacement(pairs, ne):
        if len(equivalence_classes(range(nv), combo)) == 1:
            yield combo


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _assemble(rank, genera, classes, tail_split, edge_combo) -> MarkedGraph:
    nv = len(genera)
    boundary: dict[int, int] = {}
    involution: dict[int, int] = {}
    nxt = 0
    for v in range(nv):
        for _ in range(tail_split[v]):
            boundary[nxt] = v
            involution[nxt] = nxt
            nxt += 1
    for i, j in edge_combo:
        boundary[nxt], boundary[nxt + 1] = i, j
        involution[nxt], involution[nxt + 1] = nxt + 1, nxt
        nxt += 2
    return MarkedGraph(
        flags=tuple(range(nxt)),
        vertices=tuple(range(nv)),
        boundary=boundary,
        involution=involution,
        genus={v: genera[v] for v in range(nv)},
        classes={v: classes[v] for v in range(nv)},
        rank=rank,
    )


def cartesian_lifts_by_candidates(
    p: VarietyProfile, phi: ExtendedIsogeny, b: CombinatorialMorphism
) -> list[FamilyMember]:
    """Every lift (a, X, lift) of b's target sigma' across an elementary
    forget or glue phi: tau -> tau', found among candidate graphs X.

    A forget of t has as candidates t on each vertex of sigma'; a new
    genus-0, class-0 vertex u carrying t spliced into each edge; and u
    carrying t, a half paired with each tail of sigma' and a new tail.  A
    glue has each edge of sigma', cut.  X is kept when it is stable, its
    elementary forget of t or glue of the cut edge ends exactly at sigma',
    deg X = deg sigma', and some a: tau -> X identifies tau as the absolute
    stabilization of X, agreeing with b on the flags and vertices that tau
    shares with tau' and, for a forget, sending t to the tail the lift
    forgets.  a comes from equal encodings of tau and of X's absolute
    stabilization, with those flags and vertices colored by their image.
    """
    tau, sigma_prime = phi.source, b.target
    fresh, u = next_id(sigma_prime.flags), next_id(sigma_prime.vertices)
    if phi.glued:
        tau_mark = x_mark = {}
        cuts = [(edit_graph(sigma_prime, pair={y: y, ybar: ybar}), (y, ybar)) for y, ybar in edges(sigma_prime)]
        candidates = [elementary_glue_isogeny(x, pair) for x, pair in cuts if is_stable(x)]
    else:
        tau_mark, x_mark = {phi.steps[0].tail: "forgotten"}, {fresh: "forgotten"}
        new_vertex = {
            "attach": {fresh: u, fresh + 1: u, fresh + 2: u},
            "vertices": {u: (0, MonoidElement.zero(sigma_prime.rank))},
        }
        graphs = [edit_graph(sigma_prime, attach={fresh: w}) for w in sigma_prime.vertices]
        graphs += [
            edit_graph(sigma_prime, pair={fresh + 1: r, r: fresh + 1, fresh + 2: c, c: fresh + 2}, **new_vertex)
            for r, c in edges(sigma_prime)
        ]
        graphs += [edit_graph(sigma_prime, pair={fresh + 1: s, s: fresh + 1}, **new_vertex) for s in tails(sigma_prime)]
        candidates = [elementary_forget_isogeny(x, fresh) for x in graphs if is_stable(x)]
    shared_flags = set(tau.flags) & set(phi.target.flags)
    shared_vertices = set(tau.vertices) & set(phi.target.vertices)
    tau_encoding, (tau_flags, tau_vertices) = canonical_encoding(
        tau, {x: b.flagmap[x] for x in shared_flags} | tau_mark, {v: b.vertexmap[v] for v in shared_vertices}
    )
    image_flags = {b.flagmap[x] for x in shared_flags}
    image_vertices = {b.vertexmap[v] for v in shared_vertices}
    members = []
    for lift in candidates:
        x = lift.source
        if lift.target != sigma_prime or deg_graph(p, x) != deg_graph(p, sigma_prime):
            continue
        stable, _ = absolute_stabilization(x)
        encoding, (flag_slots, vertex_slots) = canonical_encoding(
            stable, {f: f for f in stable.flags if f in image_flags} | x_mark, {w: w for w in image_vertices}
        )
        if encoding != tau_encoding:
            continue
        flag_at = {slot: f for f, slot in flag_slots.items()}
        vertex_at = {slot: w for w, slot in vertex_slots.items()}
        a = CombinatorialMorphism(
            tau,
            x,
            {f: flag_at[slot] for f, slot in tau_flags.items()},
            {v: vertex_at[slot] for v, slot in tau_vertices.items()},
            MonoidHom.to_trivial(sigma_prime.rank),
        )
        if is_stabilization_identification(a):
            members.append(FamilyMember(a, x, lift))
    return members


# -- checked helpers that only the tests use -------------------------------


def component_inclusion(g: MarkedGraph, component: MarkedGraph) -> CombinatorialMorphism:
    """Inclusion of a subgraph whose flags and vertices keep their ids, validated."""
    a = inclusion(component, g)
    ensure_valid(validate_combinatorial(a), "component inclusion invalid")
    return a


def chi_drop(e: ExtendedIsogeny) -> int:
    """chi(source after gluing) - chi(target); zero for every isogeny."""
    return euler_characteristic(e.glued_graph) - euler_characteristic(e.target)
