"""Mass-formula checks on whole enumerator outputs.

Summed over an output, prod_v weight(genus_v, valence_v) / |Aut| must equal
the sum that ``oracles.graph_sums`` reads off a Feynman expansion, which
builds no graph, for every total class.  The automorphism counts come from
``oracles.automorphism_count``.  This catches missing, duplicated and
mis-weighted graphs on every cell below.

For ``point``, genus 0 and n tails, ``Aut`` of a stable tree acts faithfully
on its tails, so n! times the sum with weight 1 counts the stable trees with
n labelled tails (check B), and weighting each vertex of valence m by
chi(M_{0,m}) = (-1)^(m-3) (m-3)! gives chi(Mbar_{0,n}) (check A).
"""

from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from stablegraphs.cartesian import enumerate_stable_graphs
from stablegraphs.graphs import marked_graph, modular_graph, total_class, valence
from stablegraphs.monoid import LinearForm
from stablegraphs.profiles import BUILTIN_PROFILES, VarietyProfile

from oracles import automorphism_count, graph_sums
from test_cartesian import SURFACE

# the canonical form does not enter the sums; "skew" is a rank-2 profile
# whose ample form is not (1, 1)
PROFILES = {
    **BUILTIN_PROFILES,
    "Q": VarietyProfile("Q", 1, LinearForm((-2,)), LinearForm((2,))),
    "quadric": SURFACE,
    "skew": VarietyProfile("skew", 2, LinearForm((-2, -3)), LinearForm((1, 2))),
}

# (profile, genus, tails, ample bound, max vertices)
PERFBENCH_GRID = [
    ("point", 2, 0, 0, 2),
    ("point", 3, 0, 0, 4),
    ("point", 1, 4, 0, 4),
    ("point", 2, 2, 0, 4),
    ("P2", 1, 2, 2, 3),
    ("P1", 0, 4, 3, 3),
    ("P2", 0, 8, 0, 4),
]

# the cells of rank 0 and 1 that the other tier-1 tests enumerate
TIER1_CELLS = sorted(
    # test_enumerate_matches_product_oracle
    {
        (profile, genus, tails, bound, 3)
        for profile in ("point", "P1", "P2")
        for genus in range(3)
        for tails in range(6 - 2 * genus)
        for bound in ((0,) if profile == "point" else (0, 1))
    }
    # test_flag_bound_is_attained
    | {
        (profile, genus, tails, bound, max_vertices)
        for profile in ("point", "P1", "Q")
        for genus in range(3)
        for tails in range(6 - 2 * genus)
        for bound in range(3)
        for max_vertices in range(1, 5)
    }
    # acceptance criteria 3 and 10, and the boundary_tree4 golden case
    | {("P1", genus, tails, 1, 2) for genus in (0, 1) for tails in range(1, 5)}
    # the published counts, the genus, clamp and cap tests, and the mass formula
    | {("point", 2, 0, 0, 10), ("point", 3, 0, 0, 10), ("P1", 1, 1, 0, 2), ("P1", 0, 3, 5, 1)}
    | {("point", 0, 3, 0, 10**6), ("P1", 0, 0, 2, 10**6)}
    | {("point", 0, tails, 0, tails - 2) for tails in range(3, 8)}
)

# rank 2, where a class splits coordinate-wise between the two sides of an edge
RANK_TWO_CELLS = [
    ("quadric", 0, 4, 1, 3),
    ("quadric", 1, 1, 1, 3),
    ("quadric", 0, 3, 2, 3),
    ("quadric", 1, 2, 2, 3),
    ("quadric", 0, 4, 2, 4),
    ("quadric", 2, 0, 2, 3),
    ("skew", 0, 3, 3, 3),
]


def _euler_weight(genus: int, m: int) -> int:
    # chi(M_{0,m}); genus-0 graphs have only genus-0 vertices, so any value
    # serves for the others
    return (-1) ** (m - 3) * factorial(m - 3) if genus == 0 else 0


def _unit_weight(genus: int, m: int) -> int:
    return 1


@cache
def _right_side(genus: int, tails: int, bound: int, max_vertices: int, weight, ample: tuple) -> dict:
    return graph_sums(genus, tails, bound, max_vertices, weight, ample)


def _sums_agree(cell, weight=_unit_weight) -> None:
    profile, genus, tails, bound, max_vertices = cell
    p = PROFILES[profile]
    right = _right_side(genus, tails, bound, max_vertices, weight, p.ample.coeffs)
    left = dict.fromkeys(right, Fraction(0))
    for g in enumerate_stable_graphs(p, genus, tails, bound, max_vertices):
        vertex_weight = 1
        for v in g.vertices:
            vertex_weight *= weight(g.genus[v], valence(g, v))
        left[total_class(g).coords] += Fraction(vertex_weight, automorphism_count(g))
    assert left == {c: sum(right[c][: max_vertices + 1]) for c in left}, cell


def test_automorphism_count_small_graphs():
    assert automorphism_count(modular_graph({0: 0}, tails={0: 0, 1: 0, 2: 0})) == 6
    # two loops at one vertex: permute them and flip each
    assert automorphism_count(modular_graph({0: 0}, edges=[((0, 0), (1, 0)), ((2, 0), (3, 0))])) == 8
    # the theta graph: swap the vertices, permute the three edges
    theta = modular_graph({0: 0, 1: 0}, edges=[((2 * i, 0), (2 * i + 1, 1)) for i in range(3)])
    assert automorphism_count(theta) == 12
    # classes tell the two ends apart
    assert automorphism_count(marked_graph(1, {0: (0, 1), 1: (0, 2)}, edges=[((0, 0), (1, 1))])) == 1
    # a path of three vertices flips end to end, with the two tails at each end
    path = modular_graph(
        {0: 0, 1: 1, 2: 0}, tails={0: 0, 1: 0, 2: 2, 3: 2}, edges=[((4, 0), (5, 1)), ((6, 1), (7, 2))]
    )
    assert automorphism_count(path) == 2 * 2 * 2


def test_graph_sums_by_hand():
    # one tripod (3! tail orders); the genus-1 vertex and the loop (flipped)
    # with one tail
    assert graph_sums(0, 3, 0, 1, ample=()) == {(): [0, Fraction(1, 6)]}
    assert sum(graph_sums(1, 1, 0, 2, ample=())[()]) == 1 + Fraction(1, 2)
    # genus 0 without tails: only a lone vertex of degree 1 is stable
    assert graph_sums(0, 0, 1, 2) == {(0,): [0, 0], (1,): [0, 1]}
    # at rank 2, class (1, 1) is one vertex, or an edge between classes
    # (1, 0) and (0, 1); class (2, 0) is one vertex, or an edge between two
    # vertices of class (1, 0), which swap; under the form (1, 2), (0, 1)
    # has degree 2, so (1, 1) is cut
    sums = graph_sums(0, 0, 2, 2, ample=(1, 1))
    assert (sums[1, 1], sums[2, 0], sums[0, 0]) == ([0, 1, 1], [0, 1, Fraction(1, 2)], [0, 0, 0])
    assert sorted(graph_sums(0, 0, 2, 2, ample=(1, 2))) == [(0, 0), (0, 1), (1, 0), (2, 0)]


@pytest.mark.parametrize(
    "weight,expected", [(_unit_weight, [1, 4, 26, 236, 2752]), (_euler_weight, [1, 2, 7, 34, 213])], ids=["B", "A"]
)
def test_genus_zero_mass_formula(weight, expected):
    # the labelled stable trees and chi(Mbar_{0,n}), n = 3..7, from the
    # expansion; then the enumerator's outputs sum to the same
    assert [factorial(n) * sum(_right_side(0, n, 0, n - 2, weight, ())[()]) for n in range(3, 8)] == expected
    for n in range(3, 8):
        _sums_agree(("point", 0, n, 0, n - 2), weight)


@pytest.mark.parametrize("cell", PERFBENCH_GRID, ids=str)
def test_graph_sums_on_the_perfbench_grid(cell):
    _sums_agree(cell)


def test_graph_sums_on_the_tier1_cells():
    for cell in TIER1_CELLS:
        _sums_agree(cell)


@pytest.mark.parametrize("cell", RANK_TWO_CELLS, ids=str)
def test_graph_sums_at_rank_two(cell):
    _sums_agree(cell)
