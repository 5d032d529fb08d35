"""Mass-formula checks on whole enumerator outputs.

For ``point``, genus 0 and n tails, ``Aut`` of a stable tree acts faithfully
on its tails, so summing n!/|Aut| over the output counts the stable trees
with n labelled tails (check B), and weighting each vertex of valence m by
chi(M_{0,m}) = (-1)^(m-3) (m-3)! gives chi(Mbar_{0,n}) (check A).  The
automorphism counts come from ``oracles.automorphism_count``, and the right
sides from the rooted-tree recurrence below, in exact fractions.
"""

from fractions import Fraction
from math import factorial

import pytest

from stablegraphs.cartesian import enumerate_stable_graphs
from stablegraphs.graphs import marked_graph, modular_graph, valence
from stablegraphs.profiles import BUILTIN_PROFILES

from oracles import automorphism_count


def _labelled_tree_sums(weight, max_tails: int) -> dict[int, Fraction]:
    """n -> the sum over stable trees with n labelled tails of the product
    of ``weight(valence)`` over the vertices.

    Rooted at tail n, such trees satisfy F = x + sum_{k>=2} weight(k+1) F^k / k!,
    and the sum is (n-1)! [x^(n-1)] (F - x).  F is solved by iteration on
    series truncated after x^(max_tails - 1).
    """
    order = max_tails - 1
    x = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)

    def times(p, q):
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q[: order + 1 - i]):
                    out[i + j] += a * b
        return out

    f = list(x)
    for _ in range(order):
        nxt, power = list(x), f
        for k in range(2, order + 1):
            power = times(power, f)
            nxt = [a + weight(k + 1) * b / factorial(k) for a, b in zip(nxt, power)]
        f = nxt
    return {n: factorial(n - 1) * (f[n - 1] - x[n - 1]) for n in range(3, max_tails + 1)}


def _euler_weight(m: int) -> int:
    return (-1) ** (m - 3) * factorial(m - 3)


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


@pytest.mark.parametrize(
    "weight,expected", [(lambda m: 1, [1, 4, 26, 236, 2752]), (_euler_weight, [1, 2, 7, 34, 213])], ids=["B", "A"]
)
def test_genus_zero_mass_formula(weight, expected):
    right = _labelled_tree_sums(weight, 7)
    assert [right[n] for n in range(3, 8)] == expected
    for n in range(3, 8):
        graphs = enumerate_stable_graphs(BUILTIN_PROFILES["point"], 0, n, 0, n - 2)
        left = Fraction(0)
        for g in graphs:
            vertex_weight = 1
            for v in g.vertices:
                vertex_weight *= weight(valence(g, v))
            left += Fraction(factorial(n) * vertex_weight, automorphism_count(g))
        assert left == right[n], n
