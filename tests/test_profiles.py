import random

import pytest

from stablegraphs.errors import RankMismatchError, ValidationError
from stablegraphs.graphs import (
    edges,
    euler_characteristic,
    marked_graph,
    modular_graph,
    relabel_classes,
    tails,
    total_class,
)
from stablegraphs.monoid import LinearForm, MonoidHom
from stablegraphs.profiles import (
    BUILTIN_PROFILES,
    POINT,
    VarietyProfile,
    deg_graph,
    dim_graph,
    projective_space,
)
from stablegraphs.stabilize import absolute_stabilization

from strategies import rand_graph
from test_cartesian import SURFACE


def single_vertex(rank, g, n, d):
    return marked_graph(rank, {0: (g, d)}, tails={i: 0 for i in range(n)})


def test_builtin_profiles():
    assert BUILTIN_PROFILES["P2"].dimension == 2
    assert BUILTIN_PROFILES["P2"].canonical.coeffs == (-3,)
    assert POINT.rank == 0


def test_ample_must_be_positive():
    with pytest.raises(ValidationError):
        VarietyProfile("bad", 1, LinearForm((-2,)), LinearForm((0,)))


def test_forms_must_share_a_rank():
    with pytest.raises(RankMismatchError, match="^canonical and ample forms must share a rank$"):
        VarietyProfile("bad", 2, LinearForm((-2,)), LinearForm((1, 1)))


def test_dim_projective_plane_three_pointed():
    p = BUILTIN_PROFILES["P2"]
    for d in range(4):
        g = single_vertex(1, 0, 3, d)
        assert dim_graph(p, g) == 3 * d + 2


def test_dim_single_vertex_formula():
    # dim over P^r of a genus-0 n-pointed class-d vertex is (r+1)d + r - 3 + n
    for r in (1, 2, 3):
        p = projective_space(r)
        for d in range(4):
            for n in range(3, 7):
                g = single_vertex(1, 0, n, d)
                assert dim_graph(p, g) == (r + 1) * d + r - 3 + n


def test_dim_point_profile_is_moduli_dimension():
    for g in range(3):
        for n in range(3, 6):
            graph = modular_graph({0: g}, tails={i: 0 for i in range(n)})
            assert dim_graph(POINT, graph) == 3 * g - 3 + n


def test_dim_class_zero_vertex():
    for r in (1, 2, 3):
        p = projective_space(r)
        g = single_vertex(1, 0, 3, 0)
        assert dim_graph(p, g) == r


def test_dim_rank_mismatch():
    with pytest.raises(RankMismatchError):
        dim_graph(POINT, single_vertex(1, 0, 3, 1))


def test_deg_absolutely_stable_is_canonical_degree():
    p = BUILTIN_PROFILES["P2"]
    g = single_vertex(1, 0, 3, 2)
    stab, _ = absolute_stabilization(g)
    assert euler_characteristic(stab) == euler_characteristic(g)
    assert deg_graph(p, g) == p.canonical.coeffs[0] * 2


def test_deg_single_vertex():
    for r in (1, 2, 3):
        p = projective_space(r)
        for d in range(4):
            g = single_vertex(1, 0, 3, d)
            assert deg_graph(p, g) == -d * (r + 1)


def test_dim_and_deg_match_the_expanded_ledger():
    # both share one dimension formula; here each is written out in full
    rng = random.Random(127)
    for _ in range(150):
        p = rng.choice((POINT, projective_space(1), projective_space(2), SURFACE))
        g = rand_graph(rng, rank=p.rank, max_flags=10, stable=rng.random() < 0.5)
        omega = p.canonical(total_class(g))
        chi = euler_characteristic(g)
        assert dim_graph(p, g) == chi * (p.dimension - 3) - omega + len(tails(g)) - len(edges(g))
        gs, _ = absolute_stabilization(g)
        assert deg_graph(p, g) == (
            omega
            + (p.dimension - 3) * (euler_characteristic(gs) - chi)
            + (len(tails(gs)) - len(tails(g)))
            - (len(edges(gs)) - len(edges(g)))
        )


def test_forget_marking_matches_point_profile():
    g = single_vertex(1, 1, 2, 3)
    assert dim_graph(POINT, relabel_classes(g, MonoidHom.to_trivial(g.rank))) == 3 * 1 - 3 + 2
