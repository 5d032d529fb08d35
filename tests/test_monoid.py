import random
import re
from itertools import product

import pytest

from stablegraphs.errors import RankMismatchError
from stablegraphs.monoid import (
    LinearForm,
    MonoidElement,
    MonoidHom,
    _is_identity,
    _sum_classes,
    apply_hom,
    element,
    enumerate_pair_decompositions,
    eval_form,
)

from oracles import compose_homs_by_index
from strategies import rand_element, rand_hom


def _corners(rank):
    return MonoidElement.zero(rank), MonoidElement((6,) * rank)


def _elements(rng):
    """For each rank 1-4: the zero and the all-6 element, then 30 draws with coordinates 0-6."""
    for rank in range(1, 5):
        yield from _corners(rank)
        for _ in range(30):
            yield rand_element(rng, rank, max_coord=6)


def _pairs(rng):
    """For each rank 1-4: every pair of the zero and the all-6 element, then 30
    pairs drawn with coordinates 0-6."""
    for rank in range(1, 5):
        yield from product(_corners(rank), repeat=2)
        for _ in range(30):
            yield rand_element(rng, rank, max_coord=6), rand_element(rng, rank, max_coord=6)


def test_add_coordinatewise():
    assert element(1, 2) + element(0, 3) == element(1, 5)


def test_add_zero_identity():
    assert element(0, 0) + element(0, 0) == element(0, 0)
    assert element(2, 1) + MonoidElement.zero(2) == element(2, 1)


def test_add_rank_mismatch():
    with pytest.raises(RankMismatchError):
        element(1) + element(1, 2)


def test_negative_coordinates_rejected():
    with pytest.raises(ValueError):
        MonoidElement((-1, 0))


def test_indecomposable_zero():
    for a, b in _pairs(random.Random(1)):
        if (a + b).is_zero():
            assert a.is_zero() and b.is_zero()


def test_apply_hom_zero_matrix():
    absolute = MonoidHom.to_trivial(1)
    assert apply_hom(absolute, element(3)) == MonoidElement(())


def test_apply_hom_identity():
    h = MonoidHom.identity(3)
    assert apply_hom(h, element(1, 2, 3)) == element(1, 2, 3)


def test_apply_hom_matrix():
    h = MonoidHom(((2, 1),), 2)
    assert apply_hom(h, element(1, 3)) == element(5)


def test_apply_hom_rank_mismatch():
    with pytest.raises(RankMismatchError):
        apply_hom(MonoidHom.identity(2), element(1))


def test_hom_additive():
    rng = random.Random(2)
    for a, b in _pairs(rng):
        seed = rng.randint(0, 3)
        rows = tuple(tuple((seed + i + j) % 3 for j in range(a.rank)) for i in range(2))
        h = MonoidHom(rows, a.rank)
        assert apply_hom(h, a + b) == apply_hom(h, a) + apply_hom(h, b)
        assert apply_hom(h, MonoidElement.zero(a.rank)) == MonoidElement.zero(2)


def test_hom_compose():
    h1 = MonoidHom(((1, 1),), 2)  # N^2 -> N^1, sum
    h2 = MonoidHom(((2,), (3,)), 1)  # N^1 -> N^2
    assert h2.compose(h1)(element(1, 2)) == element(6, 9)


def test_hom_compose_matches_the_index_sum():
    # the row-by-column product against the sum over each index, with every
    # rank from 0 to 3: the empty matrices, and an inner hom into N^0, whose
    # product with anything out of N^0 is the zero matrix, included
    rng = random.Random(71)
    zero_ranks = set()
    for _ in range(400):
        k, m, n = (rng.randint(0, 3) for _ in range(3))
        inner, outer = rand_hom(rng, k, m, max_entry=3), rand_hom(rng, m, n, max_entry=3)
        composite = outer.compose(inner)
        assert composite == compose_homs_by_index(outer, inner)
        assert (composite.source_rank, composite.target_rank) == (k, n)
        zero_ranks |= {name for name, rank in (("source", k), ("middle", m), ("target", n)) if rank == 0}
    assert zero_ranks == {"source", "middle", "target"}


def test_hom_compose_rank_mismatch():
    # inner lands in N^1, outer starts at N^2
    with pytest.raises(RankMismatchError, match="^cannot compose: inner target rank 1 != source rank 2$"):
        MonoidHom.identity(2).compose(MonoidHom.identity(1))


def test_hom_negative_entry_rejected():
    with pytest.raises(ValueError, match="^monoid homomorphism matrix must be non-negative$"):
        MonoidHom(((1, -1),), 2)


def test_hom_negative_source_rank_rejected():
    # with no rows, no row length is compared with the rank
    with pytest.raises(ValueError, match="^monoid homomorphism source rank must be non-negative$"):
        MonoidHom((), -1)


def test_pair_decompositions_rank1():
    pairs = enumerate_pair_decompositions(element(2))
    assert pairs == [
        (element(0), element(2)),
        (element(1), element(1)),
        (element(2), element(0)),
    ]


def test_pair_decompositions_zero():
    assert enumerate_pair_decompositions(MonoidElement((0,))) == [(element(0), element(0))]


def test_pair_decompositions_rank2_size():
    pairs = enumerate_pair_decompositions(element(1, 1))
    assert len(pairs) == 4


def test_pair_decompositions_complete_nonrepetitive():
    for b in _elements(random.Random(3)):
        pairs = enumerate_pair_decompositions(b)
        expected = 1
        for c in b.coords:
            expected *= c + 1
        assert len(pairs) == expected
        assert len(set(pairs)) == len(pairs)
        assert all(x + y == b for x, y in pairs)
        firsts = [x for x, _ in pairs]
        assert firsts == sorted(firsts)


def test_eval_form():
    assert eval_form(LinearForm((-3,)), element(2)) == -6
    assert eval_form(LinearForm.zero(2), element(4, 5)) == 0
    assert eval_form(LinearForm((1, 1)), element(2, 3)) == 5


def test_eval_form_rank_mismatch():
    with pytest.raises(RankMismatchError):
        eval_form(LinearForm((1,)), element(1, 2))


def test_form_linear():
    for a, b in _pairs(random.Random(4)):
        f = LinearForm(tuple((-1) ** i * (i + 1) for i in range(a.rank)))
        assert eval_form(f, a + b) == eval_form(f, a) + eval_form(f, b)


def test_coordinates_are_coerced_with_int():
    # nothing is coerced: a coordinate that is not an int is refused by
    # name, a bool and an integral float included, and none is truncated
    for bad in (True, 2.0, "3", 2.5):
        with pytest.raises(ValueError, match=rf"^monoid element coordinate {re.escape(repr(bad))} is not an integer$"):
            MonoidElement((1, bad))
    assert MonoidElement([1, 2]).coords == (1, 2)


def test_negative_coordinates_rejected_with_their_message():
    with pytest.raises(ValueError, match=r"^negative coordinate in monoid element \(2, -1\)$"):
        MonoidElement((2, -1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MonoidHom(((1, 1.9),), 2), "monoid homomorphism entry 1.9 is not an integer"),
        (lambda: MonoidHom(((0,), (True,)), 1), "monoid homomorphism entry True is not an integer"),
        (lambda: LinearForm((-1, 2.7)), "linear form coefficient 2.7 is not an integer"),
        (lambda: LinearForm((False,)), "linear form coefficient False is not an integer"),
    ],
    ids=["hom-float", "hom-bool", "form-float", "form-bool"],
)
def test_non_integer_hom_entries_and_form_coefficients_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_add_is_the_coordinate_sum():
    for a, b in _pairs(random.Random(5)):
        assert (a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
        assert (a + b).is_zero() == all(x + y == 0 for x, y in zip(a.coords, b.coords))


def _fold(classes, rank):
    return sum(classes, MonoidElement.zero(rank))


def test_sum_classes_equals_the_fold():
    rng = random.Random(11)
    assert _sum_classes([], 2) == _fold([], 2) == element(0, 0)
    assert _sum_classes([], 0) == MonoidElement(())
    single = element(3, 1)
    assert _sum_classes([single], 2) is single
    for _ in range(500):
        rank = rng.randint(0, 3)
        classes = [MonoidElement(tuple(rng.randint(0, 4) for _ in range(rank))) for _ in range(rng.randint(0, 6))]
        assert _sum_classes(classes, rank) == _fold(classes, rank)


def test_sum_classes_rejects_a_rank_mismatch_like_the_fold():
    for rank, classes in [(2, [element(1)]), (1, [element(1), element(1, 0)]), (2, [element(1, 0), element(1)])]:
        with pytest.raises(RankMismatchError):
            _fold(classes, rank)
        with pytest.raises(RankMismatchError):
            _sum_classes(classes, rank)


def test_is_identity_agrees_with_comparing_to_the_identity():
    # seeded homs near the identity: the identity itself, a unit moved to
    # another column, a row with an extra one, a row of zeros, and homs of
    # a wrong source or target rank
    rng = random.Random(131)
    seen = set()
    for _ in range(400):
        rank = rng.randint(0, 4)
        rows = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        change = rng.choice(("none", "extra", "move", "zero", "source", "target"))
        if rank and change in ("extra", "move", "zero"):
            row = rows[rng.randrange(rank)]
            if change == "zero":
                row[:] = [0] * rank
            else:
                if change == "move":
                    row[:] = [0] * rank
                row[rng.randrange(rank)] += 1
        elif change == "source":
            rows = [row + [rng.randint(0, 1)] for row in rows]
        elif change == "target":
            rows.append([rng.randint(0, 1) for _ in range(rank)])
        source_rank = rank + (change == "source")
        h = MonoidHom(tuple(map(tuple, rows)), source_rank)
        for r in (rank - 1, rank, rank + 1):
            if r >= 0:
                expected = h == MonoidHom.identity(r)
                assert _is_identity(h, r) == expected
                seen.add(expected)
    assert seen == {True, False}
