"""Free commutative monoids N^k marking graph vertices.

Elements model non-negative curve classes, homomorphisms model change of
marking along a map of targets, and linear forms evaluate (possibly negative)
intersection numbers against classes.

``_sum_classes`` adds a list of classes in one pass and builds at most one
new element; class sums along a contraction's fibers use it in place of
folding ``MonoidElement.__add__`` over a zero element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add, mul
from typing import Sequence

from .errors import RankMismatchError


@dataclass(frozen=True, order=True)
class MonoidElement:
    """Element of N^k as a tuple of non-negative integer coordinates.

    A coordinate that is not an ``int`` is refused, a bool included, so
    nothing is truncated on the way in.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = self.coords
        if type(coords) is not tuple:
            coords = tuple(coords)
            object.__setattr__(self, "coords", coords)
        for c in coords:
            if type(c) is not int:
                raise ValueError(f"monoid element coordinate {c!r} is not an integer")
            if c < 0:
                raise ValueError(f"negative coordinate in monoid element {coords}")

    @staticmethod
    def zero(rank: int) -> "MonoidElement":
        return MonoidElement((0,) * rank)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "MonoidElement") -> "MonoidElement":
        if self.rank != other.rank:
            raise RankMismatchError(f"cannot add ranks {self.rank} and {other.rank}")
        return MonoidElement(tuple(map(add, self.coords, other.coords)))

    def __bool__(self) -> bool:
        return not self.is_zero()


def _sum_classes(classes: Sequence[MonoidElement], rank: int) -> MonoidElement:
    """The sum of classes of the given rank, equal to folding ``+`` over zero.

    One summand is returned as it is, several give one new element of the
    coordinate sums, and none gives zero.  A summand of another rank raises
    ``RankMismatchError``, as the fold does.
    """
    for c in classes:
        if len(c.coords) != rank:
            raise RankMismatchError(f"cannot add ranks {rank} and {c.rank}")
    if len(classes) == 1:
        return classes[0]
    if not classes:
        return MonoidElement.zero(rank)
    return MonoidElement(tuple(map(sum, zip(*(c.coords for c in classes)))))


def element(*coords: int) -> MonoidElement:
    """Shorthand constructor: element(1, 2) is (1,2) in N^2."""
    return MonoidElement(tuple(coords))


@dataclass(frozen=True)
class MonoidHom:
    """Homomorphism N^k -> N^m given by an m-by-k matrix of non-negative integers.

    Every monoid homomorphism between free commutative monoids is of this form,
    so the matrix is the whole datum.  The source rank is stored separately so
    that homs into N^0 (the one-point monoid) keep track of their domain.
    """

    rows: tuple[tuple[int, ...], ...]
    source_rank: int

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        if self.source_rank < 0:
            raise ValueError("monoid homomorphism source rank must be non-negative")
        for row in rows:
            if len(row) != self.source_rank:
                raise ValueError(f"row length {len(row)} != source rank {self.source_rank}")
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"monoid homomorphism entry {x!r} is not an integer")
                if x < 0:
                    raise ValueError("monoid homomorphism matrix must be non-negative")

    @staticmethod
    def identity(rank: int) -> "MonoidHom":
        return MonoidHom(tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)), rank)

    @staticmethod
    def to_trivial(source_rank: int) -> "MonoidHom":
        """The unique homomorphism N^k -> N^0 forgetting all classes."""
        return MonoidHom((), source_rank)

    @property
    def target_rank(self) -> int:
        return len(self.rows)

    def __call__(self, a: MonoidElement) -> MonoidElement:
        return apply_hom(self, a)

    def compose(self, inner: "MonoidHom") -> "MonoidHom":
        """self o inner, defined when inner's target rank equals self's source rank."""
        if inner.target_rank != self.source_rank:
            raise RankMismatchError(
                f"cannot compose: inner target rank {inner.target_rank} != source rank {self.source_rank}"
            )
        # inner's columns; with no rows, each of its source_rank columns is empty
        cols = list(zip(*inner.rows)) or [()] * inner.source_rank
        return MonoidHom(tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.rows), inner.source_rank)


def _is_identity(h: MonoidHom, rank: int) -> bool:
    """Whether h equals ``MonoidHom.identity(rank)``, read off h's own rows.

    Unlike that comparison it builds nothing, so a rank that a caller only
    declares costs no more than the size of h.
    """
    if h.source_rank != rank or len(h.rows) != rank:
        return False
    return all(row[i] == 1 and sum(row) == 1 for i, row in enumerate(h.rows))


def apply_hom(h: MonoidHom, a: MonoidElement) -> MonoidElement:
    if a.rank != h.source_rank:
        raise RankMismatchError(f"hom expects rank {h.source_rank}, got {a.rank}")
    return MonoidElement(tuple(sum(map(mul, row, a.coords)) for row in h.rows))


def enumerate_pair_decompositions(b: MonoidElement) -> list[tuple[MonoidElement, MonoidElement]]:
    """All ordered pairs (b1, b2) with b1 + b2 = b, lexicographic on b1.

    The list is complete, has no repetitions, and has exactly
    prod_j (b_j + 1) entries.
    """
    pairs = []
    for first in product(*(range(c + 1) for c in b.coords)):
        b1 = MonoidElement(first)
        b2 = MonoidElement(tuple(c - f for c, f in zip(b.coords, first)))
        pairs.append((b1, b2))
    return pairs


@dataclass(frozen=True)
class LinearForm:
    """Integer linear form on N^k; coefficients may be negative, but a
    coefficient that is not an ``int`` is refused, a bool included."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = self.coeffs
        if type(coeffs) is not tuple:
            coeffs = tuple(coeffs)
            object.__setattr__(self, "coeffs", coeffs)
        for c in coeffs:
            if type(c) is not int:
                raise ValueError(f"linear form coefficient {c!r} is not an integer")

    @staticmethod
    def zero(rank: int) -> "LinearForm":
        return LinearForm((0,) * rank)

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def __call__(self, a: MonoidElement) -> int:
        return eval_form(self, a)


def eval_form(f: LinearForm, a: MonoidElement) -> int:
    if f.rank != a.rank:
        raise RankMismatchError(f"form rank {f.rank} != element rank {a.rank}")
    return sum(c * x for c, x in zip(f.coeffs, a.coords))
