"""Numerical target profiles and the dimension/degree ledger.

A profile records everything the combinatorial calculus needs to know about
a target variety: its dimension, the linear form evaluating the canonical
class on curve classes, and a positive form bounding degrees.  Projective
spaces and the point are built in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RankMismatchError, ValidationError, Violation
from .graphs import MarkedGraph, edges, euler_characteristic, tails, total_class
from .monoid import LinearForm
from .stabilize import absolute_stabilization


@dataclass(frozen=True)
class VarietyProfile:
    name: str
    dimension: int
    canonical: LinearForm  # evaluates the canonical class against a curve class
    ample: LinearForm  # positive form measuring degree

    def __post_init__(self) -> None:
        if self.dimension < 0:
            raise ValidationError([Violation("profile-dimension", "dimension must be non-negative")])
        if self.canonical.rank != self.ample.rank:
            raise RankMismatchError("canonical and ample forms must share a rank")
        if any(c <= 0 for c in self.ample.coeffs):
            raise ValidationError([Violation("profile-ample", "ample form needs strictly positive coefficients")])

    @property
    def rank(self) -> int:
        return self.canonical.rank


def projective_space(r: int) -> VarietyProfile:
    """P^r: rank-1 classes, canonical degree -(r+1) on a line, ample degree 1."""
    return VarietyProfile(name=f"P{r}", dimension=r, canonical=LinearForm((-(r + 1),)), ample=LinearForm((1,)))


POINT = VarietyProfile(name="point", dimension=0, canonical=LinearForm(()), ample=LinearForm(()))

BUILTIN_PROFILES: dict[str, VarietyProfile] = {
    "P1": projective_space(1),
    "P2": projective_space(2),
    "P3": projective_space(3),
    "point": POINT,
}


def _require_rank(p: VarietyProfile, g: MarkedGraph) -> None:
    if p.rank != g.rank:
        raise RankMismatchError(f"profile rank {p.rank} != graph rank {g.rank}")


def _dim(p: VarietyProfile, g: MarkedGraph, omega: int) -> int:
    """chi(g) * (dim - 3) - omega + #tails - #edges."""
    return euler_characteristic(g) * (p.dimension - 3) - omega + len(tails(g)) - len(edges(g))


def dim_graph(p: VarietyProfile, g: MarkedGraph) -> int:
    """Expected dimension of the moduli cell indexed by g over the profile.

    chi(g) * (dim - 3) - omega(total class) + #tails - #edges.
    """
    _require_rank(p, g)
    return _dim(p, g, p.canonical(total_class(g)))


def deg_graph(p: VarietyProfile, g: MarkedGraph) -> int:
    """Degree of g: the dimension drop against its absolute stabilization.

    omega(total class) + (dim - 3)(chi(g^s) - chi(g)) + (#S^s - #S) - (#E^s - #E),
    where g^s is the stabilization of g with markings forgotten, which
    carries no class.
    """
    _require_rank(p, g)
    gs, _ = absolute_stabilization(g)
    return _dim(p, gs, 0) - dim_graph(p, g)
