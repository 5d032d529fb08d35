"""Stably forgetting tails, isogenies, and the extended isogeny category.

Stably forgetting a tail drops the tail and restabilizes; because the graph
was stable before, at most one vertex removal fires.  The outcome is
classified into four types:

* type I:   the vertex stays stable, nothing else happens;
* type II:  the vertex dies carrying another tail; the far half of its edge
            becomes a tail, and the tail map remembers the surviving slot;
* type III: the vertex dies between two edges, whose far halves are glued;
* type IV:  a whole component (a lonely tripod or lonely elliptic vertex)
            vanishes; this is the only type changing component counts.

An isogeny is a composite of type I-III forgets and edge contractions; it
never changes the Euler characteristic or the component count.  An extended
isogeny may first glue pairs of tails into edges.  Both are their source,
glue pairs and steps: construction runs these and computes the rest.
Composition follows the trace of glued tails backwards through the first
factor's steps and re-executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import ValidationError, Violation
from .graphs import MarkedGraph, is_stable, tails
from .morphisms import (
    CombinatorialMorphism,
    contract_edges,
    forget_tail,
    glue_tails,
    inclusion,
)
from .stabilize import stabilize_with_trace


@dataclass(frozen=True)
class StableForget:
    """Result of stably forgetting one tail."""

    forgotten: int
    graph: MarkedGraph  # the smaller stable graph
    morphism: CombinatorialMorphism  # smaller -> original
    tail_map: dict[int, int]  # tails of the smaller graph -> tails of the original
    kind: str  # "I" | "II" | "III" | "IV"


def stably_forget_tail(g: MarkedGraph, f: int) -> StableForget:
    """Forget tail f of a stable graph and restabilize.

    The tail map fixes every tail that survives as itself and, in type II,
    sends the newly created tail to the other tail that lived at the removed
    vertex.  The forgotten tail is never in its image: it is neither a tail
    of the stable graph nor a flag of the smaller one.

    The morphism is the inclusion of the stable graph into g: forgetting and
    stabilizing both keep ids, so it equals the composite of their two
    inclusions, each valid by the argument in its own docstring.
    """
    if not is_stable(g):
        raise ValidationError([Violation("forget-unstable", "stably forgetting needs a stable graph")])
    smaller, _ = forget_tail(g, f)
    stable, _, steps = stabilize_with_trace(smaller)
    kind = "I"
    if steps:
        (step,) = steps  # a stable graph destabilizes at one vertex at most
        kind = step.case
    tail_map = {h: h for h in tails(stable)}
    if kind == "II":
        (new_tail,) = step.new_tails
        tail_map[new_tail] = next(x for x in step.removed_flags if g.involution[x] == x)
    return StableForget(forgotten=f, graph=stable, morphism=inclusion(stable, g), tail_map=tail_map, kind=kind)


# -- steps ----------------------------------------------------------------


@dataclass(frozen=True)
class ForgetStep:
    tail: int


@dataclass(frozen=True)
class ContractStep:
    edge: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge", (min(self.edge), max(self.edge)))


IsogenyStep = ForgetStep | ContractStep


@dataclass(frozen=True)
class ExtendedIsogeny:
    """A glue-then-reduce morphism between stable marked graphs.

    ``glued`` lists pairs of source tails joined into edges first; ``steps``
    then forget tails or contract single edges, in order.  Construction
    runs them and records the glued graph, the step results, the forget
    types and the target; these are not init fields, so no isogeny records
    a target its steps do not give.
    """

    source: MarkedGraph
    glued: tuple[tuple[int, int], ...]
    steps: tuple[IsogenyStep, ...]
    # computed
    glued_graph: MarkedGraph = field(init=False, compare=False)
    target: MarkedGraph = field(init=False, compare=False)
    step_results: tuple = field(init=False, compare=False)
    forget_kinds: tuple[str, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not is_stable(self.source):
            raise ValidationError([Violation("isogeny-unstable-source", "extended isogenies start at stable graphs")])
        current = self.source
        glued = tuple((x, y) for x, y in self.glued)
        for x, y in glued:
            if type(x) is not int or type(y) is not int:  # 1.0 would pass glue_tails as flag 1
                raise ValueError(f"glued flag ids must be integers, not {x!r} and {y!r}")
            current, _ = glue_tails(current, x, y)
        glued_graph = current
        results: list[tuple[str, object]] = []
        steps = tuple(self.steps)
        for step in steps:
            if isinstance(step, ForgetStep):
                res = stably_forget_tail(current, step.tail)
                results.append(("forget", res))
                current = res.graph
            elif isinstance(step, ContractStep):
                contr = contract_edges(current, [step.edge])
                results.append(("contract", contr))
                current = contr.target
            else:
                raise TypeError(f"unknown step {step!r}")
        object.__setattr__(self, "glued", glued)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "glued_graph", glued_graph)
        object.__setattr__(self, "target", current)
        object.__setattr__(self, "step_results", tuple(results))
        object.__setattr__(self, "forget_kinds", tuple(res.kind for kind, res in results if kind == "forget"))

    def tail_trace(self) -> dict[int, int]:
        """Target tails -> source tails: where each surviving slot came from.

        Walks the step results backwards: contractions identify tails by
        their flag bijection, forgets apply their tail maps.
        """
        trace = {h: h for h in tails(self.target)}
        for kind, result in reversed(self.step_results):
            if kind == "forget":
                trace = {h: result.tail_map[t] for h, t in trace.items()}
            else:
                trace = {h: result.flagmap[t] for h, t in trace.items()}
        return trace

    def is_isogeny(self) -> bool:
        """No gluing and no component-killing forgets."""
        return not self.glued and all(k != "IV" for k in self.forget_kinds)


def extended_isogeny(
    source: MarkedGraph,
    glued: Iterable[tuple[int, int]] = (),
    steps: Iterable[IsogenyStep] = (),
) -> ExtendedIsogeny:
    """Execute glue pairs then reduction steps, recording every intermediate."""
    return ExtendedIsogeny(source, glued, steps)


def validate_extended(e: ExtendedIsogeny) -> list[Violation]:
    """The reduction part must be a genuine isogeny: components in bijection.

    Only a type IV forget breaks it, so the component counts need no check
    of their own: the glues run before ``glued_graph`` is recorded, a type I
    forget removes no vertex, types II and III remove a vertex whose
    neighbours stay joined, a contraction joins the ends of its edge, and
    ``e.target`` is the graph these steps give.
    """
    if "IV" in e.forget_kinds:
        return [Violation("isogeny-pi0", "a forget step killed a component; component sets not in bijection")]
    return []


def identity_extended(g: MarkedGraph) -> ExtendedIsogeny:
    return extended_isogeny(g, (), ())


def elementary_contraction_isogeny(g: MarkedGraph, edge: tuple[int, int]) -> ExtendedIsogeny:
    return extended_isogeny(g, (), (ContractStep(tuple(edge)),))


def elementary_forget_isogeny(g: MarkedGraph, tail: int) -> ExtendedIsogeny:
    return extended_isogeny(g, (), (ForgetStep(tail),))


def elementary_glue_isogeny(g: MarkedGraph, pair: tuple[int, int]) -> ExtendedIsogeny:
    return extended_isogeny(g, (tuple(pair),), ())


def is_elementary_extended(e: ExtendedIsogeny) -> bool:
    return (len(e.glued) + len(e.steps)) == 1


def compose_extended(outer: ExtendedIsogeny, inner: ExtendedIsogeny) -> ExtendedIsogeny:
    """outer o inner: trace outer's glue pairs back through inner, re-execute.

    Gluing a pair of tails of inner's target commutes with inner's reduction
    steps once the pair is rewritten through inner's tail trace, so the
    composite glues everything at the source and replays both step lists.
    Every step keeps the ids of what survives it, so the replay ends at
    outer's target unchecked; seeded chains with glues, forgets and
    contractions pin this.
    """
    if inner.target != outer.source:
        raise ValidationError([Violation("isogeny-compose-endpoints", "inner target differs from outer source")])
    trace = inner.tail_trace()
    traced_pairs = tuple((trace[x], trace[y]) for x, y in outer.glued)
    return extended_isogeny(inner.source, inner.glued + traced_pairs, inner.steps + outer.steps)
