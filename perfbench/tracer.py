"""Outside-in tracing of the stablegraphs layers.

``Tracer.install`` wraps the public functions named in ``TARGETS`` with
timing wrappers.  A function is patched in the module that defines it and
in every ``stablegraphs`` module that imported the name, so calls between
modules are seen too.  ``MarkedGraph.__post_init__`` (every graph
construction), ``MarkedGraph.flags_at`` and ``MonoidElement.__add__`` are
patched on their classes.  ``Tracer.uninstall`` puts every original back.

Spans are recorded only inside an op (``Tracer.op``).  Each span holds its
name, start, end, parent span and op id, kept in flat arrays in memory and
written out by ``write_spans`` when the run ends.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, what to record from the result)
TARGETS = (
    ("graphs", "MarkedGraph.__post_init__", "graphs.MarkedGraph", None),
    ("graphs", "MarkedGraph.flags_at", "graphs.flags_at", None),
    ("graphs", "flag_partition", "graphs.flag_partition", None),
    ("graphs", "edges", "graphs.edges", None),
    ("graphs", "connected_components", "graphs.connected_components", None),
    ("graphs", "is_stable", "graphs.is_stable", None),
    ("monoid", "MonoidElement.__add__", "monoid.add", None),
    ("canonical", "canonical_encoding", "canonical.canonical_encoding", None),
    ("canonical", "canonical_key", "canonical.canonical_key", None),
    ("cartesian", "enumerate_stable_graphs", "cartesian.enumerate_stable_graphs", len),
    ("cartesian", "cartesian_pullback", "cartesian.cartesian_pullback", None),
    ("morphisms", "validate_combinatorial", "morphisms.validate_combinatorial", lambda r: int(bool(r))),
    ("morphisms", "validate_contraction", "morphisms.validate_contraction", None),
    ("morphisms", "contract_edges", "morphisms.contract_edges", None),
    ("morphisms", "decompose_elementary", "morphisms.decompose_elementary", None),
    ("stabilize", "enumerate_combinatorial_morphisms", "stabilize.enumerate_combinatorial_morphisms", len),
    ("stabilize", "stabilize_with_trace", "stabilize.stabilize_with_trace", None),
    ("stabilize", "check_universal_property", "stabilize.check_universal_property",
     lambda r: r.morphisms_checked),
    ("pullback", "stable_pullback", "pullback.stable_pullback", None),
    ("pullback", "compose_marked", "pullback.compose_marked", None),
    ("isogeny", "extended_isogeny", "isogeny.extended_isogeny", None),
    ("isogeny", "stably_forget_tail", "isogeny.stably_forget_tail", None),
    ("profiles", "deg_graph", "profiles.deg_graph", None),
    ("cli", "main", "cli.main", None),
)

# Per-layer metrics reported by the traced run, with unit and direction.
# Every "count" and "ratio" repeats exactly for a given seed; "s" does not.
PER_LAYER = (
    ("graphs.MarkedGraph.calls", "count", "lower"),
    ("graphs.MarkedGraph.self_s", "s", "lower"),
    ("graphs.flag_partition.calls", "count", "lower"),
    ("graphs.flag_partition.self_s", "s", "lower"),
    ("graphs.flags_at.calls", "count", "lower"),
    ("graphs.edges.calls", "count", "lower"),
    ("graphs.connected_components.calls", "count", "lower"),
    ("graphs.is_stable.calls", "count", "lower"),
    ("monoid.add.calls", "count", "lower"),
    ("monoid.add.self_s", "s", "lower"),
    ("canonical.canonical_encoding.calls", "count", "lower"),
    ("canonical.canonical_encoding.self_s", "s", "lower"),
    ("cartesian.enumerate_stable_graphs.self_s", "s", "lower"),
    ("cartesian.enum.candidates", "count", "lower"),
    ("cartesian.enum.stable_ratio", "ratio", "lower"),
    ("cartesian.enum.unique_ratio", "ratio", "higher"),
    ("morphisms.validate_combinatorial.calls", "count", "lower"),
    ("morphisms.validate_combinatorial.self_s", "s", "lower"),
    ("morphisms.validate_combinatorial.rejected", "count", "lower"),
    ("morphisms.validate_contraction.calls", "count", "lower"),
    ("morphisms.validate_contraction.self_s", "s", "lower"),
    ("morphisms.contract_edges.calls", "count", "lower"),
    ("morphisms.contract_edges.self_s", "s", "lower"),
    ("morphisms.decompose_elementary.calls", "count", "lower"),
    ("stabilize.enumerate_combinatorial_morphisms.calls", "count", "lower"),
    ("stabilize.enumerate_combinatorial_morphisms.self_s", "s", "lower"),
    ("stabilize.morphism_yield", "ratio", "higher"),
    ("stabilize.stabilize_with_trace.calls", "count", "lower"),
    ("stabilize.stabilize_with_trace.self_s", "s", "lower"),
    ("stabilize.check_universal_property.morphisms_checked", "count", "higher"),
    ("pullback.stable_pullback.calls", "count", "lower"),
    ("pullback.stable_pullback.self_s", "s", "lower"),
    ("pullback.compose_marked.calls", "count", "lower"),
    ("pullback.compose_marked.self_s", "s", "lower"),
    ("isogeny.extended_isogeny.calls", "count", "lower"),
    ("isogeny.extended_isogeny.self_s", "s", "lower"),
    ("isogeny.stably_forget_tail.calls", "count", "lower"),
    ("cartesian.cartesian_pullback.calls", "count", "lower"),
    ("cartesian.cartesian_pullback.self_s", "s", "lower"),
    ("profiles.deg_graph.calls", "count", "lower"),
    ("profiles.deg_graph.self_s", "s", "lower"),
    ("serialize.calls", "count", "lower"),
    ("serialize.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _serialize_targets():
    """Every JSON reader/writer of the serialize module, plus DOT export."""
    from stablegraphs import serialize

    names = sorted(
        n for n, v in vars(serialize).items()
        if callable(v) and (n.endswith("_to_json") or n.endswith("_from_json") or n == "export_dot")
        and getattr(v, "__module__", "") == serialize.__name__
    )
    return tuple(("serialize", n, f"serialize.{n}", None) for n in names)


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "stablegraphs" or n.startswith("stablegraphs.")]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")
        self._stack = [-1]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name: str, fn, aux):
        name_id = self._intern(span_name)
        names, parents, ops, starts, ends, auxs = self.name, self.parent, self.op_id, self.start, self.end, self.aux
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer._op)
            auxs.append(-1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if aux is not None:
                auxs[i] = aux(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", span_name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one op; library spans inside it share its op id."""
        i = len(self.start)
        self.name.append(self._intern(f"op.{kind}"))
        self.parent.append(-1)
        self.op_id.append(op_id)
        self.aux.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self._op = op_id
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._op = -1
            self._stack.pop()

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        modules = _package_modules()
        for mod_name, attr, span_name, aux in TARGETS + _serialize_targets():
            mod = importlib.import_module(f"stablegraphs.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span_name, original, aux))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(span_name, original, aux)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def patched_names(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        n = len(self.start)
        child = [0.0] * n
        out = [0.0] * n
        for i in range(n - 1, -1, -1):
            d = self.end[i] - self.start[i]
            out[i] = d - child[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += d
        return out

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, list]]:
        """Per-layer metrics (all but trace.overhead_s) and the base of each ratio."""
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        aux: dict[str, int] = defaultdict(int)
        ids = self._name_ids
        enum_id = ids.get("cartesian.enumerate_stable_graphs", -2)
        ecm_id = ids.get("stabilize.enumerate_combinatorial_morphisms", -2)
        stable_id = ids.get("graphs.is_stable", -2)
        key_id = ids.get("canonical.canonical_key", -2)
        validate_id = ids.get("morphisms.validate_combinatorial", -2)
        # spans run under an enumeration / a morphism-enumeration span
        n = len(self.start)
        under_enum = bytearray(n)
        under_ecm = bytearray(n)
        candidates = keys = validations = 0
        for i in range(n):
            name_id = self.name[i]
            p = self.parent[i]
            if p >= 0:
                under_enum[i] = under_enum[p] or self.name[p] == enum_id
                under_ecm[i] = under_ecm[p] or self.name[p] == ecm_id
            candidates += under_enum[i] and name_id == stable_id
            keys += under_enum[i] and name_id == key_id
            validations += under_ecm[i] and name_id == validate_id
            name = self.names[name_id]
            group = "serialize" if name.startswith("serialize.") else name
            calls[group] += 1
            busy[group] += self_s[i]
            if self.aux[i] >= 0:
                aux[group] += self.aux[i]

        found = aux["cartesian.enumerate_stable_graphs"]
        yielded = aux["stabilize.enumerate_combinatorial_morphisms"]
        bases = {
            "cartesian.enum.stable_ratio": [keys, candidates],
            "cartesian.enum.unique_ratio": [found, keys],
            "stabilize.morphism_yield": [yielded, validations],
        }
        out: dict[str, float] = {}
        for metric, _unit, _better in PER_LAYER:
            if metric in bases:
                num, den = bases[metric]
                out[metric] = num / den if den else 0.0
            elif metric == "cartesian.enum.candidates":
                out[metric] = candidates
            elif metric == "morphisms.validate_combinatorial.rejected":
                out[metric] = aux["morphisms.validate_combinatorial"]
            elif metric == "stabilize.check_universal_property.morphisms_checked":
                out[metric] = aux["stabilize.check_universal_property"]
            elif metric.endswith(".calls"):
                out[metric] = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                out[metric] = busy[metric[: -len(".self_s")]]
        return out, bases

    def write_spans(self, path) -> None:
        """One span per line: id, op, name, parent, start and end in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\top\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op_id[i]}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{int((self.start[i] - t0) * 1e9)}\t{int((self.end[i] - t0) * 1e9)}\n"
                )
