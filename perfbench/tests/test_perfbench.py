"""Tests of the benchmark's tracer and its agreement with BENCHMARK.json.

They trace a few small ops (the warm-up cells of ``enumerate``, one
``calculus`` block, one round of ``cli``), so they run in about a second.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import stablegraphs  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402


def small_ops():
    """(workload, specs) pairs covering graph construction, enumeration,
    every calculus task and every CLI verb."""
    enum, calc, cli = workloads.Enumerate(), workloads.Calculus(), workloads.Cli()
    return [(enum, enum.warmup()), (calc, calc.warmup()), (cli, cli.warmup())]


def run_ops(ops, tracer=None):
    outputs = []
    for w, specs in ops:
        for k, spec in enumerate(specs):
            args = w.prepare(spec)
            if tracer is None:
                out = w.op(spec, args)
            else:
                with tracer.op(k, spec[0]):
                    out = w.op(spec, args)
            assert w.check(spec, args, out) == [], spec[0]
            outputs.append(out)
    return outputs


def traced_metrics(ops):
    tracer = Tracer()
    tracer.install()
    try:
        outputs = run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    return outputs, tracer.layer_metrics()[0]


def snapshot():
    """Every attribute of every stablegraphs module and patched class."""
    names = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "stablegraphs" or mod_name.startswith("stablegraphs."):
            for attr, value in vars(mod).items():
                names[(mod_name, attr)] = value
    for cls in (stablegraphs.MarkedGraph, stablegraphs.MonoidElement):
        for attr, value in vars(cls).items():
            names[(cls.__qualname__, attr)] = value
    return names


def test_uninstall_restores_every_patched_name():
    ops = small_ops()
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched_names()
    assert any(owner is stablegraphs.MarkedGraph and name == "__post_init__" for owner, name, _ in patched)
    assert any(owner is stablegraphs.MonoidElement and name == "__add__" for owner, name, _ in patched)
    importers = {owner.__name__ for owner, name, _ in patched if name == "validate_combinatorial"}
    assert {"stablegraphs.morphisms", "stablegraphs.pullback", "stablegraphs.stabilize",
            "stablegraphs.cartesian", "stablegraphs.cli"} <= importers
    try:
        run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.patched_names() == []


def test_traced_outputs_equal_untraced_outputs():
    ops = small_ops()
    untraced = run_ops(ops)
    traced, _ = traced_metrics(ops)
    assert traced == untraced


def test_traced_counts_repeat_exactly():
    ops = small_ops()
    _, first = traced_metrics(ops)
    _, second = traced_metrics(ops)
    exact = [name for name, unit, _ in PER_LAYER if unit in ("count", "ratio")]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["graphs.MarkedGraph.calls"] > 0
    assert first["cli.main.calls"] == len(workloads.CLI_CASES)
    assert first["cartesian.enum.candidates"] > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    # op span 0..10 s, a child 2..5 s inside it, a grandchild 3..4 s inside that
    for start, end, parent in ((0.0, 10.0, -1), (2.0, 5.0, 0), (3.0, 4.0, 1)):
        tracer.name.append(tracer._intern("x"))
        tracer.parent.append(parent)
        tracer.op_id.append(0)
        tracer.aux.append(-1)
        tracer.start.append(start)
        tracer.end.append(end)
    assert tracer.self_times() == [7.0, 2.0, 1.0]


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
