"""One workload in one fresh process; started by run.py.

Sets up (imports the library, builds the inputs, runs the warm-up ops),
then runs the workload's op list for a fixed number of rounds with one op in
flight at a time, and prints one JSON report as its last line of output.
With ``--setup-only`` it stops where the first timed op would start.  With
``--trace 1`` it runs the op list once, each op both untraced and traced,
and reports the per-layer metrics.

The report holds one latency per op of the list, taken over the rounds.
The host this runs on changes speed by up to a factor of two, in bursts of
milliseconds and in phases of seconds to minutes.  So an op's latency is its
fastest over the rounds: a short op meets a quiet moment in some round.  In
a workload with ops of 0.1 s and more (``long_ops``) those ops span the
bursts and cannot dodge a slow phase, so there each run of an op is
rescaled by a reference loop timed right before and right after it, and the
op's latency is the median over the rounds.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
MEASURE_BUDGET_S = 110  # stop starting rounds after this, so a run ends in time
REFERENCE_S = 0.0045  # the reference loop's fastest time on the reference machine


def reference_loop() -> None:
    """Fixed stdlib-only work (dicts, tuples, sorting), none of it library
    code, so its time tracks the host's speed and not the program's."""
    rng = random.Random(0)
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(9000):
        table.setdefault((rng.randrange(100), i % 7), []).append(i)
    sorted((len(v), k) for k, v in table.items())


def host_speed() -> float:
    """Time of the reference loop now: the faster of two runs."""
    clock, best = time.perf_counter, math.inf
    for _ in range(2):
        t0 = clock()
        reference_loop()
        best = min(best, clock() - t0)
    return best


def run_op(w, k: int, spec, tracer=None) -> tuple[float, list[str]]:
    """Run op k; returns its latency in s and its problems (none if it passed)."""
    args = w.prepare(spec)
    clock = time.perf_counter
    t0 = clock()
    try:
        if tracer is None:
            out = w.op(spec, args)
        else:
            with tracer.op(k, spec[0]):
                out = w.op(spec, args)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return clock() - t0, [f"{spec[0]} op {k} raised {exc!r}"]
    latency = clock() - t0
    return latency, w.check(spec, args, out)


def run_round(w, specs, rescale: bool = False) -> tuple[list[float], list[float], int, list[str]]:
    """Run one round untraced; returns (latencies, scales, failed op count,
    problems).  With ``rescale`` an op's scale is REFERENCE_S over the mean
    of the reference loop's times right before and right after it, else 1."""
    latencies, scales, failed, problems = [], [], 0, []
    before = host_speed() if rescale else 0.0
    for k, spec in enumerate(specs):
        latency, found = run_op(w, k, spec)
        if rescale:
            after = host_speed()
            scales.append(REFERENCE_S / ((before + after) / 2))
            before = after
        else:
            scales.append(1.0)
        latencies.append(latency)
        failed += bool(found)
        problems += found
    return latencies, scales, failed, problems


def run_traced(w, specs, tracer) -> tuple[float, float, int, list[str]]:
    """Run every op of a round untraced and traced, side by side in an
    alternating order, so that drift in machine speed cancels out of the
    overhead.  Returns (untraced s, traced s, failed op count, problems)."""
    untraced = traced = 0.0
    failed, problems = 0, []
    for k, spec in enumerate(specs):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    latency, found = run_op(w, k, spec, tracer)
                finally:
                    tracer.uninstall()
                traced += latency
            else:
                latency, found = run_op(w, k, spec)
                untraced += latency
            failed += bool(found)
            problems += found
    return untraced, traced, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    w = workloads.WORKLOADS[args.workload]()
    specs = w.specs(args.seed)
    _, _, warm_failed, problems = run_round(w, w.warmup())
    first_op = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op": first_op, "failed": warm_failed, "problems": problems}))
        return 0

    report = {"first_op": first_op}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        untraced, traced, failed, found = run_traced(w, specs, tracer)
        metrics, bases = tracer.layer_metrics()
        metrics["trace.overhead_s"] = traced - untraced
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans)
        report.update(
            metrics=metrics, bases=bases, spans=len(tracer.start), spans_file=str(spans.relative_to(HERE.parent)),
            attempted=2 * len(specs), failed=warm_failed + failed, problems=problems + found,
        )
    else:
        samples, walls, failed, rounds = [[] for _ in specs], [], warm_failed, w.rounds(args.seconds)
        for r in range(rounds):
            if time.monotonic() - first_op > MEASURE_BUDGET_S:
                report["note"] = f"stopped after {r} of {rounds} rounds: measuring budget spent"
                break
            lat, scales, f, found = run_round(w, specs, rescale=w.long_ops)
            for xs, x, scale in zip(samples, lat, scales):
                xs.append(x * scale)
            walls.append(sum(lat))
            failed += f
            problems.extend(found)
        per_op = [statistics.median(xs) if w.long_ops else min(xs) for xs in samples]
        report.update(per_op=per_op, estimator="rescaled median" if w.long_ops else "fastest",
                      round_walls=walls, rounds=len(walls), attempted=len(walls) * len(specs),
                      failed=failed, problems=problems)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
