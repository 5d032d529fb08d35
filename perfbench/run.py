"""Run one stablegraphs benchmark workload and print its metrics.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in its own fresh
process (perfbench/worker.py), with one op in flight.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs one round untraced and once more
under the outside-in tracer and prints the per-layer metrics.  The last line
of output is one JSON object with the keys correct, attempted, failed and
metrics.  A results file with the environment record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enumerate", "calculus", "certify", "cli")
SETUP_SAMPLES = 9  # setup_s is the median of this many fresh processes
RUN_DEADLINE_S = 170  # a whole run ends within 180 s


class BenchError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process; returns its report plus setup_s,
    the time from process start to its first timed op."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} did not finish in {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {argv} printed no report")
    report = json.loads(lines[-1])
    report["setup_s"] = report["first_op"] - start
    return report


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * k / (n - 1), n


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None  # not a git checkout
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics of one workload, and the details behind them."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    main = spawn(base, deadline)
    setups = [main["setup_s"]]
    problems = list(main["problems"])
    failed = main["failed"]
    for _ in range(SETUP_SAMPLES - 1):
        extra = spawn(base + ["--setup-only"], deadline)
        setups.append(extra["setup_s"])
        failed += extra["failed"]
        problems += extra["problems"]
    # one latency per op of the list, taken over the rounds (see worker.py)
    per_op = main["per_op"]
    tail_value, tail_pct, samples = tail(per_op)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": sum(per_op), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(per_op) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail_value * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
    }
    details = {
        "op_tail_percentile": round(tail_pct, 2),
        "op_samples": samples,
        "op_estimator": main["estimator"],
        "rounds": main["rounds"],
        "round_walls_s": main["round_walls"],
        "median_round_wall_s": statistics.median(main["round_walls"]),
        "setup_samples_s": setups,
        "attempted": main["attempted"],
        "failed": failed,
        "fail_ratio": failed / main["attempted"],
        "problems": problems[:50],
        "note": main.get("note"),
    }
    return metrics, details


def trace(args, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced round."""
    from tracer import PER_LAYER

    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    report = spawn(base + ["--trace", "1"], deadline)
    metrics = {name: {"value": report["metrics"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    details = {
        "ratio_bases": report["bases"],
        "spans": report["spans"],
        "spans_file": report["spans_file"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "fail_ratio": report["failed"] / report["attempted"],
        "problems": report["problems"][:50],
        "time_waited": "N/A: single-threaded, no queues",
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="stablegraphs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "stablegraphs" / "__init__.py").is_file():
        print("perfbench: no stablegraphs sources under src/; run from a checkout", file=sys.stderr)
        return 2
    try:
        metrics, details = (trace if args.trace else measure)(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = {"environment": environment(args), "metrics": metrics, **details}
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    if not args.trace:
        print(f"{args.workload}: op_tail_ms is p{details['op_tail_percentile']} of {details['op_samples']} ops")
    print(f"{args.workload}: fail_ratio {details['failed']}/{details['attempted']}; results in {out.relative_to(ROOT)}")
    for problem in details["problems"]:
        print(f"  problem: {problem}")
    result = {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
