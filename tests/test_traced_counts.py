"""Exact per-layer counts and correct outputs of each benchmark workload.

Each traced case runs one traced round of ``perfbench/run.py`` at seed 1
(some counts differ at other seeds) and compares the counts it reads with
the pins below.  A pin that moves means a layer does more or less work than
it did: change the pin only together with the reason next to it.  Each
untraced case runs a workload's op list in process at seed 1 or 2 (certify
relabels its graphs by seed) and requires every output check to pass.  CI
runs both on Python 3.10-3.13.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench")]

import workloads  # noqa: E402

PINS = {
    "certify": {
        # one per certificate, of its stabilization morphism; the search builds morphisms and validates none
        "morphisms.validate_combinatorial.calls": 120,
        # every stabilization morphism is valid
        "morphisms.validate_combinatorial.rejected": 0,
        # the hom-set sizes summed over the round's sources
        "stabilize.check_universal_property.morphisms_checked": 9_125,
        # stabilization builds one graph however many vertices it removes, and the pool lists a source once
        "graphs.MarkedGraph.calls": 375,
        # the search reads flags from each graph's own tables, so every call is outside it: 481 valence reads for
        # stability, which each graph works out once however many certificates list it, 146 by the surgeries and
        # 146 computing flag partitions, once per graph
        "graphs.flags_at.calls": 773,
    },
    "calculus": {
        # each input instance once, as a passed check is kept on it, and no composite or pullback square, which
        # are valid by construction from checked inputs: 30 pullback inputs (one phi per task, however many edge
        # orders), and the contractions of each compose task's three inputs; 150 before, when the four composites
        # per compose task were checked and the last input's was not, and 272 before checks were kept
        "morphisms.validate_contraction.calls": 90,
        # likewise 90 (160 before, 282 before that): 30 pullback coverings and the combinatorial parts of each
        # compose task's three inputs; plus the 10 coverings cartesian takes as input
        "morphisms.validate_combinatorial.calls": 100,
        # every input is valid
        "morphisms.validate_combinatorial.rejected": 0,
        # stabilization and the stable pullback each build one graph however many surgeries they make
        "graphs.MarkedGraph.calls": 435,
        # the stable pullback reads its elementary steps from phi's own ids
        "morphisms.decompose_elementary.calls": 0,
        # the stable pullback builds no factor graph per contracted edge
        "morphisms.contract_edges.calls": 79,
        # the stable pullback checks its input, not its output, which is stable because its input is
        "graphs.is_stable.calls": 433,
        # mostly is_stable's valence reads, once per graph, and the stable pullback's flag lists per vertex of rho;
        # 810 before: a combinatorial check under a marking hom builds its flag partition anew, reading flags_at at
        # each genus-0 target vertex whose pushed class is 0; the checks no longer repeated read 5, and trading
        # the 80 composite checks for 20 input checks reads 21 fewer (805 before)
        "graphs.flags_at.calls": 784,
    },
    "enumerate": {
        # one per key (12 starts, 404 built children, 47 contractions), per labelling (47) and per output (345)
        "canonical.canonical_encoding.calls": 855,
        # 345 outputs of 463 keys; 470 of the 874 splittings are refused before any graph is built
        "cartesian.enum.unique_ratio": 345 / 463,
        # 12 starts, 404 children, 47 contractions and 345 canonical forms
        "graphs.MarkedGraph.calls": 808,
        # each graph splits its flags by kind once, in a table the labeller and the enumerator both read
        "graphs.flags_at.calls": 380,
    },
    "cli": {
        # four passes over the 16 golden cases: 75 graphs a pass, read from documents or built by the verbs
        "graphs.MarkedGraph.calls": 300,
        # 41 a pass, 24 of them in compose of isogenies and cartesian; each graph checks its stability once
        "graphs.flags_at.calls": 164,
        # only boundary labels graphs: 13 a pass
        "canonical.canonical_encoding.calls": 52,
        # 4 a pass: compose on marked morphisms checks its two inputs, and not its composite, which is valid by
        # construction; pullback and cartesian 1 each; 20 before, when the composite was checked, and 24 before
        # that, when compose_marked checked the outer input's combinatorial part again
        "morphisms.validate_combinatorial.calls": 16,
        # 3 a pass: compose on marked morphisms checks its two inputs and not its composite, pullback its input;
        # 16 before, when the composite was checked, and 20 before that, when compose_marked checked the inner
        # input's contraction again
        "morphisms.validate_contraction.calls": 12,
        # cartesian (4 a pass) and contract (1)
        "morphisms.contract_edges.calls": 20,
        # 19 a pass: 5 each in cartesian and compose of isogenies, 3 in compose on marked morphisms
        "graphs.is_stable.calls": 76,
        # 136 a pass, reading and writing the documents' graphs and maps
        "serialize.calls": 544,
        # one per op
        "cli.main.calls": 64,
    },
}


@pytest.mark.parametrize("workload", sorted(PINS))
def test_traced_counts_match_the_pins(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stdout
    read = {name: m["value"] for name, m in report["metrics"].items()}
    mismatches = {name: (pinned, read[name]) for name, pinned in PINS[workload].items() if read[name] != pinned}
    assert not mismatches, f"{workload}: (pinned, read) per metric: {mismatches}"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_outputs_are_correct(workload, seed):
    # two passes, as a benchmark run repeats its op list: what the first pass
    # memoizes on graphs it keeps, such as certify's pool, must still give
    # outputs that check in the second
    w = workloads.WORKLOADS[workload]()
    for _ in range(2):
        for spec in w.specs(seed):
            args = w.prepare(spec)
            assert w.check(spec, args, w.op(spec, args)) == [], spec[0]
