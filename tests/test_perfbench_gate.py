"""The benchmark's correctness gate passes on every workload.

perfbench/run.py compares each seed-0 run with perfbench/reference.json (the
closed-loop episodes' outcomes and release cycles, the training run's held-out
accuracy) and reports the result on its last output line. Its own tests are
not part of this suite, so a refactor that breaks a call the benchmark makes,
or that moves a reference outcome, would otherwise pass here. This test runs
the benchmark at its smallest size and changes nothing under perfbench/. The
closed-loop workloads also run traced: the tracer swaps the names the harness
looks up (HumanState, chain_frames, ...) for wrappers, which a refactor can
break in ways an untraced run does not show.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
RUNS = [pytest.param(w, 0, id=w) for w in WORKLOADS] + [
    pytest.param(w, 1, id=f"{w}-traced") for w in WORKLOADS if w.startswith("closed_loop")
]


@pytest.mark.parametrize("workload, trace", RUNS)
def test_benchmark_gate_passes(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--size", "tiny", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    problems = [line for line in out.stdout.splitlines() if line.startswith("# FAILED")]
    assert (last["correct"], last["failed"]) == (True, 0), problems
    assert last["attempted"] >= 1
