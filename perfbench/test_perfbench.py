"""Tests of the benchmark itself: output contract, correctness gate, span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from spans import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_prints_every_declared_metric_with_its_unit(workload, trace):
    result, report = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    info = json.loads(next(line for line in report if line.startswith("# info "))[len("# info "):])
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed"):
        assert key in info
    names = {line.split()[2] for line in report if " = " in line}
    expected = ({"train_windows_per_s", "eval_windows_per_s"} if workload == "detector_train"
                else {"episodes_per_s", "cycle_ms_p50", "cycle_ms_p99", "deadline_miss_frac"})
    assert expected | {"setup_s", "peak_rss_mb", "failed_frac"} <= names


def test_perturbed_episode_reference_trips_the_gate():
    reference = copy.deepcopy(bench.load_reference())
    reference["closed_loop"]["baseline"][0]["release_cycle"] += 1
    result = bench.closed_loop("baseline", bench.DEFAULT_SEED, 0.0, False, bench.SIZES["tiny"], reference)
    assert result.attempted == 1 and result.failed == 1
    assert "release_cycle" in result.problems[0]


def test_unperturbed_episode_reference_passes():
    result = bench.closed_loop("baseline", bench.DEFAULT_SEED, 0.0, False, bench.SIZES["tiny"],
                               bench.load_reference())
    assert result.attempted == 1 and result.failed == 0, result.problems


def test_perturbed_training_reference_trips_the_gate():
    reference = copy.deepcopy(bench.load_reference())
    reference["detector_train"]["tiny"]["accuracy"] += 1e-6
    result = bench.detector_train(bench.DEFAULT_SEED, 0.0, False, bench.SIZES["tiny"], reference)
    assert result.failed == 1 and "below reference" in result.problems[0]


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    leaf = tracer.wrap("a.leaf", lambda: time.sleep(0.002))
    middle = tracer.wrap("b.middle", lambda: (leaf(), time.sleep(0.001), leaf()))
    root = tracer.wrap("c.root", lambda: (middle(), time.sleep(0.001)))
    root()
    spans = tracer.spans()
    assert spans.count("a.") == 2 and spans.count("b.") == 1
    assert math.isclose(float(spans.self_time.sum()), float(spans.durations("c.root")[0]), rel_tol=1e-9)
    leaves = float(spans.durations("a.").sum())
    assert leaves >= 0.004
    assert math.isclose(spans.self_total("b."), float(spans.durations("b.")[0]) - leaves, rel_tol=1e-9)
