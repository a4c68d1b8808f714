"""Paired benchmark runs of a parent and a change checkout, and a verdict per end-to-end metric.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload closed_loop_baseline --pairs 10

Runs ``perfbench/run.py`` for one workload in each checkout, for BENCHMARK.json's
run_seconds at perfbench's default seed, alternating which side runs first,
and reads the JSON object on the last line of each run's output. For every
end-to-end metric that the change's BENCHMARK.json names it prints each
side's median, the change's wins over the pairs (ties count for neither), the
parent's interquartile range and a verdict:

- ``gain``: over at least ten pairs, the change wins at least nine tenths of
  them and its median is better than the parent's by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: the parent's interquartile range is wider than the bound and
  not every change run reads better than every parent run;
- ``within bound`` otherwise.

It also prints the failed and attempted operations of each side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    return json.loads(lines[-1])


def _value(result: dict, name: str) -> float:
    return float(result["metrics"][name]["value"])


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per end-to-end metric over paired results; parent[i] and change[i] form pair i.

    metrics are BENCHMARK.json's end_to_end entries: name, unit, better
    ("lower" or "higher") and bound (the relative worsening allowed).
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same positive number of parent and change results")
    rows = []
    for metric in metrics:
        name, bound = metric["name"], float(metric["bound"])
        p = np.array([_value(r, name) for r in parent])
        c = np.array([_value(r, name) for r in change])
        p_med, c_med = float(np.median(p)), float(np.median(c))
        q25, q75 = np.percentile(p, [25, 75])
        iqr = float(q75 - q25)
        # in sign * value, lower is better for every metric
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = int(np.count_nonzero(sign * c < sign * p))
        gap = sign * (p_med - c_med)          # > 0: the change's median is better
        if len(p) >= 10 and 10 * wins >= 9 * len(p) and gap > iqr:
            verdict = "gain"
        elif -gap > bound * abs(p_med):
            verdict = "worse"
        elif iqr > bound * abs(p_med) and not (sign * c).max() < (sign * p).min():
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append({"name": name, "unit": metric["unit"], "parent_median": p_med, "change_median": c_med,
                     "wins": wins, "pairs": len(p), "parent_iqr": iqr, "verdict": verdict})
    return rows


def failures(results: list[dict]) -> tuple[int, int]:
    """(failed, attempted) operations summed over runs."""
    return sum(int(r["failed"]) for r in results), sum(int(r["attempted"]) for r in results)


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds = float(spec["run_seconds"])

    parent, change = [], []
    for i in range(args.pairs):
        sides = [("parent", args.parent, parent), ("change", args.change, change)]
        for label, checkout, results in (sides if i % 2 == 0 else sides[::-1]):
            results.append(run_once(checkout, args.workload, seconds))
            print(f"pair {i + 1}/{args.pairs} {label}: "
                  + " ".join(f"{m['name']}={_value(results[-1], m['name']):.4g}" for m in spec["end_to_end"]),
                  flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs of {seconds:g} s")
    print(f"{'metric':<18} {'parent':>10} {'change':>10} {'wins':>6} {'parent IQR':>11}  verdict")
    for row in summarize(parent, change, spec["end_to_end"]):
        print(f"{row['name']:<18} {row['parent_median']:>10.4g} {row['change_median']:>10.4g} "
              f"{row['wins']:>3}/{row['pairs']:<2} {row['parent_iqr']:>11.3g}  {row['verdict']}")
    for label, results in (("parent", parent), ("change", change)):
        failed, attempted = failures(results)
        print(f"{label}: {failed} of {attempted} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
