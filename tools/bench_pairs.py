"""Paired benchmark runs of a parent and a change checkout, and a verdict per end-to-end metric.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10
    python3 tools/bench_pairs.py --parent ../parent --workload closed_loop_baseline

Runs ``perfbench/run.py`` in each checkout for every workload of
BENCHMARK.json, or for the workloads named by ``--workload`` (repeatable),
for BENCHMARK.json's run_seconds at perfbench's default seed, alternating
which side runs first, and reads the JSON object on the last line of each
run's output. For each workload it prints one table: for every end-to-end
metric that the change's BENCHMARK.json names, each side's median, the
change's wins over the pairs (ties count for neither), the parent's
interquartile range and a verdict:

- ``gain``: over at least ten pairs, the change wins at least nine tenths of
  them and its median is better than the parent's by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: the parent's interquartile range is wider than the bound and
  not every change run reads better than every parent run;
- ``within bound`` otherwise.

Under the table it prints each side's share of failed operations and every
run whose ``correct`` is false, and a ``refused`` line when the change fails
a larger share of operations than the parent or any change run is incorrect.
A run that exits non-zero (reported with its side, pair, exit code and the
last lines of its stderr) or exits 0 without a result object on its last
line (reported as "malformed output") stops the workload's pairs there, and
the finished ones are summarized. The exit status is 1 when a run failed in
either way or a workload was refused, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
STDERR_LINES = 5      # of a run that exits non-zero, printed with its report


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run's output;
    a ValueError if there is none."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    result = json.loads(lines[-1])
    if not (isinstance(result, dict) and RESULT_KEYS <= result.keys()):
        raise ValueError(f"last line is not a result object: {lines[-1][:80]!r}")
    return result


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


def failure_report(parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """Each side's share of failed operations and its incorrect runs, and
    whether the change is refused: it fails a larger share of operations than
    the parent, or any of its runs is incorrect."""
    lines, shares = [], []
    for label, results in (("parent", parent), ("change", change)):
        failed, attempted = failures(results)
        shares.append(failed / attempted if attempted else 0.0)
        lines.append(f"{label}: {failed} of {attempted} operations failed ({shares[-1]:.2%})")
        lines += [f"{label}: run of pair {i + 1} is incorrect" for i, r in enumerate(results) if not r["correct"]]
    incorrect = sum(not r["correct"] for r in change)
    if shares[1] > shares[0]:
        lines.append(f"refused: the change fails {shares[1]:.2%} of operations against the parent's {shares[0]:.2%}")
    if incorrect:
        lines.append(f"refused: {incorrect} change run(s) incorrect")
    return lines, shares[1] > shares[0] or incorrect > 0


def run_once(checkout: Path, workload: str, seconds: float) -> dict | str:
    """The result of one perfbench run, or what went wrong with it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        tail = done.stderr.splitlines()[-STDERR_LINES:]
        return "\n    ".join([f"exited with code {done.returncode}", *tail])
    try:
        return parse_result(done.stdout)
    except ValueError as exc:
        return f"malformed output: {exc}"


def bench_workload(args, spec: dict, workload: str) -> bool:
    """Run and summarize the pairs of one workload; True if it passes."""
    seconds, metrics = float(spec["run_seconds"]), spec["end_to_end"]
    parent, change = [], []
    stopped = False
    for i in range(args.pairs):
        sides = [("parent", args.parent, parent), ("change", args.change, change)]
        for label, checkout, results in (sides if i % 2 == 0 else sides[::-1]):
            result = run_once(checkout, workload, seconds)
            if isinstance(result, str):
                print(f"pair {i + 1}/{args.pairs} {label}: perfbench/run.py {result}", flush=True)
                stopped = True
                break
            results.append(result)
            print(f"pair {i + 1}/{args.pairs} {label}: "
                  + " ".join(f"{m['name']}={_value(result, m['name']):.4g}" for m in metrics), flush=True)
        if stopped:
            break
    pairs = min(len(parent), len(change))   # an unfinished pair is dropped
    parent, change = parent[:pairs], change[:pairs]

    print(f"\n{workload}, {pairs} finished pairs of {seconds:g} s")
    if not pairs:
        return False
    print(f"{'metric':<18} {'parent':>10} {'change':>10} {'wins':>6} {'parent IQR':>11}  verdict")
    for row in summarize(parent, change, metrics):
        print(f"{row['name']:<18} {row['parent_median']:>10.4g} {row['change_median']:>10.4g} "
              f"{row['wins']:>3}/{row['pairs']:<2} {row['parent_iqr']:>11.3g}  {row['verdict']}")
    lines, refused = failure_report(parent, change)
    print("\n".join(lines) + "\n", flush=True)
    return not (stopped or refused)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        help="workload to run, repeatable (default: every workload in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in args.workload or []:
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    passed = [bench_workload(args, spec, workload) for workload in args.workload or names]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
