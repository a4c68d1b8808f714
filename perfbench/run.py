"""handover-sim benchmark: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload closed_loop_proposed --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it repeat every metric by name with its unit, the workload-specific ones
included, and record the environment. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. --write-reference regenerates
reference.json (the correctness gate's expected values) for the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Fixed BLAS thread count, set before numpy loads; recorded in every result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "handover_sim" / "__init__.py").is_file():
    sys.exit(f"benchmark: no package source at {ROOT / 'src' / 'handover_sim'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402


def write_reference(size_name: str) -> None:
    size = bench.SIZES[size_name]
    ref = bench.load_reference() if bench.REFERENCE.exists() else {}
    ref["seed"] = bench.DEFAULT_SEED
    ref.setdefault("closed_loop", {})
    ref.setdefault("detector_train", {})
    net = bench.load_detector()
    if size_name == "full":
        for arm in bench.ARMS:
            records = []
            for scenario in bench.arm_family(arm, bench.DEFAULT_SEED, size.family):
                records.append(bench.episode_record(bench.harness.run_handover(scenario, network=net).metrics))
            ref["closed_loop"][arm] = records
            failures = sum(r["outcome"] != bench.SUCCESS for r in records)
            ref.setdefault("failures", {})[arm] = failures
            print(arm, "failures", failures, "of", len(records), flush=True)
    result = bench.detector_train(bench.DEFAULT_SEED, 0.0, False, size, None)
    accuracy = result.report["heldout_accuracy"][0]
    entry = ref["detector_train"].get(size_name, {})
    entry["accuracy"] = accuracy
    entry.setdefault("accuracy_floor", 0.5)
    ref["detector_train"][size_name] = entry
    print(size_name, "held-out accuracy", accuracy)
    bench.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(bench.SIZES), default="full")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference(args.size)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                bench.SIZES[args.size], bench.load_reference())
    units = {**bench.END_TO_END, **bench.PER_LAYER}
    for name, (value, unit) in result.report.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    for problem in result.problems:
        print(f"# FAILED {problem}")
    info = {"workload": args.workload, "trace": args.trace, "size": args.size,
            **bench.environment(args.seed), **result.info}
    print("# info " + json.dumps(info, sort_keys=True))
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result.metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
