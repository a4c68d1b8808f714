"""Command-line interface: dataset generation, training, simulation, comparison.

Every command is reproducible from its config and seed; manifests embed both.
Outputs are plain CSV/JSON. Exit codes: 0 success, 1 usage error, 2 runtime
error, 3 episode failure (simulate only).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import apply_overrides, load_json
from .detector.curves import generate_handover_sequence, sample_curve_params
from .detector.dataset import load_sequence_csv, save_sequence_csv, window_dataset
from .detector.network import init_network, load_weights, save_weights
from .detector.training import TrainingConfig, evaluate_loss, train
from .harness import (
    ARMS,
    SUCCESS,
    Scenario,
    evaluate_batch,
    make_batch_scenarios,
    run_handover,
    write_batch_csvs,
    write_episode_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_EPISODE_FAILURE = 3

OUTPUT_DIR_ENV = "HANDOVER_SIM_OUT"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); remap to usage error
        raise UsageError(message)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV, ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _scenario_from_args(args) -> Scenario:
    data = load_json(args.scenario) if args.scenario else {}
    if args.seed is not None:
        data["seed"] = args.seed
    if getattr(args, "release", None):
        data["release"] = args.release
    if getattr(args, "controller", None):
        data["controller"] = args.controller
    apply_overrides(data, args.override)
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(Scenario)})
    if unknown:
        raise UsageError(f"unknown scenario field(s): {', '.join(unknown)}")
    try:
        return Scenario(**data)
    except ValueError as exc:  # a value or nested key the scenario rejects
        raise UsageError(str(exc)) from exc


def _write_manifest(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    out = _out_dir(args)
    if args.sequences < 1:
        raise UsageError("--sequences must be >= 1")
    rng = np.random.default_rng(args.seed)
    counts = {0: 0, 1: 0}
    names = []
    for i in range(args.sequences):
        params = sample_curve_params(rng, disturbed=not args.clean)
        duration = params.schedule_end + float(rng.uniform(1.0, 1.5))
        seq = generate_handover_sequence(params, duration, args.rate)
        name = f"seq_{i:05d}.csv"
        save_sequence_csv(seq, out / name)
        names.append(name)
        values, tallies = np.unique(seq.labels, return_counts=True)
        for v, c in zip(values, tallies):
            counts[int(v)] += int(c)
    _write_manifest(
        out / "manifest.json",
        {
            "command": "gen-data",
            "seed": args.seed,
            "sequences": args.sequences,
            "rate": args.rate,
            "clean": args.clean,
            "label_counts": counts,
            "files": names,
        },
    )
    print(f"wrote {args.sequences} sequences to {out} (label counts {counts})")
    return EXIT_OK


def cmd_train(args) -> int:
    if not 0.0 < args.val_fraction < 1.0:
        raise UsageError("--val-fraction must lie in (0, 1)")
    out = _out_dir(args)
    dataset_dir = Path(args.dataset)
    files = sorted(dataset_dir.glob("seq_*.csv"))
    if not files:
        raise FileNotFoundError(f"no sequence CSVs found in {dataset_dir}")
    sequences = [load_sequence_csv(f) for f in files]

    cfg = TrainingConfig(
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        patience=args.patience,
        balancing=args.balancing,
        window=args.window,
        stride=args.stride,
        seed=args.seed or 0,
        max_epochs=args.epochs,
    )
    n_val = max(1, int(len(sequences) * args.val_fraction))
    val_set = window_dataset(sequences[:n_val], cfg.window, cfg.stride)
    train_set = window_dataset(sequences[n_val:], cfg.window, cfg.stride)

    if args.resume:
        params, _ = load_weights(args.resume)
    else:
        params = init_network(hidden=args.hidden, seed=cfg.seed)
    start = time.perf_counter()
    params, history = train(params, train_set, None, cfg)
    elapsed = time.perf_counter() - start

    final_loss = history[-1]["train_loss"]
    best_loss = min(h["train_loss"] for h in history)
    val_loss = evaluate_loss(params, val_set, cfg.batch_size)
    weights_path = out / "weights.npz"
    save_weights(
        params, weights_path,
        meta={"train_loss": best_loss, "val_loss": val_loss, "seed": cfg.seed},
    )
    with open(out / "history.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss"])
        for h in history:
            writer.writerow([h["epoch"], f"{h['train_loss']:.9g}"])
    _write_manifest(
        out / "train_manifest.json",
        {
            "command": "train",
            "dataset": str(dataset_dir),
            "config": dataclasses.asdict(cfg),
            "epochs_run": len(history),
            "final_loss": final_loss,
            "best_loss": best_loss,
            "val_loss": val_loss,
            "wall_seconds": elapsed,
        },
    )
    print(f"trained {len(history)} epochs in {elapsed:.1f} s; best loss {best_loss:.5f}, "
          f"val loss {val_loss:.5f}; weights at {weights_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    scenario = _scenario_from_args(args)
    network = None
    if scenario.release == "network":
        if not args.weights:
            raise UsageError("release='network' requires --weights")
        network, _ = load_weights(args.weights)
    result = run_handover(scenario, network=network)
    write_episode_csv(result, out / "episode.csv")
    m = result.metrics
    _write_manifest(
        out / "episode_manifest.json",
        {
            "command": "simulate",
            "scenario": scenario.to_dict(),
            "outcome": m.outcome,
            "release_time": m.release_time,
            "release_fraction": m.release_fraction,
            "min_separation": m.min_separation,
            "max_directed_speed": m.max_directed_speed,
            "safety_violations": m.safety_violations,
            "cycles": m.cycles,
        },
    )
    _write_manifest(
        out / "timing.json",
        {"cycle_time_mean": m.cycle_time_mean, "cycle_time_max": m.cycle_time_max,
         "cycle_time_p99": m.cycle_time_p99, "deadline_misses": m.deadline_misses,
         "note": "wall-clock values; not reproducible across runs"},
    )
    print(f"outcome: {m.outcome} (release at {m.release_time:.3f} s, "
          f"min separation {m.min_separation:.3f} m, violations {m.safety_violations})")
    return EXIT_OK if m.outcome == SUCCESS else EXIT_EPISODE_FAILURE


def cmd_compare(args) -> int:
    out = _out_dir(args)
    if args.episodes < 1:
        raise UsageError("--episodes must be >= 1")
    base = _scenario_from_args(args)
    scenarios = make_batch_scenarios(base, args.episodes, seed=base.seed,
                                     disturbed=not args.clean)
    if args.arms == "both":
        arms = dict(ARMS)
    elif args.arms == "proposed-only":
        arms = {"proposed": ARMS["proposed"]}
    else:
        arms = {"baseline": ARMS["baseline"]}
    network = None
    if any(release == "network" for _, release in arms.values()):
        if not args.weights:
            raise UsageError("the proposed arm requires --weights")
        network, _ = load_weights(args.weights)
    batch = evaluate_batch(scenarios, arms=arms, network=network)
    write_batch_csvs(batch, out / "episodes.csv", out / "summary.csv")
    _write_manifest(
        out / "compare_manifest.json",
        {
            "command": "compare",
            "episodes": args.episodes,
            "seed": base.seed,
            "clean": args.clean,
            "arms": {name: list(pair) for name, pair in arms.items()},
            "base_scenario": base.to_dict(),
        },
    )
    for s in batch.summaries:
        print(f"{s.arm}: {s.failures} failures / {s.episodes} episodes "
              f"({s.premature_drops} premature, {s.failed_releases} failed releases), "
              f"mean release latency {s.mean_release_latency:.3f} s, "
              f"safety violations {s.safety_violations}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="handover-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scenario: bool = False) -> None:
        p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--override", action="append", default=[], metavar="K=V",
                       help="dotted config override, repeatable (e.g. safety.a_max=1.0)")
        if scenario:
            p.add_argument("--scenario", help="scenario JSON file")
            p.add_argument("--weights", help="trained network weights (.npz)")

    p = sub.add_parser("gen-data", help="generate labeled force sequences")
    common(p)
    p.add_argument("--sequences", type=int, default=200)
    p.add_argument("--rate", type=float, default=500.0)
    p.add_argument("--clean", action="store_true", help="no disturbance pulses")
    p.set_defaults(func=cmd_gen_data, seed=0)

    p = sub.add_parser("train", help="train the release classifier")
    common(p)
    p.add_argument("--dataset", required=True, help="directory of seq_*.csv files")
    p.add_argument("--resume", help="continue from an existing weights file")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--learning-rate", type=float, default=4e-3)
    p.add_argument("--patience", type=int, default=50)
    p.add_argument("--epochs", type=int, default=500, help="hard cap on epochs")
    p.add_argument("--balancing", default="undersample",
                   choices=["weighted-loss", "oversample", "undersample"])
    p.add_argument("--window", type=int, default=500)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--val-fraction", type=float, default=0.25)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="run one handover episode")
    common(p, scenario=True)
    p.add_argument("--release", choices=["network", "threshold"])
    p.add_argument("--controller", choices=["admittance", "pd"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="paired evaluation of both architectures")
    common(p, scenario=True)
    p.add_argument("--episodes", type=int, default=60)
    p.add_argument("--arms", default="both", choices=["both", "proposed-only", "baseline-only"])
    p.add_argument("--clean", action="store_true", help="no disturbance pulses")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - boundary: report and encode in exit status
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
