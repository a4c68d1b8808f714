import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from handover_sim.cli import (
    EXIT_EPISODE_FAILURE,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    build_parser,
    main,
)
from handover_sim.detector import TrainingConfig, init_network, load_sequence_csv, window_dataset
from handover_sim.config import apply_overrides


def write_scenario(path: Path, **kwargs) -> Path:
    data = dict(
        release="threshold",
        plan_duration=1.6,
        receiver_engagement_time=2.2,
        retreat_duration=0.6,
        release_timeout=0.6,
        episode_tail=0.1,
        seed=3,
    )
    data.update(kwargs)
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["gen-data", "--sequences", "5", "--seed", "7", "--out", str(out)]) == EXIT_OK
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    assert man_a == man_b
    assert man_a["label_counts"]["0"] > 0 and man_a["label_counts"]["1"] > 0
    for name in man_a["files"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_gen_data_rejects_zero_sequences(tmp_path):
    assert main(["gen-data", "--sequences", "0", "--out", str(tmp_path)]) == EXIT_USAGE


@pytest.mark.parametrize("rate", ["0", "NaN", "-500"])
def test_gen_data_bad_rate_is_usage_error(tmp_path, capsys, rate):
    assert main(["gen-data", "--sequences", "1", f"--rate={rate}", "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "--rate" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_window_count_follows_floor_law_on_generated_data(tmp_path):
    assert main(["gen-data", "--sequences", "3", "--seed", "1", "--out", str(tmp_path)]) == EXIT_OK
    seqs = [load_sequence_csv(p) for p in sorted(tmp_path.glob("seq_*.csv"))]
    for stride in (10, 50):
        ds = window_dataset(seqs, window=500, stride=stride)
        expected = sum((len(s) - 500) // stride + 1 for s in seqs)
        assert len(ds) == expected


# ---------------------------------------------------------------------------
# simulate

def test_simulate_threshold_needs_no_weights(tmp_path):
    scenario = write_scenario(tmp_path / "scenario.json")
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "run")])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "run" / "episode_manifest.json").read_text())
    assert manifest["outcome"] == "success"
    assert (tmp_path / "run" / "episode.csv").exists()
    timing = json.loads((tmp_path / "run" / "timing.json").read_text())
    assert timing["cycle_time_p99"] <= timing["cycle_time_max"]
    assert 0 <= timing["deadline_misses"] <= manifest["cycles"]


def test_simulate_same_seed_identical_csv(tmp_path):
    scenario = write_scenario(tmp_path / "scenario.json")
    for name in ("r1", "r2"):
        assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / name)]) == EXIT_OK
    assert (tmp_path / "r1" / "episode.csv").read_bytes() == (tmp_path / "r2" / "episode.csv").read_bytes()


def test_simulate_network_without_weights_is_usage_error(tmp_path):
    scenario = write_scenario(tmp_path / "scenario.json", release="network")
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == EXIT_USAGE


def test_simulate_override_plumbs_into_scenario(tmp_path):
    scenario = write_scenario(tmp_path / "scenario.json")
    out = tmp_path / "o"
    code = main([
        "simulate", "--scenario", str(scenario), "--out", str(out),
        "--override", "safety.a_max=1.0", "--override", "object_mass=0.5",
    ])
    assert code == EXIT_OK
    manifest = json.loads((out / "episode_manifest.json").read_text())
    assert manifest["scenario"]["safety"]["a_max"] == 1.0
    assert manifest["scenario"]["object_mass"] == 0.5


@pytest.mark.parametrize("field, flags", [
    ("object_mas", ["--override", "object_mas=0.5"]),
    ("sensor_rate", ["--override", "sensor_rate=500"]),
    ("pinv_damping", ["--override", "pinv_damping=0.01"]),
])
def test_simulate_unknown_scenario_field_is_usage_error(tmp_path, capsys, field, flags):
    scenario = write_scenario(tmp_path / "scenario.json")
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o"), *flags])
    assert code == EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, key", [
    ("simulate", "pd_gains.kpp"),
    ("simulate", "safety.a_maxx"),
    ("simulate", "admittance.mas"),
    ("simulate", "load_curve.noise"),
    ("simulate", "safety.T_r"),  # the reaction time is 1/control_rate
    ("compare", "pd_gains.kpp"),
])
def test_unknown_nested_scenario_key_is_usage_error(tmp_path, capsys, command, key):
    # checked when the scenario is built, before any episode runs
    scenario = write_scenario(tmp_path / "scenario.json")
    flags = ["--controller", "pd"] if command == "simulate" else ["--episodes", "1", "--arms", "baseline-only"]
    code = main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o"),
                 *flags, "--override", f"{key}=5"])
    assert code == EXIT_USAGE
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("key, value", [
    ("pd_gains.kp", "0"),
    ("safety.a_max", "-1"),
    ("admittance.mass", "-1"),
    ("load_curve.f_L0", "-1"),
    ("pd_gains.kd", "NaN"),
    # a NaN a_max made every SSM limit NaN, which compares false, so the ISO
    # rows dropped out of the scaling and the episode ran with 0 violations
    ("safety.a_max", "NaN"),
    ("admittance.k_trans", "NaN"),
    ("load_curve.noise_sigma", "NaN"),
])
def test_invalid_nested_scenario_value_is_usage_error(tmp_path, capsys, command, key, value):
    # every nested value is checked when the scenario is built, before any episode runs
    scenario = write_scenario(tmp_path / "scenario.json")
    flags = ["--controller", "pd"] if command == "simulate" else ["--episodes", "1", "--arms", "baseline-only"]
    code = main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o"),
                 *flags, "--override", f"{key}={value}"])
    assert code == EXIT_USAGE
    group, name = key.split(".")
    err = capsys.readouterr().err
    assert f"scenario {group}" in err and name in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("overrides, name", [
    ("grasp_q=[0,NaN,0,0,0,0]", "grasp_q"),
    ("grasp_q=[0,0,0]", "grasp_q"),
    ("handover_hand_pose=[NaN,0,0.5]", "handover_hand_pose"),
    ("hand_motion=[[0,1,2]]", "hand_motion"),
    ("hand_motion=[[0,0.7,-0.4,0.5],[1,0.65,NaN,0.55]]", "hand_motion"),
    ("disturbances=[[1.0,2.0]]", "disturbances"),
    ("disturbances=[[1.0,NaN,0.1]]", "disturbances"),
    ("disturbances=[[1.0,2.0,0]]", "width"),
    ("disturbances=[[1.0,2.0,-0.1]]", "width"),
    ("control_rate=NaN", "control_rate"),
    pytest.param(f"control_rate=1{'0' * 400}", "control_rate", id="control_rate=1e400-as-int"),
    ("plan_duration=NaN", "plan_duration"),
    ("receiver_engagement_time=NaN", "receiver_engagement_time"),
    ("pd_gains.kp=NaN", "kp"),
    ("object_mass=-1 load_curve.f_L0=5", "object_mass"),
    ("episode_tail=-1", "episode_tail"),
    ("detector_period=2.5", "detector_period"),
    ("detector_period=0", "detector_period"),
    ("seed=1.5", "seed"),
    ("seed=-1", "seed"),
    # the curve's seed, engagement and pulses are the scenario's top-level fields
    ("load_curve.seed=1.5", "seed"),
    ("load_curve.seed=9", "seed"),
    ("load_curve.engagement_time=3", "receiver_engagement_time"),
    ("load_curve.disturbance_events=[[1,2,0.1]]", "disturbances"),
])
def test_invalid_top_level_scenario_value_is_usage_error(tmp_path, capsys, command, overrides, name):
    # top-level values are checked where the scenario is built, before any episode runs
    scenario = write_scenario(tmp_path / "scenario.json")
    flags = ["--controller", "pd"] if command == "simulate" else ["--episodes", "1", "--arms", "baseline-only"]
    for item in overrides.split():
        flags += ["--override", item]
    code = main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o"), *flags])
    assert code == EXIT_USAGE
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_stale_scenario_file_key_is_usage_error(tmp_path, capsys):
    scenario = write_scenario(tmp_path / "scenario.json", sensor_rate=500.0)
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "sensor_rate" in capsys.readouterr().err


def test_simulate_failure_exit_code(tmp_path):
    # cancelling pulse in the hold phase: baseline drops the object
    scenario = write_scenario(
        tmp_path / "scenario.json",
        disturbances=[[1.0, 9.81, 0.15]],
        object_mass=1.0,
    )
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert code == EXIT_EPISODE_FAILURE


def test_simulate_missing_scenario_file(tmp_path):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == EXIT_RUNTIME


# ---------------------------------------------------------------------------
# train

def test_train_and_resume_round_trip(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--sequences", "8", "--seed", "2", "--out", str(data_dir)]) == EXIT_OK
    out = tmp_path / "model"
    code = main([
        "train", "--dataset", str(data_dir), "--out", str(out),
        "--hidden", "8", "--epochs", "2", "--window", "64", "--stride", "32",
        "--batch-size", "64", "--seed", "0",
    ])
    assert code == EXIT_OK
    manifest = json.loads((out / "train_manifest.json").read_text())
    assert manifest["epochs_run"] == 2
    history = (out / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_loss"
    assert len(history) == 3

    # the recorded validation loss reproduces from the saved weights
    from handover_sim.detector import evaluate_loss, load_weights

    params, meta = load_weights(out / "weights.npz")
    seqs = [load_sequence_csv(p) for p in sorted(data_dir.glob("seq_*.csv"))]
    val = window_dataset(seqs[:2], window=64, stride=32)
    assert abs(evaluate_loss(params, val) - meta["val_loss"]) < 1e-6

    # resuming from the weights file is accepted
    code = main([
        "train", "--dataset", str(data_dir), "--out", str(tmp_path / "resumed"),
        "--resume", str(out / "weights.npz"),
        "--epochs", "1", "--window", "64", "--stride", "32", "--batch-size", "64",
    ])
    assert code == EXIT_OK


@pytest.mark.parametrize("fraction", ["0", "-0.25", "1.0", "1.5"])
def test_train_val_fraction_outside_unit_interval_is_usage_error(tmp_path, capsys, fraction):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--sequences", "2", "--seed", "2", "--out", str(data_dir)]) == EXIT_OK
    code = main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "o"),
                 f"--val-fraction={fraction}", "--epochs", "1", "--window", "64", "--stride", "32"])
    assert code == EXIT_USAGE
    assert "--val-fraction" in capsys.readouterr().err


@pytest.mark.parametrize("flag, name", [
    ("--batch-size", "batch_size"),
    ("--window", "window"),
    ("--stride", "stride"),
    ("--epochs", "max_epochs"),
    ("--learning-rate", "learning_rate"),
    ("--hidden", "--hidden"),
])
def test_train_rejected_flag_is_usage_error(tmp_path, capsys, flag, name):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--sequences", "2", "--seed", "2", "--out", str(data_dir)]) == EXIT_OK
    code = main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "o"), f"{flag}=0"])
    assert code == EXIT_USAGE
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_flag_defaults_come_from_their_one_home():
    args = build_parser().parse_args(["train", "--dataset", "data"])
    cfg = TrainingConfig()
    assert args.hidden == inspect.signature(init_network).parameters["hidden"].default
    assert (args.batch_size, args.learning_rate, args.patience, args.epochs, args.balancing,
            args.window, args.stride, args.seed) == (cfg.batch_size, cfg.learning_rate, cfg.patience,
                                                     cfg.max_epochs, cfg.balancing, cfg.window,
                                                     cfg.stride, cfg.seed)


def test_train_missing_dataset(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "void"),
                 "--out", str(tmp_path)]) == EXIT_RUNTIME


# ---------------------------------------------------------------------------
# compare

def test_compare_baseline_only(tmp_path):
    scenario = write_scenario(tmp_path / "scenario.json", seed=5)
    out = tmp_path / "cmp"
    code = main([
        "compare", "--scenario", str(scenario), "--episodes", "2",
        "--arms", "baseline-only", "--clean", "--out", str(out),
    ])
    assert code == EXIT_OK
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 2
    assert summary[1].startswith("baseline,2,")
    episodes = (out / "episodes.csv").read_text().strip().splitlines()
    assert len(episodes) == 3


def test_compare_zero_episodes(tmp_path):
    assert main(["compare", "--episodes", "0", "--out", str(tmp_path),
                 "--arms", "baseline-only"]) == EXIT_USAGE


def test_compare_proposed_requires_weights(tmp_path):
    assert main(["compare", "--episodes", "1", "--out", str(tmp_path)]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# overrides helper

def test_apply_overrides_paths_and_types():
    cfg = {"safety": {"a_max": 2.0}}
    apply_overrides(cfg, ["safety.a_max=1.5", "release=network", "detector_period=5"])
    assert cfg["safety"]["a_max"] == 1.5
    assert cfg["release"] == "network"
    assert cfg["detector_period"] == 5
    with pytest.raises(ValueError):
        apply_overrides({}, ["no-equals-sign"])


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HANDOVER_SIM_OUT", str(tmp_path / "envout"))
    assert main(["gen-data", "--sequences", "1", "--seed", "0"]) == EXIT_OK
    assert (tmp_path / "envout" / "manifest.json").exists()


def test_train_resume_with_corrupt_weights(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--sequences", "3", "--seed", "2", "--out", str(data_dir)]) == EXIT_OK
    bad = tmp_path / "bad.npz"
    np.savez(bad, meta="{}", W_lstm=np.zeros((8, 4)))
    code = main([
        "train", "--dataset", str(data_dir), "--out", str(tmp_path / "o"),
        "--resume", str(bad), "--epochs", "1", "--window", "64", "--stride", "32",
    ])
    assert code == EXIT_RUNTIME
