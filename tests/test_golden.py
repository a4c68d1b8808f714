"""Golden sha256 digests of the deterministic CSV outputs and trained weights.

The digests were recorded from the engine before any of the refactors that
promise byte-identical logs; a change to the arithmetic or to the order of
floating-point operations anywhere in the control cycle moves them. The
network arm runs the committed benchmark weights, whose own digest is
checked first. The training digests cover the weights and loss history of
short seeded train() runs, so they move with any change to the forward
pass, the backward pass or the optimizer.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from handover_sim.cli import EXIT_OK, main
from handover_sim.detector import (
    TrainingConfig,
    backward_batch,
    bce_output_grad,
    forward_batch,
    init_network,
    load_weights,
    one_hot,
    train,
    window_dataset,
)
from handover_sim.harness import (
    ARMS,
    evaluate_batch,
    make_batch_scenarios,
    run_handover,
    write_batch_csvs,
    write_episode_csv,
)

from conftest import build_corpus
from test_acceptance import acceptance_scenario
from test_detector_training import tiny_dataset

WEIGHTS = Path(__file__).resolve().parent.parent / "perfbench" / "detector_weights.npz"
WEIGHTS_SHA256 = "b91b88b017eb3858984a59ad7cb4f5b44fb88f674691473f76680c2571b31ac9"

CRITERION_9_EPISODE = "a13e9b04d747fa3c1f6a8f45bbdab632752d260adfaae40d5482a37286b82f0f"

# (criterion-8 scenario index, arm) -> episode.csv digest, with its outcome
CRITERION_8_EPISODES = {
    (0, "proposed"): "6fca48f83b4d8c5416780973b0176c6cf34757ff0a6d0bd0632a92e512bef7da",  # success
    (0, "baseline"): "0b9f706783c6ed89641cb41a281f61265b38451d7ce939956a16c93f014f941f",  # premature_drop
    (5, "proposed"): "f16522fdc765800e18e2ec388099d2d89c4d9c4d597f6054e555a8f0ec584082",  # success
    (5, "baseline"): "a9580cf9313719127ca83f66d5d20e4af177e12e8340d972121fc4f464920d4e",  # success
    (55, "proposed"): "aad7adadd74e3eea1fbdd7c891fca14f59f8f47aa540aecf8820a13935e118d8",  # premature_drop
    (55, "baseline"): "d90eb53b39869725b3b09f85fd27bc57bd4be0f9918eee269609a810735071e3",  # success
}

# criterion-8 scenario index -> digest of the float64 bytes of the proposed
# arm's det_out log column. episode.csv writes scores with {v:.9g}, so only
# this digest sees a score that moves in its last bits. The monitor steps the
# float32 weights in float32, so each score is a float32 value widened.
CRITERION_8_DET_OUT = {
    0: "19e80f4f6ec3b908b65ee1f03121463e1a0dadc48cd6fc2de6c765841de7f94d",  # 92 scores
    5: "fe5e2d74c80de3775112b4f577bc8c0e34f9da9f4ef4fa487801ae55c528b7c3",  # 100 scores
    55: "fe9a54c562d476ca73a1a711e54e9d053b3da5d0fb6f86614f2df541f2e6c21d",  # 55 scores
}

# evaluate_batch over criterion-8 scenarios 0 and 1, both arms
BATCH_EPISODES = "fb0a182bad72c84a5aa3a4b01f71350b6699aeb2f041d4a40f29df7be2c443a8"
BATCH_SUMMARY = "e9852931cac2d8bea711727cdf4448c543a1480ec3c46c739d8cb4af1e8dd172"

# train() on the two-trace tiny corpus (262 windows, batch 48: five full
# batches and a partial one of 22), 2 epochs, validation on a third trace
TINY_TRAINING = {
    "float64": "eeb201077af5e1b0f64c871315c951360120043a545e87d94e3284ec2af985ab",
    "float32": "60171794d451f59a6fb8407f66ce2cc9f6e1313991b6f277fb593d1d45f8c1a1",
}
# one float32 step of the default-size net (H=64) on 256 windows of 500 rows:
# the weights after train(), and the scores and gradients of that batch at init
FULL_SIZE_STEP = "98cb640f6e681dbf708da96eb9d47e620e1989e051f5f604cd3a309dc8e222e4"
FULL_SIZE_GRADIENTS = "406147b061854c9d3288abdbff9deef38e93fe02be22984a9a4a807f260f6ce0"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def arrays_digest(arrays: dict, extra: object = None) -> str:
    """sha256 over named arrays (name, dtype, shape, bytes) and the repr of extra."""
    digest = hashlib.sha256()
    for name, arr in arrays.items():
        digest.update(f"{name} {arr.dtype} {arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(repr(extra).encode())
    return digest.hexdigest()


def training_digest(net, history) -> str:
    return arrays_digest(net.arrays(), history)


@pytest.fixture(scope="module")
def network():
    assert sha256(WEIGHTS) == WEIGHTS_SHA256
    return load_weights(WEIGHTS)[0]


@pytest.fixture(scope="module")
def criterion_8_scenarios():
    return make_batch_scenarios(acceptance_scenario(), 60, seed=77, disturbed=True)


@pytest.fixture(scope="module")
def criterion_8_episode(network, criterion_8_scenarios):
    """(index, arm) -> EpisodeResult, each episode run once per module."""
    results = {}

    def run(index, arm):
        if (index, arm) not in results:
            controller, release = ARMS[arm]
            scenario = replace(criterion_8_scenarios[index], controller=controller, release=release)
            results[index, arm] = run_handover(scenario, network=network)
        return results[index, arm]

    return run


def test_criterion_9_episode_digest(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(acceptance_scenario(seed=13).to_dict()))
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == EXIT_OK
    assert sha256(tmp_path / "episode.csv") == CRITERION_9_EPISODE


@pytest.mark.parametrize("index, arm", sorted(CRITERION_8_EPISODES))
def test_criterion_8_episode_digest(index, arm, criterion_8_episode, tmp_path):
    write_episode_csv(criterion_8_episode(index, arm), tmp_path / "episode.csv")
    assert sha256(tmp_path / "episode.csv") == CRITERION_8_EPISODES[index, arm]


@pytest.mark.parametrize("index", sorted(CRITERION_8_DET_OUT))
def test_criterion_8_detector_score_digest(index, criterion_8_episode):
    log = criterion_8_episode(index, "proposed").log
    det_out = np.ascontiguousarray(log.data[:, log.columns.index("det_out")], dtype=np.float64)
    assert hashlib.sha256(det_out.tobytes()).hexdigest() == CRITERION_8_DET_OUT[index]


def test_batch_csv_digests(network, criterion_8_scenarios, tmp_path):
    batch = evaluate_batch(criterion_8_scenarios[:2], network=network)
    write_batch_csvs(batch, tmp_path / "episodes.csv", tmp_path / "summary.csv")
    assert sha256(tmp_path / "episodes.csv") == BATCH_EPISODES
    assert sha256(tmp_path / "summary.csv") == BATCH_SUMMARY


@pytest.mark.parametrize("dtype", sorted(TINY_TRAINING))
def test_tiny_training_digest(dtype):
    net = init_network(hidden=4, dense1=8, dense2=4, seed=5, dtype=dtype)
    cfg = TrainingConfig(batch_size=48, window=50, stride=5, seed=3, max_epochs=2, dtype=dtype,
                         balancing="weighted-loss")
    net, history = train(net, tiny_dataset(), tiny_dataset(seeds=(2,)), cfg)
    assert len(history) == 2
    assert training_digest(net, history) == TINY_TRAINING[dtype]


def test_full_size_training_step_digest():
    windows = window_dataset(build_corpus(n_sequences=3, seed=5)).subset(np.arange(256))
    net = init_network(hidden=64, seed=0, dtype=np.float32)
    X, labels = windows.gather(np.arange(256))
    y_hat, cache = forward_batch(net, X)
    grads = backward_batch(net, cache, bce_output_grad(one_hot(labels), y_hat))
    assert arrays_digest({"y_hat": y_hat, **grads}) == FULL_SIZE_GRADIENTS
    cfg = TrainingConfig(seed=0, max_epochs=1, dtype="float32", balancing="weighted-loss")
    trained, history = train(net, windows, None, cfg)
    assert training_digest(trained, history) == FULL_SIZE_STEP
