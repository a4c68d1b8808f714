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

CRITERION_9_EPISODE = "cfaf4d65f7f8f756d51472a61f1915d05b4a0ca9117f7211a7b017e1c408e4bd"

# (criterion-8 scenario index, arm) -> episode.csv digest, with its outcome
CRITERION_8_EPISODES = {
    (0, "proposed"): "aff2f0d6408b9851143ed1723245a898fddb5dc651ac30136ab628231c080cf5",  # success
    (0, "baseline"): "6bdc296dbc96cc229644df22a44f22cb9d0e21b69a95ba2af614e6cd8d97158c",  # premature_drop
    (5, "proposed"): "319d2f309925f6b080fff7b44281c966f2edd60e92709b22fa6bbec43dbc3d3a",  # success
    (5, "baseline"): "9fac987eed0f3174fb225c0ca9ed57c2d850b3188df6ffaf9678d9b107dff6a1",  # success
    (55, "proposed"): "e7922dd5a26842cf99b0735be3b76822393926383b9f273403105bb54645cc20",  # premature_drop
    (55, "baseline"): "20142ade1761d7f5908be3ebfc99f88c9e38cd57a558598c39c927c5dd55207f",  # success
}

# evaluate_batch over criterion-8 scenarios 0 and 1, both arms
BATCH_EPISODES = "d9e18f5c0a609d1f7d6122725317126f454446c41720a6d6d06d16c74b0c37ac"
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


def test_criterion_9_episode_digest(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(acceptance_scenario(seed=13).to_dict()))
    assert main(["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path)]) == EXIT_OK
    assert sha256(tmp_path / "episode.csv") == CRITERION_9_EPISODE


@pytest.mark.parametrize("index, arm", sorted(CRITERION_8_EPISODES))
def test_criterion_8_episode_digest(index, arm, network, criterion_8_scenarios, tmp_path):
    controller, release = ARMS[arm]
    scenario = replace(criterion_8_scenarios[index], controller=controller, release=release)
    write_episode_csv(run_handover(scenario, network=network), tmp_path / "episode.csv")
    assert sha256(tmp_path / "episode.csv") == CRITERION_8_EPISODES[index, arm]


def test_batch_csv_digests(network, criterion_8_scenarios, tmp_path):
    batch = evaluate_batch(criterion_8_scenarios[:2], network=network)
    write_batch_csvs(batch, tmp_path / "episodes.csv", tmp_path / "summary.csv")
    assert sha256(tmp_path / "episodes.csv") == BATCH_EPISODES
    assert sha256(tmp_path / "summary.csv") == BATCH_SUMMARY


@pytest.mark.parametrize("dtype", sorted(TINY_TRAINING))
def test_tiny_training_digest(dtype):
    net = init_network(hidden=4, dense1=8, dense2=4, seed=5, dtype=dtype)
    cfg = TrainingConfig(batch_size=48, window=50, stride=5, seed=3, max_epochs=2, dtype=dtype)
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
    trained, history = train(net, windows, None, TrainingConfig(seed=0, max_epochs=1, dtype="float32"))
    assert training_digest(trained, history) == FULL_SIZE_STEP
