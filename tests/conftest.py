import time
from dataclasses import dataclass

import numpy as np
import pytest

from handover_sim.config import default_manipulator
from handover_sim.detector import (
    NetworkParams,
    TrainingConfig,
    WindowDataset,
    generate_handover_sequence,
    init_network,
    sample_curve_params,
    train,
    window_dataset,
)
from handover_sim.kinematics import ManipulatorModel


def make_model(dh_rows, masses=None, payload=0.0, qd=3.0, qdd=10.0) -> ManipulatorModel:
    """Small helper for hand-built chains in tests."""
    n = len(dh_rows)
    return ManipulatorModel(
        dh_rows=np.asarray(dh_rows, dtype=float),
        q_dot_max=qd * np.ones(n),
        q_ddot_max=qdd * np.ones(n),
        link_masses=np.ones(n) if masses is None else np.asarray(masses, dtype=float),
        payload_mass=payload,
    )


@pytest.fixture(scope="session")
def default_model():
    return default_manipulator()


@pytest.fixture(scope="session")
def one_link():
    # single revolute joint, 1 m link along x
    return make_model([[1.0, 0.0, 0.0, 0.0]])


@pytest.fixture(scope="session")
def two_link_planar():
    return make_model([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


@dataclass(frozen=True)
class TrainedDetector:
    net: NetworkParams
    val_set: WindowDataset
    train_windows: int
    train_seconds: float
    history: list


def build_corpus(n_sequences=320, seed=1234, rate=500.0):
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_sequences):
        p = sample_curve_params(rng, disturbed=True)
        seqs.append(generate_handover_sequence(p, p.schedule_end + float(rng.uniform(1.0, 1.5)), rate))
    return seqs


@pytest.fixture(scope="session")
def trained_detector() -> TrainedDetector:
    """Desk-scale trained release classifier, shared across the session.

    Training runs once (several minutes); every test needing live inference
    reuses the result.
    """
    seqs = build_corpus()
    train_set = window_dataset(seqs[:220])
    val_set = window_dataset(seqs[220:])
    assert len(val_set) >= 10_000
    net = init_network(hidden=64, seed=0, dtype=np.float32)
    cfg = TrainingConfig(seed=0, max_epochs=3, dtype="float32")
    start = time.perf_counter()
    net, history = train(net, train_set, None, cfg)
    elapsed = time.perf_counter() - start
    return TrainedDetector(
        net=net,
        val_set=val_set,
        train_windows=len(train_set),
        train_seconds=elapsed,
        history=history,
    )
