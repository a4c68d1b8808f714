"""Mini-batch training of the release classifier.

Adam (beta1 0.9, beta2 0.999, eps 1e-8) on the binary cross-entropy, batch
size 256 and learning rate 4e-3 by default, with early stopping that
monitors the training loss and keeps the best parameters seen. Everything is
seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import check_fields
from .dataset import WindowDataset, balance_dataset
from .network import (
    NetworkParams,
    backward_batch,
    bce_loss,
    bce_output_grad,
    forward_batch,
    predict_batch,
)

__all__ = [
    "TrainingConfig",
    "TrainingDivergedError",
    "train",
    "evaluate_accuracy",
    "evaluate_loss",
    "one_hot",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainingConfig:
    batch_size: int = 256
    learning_rate: float = 4e-3
    patience: int = 50
    balancing: str = "undersample"
    seed: int = 0
    max_epochs: int = 500
    dtype: str = "float64"

    def __post_init__(self) -> None:
        check_fields(self, positive="batch_size learning_rate max_epochs",
                     non_negative="patience seed", integers="batch_size max_epochs patience seed")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be float64 or float32")


def one_hot(labels: np.ndarray) -> np.ndarray:
    """Map {0,1} labels to one-hot pairs: 0 -> (1,0), 1 -> (0,1)."""
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((len(labels), 2))
    out[np.arange(len(labels)), labels] = 1.0
    return out


@dataclass
class _AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def _adam_step(
    params: NetworkParams,
    grads: dict[str, np.ndarray],
    state: _AdamState,
    lr: float,
) -> NetworkParams:
    state.t += 1
    new_arrays = {}
    for name, value in params.arrays().items():
        g = grads[name]
        m = state.m.get(name, np.zeros_like(value))
        v = state.v.get(name, np.zeros_like(value))
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - ADAM_BETA1**state.t)
        v_hat = v / (1.0 - ADAM_BETA2**state.t)
        new_arrays[name] = value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return NetworkParams(**new_arrays)


def train(
    params: NetworkParams,
    train_set: WindowDataset,
    val_set: WindowDataset | None,
    cfg: TrainingConfig,
) -> tuple[NetworkParams, list[dict]]:
    """Train until the monitored loss stops improving for cfg.patience epochs.

    Returns the best parameters and a per-epoch history of dicts with keys
    epoch / train_loss, plus val_loss when a val_set is given. Raises
    TrainingDivergedError if the loss turns non-finite.
    """
    if len(train_set) == 0:
        raise ValueError("training set is empty")
    params = params.astype(np.dtype(cfg.dtype))
    train_set, class_weights = balance_dataset(train_set, cfg.balancing, seed=cfg.seed)
    sample_weights = class_weights[train_set.labels]

    rng = np.random.default_rng(cfg.seed)
    best_params = params
    best_loss = np.inf
    bad_epochs = 0
    history: list[dict] = []
    adam = _AdamState()
    count = len(train_set)
    cache = None  # each step's forward pass reuses the previous step's buffers

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(count)
        losses = []
        weights = []
        for start in range(0, count, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            X, labels = train_set.gather(idx)
            Y = one_hot(labels)
            w = sample_weights[idx]
            y_hat, cache = forward_batch(params, X, cache)
            losses.append(bce_loss(Y, y_hat, w))
            weights.append(len(idx))
            grads = backward_batch(params, cache, bce_output_grad(Y, y_hat, w))
            try:
                params = _adam_step(params, grads, adam, cfg.learning_rate)
            except ValueError as exc:  # parameters left the finite range
                raise TrainingDivergedError(epoch) from exc
        epoch_loss = float(np.average(losses, weights=weights))
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(epoch)

        record = {"epoch": epoch, "train_loss": epoch_loss}
        if val_set is not None:
            record["val_loss"] = evaluate_loss(params, val_set, cfg.batch_size)
        history.append(record)

        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_params = params
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    return best_params, history


def _scored_batches(params: NetworkParams, dataset: WindowDataset, batch_size: int):
    """(labels, class scores) of the dataset's consecutive batches, in order."""
    for start in range(0, len(dataset), batch_size):
        X, labels = dataset.gather(range(start, min(start + batch_size, len(dataset))))
        yield labels, predict_batch(params, X)


def evaluate_loss(params: NetworkParams, dataset: WindowDataset, batch_size: int = 256) -> float:
    losses = []
    weights = []
    for labels, scores in _scored_batches(params, dataset, batch_size):
        losses.append(bce_loss(one_hot(labels), scores))
        weights.append(len(labels))
    return float(np.average(losses, weights=weights))


def evaluate_accuracy(params: NetworkParams, dataset: WindowDataset, batch_size: int = 256) -> float:
    """Fraction of windows whose higher-scoring class matches the label."""
    correct = 0
    for labels, scores in _scored_batches(params, dataset, batch_size):
        correct += int(np.sum(np.argmax(scores, axis=1) == labels))
    return correct / len(dataset)
