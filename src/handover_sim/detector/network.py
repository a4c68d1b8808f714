"""Recurrent release classifier: LSTM + dense head, plain numpy.

One LSTM layer consumes the 6-channel wrench sequence one row per timestep;
the final hidden state feeds two ReLU dense layers (512 and 256 units by
default) and a 2-unit sigmoid output. Component 1 is the "open the gripper"
score. Forward, backward (through the unrolled recurrence), and the loss are
all explicit so gradients can be verified against finite differences.

Fused LSTM weight layout: rows [bias; input; hidden], gate columns
[candidate | input | forget | output] each hidden-size wide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit as _sigmoid

__all__ = [
    "NetworkParams",
    "init_network",
    "forward_batch",
    "predict_batch",
    "backward_batch",
    "bce_loss",
    "bce_output_grad",
    "save_weights",
    "load_weights",
]

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class NetworkParams:
    """All trainable arrays of the classifier."""

    W_lstm: np.ndarray  # (1 + input_size + hidden, 4 * hidden)
    W1: np.ndarray      # (hidden, dense1)
    b1: np.ndarray
    W2: np.ndarray      # (dense1, dense2)
    b2: np.ndarray
    W3: np.ndarray      # (dense2, 2)
    b3: np.ndarray

    def __post_init__(self) -> None:
        for name in ("W_lstm", "W1", "b1", "W2", "b2", "W3", "b3"):
            arr = np.asarray(getattr(self, name))
            if not np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if self.W_lstm.shape[1] % 4 != 0:
            raise ValueError("W_lstm column count must be 4 * hidden")
        hidden = self.hidden
        if self.W_lstm.shape[0] != 1 + self.input_size + hidden:
            raise ValueError("W_lstm row count inconsistent with hidden size")
        if self.W1.shape != (hidden, self.b1.shape[0]):
            raise ValueError(f"W1 shape {self.W1.shape} does not match hidden {hidden}")
        if self.W2.shape != (self.b1.shape[0], self.b2.shape[0]):
            raise ValueError(f"W2 shape {self.W2.shape} does not match dense sizes")
        if self.W3.shape != (self.b2.shape[0], 2) or self.b3.shape != (2,):
            raise ValueError(f"output layer must map to 2 units, got {self.W3.shape}")

    @property
    def hidden(self) -> int:
        return self.W_lstm.shape[1] // 4

    @property
    def input_size(self) -> int:
        return self.W_lstm.shape[0] - 1 - self.hidden

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "W_lstm": self.W_lstm,
            "W1": self.W1,
            "b1": self.b1,
            "W2": self.W2,
            "b2": self.b2,
            "W3": self.W3,
            "b3": self.b3,
        }

    def astype(self, dtype) -> "NetworkParams":
        return NetworkParams(**{k: v.astype(dtype) for k, v in self.arrays().items()})


def init_network(
    input_size: int = 6,
    hidden: int = 64,
    dense1: int = 512,
    dense2: int = 256,
    seed: int = 0,
    dtype=np.float64,
) -> NetworkParams:
    """Uniform fan-in initialization; forget-gate bias starts at 1."""
    rng = np.random.default_rng(seed)

    def uniform(rows: int, cols: int, fan_in: int) -> np.ndarray:
        r = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-r, r, size=(rows, cols)).astype(dtype)

    W_lstm = uniform(1 + input_size + hidden, 4 * hidden, input_size + hidden)
    W_lstm[0, :] = 0.0
    W_lstm[0, 2 * hidden : 3 * hidden] = 1.0  # keep early cell memory open
    return NetworkParams(
        W_lstm=W_lstm,
        W1=uniform(hidden, dense1, hidden),
        b1=np.zeros(dense1, dtype=dtype),
        W2=uniform(dense1, dense2, dense1),
        b2=np.zeros(dense2, dtype=dtype),
        W3=uniform(dense2, 2, dense2),
        b3=np.zeros(2, dtype=dtype),
    )


def _run_lstm(params: NetworkParams, X: np.ndarray, keep_cache: bool):
    # The input projection of every timestep is one matrix product; the
    # sequential loop only carries the hidden recurrence. Gate activations
    # are written back into the projection buffer, which doubles as the
    # backprop cache.
    dtype = params.W_lstm.dtype
    B, T, F = X.shape
    H = params.hidden
    W = params.W_lstm
    bias, W_x, W_h = W[0], W[1 : 1 + F], W[1 + F :]

    X_tbf = np.ascontiguousarray(np.asarray(X, dtype=dtype).transpose(1, 0, 2))
    GIFO = (X_tbf.reshape(T * B, F) @ W_x + bias).reshape(T, B, 4 * H)
    h = np.zeros((B, H), dtype=dtype)
    c = np.zeros((B, H), dtype=dtype)
    ct = np.empty((B, H), dtype=dtype)
    C = np.empty((T, B, H), dtype=dtype) if keep_cache else None
    Ct = np.empty((T, B, H), dtype=dtype) if keep_cache else None
    Hout = np.empty((T, B, H), dtype=dtype) if keep_cache else None

    with np.errstate(over="ignore"):  # sigmoid saturates cleanly at 0
        for t in range(T):
            A = GIFO[t]
            A += h @ W_h
            np.tanh(A[:, :H], out=A[:, :H])
            s = A[:, H:]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            g, i, f, o = A[:, :H], A[:, H : 2 * H], A[:, 2 * H : 3 * H], A[:, 3 * H :]
            c *= f
            c += i * g
            np.tanh(c, out=ct)
            h = o * ct
            if keep_cache:
                C[t] = c
                Ct[t] = ct
                Hout[t] = h
    cache = {"X_tbf": X_tbf, "GIFO": GIFO, "C": C, "Ct": Ct, "Hout": Hout} if keep_cache else None
    return h, cache


def _head_forward(params: NetworkParams, h: np.ndarray):
    z1 = h @ params.W1 + params.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.W2 + params.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ params.W3 + params.b3
    return _sigmoid(z3), (h, a1, a2)


def forward_batch(params: NetworkParams, X: np.ndarray):
    """Full forward with caches for backprop. X is (batch, steps, input_size)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[2] != params.input_size:
        raise ValueError(f"expected (batch, steps, {params.input_size}) input, got {X.shape}")
    h, lstm_cache = _run_lstm(params, X, keep_cache=True)
    y_hat, head_cache = _head_forward(params, h)
    return y_hat, {"X": X, "lstm": lstm_cache, "head": head_cache}


def predict_batch(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Forward without caches (evaluation / runtime path)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[2] != params.input_size:
        raise ValueError(f"expected (batch, steps, {params.input_size}) input, got {X.shape}")
    h, _ = _run_lstm(params, X, keep_cache=False)
    y_hat, _ = _head_forward(params, h)
    return y_hat


def bce_loss(y: np.ndarray, y_hat: np.ndarray, sample_weights: np.ndarray | None = None) -> float:
    """Binary cross-entropy averaged over output components and samples.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs. When
    sample_weights is given the per-sample losses are scaled before the
    batch mean.
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.clip(np.asarray(y_hat, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    per_component = -(y * np.log(y_hat) + (1.0 - y) * np.log(1.0 - y_hat))
    per_sample = per_component.mean(axis=-1)
    if per_sample.ndim == 0:
        return float(per_sample)
    if sample_weights is not None:
        per_sample = per_sample * np.asarray(sample_weights, dtype=float)
    return float(per_sample.mean())


def bce_output_grad(
    y: np.ndarray, y_hat: np.ndarray, sample_weights: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of bce_loss w.r.t. the pre-sigmoid output (B, 2)."""
    y = np.asarray(y, dtype=float)
    B = y.shape[0]
    grad = (np.asarray(y_hat, dtype=float) - y) / (2.0 * B)
    if sample_weights is not None:
        grad = grad * np.asarray(sample_weights, dtype=float)[:, None]
    return grad


def backward_batch(params: NetworkParams, cache: dict, dz3: np.ndarray) -> dict[str, np.ndarray]:
    """Backprop from the pre-sigmoid output gradient to all parameter grads."""
    dtype = params.W_lstm.dtype
    dz3 = np.asarray(dz3, dtype=dtype)
    h_last, a1, a2 = cache["head"]
    grads: dict[str, np.ndarray] = {}
    grads["W3"] = a2.T @ dz3
    grads["b3"] = dz3.sum(axis=0)
    dz2 = (dz3 @ params.W3.T) * (a2 > 0.0)
    grads["W2"] = a1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params.W2.T) * (a1 > 0.0)
    grads["W1"] = h_last.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    dh = dz1 @ params.W1.T

    lstm = cache["lstm"]
    X_tbf, GIFO, C, Ct, Hout = (
        lstm["X_tbf"], lstm["GIFO"], lstm["C"], lstm["Ct"], lstm["Hout"],
    )
    T, B, F = X_tbf.shape
    H = params.hidden
    W_h = params.W_lstm[1 + F :]
    W_h_T = np.ascontiguousarray(W_h.T)
    dW = np.zeros_like(params.W_lstm)
    d_bias, dW_x, dW_h = dW[0], dW[1 : 1 + F], dW[1 + F :]
    dc = np.zeros((B, H), dtype=dtype)
    dA = np.empty((B, 4 * H), dtype=dtype)
    # The cell gradient decays multiplicatively over hundreds of steps; in
    # float32 it lands in the subnormal range, where x86 arithmetic is an
    # order of magnitude slower. Flushing negligible values keeps full speed.
    flush = dtype == np.float32
    for t in range(T - 1, -1, -1):
        if flush and t % 32 == 31:
            dc *= np.abs(dc) > 1e-30
            dh *= np.abs(dh) > 1e-30
        A = GIFO[t]
        g, i, f, o = A[:, :H], A[:, H : 2 * H], A[:, 2 * H : 3 * H], A[:, 3 * H :]
        ct = Ct[t]
        do = ct * dh
        dc += (1.0 - ct * ct) * o * dh
        dA[:, :H] = (1.0 - g * g) * (i * dc)
        dA[:, H : 2 * H] = i * (1.0 - i) * (g * dc)
        if t > 0:
            dA[:, 2 * H : 3 * H] = f * (1.0 - f) * (C[t - 1] * dc)
        else:
            dA[:, 2 * H : 3 * H] = 0.0
        dA[:, 3 * H :] = o * (1.0 - o) * do
        d_bias += dA.sum(axis=0)
        dW_x += X_tbf[t].T @ dA
        if t > 0:
            dW_h += Hout[t - 1].T @ dA
        dc *= f
        dh = dA @ W_h_T
    grads["W_lstm"] = dW
    return grads


def save_weights(params: NetworkParams, path: str | Path, meta: dict | None = None) -> None:
    """Serialize parameters to .npz with a JSON metadata entry."""
    meta_all = {
        "input_size": params.input_size,
        "hidden": params.hidden,
        "dense1": int(params.b1.shape[0]),
        "dense2": int(params.b2.shape[0]),
    }
    if meta:
        meta_all.update(meta)
    np.savez(path, meta=json.dumps(meta_all, sort_keys=True), **params.arrays())


def load_weights(path: str | Path) -> tuple[NetworkParams, dict]:
    """Load parameters saved by save_weights; validates shape consistency."""
    with np.load(path, allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta"]))
            arrays = {name: data[name] for name in
                      ("W_lstm", "W1", "b1", "W2", "b2", "W3", "b3")}
        except KeyError as exc:
            raise ValueError(f"weights file {path} is missing entry {exc}") from exc
    try:
        params = NetworkParams(**arrays)
    except ValueError as exc:
        raise ValueError(f"corrupt weights file {path}: {exc}") from exc
    for key in ("input_size", "hidden"):
        if key in meta and int(meta[key]) != getattr(params, key):
            raise ValueError(
                f"corrupt weights file {path}: header {key}={meta[key]} "
                f"but arrays imply {getattr(params, key)}"
            )
    return params, meta
