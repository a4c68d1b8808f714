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
import math
from dataclasses import dataclass, fields
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
HIDDEN = 64                     # default LSTM width


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
        for name in _ARRAY_NAMES:
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
        return {name: getattr(self, name) for name in _ARRAY_NAMES}

    def astype(self, dtype) -> "NetworkParams":
        return NetworkParams(**{k: v.astype(dtype) for k, v in self.arrays().items()})


# The field order is the order of the arrays in a weights file.
_ARRAY_NAMES = tuple(f.name for f in fields(NetworkParams))


def init_network(
    input_size: int = 6,
    hidden: int = HIDDEN,
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


def _buffer(store: dict, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous array of shape over store[name]'s memory, replaced when too small.

    A prefix view has the layout of a fresh array of that shape, so the
    arithmetic on it rounds the same.
    """
    size = math.prod(shape)
    flat = store.get(name)
    if flat is None or flat.dtype != dtype or flat.size < size:
        flat = store[name] = np.empty(size, dtype=dtype)
    return flat[:size].reshape(shape)


def _lstm_cell(A, c_prev, c, tanh_c, h, ig):
    """One LSTM step in place on its gate block A = bias + x W_x + h_prev W_h.

    Activates A (tanh candidate, four-op sigmoid gates) and writes
    c = c_prev*f + i*g, tanh_c = tanh(c) and h = o*tanh_c, with ig as scratch;
    c may be c_prev and tanh_c may be h.
    """
    H = ig.shape[-1]
    np.tanh(A[:, :H], out=A[:, :H])
    s = A[:, H:]
    np.negative(s, out=s)
    with np.errstate(over="ignore"):  # sigmoid saturates cleanly at 0
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    g, i, f, o = A[:, :H], A[:, H : 2 * H], A[:, 2 * H : 3 * H], A[:, 3 * H :]
    np.multiply(c_prev, f, out=c)
    c += np.multiply(i, g, out=ig)
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _run_lstm(params: NetworkParams, X: np.ndarray, store: dict | None = None):
    # Each timestep's input projection goes straight into its gate row, and
    # _lstm_cell activates it in place and writes c, tanh(c) and h straight
    # into their step rows. Given a store, every step's row is kept (the
    # backprop cache) in buffers drawn from it; without one, one gate row and
    # two alternating state rows suffice.
    keep = store is not None
    buffers = store if keep else {}
    dtype = params.W_lstm.dtype
    B, T, F = X.shape
    H = params.hidden
    W = params.W_lstm
    bias, W_x, W_h = W[0], W[1 : 1 + F], W[1 + F :]

    X_tbf = _buffer(buffers, "X_tbf", (T, B, F), dtype)
    np.copyto(X_tbf, X.transpose(1, 0, 2), casting="unsafe")
    GIFO = _buffer(buffers, "GIFO", (T if keep else 1, B, 4 * H), dtype)
    rows = T if keep else 2
    C, Ct, Hout = (_buffer(buffers, name, (rows, B, H), dtype) for name in ("C", "Ct", "Hout"))
    hW = _buffer(buffers, "hW", (B, 4 * H), dtype)
    ig = _buffer(buffers, "ig", (B, H), dtype)
    h = c = _buffer(buffers, "zeros", (B, H), dtype)
    h.fill(0.0)
    # numpy runs a one-row product as gemv, which rounds differently from the
    # gemm that projects a whole batch; a lone window's row is padded to two.
    pad = B == 1 and T > 1
    if pad:
        x2 = _buffer(buffers, "x2", (2, F), dtype)
        x2[1] = 0.0
        a2 = _buffer(buffers, "a2", (2, 4 * H), dtype)

    for t in range(T):
        A = GIFO[t if keep else 0]
        if pad:
            x2[0] = X_tbf[t, 0]
            np.matmul(x2, W_x, out=a2)
            np.add(a2[:1], bias, out=A)
        else:
            np.matmul(X_tbf[t], W_x, out=A)
            A += bias
        A += np.matmul(h, W_h, out=hW)
        k = t % rows
        _lstm_cell(A, c, C[k], Ct[k], Hout[k], ig)
        c, h = C[k], Hout[k]
    cache = {"X_tbf": X_tbf, "GIFO": GIFO, "C": C, "Ct": Ct, "Hout": Hout} if keep else None
    return h, cache


def _head_forward(params: NetworkParams, h: np.ndarray):
    z1 = h @ params.W1 + params.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.W2 + params.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ params.W3 + params.b3
    return _sigmoid(z3), (h, a1, a2)


def _check_input(params: NetworkParams, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[2] != params.input_size:
        raise ValueError(f"expected (batch, steps, {params.input_size}) input, got {X.shape}")
    return X


def forward_batch(params: NetworkParams, X: np.ndarray, cache: dict | None = None):
    """Full forward with caches for backprop. X is (batch, steps, input_size).

    Passing the cache of an earlier call reuses its buffers, of any batch
    size, instead of allocating new ones; that earlier cache is overwritten.
    """
    buffers = {} if cache is None else cache["buffers"]
    h, lstm_cache = _run_lstm(params, _check_input(params, X), buffers)
    y_hat, head_cache = _head_forward(params, h)
    return y_hat, {"lstm": lstm_cache, "head": head_cache, "buffers": buffers}


def predict_batch(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Forward without caches (evaluation / runtime path)."""
    h, _ = _run_lstm(params, _check_input(params, X))
    return _head_forward(params, h)[0]


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
            arrays = {name: data[name] for name in _ARRAY_NAMES}
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
