"""Online release decisions from streaming force readings.

ReleaseMonitor keeps the newest window of readings in a ring buffer and runs
the classifier over it; the gripper opens once the open-class score clears
the threshold for a required number of consecutive inferences. The ring also
caches the per-row input projections of the LSTM so each inference only pays
for the recurrence.

ThresholdReleaseMonitor is the classical baseline: calibrate the object
weight from the initial hold phase, then open once the measured load stays
below a fixed fraction of it for a sustained stretch.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit as _sigmoid

from .network import NetworkParams

__all__ = ["ReleaseMonitor", "ThresholdReleaseMonitor", "HOLD", "RELEASE"]

HOLD = "hold"
RELEASE = "release"


class ReleaseMonitor:
    """FIFO buffer plus classifier run every period-th reading; decision
    debounced over consecutive hits."""

    def __init__(
        self,
        net: NetworkParams,
        window: int = 500,
        threshold_prob: float = 0.5,
        consecutive_required: int = 5,
        period: int = 1,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        if period < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 < threshold_prob < 1.0:
            raise ValueError("threshold_prob must lie in (0, 1)")
        if consecutive_required < 1:
            raise ValueError("consecutive_required must be >= 1")
        self.net = net
        self.window = window
        self.threshold_prob = threshold_prob
        self.consecutive_required = consecutive_required
        self.period = period
        self._hidden = net.hidden
        self._features = net.input_size
        # Split the fused LSTM matrix once and cast every weight to the float64
        # state, so no step upcasts float32 weights; the ring caches bias + input
        # projections, and the recurrence writes into preallocated buffers.
        H = self._hidden
        W = net.W_lstm.astype(np.float64, copy=False)
        self._bias = W[0]
        self._W_x = W[1 : 1 + self._features]
        self._W_h = W[1 + self._features :]
        self._head = tuple(
            a.astype(np.float64, copy=False)
            for a in (net.W1, net.b1, net.W2, net.b2, net.W3, net.b3)
        )
        self._proj = np.zeros((window, 4 * H))
        self._A = np.empty(4 * H)
        self._h = np.empty(H)
        self._gc = np.empty(2 * H)
        self._count = 0
        self._pos = 0
        self._streak = 0
        self._released = False
        self.output = math.nan

    def __len__(self) -> int:
        return min(self._count, self.window)

    def push(self, reading: np.ndarray) -> None:
        """Append one reading, evicting the oldest beyond the window."""
        reading = np.asarray(reading, dtype=float).reshape(self._features)
        self._proj[self._pos] = self._bias + reading @ self._W_x
        self._pos = (self._pos + 1) % self.window
        self._count += 1

    def infer(self) -> float:
        """Open-class score for the current buffer (requires a full window)."""
        H = self._hidden
        # Each step is the textbook cell (A = row + h W_h, g = tanh,
        # i/f/o = sigmoid, c = i*g + f*c, h = o*tanh(c)) computed in place with
        # the same float operations in the same order, so the score is
        # bit-identical to the allocating form. g sits just before c in one
        # buffer, so a single multiply by the adjacent [i | f] gates forms
        # both i*g and f*c.
        A, gc, h, W_h = self._A, self._gc, self._h, self._W_h
        g, c = gc[:H], gc[H:]
        a_g, a_ifo, a_if, a_o = A[:H], A[H:], A[H : 3 * H], A[3 * H :]
        h.fill(0.0)
        c.fill(0.0)
        # Oldest row first: a full ring starts at the write position.
        start = self._pos if self._count >= self.window else 0
        for rows in (self._proj[start:], self._proj[:start]):
            for row in rows:
                h.dot(W_h, out=A)
                np.add(row, A, out=A)
                np.tanh(a_g, out=g)
                _sigmoid(a_ifo, out=a_ifo)
                np.multiply(a_if, gc, out=gc)
                np.add(g, c, out=c)
                np.tanh(c, out=h)
                np.multiply(a_o, h, out=h)
        W1, b1, W2, b2, W3, b3 = self._head
        a1 = np.maximum(h @ W1 + b1, 0.0)
        a2 = np.maximum(a1 @ W2 + b2, 0.0)
        return float(_sigmoid(a2 @ W3 + b3)[1])

    def step(self, reading: np.ndarray) -> str:
        """Append one reading; infer every period-th push and debounce.

        Push k+1 infers when k % period == 0, once the window is full; output
        holds that score, or nan in a cycle without inference.
        """
        self.push(reading)
        self.output = math.nan
        if self._released:
            return RELEASE
        if (self._count - 1) % self.period or self._count < self.window:
            return HOLD
        self.output = self.infer()
        if self.output >= self.threshold_prob:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.consecutive_required:
            self._released = True
            return RELEASE
        return HOLD


class ThresholdReleaseMonitor:
    """Force-threshold baseline: open at a sustained drop of the load reading.

    The object weight is calibrated as the mean |Fz| over the first
    calibration_samples readings of the hold phase; release triggers after
    hold_samples consecutive readings with |Fz| <= (1 - theta) * f_L0.
    """

    def __init__(
        self,
        theta: float = 0.8,
        hold_samples: int = 25,
        calibration_samples: int = 250,
    ):
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if hold_samples < 1:
            raise ValueError("hold_samples must be >= 1")
        if calibration_samples < 1:
            raise ValueError(
                f"calibration window too short: need >= 1 sample, got {calibration_samples}"
            )
        self.theta = theta
        self.hold_samples = hold_samples
        self.calibration_samples = calibration_samples
        self._calib_sum = 0.0
        self._seen = 0
        self.f_L0: float | None = None
        self._streak = 0
        self._released = False
        self.output = math.nan

    def step(self, reading: np.ndarray) -> str:
        """Append one reading and decide (the harness-facing form of push)."""
        return self.push(reading)

    def push(self, reading: np.ndarray) -> str:
        """Append one reading; output is the load relative to f_L0 once calibrated."""
        reading = np.asarray(reading, dtype=float).reshape(-1)
        load = abs(float(reading[2]))
        self._seen += 1
        calibrating = self.f_L0 is None
        if calibrating:
            self._calib_sum += load
            if self._seen >= self.calibration_samples:
                self.f_L0 = self._calib_sum / self.calibration_samples
        self.output = load / self.f_L0 if self.f_L0 else math.nan
        if calibrating:
            return HOLD
        if self._released:
            return RELEASE
        if load <= (1.0 - self.theta) * self.f_L0:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.hold_samples:
            self._released = True
            return RELEASE
        return HOLD
