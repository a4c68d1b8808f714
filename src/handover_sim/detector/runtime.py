"""Online release decisions from streaming force readings.

ReleaseMonitor scores the newest window of readings every period-th reading
and opens the gripper once the open-class score clears the threshold for a
required number of consecutive inferences. The windows it will score overlap:
with window W and period P, ceil(W/P) of them are in flight at any reading.
Each keeps its own LSTM state, one row of a state block, and all of them
advance together over the readings pushed since the previous inference push.
So a reading is projected once and stepped once per window that holds it, and
no W-row buffer of readings or projections is kept.

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
    """Classifier over the newest window, scored every period-th reading;
    decision debounced over consecutive hits."""

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
        # state, so no step upcasts float32 weights; every buffer is
        # preallocated.
        H = self._hidden
        W = net.W_lstm.astype(np.float64, copy=False)
        self._bias = W[0]
        self._W_x = W[1 : 1 + self._features]
        self._W_h = W[1 + self._features :]
        self._head = tuple(
            a.astype(np.float64, copy=False)
            for a in (net.W1, net.b1, net.W2, net.b2, net.W3, net.b3)
        )
        # Bias + input projections of the readings pushed since the last
        # inference push, and one state row per window in flight: the window
        # ending at reading m*period lives in row m % slots.
        slots = -(-window // period)
        self._pending = np.empty((period, 4 * H))
        self._A = np.empty((slots, 4 * H))
        self._h = np.zeros((slots, H))
        self._gc = np.zeros((slots, 2 * H))
        self._count = 0      # readings pushed
        self._advanced = 0   # readings stepped through the state block
        self._streak = 0
        self._released = False
        self.output = math.nan

    def infer(self) -> float:
        """Step every window in flight through the pending readings.

        Returns the open-class score of the window that ends at the newest
        reading, or nan while fewer than window readings have arrived. step
        calls it at every inference push, from the first one on.
        """
        H, period, window = self._hidden, self.period, self.window
        slots = self._h.shape[0]
        # Each step is the textbook cell (A = row + h W_h, g = tanh,
        # i/f/o = sigmoid, c = i*g + f*c, h = o*tanh(c)) computed in place on
        # the whole block with the same float operations in the same order, so
        # every row's score is bit-identical to the allocating per-row form.
        # The stacked matmul runs one gemv per row, as h.dot(W_h) does; a
        # plain (slots, H) @ W_h gemm would round differently. g sits just
        # before c in one buffer, so a single multiply by the adjacent [i | f]
        # gates forms both i*g and f*c.
        A, gc, h, W_h = self._A, self._gc, self._h, self._W_h
        g, c = gc[:, :H], gc[:, H:]
        a_g, a_ifo, a_if, a_o = A[:, :H], A[:, H:], A[:, H : 3 * H], A[:, 3 * H :]
        h_rows, A_rows = h[:, None, :], A[:, None, :]
        first = self._advanced
        for j in range(first, self._count):
            end = j + window - 1   # last reading of a window starting at j
            if end % period == 0:
                slot = end // period % slots
                h[slot] = 0.0
                c[slot] = 0.0
            np.matmul(h_rows, W_h, out=A_rows)
            np.add(self._pending[j - first], A, out=A)
            np.tanh(a_g, out=g)
            _sigmoid(a_ifo, out=a_ifo)
            np.multiply(a_if, gc, out=gc)
            np.add(g, c, out=c)
            np.tanh(c, out=h)
            np.multiply(a_o, h, out=h)
        self._advanced = self._count
        if self._count < window:
            return math.nan
        h_last = h[(self._count - 1) // period % slots]
        W1, b1, W2, b2, W3, b3 = self._head
        a1 = np.maximum(h_last @ W1 + b1, 0.0)
        a2 = np.maximum(a1 @ W2 + b2, 0.0)
        return float(_sigmoid(a2 @ W3 + b3)[1])

    def step(self, reading: np.ndarray) -> str:
        """Push one reading; infer every period-th push and debounce.

        Push k+1 infers when k % period == 0; output holds the score once the
        window is full, or nan in a cycle without one.
        """
        self.output = math.nan
        if self._released:
            return RELEASE
        reading = np.asarray(reading, dtype=float).reshape(self._features)
        self._pending[self._count - self._advanced] = self._bias + reading @ self._W_x
        self._count += 1
        if (self._count - 1) % self.period:
            return HOLD
        self.output = self.infer()
        # a nan score (window not yet full) compares false, so no streak yet
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
