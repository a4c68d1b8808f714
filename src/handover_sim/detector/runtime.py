"""Online release decisions from streaming force readings.

ReleaseMonitor scores the newest window of readings every period-th reading
and opens the gripper once the open-class score clears the threshold for a
required number of consecutive scores. The windows it will score overlap:
with window W and period P, ceil(W/P) of them are in flight at any reading.
Each keeps its own LSTM state, one row of a state block in the weights' own
dtype. Every push projects its reading once and steps the started windows
through it together, with one call of the network module's LSTM cell; no
W-row buffer of readings or projections is kept, and no push steps more
than one reading.

ThresholdReleaseMonitor is the classical baseline: calibrate the object
weight from the initial hold phase, then open once the measured load stays
below a fixed fraction of it for a sustained stretch.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import WINDOW
from .network import NetworkParams, _head_forward, _lstm_cell

__all__ = ["ReleaseMonitor", "ThresholdReleaseMonitor", "HOLD", "RELEASE"]

HOLD = "hold"
RELEASE = "release"
PERIOD = 10    # readings between scores


class ReleaseMonitor:
    """Classifier over the newest window, scored every period-th reading;
    decision debounced over consecutive hits. Each score is bit-identical to
    predict_batch(net, np.stack([window, zeros]))[0, 1]."""

    threshold_prob = 0.5
    consecutive_required = 5

    def __init__(self, net: NetworkParams, window: int = WINDOW, period: int = PERIOD):
        if window < 1:
            raise ValueError("window must be >= 1")
        if period < 1:
            raise ValueError("period must be >= 1")
        # the head's sigmoid comes from scipy, imported on first use: import it
        # now, so that no control cycle pays for loading it
        import scipy.special  # noqa: F401

        self.net = net
        self.window = window
        self.period = period
        self._features = F = net.input_size
        H, dtype = net.hidden, net.W_lstm.dtype
        self._bias = net.W_lstm[0]
        self._W_x = net.W_lstm[1 : 1 + F]
        self._W_h = net.W_lstm[1 + F :]
        # numpy runs a one-row product as gemv, which rounds differently from
        # the gemm of a batch, so every product here has at least two rows: a
        # reading is projected as [reading; 0], the block steps at least two
        # rows and the head scores [h; 0].
        self._x2 = np.zeros((2, F), dtype)
        self._a2 = np.empty((2, 4 * H), dtype)
        self._pair = np.zeros((2, H), dtype)
        # One state row per window in flight. Windows start every period-th
        # reading from the first whose window ends on a scoring push; the
        # n-th of them lives in row n % slots, so the windows started so far
        # fill a prefix of the block.
        self._slots = slots = -(-window // period)
        self._Z = np.empty((max(slots, 2), 4 * H), dtype)
        self._G = np.empty(4 * max(slots, 2) * H, dtype)   # (4, n, H) gate blocks
        self._h, self._c, self._ig = (np.zeros((max(slots, 2), H), dtype) for _ in range(3))
        self._first = (1 - window) % period   # reading that starts window 0
        self._count = 0      # readings pushed
        self._streak = 0
        self._released = False
        self.output = math.nan

    def infer(self) -> float:
        """Step every started window through the newest reading.

        Returns the open-class score of the window that ends at that reading
        when it is a scoring one (push k+1 with k % period == 0, window
        full), else nan.
        """
        period, first, slots = self.period, self._first, self._slots
        j = self._count - 1
        started = (j - first) // period + 1   # windows begun by reading j
        if started > 0:
            if (j - first) % period == 0:
                slot = (started - 1) % slots
                self._h[slot] = 0.0
                self._c[slot] = 0.0
            n = max(2, min(slots, started))
            Z, c, h, ig = self._Z[:n], self._c[:n], self._h[:n], self._ig[:n]
            np.matmul(h, self._W_h, out=Z)
            Z += self._a2[0]
            _lstm_cell(Z, self._G[: 4 * ig.size].reshape(4, n, -1), c, c, h, h, ig)
        if j % period or self._count < self.window:
            return math.nan
        self._pair[0] = self._h[(j + 1 - self.window - first) // period % slots]
        return float(_head_forward(self.net, self._pair)[0][0, 1])

    def step(self, reading: np.ndarray) -> str:
        """Push one reading; score every period-th push and debounce.

        Push k+1 scores when k % period == 0; output holds the score once the
        window is full, or nan in a cycle without one. A push that does not
        score leaves the streak as it was.
        """
        self.output = math.nan
        if self._released:
            return RELEASE
        self._x2[0] = np.asarray(reading, dtype=float).reshape(self._features)
        np.matmul(self._x2, self._W_x, out=self._a2)
        self._a2[0] += self._bias
        self._count += 1
        self.output = self.infer()
        if (self._count - 1) % self.period:
            return HOLD
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
    CALIBRATION_TIME seconds of readings; release triggers once |Fz| <=
    (1 - THETA) * f_L0 has held for HOLD_TIME seconds. Each duration becomes
    a sample count at the reading rate once, rounded up (250 and 25 at 500 Hz).
    """

    THETA = 0.8
    HOLD_TIME = 0.05          # s
    CALIBRATION_TIME = 0.5    # s

    def __init__(self, rate: float):
        if not rate > 0.0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        self.hold_samples = math.ceil(self.HOLD_TIME * rate)
        self.calibration_samples = math.ceil(self.CALIBRATION_TIME * rate)
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
        if load <= (1.0 - self.THETA) * self.f_L0:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.hold_samples:
            self._released = True
            return RELEASE
        return HOLD
