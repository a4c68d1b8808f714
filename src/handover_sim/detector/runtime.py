"""Online release decisions from streaming force readings.

ReleaseMonitor scores the newest window of readings every period-th reading
and opens the gripper once the open-class score clears the threshold for a
required number of consecutive inferences. The windows it will score overlap:
with window W and period P, ceil(W/P) of them are in flight at any reading.
Each keeps its own LSTM state, one row of a state block in the weights' own
dtype. A reading is projected once, queued, and stepped once per started
window that holds it, all those windows advancing together through the
network module's one LSTM cell; no W-row buffer of readings or projections is
kept. The block advances at every scoring push and whenever MAX_PENDING_ROWS
readings have queued, so a period's cell steps are spread over its pushes and
no control cycle pays for all of them.

ThresholdReleaseMonitor is the classical baseline: calibrate the object
weight from the initial hold phase, then open once the measured load stays
below a fixed fraction of it for a sustained stretch.
"""

from __future__ import annotations

import math

import numpy as np

from .network import NetworkParams, _head_forward, _lstm_cell

__all__ = ["ReleaseMonitor", "ThresholdReleaseMonitor", "HOLD", "RELEASE"]

HOLD = "hold"
RELEASE = "release"

# At most 4 cell steps per push keep a W=500, P=10 push under the 2 ms period.
MAX_PENDING_ROWS = 4


class ReleaseMonitor:
    """Classifier over the newest window, scored every period-th reading;
    decision debounced over consecutive hits. Each score is bit-identical to
    predict_batch(net, np.stack([window, zeros]))[0, 1]."""

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
        # Bias + input projections of the readings pushed since the last
        # advance, and one state row per window in flight. Windows start every
        # period-th reading from the first whose window ends on a scoring push;
        # the n-th of them lives in row n % slots, so the windows started so
        # far fill a prefix of the block.
        self._slots = slots = -(-window // period)
        self._pending = np.empty((min(period, MAX_PENDING_ROWS), 4 * H), dtype)
        self._A = np.empty((max(slots, 2), 4 * H), dtype)
        self._h, self._c, self._ig = (np.zeros((max(slots, 2), H), dtype) for _ in range(3))
        self._first = (1 - window) % period   # reading that starts window 0
        self._count = 0      # readings pushed
        self._advanced = 0   # readings stepped through the state block
        self._streak = 0
        self._released = False
        self.output = math.nan

    def infer(self) -> float:
        """Step every started window through the pending readings.

        Returns the open-class score of the window that ends at the newest
        reading when that reading is a scoring one (push k+1 with
        k % period == 0, window full), else nan. step calls it at every
        scoring push and whenever MAX_PENDING_ROWS readings are pending, so
        no push runs more than that many cell steps.
        """
        period, first, slots = self.period, self._first, self._slots
        for j in range(self._advanced, self._count):
            started = (j - first) // period + 1   # windows begun by reading j
            if started <= 0:
                continue
            if (j - first) % period == 0:
                slot = (started - 1) % slots
                self._h[slot] = 0.0
                self._c[slot] = 0.0
            n = max(2, min(slots, started))
            A, c, h = self._A[:n], self._c[:n], self._h[:n]
            np.matmul(h, self._W_h, out=A)
            A += self._pending[j - self._advanced]
            _lstm_cell(A, c, c, h, h, self._ig[:n])
        self._advanced = self._count
        end = self._count - 1
        if end % period or self._count < self.window:
            return math.nan
        self._pair[0] = self._h[(end + 1 - self.window - first) // period % slots]
        return float(_head_forward(self.net, self._pair)[0][0, 1])

    def step(self, reading: np.ndarray) -> str:
        """Push one reading; score every period-th push and debounce.

        Push k+1 scores when k % period == 0; output holds the score once the
        window is full, or nan in a cycle without one. A push that only
        advances the pending readings leaves output nan and the streak as it
        was.
        """
        self.output = math.nan
        if self._released:
            return RELEASE
        self._x2[0] = np.asarray(reading, dtype=float).reshape(self._features)
        np.matmul(self._x2, self._W_x, out=self._a2)
        np.add(self._a2[0], self._bias, out=self._pending[self._count - self._advanced])
        self._count += 1
        scoring = (self._count - 1) % self.period == 0
        if scoring or self._count - self._advanced == len(self._pending):
            self.output = self.infer()
        if not scoring:
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
    calibration_time seconds of readings; release triggers once |Fz| <=
    (1 - theta) * f_L0 has held for hold_time seconds. Each duration becomes
    a sample count at the reading rate once, rounded up (250 and 25 at 500 Hz).
    """

    def __init__(
        self,
        rate: float,
        theta: float = 0.8,
        hold_time: float = 0.05,
        calibration_time: float = 0.5,
    ):
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        for name, value in (("rate", rate), ("hold_time", hold_time), ("calibration_time", calibration_time)):
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        self.theta = theta
        self.hold_samples = math.ceil(hold_time * rate)
        self.calibration_samples = math.ceil(calibration_time * rate)
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
