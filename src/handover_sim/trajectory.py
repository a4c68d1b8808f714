"""Joint-space planning and the path-velocity decomposition.

Every plan is one closed-form per-joint quintic in a path parameter s (time-valued abscissa) on
[0, T], from rest or the arm's rate to rest. Differentiated once, it is one (q, q_dot, q_ddot)
coefficient block that a product with the powers of s evaluates exactly, so the timing law can
scale s without changing the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import ManipulatorModel

__all__ = [
    "Segment",
    "PathParameter",
    "POLY_ROWS",
    "plan_quintic",
    "limit_respecting_duration",
    "braking_duration",
    "fit_cubic_spline",
    "sample_spline",
    "advance_parameter",
]

POLY_ROWS = 6                   # coefficients of a degree-5 polynomial, s**0 first
_QUINTIC_PEAK_VEL = 1.875       # max of the normalized rest-to-rest quintic rate
_QUINTIC_PEAK_ACC = 5.7735      # max of the normalized rest-to-rest quintic acceleration


@dataclass(frozen=True, eq=False)
class Segment:
    """A per-joint polynomial in s on [0, duration], ready to evaluate.

    coeffs is one (POLY_ROWS, 3n) block for the columns [q | q_dot | q_ddot];
    row k multiplies s**k.
    """

    coeffs: np.ndarray
    duration: float


@dataclass(frozen=True)
class PathParameter:
    """Curvilinear abscissa s (time-valued) and its current rate."""

    s: float
    s_dot: float
    t_final: float


def plan_quintic(start_q: np.ndarray, end_q: np.ndarray, duration: float,
                 start_rate: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Per-joint quintic from start_q to end_q: its (POLY_ROWS, n) position polynomial and duration.

    q(s) = start_q + delta * sigma(s / T) with the normalized profile
    sigma(tau) = 10 tau^3 - 15 tau^4 + 6 tau^5, so velocity and acceleration
    vanish at both endpoints. A start_rate v adds v (s - 6 s^3/T^2 + 8 s^4/T^3 - 3 s^5/T^4): it starts
    at rate v, rests at T and brakes over the whole plan, outside limit_respecting_duration's margins;
    its acceleration peaks at 3.94 |v|/T near T/4, and it carries the joint 16/81 |v| T along v to T/3.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    start_q = np.asarray(start_q, dtype=float).ravel()
    end_q = np.asarray(end_q, dtype=float).ravel()
    if start_q.shape != end_q.shape:
        raise ValueError("start_q and end_q must have equal length")
    delta = end_q - start_q
    poly = np.zeros((POLY_ROWS, len(start_q)))
    poly[0] = start_q
    poly[3] = 10.0 * delta / duration**3
    poly[4] = -15.0 * delta / duration**4
    poly[5] = 6.0 * delta / duration**5
    if start_rate is not None:
        v = np.asarray(start_rate, dtype=float).ravel()
        if v.shape != start_q.shape:
            raise ValueError("start_rate and start_q must have equal length")
        poly[1] = v
        poly[3] += -6.0 * v / duration**2
        poly[4] += 8.0 * v / duration**3
        poly[5] += -3.0 * v / duration**4
    return poly, float(duration)


def limit_respecting_duration(model: ManipulatorModel, delta_q: np.ndarray, requested: float) -> float:
    """Stretch a rest-to-rest quintic's duration until it fits the joint-rate limits.

    A profile that grazes the velocity or acceleration box forces infeasible
    braking once the tracking controller adds its correction, so it is kept
    10% inside the velocity box and a factor 2 inside the acceleration box.
    """
    delta = np.abs(np.asarray(delta_q, dtype=float))
    t_vel = _QUINTIC_PEAK_VEL * float(np.max(delta / model.q_dot_max))
    t_acc = math.sqrt(2.0 * _QUINTIC_PEAK_ACC * float(np.max(delta / model.q_ddot_max)))
    return max(requested, 1.1 * t_vel, t_acc)


def braking_duration(model: ManipulatorModel, q_dot: np.ndarray, rate: float) -> float:
    """Time to brake from q_dot at a constant half of the acceleration box, at least four cycles at rate."""
    return max(float(np.max(np.abs(q_dot) / (0.5 * model.q_ddot_max))), 4.0 / rate)


def fit_cubic_spline(poly: np.ndarray, duration: float) -> Segment:
    """Differentiate a position polynomial once into the segment the harness follows.

    The name is kept because the benchmark traces the harness's calls of it
    as the per-segment conversion; nothing is fitted.
    """
    poly = np.asarray(poly, dtype=float)
    if poly.ndim != 2 or poly.shape[0] != POLY_ROWS:
        raise ValueError(f"expected a ({POLY_ROWS}, n) coefficient block, got shape {poly.shape}")
    powers = np.arange(1.0, POLY_ROWS)[:, None]
    rate = np.zeros_like(poly)
    rate[:-1] = powers * poly[1:]
    accel = np.zeros_like(poly)
    accel[:-1] = powers * rate[1:]
    return Segment(coeffs=np.hstack([poly, rate, accel]), duration=float(duration))


def sample_spline(segment: Segment, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (q_des, q_dot_des, q_ddot_des) at abscissa s, clamped to [0, duration]."""
    s = min(max(float(s), 0.0), segment.duration)
    s2 = s * s
    s3 = s2 * s
    values = np.dot((1.0, s, s2, s3, s2 * s2, s3 * s2), segment.coeffs)
    n = len(values) // 3
    return values[:n], values[n : 2 * n], values[2 * n :]


def advance_parameter(p: PathParameter, alpha: float, T_r: float) -> PathParameter:
    """Advance s by one control cycle under the linear time law s' = s + alpha T_r.

    alpha is optimal_alpha's, in [0, 1]: it raises rather than return one
    from NaN constraints.
    """
    return PathParameter(s=min(p.t_final, p.s + alpha * T_r), s_dot=alpha, t_final=p.t_final)
