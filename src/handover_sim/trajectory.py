"""Joint-space planning and the path-velocity decomposition.

A quintic point-to-point plan is resampled onto cubic splines over position,
velocity, and acceleration. A scalar path parameter s (time-valued abscissa)
then indexes the splines, so the timing law can be scaled online without
changing the geometric path.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "QuinticTrajectory",
    "SplineTrajectory",
    "PathParameter",
    "plan_quintic",
    "fit_cubic_spline",
    "sample_spline",
    "advance_parameter",
]


@dataclass(frozen=True)
class QuinticTrajectory:
    """Sampled per-joint quintic with zero boundary velocity and acceleration."""

    times: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray
    q_ddot: np.ndarray


@dataclass(frozen=True, eq=False)
class SplineTrajectory:
    """Natural cubic splines interpolating (q, q_dot, q_ddot) knot samples.

    The three blocks are splined independently over the same knots. knots are
    plain floats; coeffs holds one contiguous (4, 3n) block per interval, the
    cubic's coefficients from the highest power down, for the columns
    [q | q_dot | q_ddot]. Evaluation is clamped to [start_time, end_time].
    """

    knots: list
    coeffs: np.ndarray

    @property
    def joint_count(self) -> int:
        return self.coeffs.shape[2] // 3

    @property
    def start_time(self) -> float:
        return self.knots[0]

    @property
    def end_time(self) -> float:
        return self.knots[-1]


@dataclass(frozen=True)
class PathParameter:
    """Curvilinear abscissa s (time-valued) and its current rate."""

    s: float
    s_dot: float
    t_final: float


def plan_quintic(
    start_q: np.ndarray,
    end_q: np.ndarray,
    duration: float,
    sample_rate: float,
) -> QuinticTrajectory:
    """Plan a per-joint quintic from start_q to end_q.

    Uses the normalized profile sigma(tau) = 6 tau^5 - 15 tau^4 + 10 tau^3, so
    velocity and acceleration vanish at both endpoints.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if sample_rate <= 0.0:
        raise ValueError("sample_rate must be positive")
    start_q = np.asarray(start_q, dtype=float).ravel()
    end_q = np.asarray(end_q, dtype=float).ravel()
    if start_q.shape != end_q.shape:
        raise ValueError("start_q and end_q must have equal length")

    count = max(2, int(round(duration * sample_rate)))
    times = np.linspace(0.0, duration, count)
    tau = times / duration
    sigma = 6.0 * tau**5 - 15.0 * tau**4 + 10.0 * tau**3
    sigma_d = (30.0 * tau**4 - 60.0 * tau**3 + 30.0 * tau**2) / duration
    sigma_dd = (120.0 * tau**3 - 180.0 * tau**2 + 60.0 * tau) / duration**2

    delta = end_q - start_q
    return QuinticTrajectory(
        times=times,
        q=start_q + np.outer(sigma, delta),
        q_dot=np.outer(sigma_d, delta),
        q_ddot=np.outer(sigma_dd, delta),
    )


def fit_cubic_spline(traj: QuinticTrajectory) -> SplineTrajectory:
    """Interpolate the plan's (q, q_dot, q_ddot) samples with natural cubics."""
    if len(traj.times) < 4:
        raise ValueError(f"need at least 4 samples to fit a spline, got {len(traj.times)}")
    stacked = np.hstack([traj.q, traj.q_dot, traj.q_ddot])
    spline = CubicSpline(traj.times, stacked, axis=0, bc_type="natural")
    return SplineTrajectory(knots=spline.x.tolist(), coeffs=np.ascontiguousarray(spline.c.transpose(1, 0, 2)))


def sample_spline(spline: SplineTrajectory, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate (q_des, q_dot_des, q_ddot_des) at abscissa s, clamped to the knots."""
    knots = spline.knots
    s = min(max(float(s), knots[0]), knots[-1])
    # Direct piecewise-polynomial evaluation (identical to the scipy call,
    # without its per-call overhead at the control rate).
    idx = max(min(bisect.bisect_right(knots, s) - 1, len(knots) - 2), 0)
    dx = s - knots[idx]
    c = spline.coeffs[idx]
    values = ((c[0] * dx + c[1]) * dx + c[2]) * dx + c[3]
    n = spline.joint_count
    return values[:n], values[n : 2 * n], values[2 * n :]


def advance_parameter(p: PathParameter, alpha: float, T_r: float) -> PathParameter:
    """Advance s by one control cycle under the linear time law s' = s + alpha T_r.

    alpha is a ScalingResult's, which checked it lies in [0, 1].
    """
    return PathParameter(s=min(p.t_final, p.s + alpha * T_r), s_dot=alpha, t_final=p.t_final)
