"""Serial-manipulator kinematics: FK, Jacobian, Jacobian derivative, link points.

All quantities are expressed in the robot base frame. Joints are revolute and
follow the standard Denavit-Hartenberg convention; each joint transform is

    A_i(q_i) = RotZ(q_i + theta_off_i) @ TransZ(d_i) @ TransX(a_i) @ RotX(alpha_i)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ManipulatorModel",
    "Pose",
    "damped_pinv",
    "Frames",
    "chain_frames",
    "pose_from_frames",
    "jacobian_from_frames",
    "jacobian_dot_from_frames",
]


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (..., 3) arrays (np.cross without its overhead).

    Each component is the same two products and one difference np.cross
    forms, so the result equals np.cross bit for bit.
    """
    return a.take(_NEXT, axis=-1) * b.take(_PREV, axis=-1) - a.take(_PREV, axis=-1) * b.take(_NEXT, axis=-1)


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


class Pose(NamedTuple):
    """Cartesian pose: position (3,) in metres plus a rotation matrix (3, 3); unchecked,
    as pose_from_frames builds it from exact DH rotations."""

    position: np.ndarray
    rotation: np.ndarray


@dataclass(frozen=True)
class ManipulatorModel:
    """Kinematic description and motion limits of an n-DoF serial arm.

    dh_rows holds one (link_length a, link_twist alpha, link_offset d,
    joint_angle_offset theta) tuple per joint; the last joint frame's origin
    (the flange) is the tool/sensor point. The joint rate and acceleration
    limits are symmetric: |q_dot| <= q_dot_max and |q_ddot| <= q_ddot_max.
    """

    dh_rows: np.ndarray
    q_dot_max: np.ndarray
    q_ddot_max: np.ndarray
    link_masses: np.ndarray
    payload_mass: float = 0.0

    def __post_init__(self) -> None:
        dh_rows = np.asarray(self.dh_rows, dtype=float)
        if dh_rows.ndim != 2 or dh_rows.shape[0] < 1 or dh_rows.shape[1] != 4:
            raise ValueError(f"dh_rows must be shaped (n >= 1, 4), got {dh_rows.shape}")
        object.__setattr__(self, "dh_rows", dh_rows)
        n = self.joint_count
        for name in ("q_dot_max", "q_ddot_max", "link_masses"):
            vec = np.asarray(getattr(self, name), dtype=float).ravel()
            if vec.shape != (n,):
                raise ValueError(f"{name} must have length {n}, got {vec.shape}")
            object.__setattr__(self, name, vec)
        if not np.all(self.q_dot_max > 0.0):
            raise ValueError("velocity bounds must satisfy q_dot_max > 0")
        if not np.all(self.q_ddot_max > 0.0):
            raise ValueError("acceleration bounds must satisfy q_ddot_max > 0")
        if np.any(self.link_masses < 0.0):
            raise ValueError("link masses must be non-negative")
        if self.payload_mass < 0.0:
            raise ValueError("payload mass must be non-negative")
        # Constant per-joint terms, precomputed for the control-rate FK path:
        # the top two rows of A_i are (cos, sin) of the joint angle times
        # these coefficients, the bottom two rows do not depend on q.
        a, d = self.dh_rows[:, 0], self.dh_rows[:, 2]
        ca, sa = np.cos(self.dh_rows[:, 1]), np.sin(self.dh_rows[:, 1])
        one, zero = np.ones(n), np.zeros(n)
        object.__setattr__(self, "_dh_top", np.stack([
            np.stack([one, -ca, sa, a], axis=1),
            np.stack([one, ca, -sa, a], axis=1),
        ], axis=1))
        object.__setattr__(self, "_dh_bottom", np.stack([
            np.stack([zero, sa, ca, d], axis=1),
            np.stack([zero, zero, zero, one], axis=1),
        ], axis=1))

    @property
    def joint_count(self) -> int:
        return len(self.dh_rows)

    def check_q(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float).ravel()
        if q.shape != (self.joint_count,):
            raise ValueError(f"expected {self.joint_count} joint values, got {q.shape}")
        return q


# Which of (cos, sin) of the joint angle multiplies each top-row entry of A_i.
_DH_TRIG = np.array([[0, 1, 1, 0], [1, 0, 0, 1]])
_EYE4 = np.eye(4)


class Frames(NamedTuple):
    """Cumulative chain geometry of one configuration, or of a batch of them.

    origins is (..., n+1, 3) with the base origin first and the last
    joint-frame origin, the tool point, last; axes is (..., n, 3) where
    axes[j] is the rotation axis of joint j+1 (frame-j z axis); rotation is
    the last joint frame's rotation matrix (..., 3, 3).
    """

    origins: np.ndarray
    axes: np.ndarray
    rotation: np.ndarray

    def entry(self, index: int | tuple[int, ...]) -> "Frames":
        """The frames of one configuration of a batch."""
        return Frames(self.origins[index], self.axes[index], self.rotation[index])


def chain_frames(model: ManipulatorModel, q: np.ndarray) -> Frames:
    """Cumulative chain geometry for q (see Frames).

    q may carry leading batch axes, (..., n); every output then gains the
    same leading axes, and each batch entry equals the call on that entry
    alone, bit for bit.
    """
    q = np.asarray(q, dtype=float)
    n = model.joint_count
    if q.ndim == 0 or q.shape[-1] != n:
        raise ValueError(f"expected {n} joint values, got {q.shape}")
    batch = q.shape[:-1]
    theta = q + model.dh_rows[:, 3]
    trig = np.empty(batch + (n, 2))
    trig[..., 0] = np.cos(theta)
    trig[..., 1] = np.sin(theta)
    # All per-joint transforms at once, then one sequential matrix chain
    # through a stack of cumulative transforms T_0 = I, T_j = T_{j-1} A_j.
    A = np.empty(batch + (n, 4, 4))
    np.multiply(trig.take(_DH_TRIG, axis=-1), model._dh_top, out=A[..., :2, :])
    A[..., 2:, :] = model._dh_bottom
    T = np.empty(batch + (n + 1, 4, 4))
    T[..., 0, :, :] = _EYE4
    for j in range(n):
        np.matmul(T[..., j, :, :], A[..., j, :, :], out=T[..., j + 1, :, :])
    return Frames(
        origins=T[..., :3, 3].copy(),
        axes=T[..., :-1, :3, 2].copy(),
        rotation=T[..., n, :3, :3],
    )


def pose_from_frames(model: ManipulatorModel, frames: Frames) -> Pose:
    return Pose(frames.origins[..., -1, :], frames.rotation)


def jacobian_from_frames(model: ManipulatorModel, frames: Frames) -> np.ndarray:
    """Geometric Jacobian (6 x n) at the tool point, base frame; (..., 6, n) for batched frames.

    Rows 0-2 map joint rates to linear velocity (m/s), rows 3-5 to angular
    velocity (rad/s).
    """
    origins, axes, _ = frames
    p_tool = origins[..., -1, :]
    J = np.empty(axes.shape[:-2] + (6, model.joint_count))
    J[..., :3, :] = cross_rows(axes, p_tool[..., None, :] - origins[..., :-1, :]).swapaxes(-1, -2)
    J[..., 3:, :] = axes.swapaxes(-1, -2)
    return J


def jacobian_dot_from_frames(model: ManipulatorModel, frames: Frames, q_dot: np.ndarray) -> np.ndarray:
    """Time derivative of the geometric Jacobian along q_dot (6 x n), for one configuration."""
    q_dot = np.asarray(q_dot, dtype=float).ravel()
    if q_dot.shape != (model.joint_count,):
        raise ValueError(f"expected {model.joint_count} joint rates, got {q_dot.shape}")
    origins, axes, _ = frames
    n = model.joint_count

    # Propagate frame angular velocities and origin velocities down the chain:
    # both are cumulative sums of per-joint contributions. The cross products
    # come in two stacked calls, one per level of dependency.
    omega = np.zeros((n + 1, 3))
    np.add.accumulate(q_dot[:, None] * axes, axis=0, out=omega[1:])
    spun = cross_rows(
        np.concatenate((omega[1:], omega[:-1])),
        np.concatenate((origins[1:] - origins[:-1], axes)),
    )
    origin_vel = np.zeros((n + 1, 3))
    np.add.accumulate(spun[:n], axis=0, out=origin_vel[1:])
    axes_dot = spun[n:]

    moved = cross_rows(
        np.concatenate((axes_dot, axes)),
        np.concatenate((origins[n] - origins[:-1], origin_vel[n] - origin_vel[:-1])),
    )
    Jd = np.empty((6, n))
    Jd[:3] = (moved[:n] + moved[n:]).T
    Jd[3:] = axes_dot.T
    return Jd


def damped_pinv(J: np.ndarray, lam: float) -> np.ndarray:
    """Damped least-squares inverse J^T (J J^T + lam^2 I)^-1 of a 6 x n Jacobian.

    lam = 0 gives the exact inverse of a full-rank square Jacobian.
    """
    if lam < 0.0:
        raise ValueError("damping must be non-negative")
    J = np.asarray(J, dtype=float)
    A = J @ J.T
    m = A.shape[0]
    A.ravel()[:: m + 1] += lam * lam   # A is a fresh contiguous array: ravel is a view
    return np.linalg.solve(A, J).T
