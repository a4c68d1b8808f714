"""Serial-manipulator kinematics: FK, Jacobian, Jacobian derivative, link points.

All quantities are expressed in the robot base frame. Joints are revolute and
follow the standard Denavit-Hartenberg convention; each joint transform is

    A_i(q_i) = RotZ(q_i + theta_off_i) @ TransZ(d_i) @ TransX(a_i) @ RotX(alpha_i)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ManipulatorModel",
    "Pose",
    "SingularConfigurationError",
    "forward_kinematics",
    "jacobian",
    "jacobian_dot",
    "link_positions",
    "damped_pinv",
    "Frames",
    "chain_frames",
    "pose_from_frames",
    "jacobian_from_frames",
    "jacobian_dot_from_frames",
]

ROTATION_TOL = 1e-9


class SingularConfigurationError(RuntimeError):
    """Raised when an exact Jacobian inverse is requested at a singularity."""


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (..., 3) arrays (np.cross without its overhead).

    Each component is the same two products and one difference np.cross
    forms, so the result equals np.cross bit for bit.
    """
    return a.take(_NEXT, axis=-1) * b.take(_PREV, axis=-1) - a.take(_PREV, axis=-1) * b.take(_NEXT, axis=-1)


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _check_rotation(rotation: np.ndarray, tol: float = ROTATION_TOL) -> None:
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
    if not np.allclose(rotation @ rotation.T, np.eye(3), atol=tol):
        raise ValueError("rotation is not orthonormal")
    if abs(np.linalg.det(rotation) - 1.0) > tol:
        raise ValueError("rotation determinant is not +1")


@dataclass(frozen=True)
class Pose:
    """Cartesian pose: position in metres plus a unit rotation matrix."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3))
        _check_rotation(self.rotation)


@dataclass(frozen=True)
class ManipulatorModel:
    """Kinematic description and motion limits of an n-DoF serial arm.

    dh_rows holds one (link_length a, link_twist alpha, link_offset d,
    joint_angle_offset theta) tuple per joint. tool_transform is a 4x4 rigid
    transform from the last joint frame to the tool/sensor point.
    """

    joint_count: int
    dh_rows: np.ndarray
    q_dot_min: np.ndarray
    q_dot_max: np.ndarray
    q_ddot_min: np.ndarray
    q_ddot_max: np.ndarray
    link_masses: np.ndarray
    payload_mass: float = 0.0
    tool_transform: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self) -> None:
        n = int(self.joint_count)
        if n < 1:
            raise ValueError("joint_count must be >= 1")
        object.__setattr__(self, "joint_count", n)
        object.__setattr__(self, "dh_rows", np.asarray(self.dh_rows, dtype=float).reshape(n, 4))
        for name in ("q_dot_min", "q_dot_max", "q_ddot_min", "q_ddot_max", "link_masses"):
            vec = np.asarray(getattr(self, name), dtype=float).ravel()
            if vec.shape != (n,):
                raise ValueError(f"{name} must have length {n}, got {vec.shape}")
            object.__setattr__(self, name, vec)
        if not (np.all(self.q_dot_min < 0.0) and np.all(self.q_dot_max > 0.0)):
            raise ValueError("velocity bounds must satisfy q_dot_min < 0 < q_dot_max")
        if not (np.all(self.q_ddot_min < 0.0) and np.all(self.q_ddot_max > 0.0)):
            raise ValueError("acceleration bounds must satisfy q_ddot_min < 0 < q_ddot_max")
        if np.any(self.link_masses < 0.0):
            raise ValueError("link masses must be non-negative")
        if self.payload_mass < 0.0:
            raise ValueError("payload mass must be non-negative")
        tool = np.asarray(self.tool_transform, dtype=float).reshape(4, 4)
        _check_rotation(tool[:3, :3])
        object.__setattr__(self, "tool_transform", tool)
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
    joint-frame origin last (no tool offset); axes is (..., n, 3) where
    axes[j] is the rotation axis of joint j+1 (frame-j z axis); rotation is
    the last joint frame's rotation matrix (..., 3, 3); tool is the tool
    point (..., 3), tool offset included.
    """

    origins: np.ndarray
    axes: np.ndarray
    rotation: np.ndarray
    tool: np.ndarray

    def entry(self, index: int | tuple[int, ...]) -> "Frames":
        """The frames of one configuration of a batch."""
        return Frames(self.origins[index], self.axes[index], self.rotation[index], self.tool[index])


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
    origins = T[..., :3, 3].copy()
    rotation = T[..., n, :3, :3]
    return Frames(
        origins=origins,
        axes=T[..., :-1, :3, 2].copy(),
        rotation=rotation,
        tool=origins[..., -1, :] + rotation @ model.tool_transform[:3, 3],
    )


def pose_from_frames(model: ManipulatorModel, frames: Frames) -> Pose:
    # Rotation is a product of exact DH rotations: skip re-validation.
    pose = object.__new__(Pose)
    object.__setattr__(pose, "position", frames.tool)
    object.__setattr__(pose, "rotation", frames.rotation @ model.tool_transform[:3, :3])
    return pose


def forward_kinematics(model: ManipulatorModel, q: np.ndarray) -> Pose:
    """End-effector pose (tool transform included) for joint vector q."""
    return pose_from_frames(model, chain_frames(model, model.check_q(q)))


def link_positions(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Base-frame origin of every link frame plus the end point, (n+1, 3).

    The first row is always the fixed base origin; the last row is the final
    joint-frame origin (tool offset excluded), each rigidly attached to its
    link.
    """
    return chain_frames(model, model.check_q(q)).origins


def jacobian_from_frames(model: ManipulatorModel, frames: Frames) -> np.ndarray:
    """Geometric Jacobian from chain geometry; (..., 6, n) for batched frames."""
    origins, axes, _, p_tool = frames
    J = np.empty(axes.shape[:-2] + (6, model.joint_count))
    J[..., :3, :] = cross_rows(axes, p_tool[..., None, :] - origins[..., :-1, :]).swapaxes(-1, -2)
    J[..., 3:, :] = axes.swapaxes(-1, -2)
    return J


def jacobian(model: ManipulatorModel, q: np.ndarray) -> np.ndarray:
    """Geometric Jacobian (6 x n) at the tool point, base frame.

    Rows 0-2 map joint rates to linear velocity (m/s), rows 3-5 to angular
    velocity (rad/s).
    """
    return jacobian_from_frames(model, chain_frames(model, model.check_q(q)))


def jacobian_dot_from_frames(model: ManipulatorModel, frames: Frames, q_dot: np.ndarray) -> np.ndarray:
    q_dot = np.asarray(q_dot, dtype=float).ravel()
    if q_dot.shape != (model.joint_count,):
        raise ValueError(f"expected {model.joint_count} joint rates, got {q_dot.shape}")
    origins, axes, _, p_tool = frames
    n = model.joint_count

    # Propagate frame angular velocities and origin velocities down the chain:
    # both are cumulative sums of per-joint contributions. The cross products
    # come in two stacked calls, one per level of dependency.
    omega = np.zeros((n + 1, 3))
    np.add.accumulate(q_dot[:, None] * axes, axis=0, out=omega[1:])
    spun = cross_rows(
        np.concatenate((omega[1:], omega[n:], omega[:-1])),
        np.concatenate((origins[1:] - origins[:-1], (p_tool - origins[n])[None], axes)),
    )
    origin_vel = np.zeros((n + 1, 3))
    np.add.accumulate(spun[:n], axis=0, out=origin_vel[1:])
    tool_vel = origin_vel[n] + spun[n]
    axes_dot = spun[n + 1 :]

    moved = cross_rows(
        np.concatenate((axes_dot, axes)),
        np.concatenate((p_tool - origins[:-1], tool_vel - origin_vel[:-1])),
    )
    Jd = np.empty((6, n))
    Jd[:3] = (moved[:n] + moved[n:]).T
    Jd[3:] = axes_dot.T
    return Jd


def jacobian_dot(model: ManipulatorModel, q: np.ndarray, q_dot: np.ndarray) -> np.ndarray:
    """Time derivative of the geometric Jacobian along q_dot (6 x n)."""
    return jacobian_dot_from_frames(model, chain_frames(model, model.check_q(q)), q_dot)


def damped_pinv(J: np.ndarray, lam: float = 1e-3) -> np.ndarray:
    """Damped least-squares inverse J^T (J J^T + lam^2 I)^-1 of a 6 x n Jacobian.

    lam = 0 demands a well-conditioned square Jacobian and returns the exact
    inverse; a singular configuration then raises SingularConfigurationError.
    """
    if lam < 0.0:
        raise ValueError("damping must be non-negative")
    J = np.asarray(J, dtype=float)
    A = J @ J.T
    m = A.shape[0]
    A.ravel()[:: m + 1] += lam * lam   # A is a fresh contiguous array: ravel is a view
    if lam == 0.0:
        cond = np.linalg.cond(A)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularConfigurationError(
                f"Jacobian is singular (cond(JJ^T) = {cond:.3e}); use lam > 0"
            )
    return np.linalg.solve(A, J).T
