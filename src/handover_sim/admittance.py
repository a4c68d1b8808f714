"""Cartesian admittance control.

The reference trajectory is rendered compliant by virtual mass-damper-spring
dynamics driven by the measured external wrench:

    x_ddot_adm = M^-1 (D (x_dot_des - x_dot) + K err(x_des, x) - F_ext) + x_ddot_des

with diagonal M, D and K, so the products are taken per axis; this is
followed by one explicit Euler step to a velocity command and a mapping to
joint space through the (damped) Jacobian inverse. Positive external wrench
pushes the robot away from its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import check_fields
from .kinematics import Pose

__all__ = [
    "AdmittanceParams",
    "pose_error",
    "admittance_accel",
    "integrate_velocity",
    "transform_wrench",
    "rotation_log",
]


@dataclass(frozen=True)
class AdmittanceParams:
    """Diagonal virtual mass, stiffness and critical damping, plus a force scaling.

    The translational axes share mass and k_trans, the rotational axes share
    inertia and k_rot. Construction derives the per-axis vectors m_inv = 1/m,
    k and d = 2 sqrt(k m) that admittance_accel reads.
    """

    mass: float = 8.0
    inertia: float = 0.5
    k_trans: float = 400.0
    k_rot: float = 20.0
    force_weight: float = 1.0
    m_inv: np.ndarray = field(init=False, repr=False, compare=False)
    d: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_fields(self, positive="mass inertia", non_negative="k_trans k_rot force_weight")
        m = np.array([self.mass] * 3 + [self.inertia] * 3, dtype=float)
        k = np.array([self.k_trans] * 3 + [self.k_rot] * 3, dtype=float)
        object.__setattr__(self, "m_inv", 1.0 / m)
        object.__setattr__(self, "d", 2.0 * np.sqrt(k * m))
        object.__setattr__(self, "k", k)


def rotation_log(rotation: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (robust near 0 and pi)."""
    R = np.asarray(rotation, dtype=float)
    vee = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    cos_a = min(1.0, max(-1.0, (np.trace(R) - 1.0) / 2.0))
    angle = np.arccos(cos_a)
    if angle < 1e-10:
        return vee
    if angle > np.pi - 1e-6:
        # R ~ 2 a a^T - I: recover the axis from the dominant column.
        B = (R + np.eye(3)) / 2.0
        i = int(np.argmax(np.diag(B)))
        axis = B[:, i] / np.sqrt(max(B[i, i], 1e-12))
        axis /= np.linalg.norm(axis)
        return angle * axis
    return angle / np.sin(angle) * vee


def pose_error(x_des: Pose, x: Pose) -> np.ndarray:
    """Six-vector error: translation difference and axis-angle of R_des R^T."""
    err = np.empty(6)
    err[:3] = x_des.position - x.position
    err[3:] = rotation_log(x_des.rotation @ x.rotation.T)
    return err


def admittance_accel(
    params: AdmittanceParams,
    x_des: Pose,
    x_dot_des: np.ndarray,
    x_ddot_des: np.ndarray,
    x: Pose,
    x_dot: np.ndarray,
    F_ext: np.ndarray,
) -> np.ndarray:
    """Compliant Cartesian acceleration given the current tracking state.

    F_ext is the (force, torque) 6-vector, already expressed in the base
    frame (see transform_wrench).
    """
    spring = params.k * pose_error(x_des, x)
    damper = params.d * (np.asarray(x_dot_des, dtype=float) - np.asarray(x_dot, dtype=float))
    return params.m_inv * (damper + spring - np.asarray(F_ext, dtype=float)) + np.asarray(x_ddot_des, dtype=float)


def integrate_velocity(x_ddot_adm: np.ndarray, x_dot_current: np.ndarray, T_r: float) -> np.ndarray:
    """One explicit Euler step: x_dot_adm = x_dot_current + x_ddot_adm * T_r."""
    return np.asarray(x_dot_current, dtype=float) + np.asarray(x_ddot_adm, dtype=float) * T_r


def transform_wrench(tool_rotation: np.ndarray, wrench: np.ndarray, force_weight: float = 1.0) -> np.ndarray:
    """Rotate a sensor-frame (force, torque) 6-vector into the base frame and scale it."""
    R = np.asarray(tool_rotation, dtype=float)
    w = np.asarray(wrench, dtype=float)
    return force_weight * np.concatenate((R @ w[:3], R @ w[3:]))
