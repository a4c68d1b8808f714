"""Cartesian admittance control.

The reference trajectory is rendered compliant by virtual mass-damper-spring
dynamics driven by the measured external wrench:

    x_ddot_adm = M^-1 (D (x_dot_des - x_dot) + K err(x_des, x) - F_ext) + x_ddot_des

followed by one explicit Euler step to a velocity command and a mapping to
joint space through the (damped) Jacobian inverse. Positive external wrench
pushes the robot away from its reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import Pose

__all__ = [
    "AdmittanceParams",
    "pose_error",
    "admittance_accel",
    "integrate_velocity",
    "transform_wrench",
    "rotation_log",
]

_SYM_TOL = 1e-9


def _check_symmetric_psd(name: str, mat: np.ndarray, strict: bool) -> np.ndarray:
    mat = np.asarray(mat, dtype=float).reshape(6, 6)
    if not np.allclose(mat, mat.T, atol=_SYM_TOL):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if strict and np.min(eigs) <= 0.0:
        raise ValueError(f"{name} must be positive definite (min eig {np.min(eigs):.3e})")
    if not strict and np.min(eigs) < -_SYM_TOL:
        raise ValueError(f"{name} must be positive semi-definite (min eig {np.min(eigs):.3e})")
    return mat


@dataclass(frozen=True)
class AdmittanceParams:
    """Virtual mass, damping, and stiffness (6x6 blocks) plus a force scaling."""

    M: np.ndarray
    D: np.ndarray
    K: np.ndarray
    force_weight: float = 1.0
    M_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _check_symmetric_psd("M", self.M, strict=True))
        object.__setattr__(self, "D", _check_symmetric_psd("D", self.D, strict=False))
        object.__setattr__(self, "K", _check_symmetric_psd("K", self.K, strict=False))
        if self.force_weight < 0.0:
            raise ValueError("force_weight must be non-negative")
        object.__setattr__(self, "M_inv", np.linalg.inv(self.M))

    @staticmethod
    def diagonal(
        *,
        mass: float = 8.0,
        inertia: float = 0.5,
        k_trans: float = 400.0,
        k_rot: float = 20.0,
        force_weight: float = 1.0,
    ) -> "AdmittanceParams":
        """Critically damped diagonal parameters, D = 2 sqrt(K M) per axis."""
        if mass <= 0.0 or inertia <= 0.0:
            raise ValueError("mass and inertia must be strictly positive")
        if k_trans < 0.0 or k_rot < 0.0:
            raise ValueError("k_trans and k_rot must be non-negative")
        m = np.array([mass] * 3 + [inertia] * 3)
        k = np.array([k_trans] * 3 + [k_rot] * 3)
        return AdmittanceParams(
            M=np.diag(m),
            D=np.diag(2.0 * np.sqrt(k * m)),
            K=np.diag(k),
            force_weight=force_weight,
        )


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
    spring = params.K @ pose_error(x_des, x)
    damper = params.D @ (np.asarray(x_dot_des, dtype=float) - np.asarray(x_dot, dtype=float))
    return params.M_inv @ (damper + spring - np.asarray(F_ext, dtype=float)) + np.asarray(x_ddot_des, dtype=float)


def integrate_velocity(x_ddot_adm: np.ndarray, x_dot_current: np.ndarray, T_r: float) -> np.ndarray:
    """One explicit Euler step: x_dot_adm = x_dot_current + x_ddot_adm * T_r."""
    if T_r <= 0.0:
        raise ValueError("T_r must be positive")
    return np.asarray(x_dot_current, dtype=float) + np.asarray(x_ddot_adm, dtype=float) * T_r


def transform_wrench(tool_rotation: np.ndarray, wrench: np.ndarray, force_weight: float = 1.0) -> np.ndarray:
    """Rotate a sensor-frame (force, torque) 6-vector into the base frame and scale it."""
    R = np.asarray(tool_rotation, dtype=float)
    w = np.asarray(wrench, dtype=float)
    return force_weight * np.concatenate((R @ w[:3], R @ w[3:]))
