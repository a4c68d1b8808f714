import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from handover_sim.admittance import (
    AdmittanceParams,
    admittance_accel,
    integrate_velocity,
    pose_error,
    transform_wrench,
)
from handover_sim.kinematics import Pose, chain_frames, damped_pinv, jacobian_from_frames, pose_from_frames
from handover_sim.trajectory import fit_cubic_spline, plan_quintic, sample_spline

from test_trajectory import to_cartesian


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# pose error

def test_pose_error_identical():
    p = Pose(np.array([0.1, 0.2, 0.3]), rot_z(0.4))
    assert np.allclose(pose_error(p, p), 0.0, atol=1e-12)


def test_pose_error_pure_translation():
    a = Pose(np.array([0.1, 0.0, 0.0]), np.eye(3))
    b = Pose(np.array([0.0, 0.0, 0.0]), np.eye(3))
    assert np.allclose(pose_error(a, b), [0.1, 0, 0, 0, 0, 0], atol=1e-15)


def test_pose_error_rotation_about_z():
    a = Pose(np.array([0.0, 0.0, 0.0]), rot_z(np.pi / 2))
    b = Pose(np.array([0.0, 0.0, 0.0]), np.eye(3))
    err = pose_error(a, b)
    assert np.allclose(err[3:], [0.0, 0.0, np.pi / 2], atol=1e-12)


def test_pose_error_near_pi():
    a = Pose(np.array([0.0, 0.0, 0.0]), rot_z(np.pi - 1e-9))
    err = pose_error(a, Pose(np.zeros(3), np.eye(3)))
    assert abs(np.linalg.norm(err[3:]) - (np.pi - 1e-9)) < 1e-6


# ---------------------------------------------------------------------------
# admittance acceleration

def test_perfect_tracking_passes_reference_through():
    params = AdmittanceParams()
    x = Pose(np.array([0.3, -0.1, 0.5]), rot_z(0.3))
    xd = np.array([0.1, 0.0, -0.2, 0.0, 0.05, 0.0])
    xdd_des = np.array([1.0, -2.0, 0.5, 0.1, 0.0, -0.3])
    out = admittance_accel(params, x, xd, xdd_des, x, xd, np.zeros(6))
    assert np.allclose(out, xdd_des, atol=1e-12)


def test_scalar_case():
    # m=1, d=2 sqrt(k m)=20, k=100, position error 0.01 m, no velocity error, no force
    params = AdmittanceParams(mass=1.0, inertia=1.0, k_trans=100.0, k_rot=100.0)
    assert np.array_equal(params.d, np.full(6, 20.0))
    x_des = Pose(np.array([0.01, 0.0, 0.0]), np.eye(3))
    x = Pose(np.array([0.0, 0.0, 0.0]), np.eye(3))
    out = admittance_accel(params, x_des, np.zeros(6), np.zeros(6), x, np.zeros(6), np.zeros(6))
    assert abs(out[0] - 1.0) < 1e-12
    assert np.allclose(out[1:], 0.0, atol=1e-12)


def test_static_equilibrium_offset():
    # at rest with constant force, the displacement solving accel = 0 is K^-1 F
    params = AdmittanceParams(k_trans=400.0)
    force = np.array([8.0, -4.0, 2.0])
    offset = force / 400.0
    x_des = Pose(np.array([0.0, 0.0, 0.0]), np.eye(3))
    x = Pose(-offset, np.eye(3))  # displaced away from the reference by K^-1 F
    out = admittance_accel(
        params, x_des, np.zeros(6), np.zeros(6), x, np.zeros(6),
        np.concatenate((force, np.zeros(3))),
    )
    assert np.allclose(out, 0.0, atol=1e-12)


def test_linearity_in_force():
    params = AdmittanceParams()
    x_des = Pose(np.array([0.1, 0.0, 0.2]), rot_z(0.2))
    x = Pose(np.array([0.05, 0.01, 0.18]), rot_z(0.15))
    xd_des = np.array([0.1, 0, 0, 0, 0, 0.02])
    xd = np.array([0.05, 0.01, 0, 0, 0, 0.0])
    xdd = np.array([0.5, 0, -0.1, 0, 0, 0])

    def accel(F):
        return admittance_accel(params, x_des, xd_des, xdd, x, xd, F)

    rng = np.random.default_rng(0)
    F1 = rng.normal(size=6)
    F2 = rng.normal(size=6)
    F12 = F1 + F2
    base = accel(np.zeros(6))
    lhs = accel(F12) - base
    rhs = (accel(F1) - base) + (accel(F2) - base)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_params_validation():
    with pytest.raises(ValueError, match="mass"):
        AdmittanceParams(mass=0.0)  # singular mass
    with pytest.raises(ValueError, match="force_weight"):
        AdmittanceParams(force_weight=-1.0)
    with pytest.raises(ValueError, match="k_rot"):
        AdmittanceParams(k_rot=np.nan)


def _matrix_accel(params, x_des, x_dot_des, x_ddot_des, x, x_dot, F_ext):
    """The 6x6 matrix form the per-axis law replaced: M^-1 (D dv + K err - F) + xdd."""
    m = np.array([params.mass] * 3 + [params.inertia] * 3)
    k = np.array([params.k_trans] * 3 + [params.k_rot] * 3)
    M_inv = np.linalg.inv(np.diag(m))
    D = np.diag(2.0 * np.sqrt(k * m))
    K = np.diag(k)
    return M_inv @ (D @ (x_dot_des - x_dot) + K @ pose_error(x_des, x) - F_ext) + x_ddot_des


_positive = st.floats(1e-3, 1e3)
_stiffness = st.one_of(st.just(0.0), st.floats(1e-3, 1e4))
_vec = st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6).map(np.array)


@settings(max_examples=300, deadline=None)
@given(_positive, _positive, _stiffness, _stiffness, _vec, _vec, _vec, _vec, _vec, _vec)
def test_per_axis_law_equals_matrix_form(mass, inertia, k_trans, k_rot, des, cur, xd_des, xd, xdd, F):
    # the per-axis products reproduce the matrix form exactly (an exact zero
    # may differ in sign, which == treats as equal)
    params = AdmittanceParams(mass=mass, inertia=inertia, k_trans=k_trans, k_rot=k_rot)
    x_des = Pose(des[:3], Rotation.from_rotvec(des[3:] * 1e-3).as_matrix())
    x = Pose(cur[:3], Rotation.from_rotvec(cur[3:] * 1e-3).as_matrix())
    args = (x_des, xd_des, xdd, x, xd, F)
    assert np.array_equal(admittance_accel(params, *args), _matrix_accel(params, *args))
    assert np.array_equal(params.m_inv, np.diag(np.linalg.inv(np.diag([mass] * 3 + [inertia] * 3))))


@pytest.mark.parametrize("key, value", [
    ("mass", -1.0), ("mass", 0.0), ("inertia", -0.5), ("k_trans", -1.0), ("k_rot", -20.0),
])
def test_diagonal_rejects_bad_values_before_sqrt(key, value):
    # the check runs before d = 2 sqrt(k m), so numpy warns of no invalid sqrt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=key):
            AdmittanceParams(**{key: value})


# ---------------------------------------------------------------------------
# Euler integration

def test_integrate_zero_accel():
    xd = np.array([0.1, -0.2, 0.0, 0.0, 0.0, 0.3])
    assert np.allclose(integrate_velocity(np.zeros(6), xd, 0.002), xd)


def test_integrate_single_step():
    out = integrate_velocity(np.ones(6), np.zeros(6), 0.002)
    assert np.allclose(out, 0.002)


def test_integrate_constant_accel_ramp():
    xd = np.zeros(6)
    accel = np.full(6, 2.5)
    for _ in range(1000):
        xd = integrate_velocity(accel, xd, 0.002)
    assert np.allclose(xd, 2.5 * 2.0, atol=1e-12)  # exact for a constant field


# ---------------------------------------------------------------------------
# Cartesian-to-joint mapping (the damped inverse the harness applies)

def test_cartesian_to_joint_zero(default_model):
    q = np.random.default_rng(1).uniform(-1, 1, 6)
    J = jacobian_from_frames(default_model, chain_frames(default_model, q))
    assert np.allclose(damped_pinv(J, 1e-3) @ np.zeros(6), 0.0)


def test_identity_jacobian_passthrough():
    xd = np.array([0.1, -0.2, 0.3, 0.0, 0.1, 0.0])
    assert np.allclose(damped_pinv(np.eye(6), 0.0) @ xd, xd, atol=1e-15)


def test_cartesian_to_joint_residual(default_model):
    q = np.random.default_rng(42).uniform(-1.2, 1.2, 6)
    xd = np.random.default_rng(43).normal(size=6) * 0.2
    J = jacobian_from_frames(default_model, chain_frames(default_model, q))
    qd = damped_pinv(J, 0.0) @ xd
    assert np.abs(J @ qd - xd).max() < 1e-9


# ---------------------------------------------------------------------------
# wrench transform

def test_transform_wrench_identity():
    w = np.array([1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
    out = transform_wrench(np.eye(3), w, 1.0)
    assert out.shape == (6,) and np.allclose(out, w)


def test_transform_wrench_zero_weight_disables_compliance():
    out = transform_wrench(np.eye(3), np.array([5.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 0.0)
    assert np.allclose(out, 0.0)


def test_transform_wrench_axis_flip():
    out = transform_wrench(rot_z(np.pi), np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]), 1.0)
    assert np.allclose(out, [-1.0, 0.0, 0.0, 0.0, -1.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# closed-loop contracts

def _closed_loop(default_model, force_fn, duration=2.5, rate=500.0, hold=0.5):
    """Minimal controller loop: planned reference + admittance + ideal plant.

    Returns the terminal tracking error after the end-of-trajectory hold;
    mid-motion lag under acceleration is the designed compliance, so the
    tracking contract is about the settled state.
    """
    params = AdmittanceParams()
    start = np.array([1.57, -1.0, 1.2, -1.77, -1.57, 0.0])
    end = start + np.array([0.5, 0.25, -0.3, 0.2, 0.3, -0.4])
    seg = fit_cubic_spline(*plan_quintic(start, end, duration))
    T_r = 1.0 / rate
    steps = int(round((duration + hold) * rate))
    q = start.copy()
    qd_meas = np.zeros(6)
    err = 0.0
    for k in range(steps):
        s = min(k * T_r, duration)
        q_des, qd_des, qdd_des = sample_spline(seg, s)
        x_des, xd_des, xdd_des = to_cartesian(default_model, q_des, qd_des, qdd_des)
        frames = chain_frames(default_model, q)
        x = pose_from_frames(default_model, frames)
        J = jacobian_from_frames(default_model, frames)
        xd = J @ qd_meas
        F = force_fn(k * T_r)
        acc = admittance_accel(params, x_des, xd_des, xdd_des, x, xd, F)
        xd_adm = integrate_velocity(acc, xd, T_r)
        qd_cmd = damped_pinv(J, 1e-3) @ xd_adm
        q = q + qd_cmd * T_r
        qd_meas = qd_cmd
        err = float(np.abs(q - q_des).max())
    return q, err, seg


def test_zero_force_tracking(default_model):
    _, final_err, _ = _closed_loop(default_model, lambda t: np.zeros(6))
    assert final_err < 1e-3


def test_static_compliance_converges(default_model):
    # constant pull on a held reference settles at K^-1 F within 1%
    force = np.array([10.0, -6.0, 4.0])
    start = np.array([1.57, -1.0, 1.2, -1.77, -1.57, 0.0])
    params = AdmittanceParams()
    x_ref = pose_from_frames(default_model, chain_frames(default_model, start))
    T_r = 1.0 / 500.0
    q = start.copy()
    qd_meas = np.zeros(6)
    for _ in range(int(3.0 * 500)):
        frames = chain_frames(default_model, q)
        x = pose_from_frames(default_model, frames)
        J = jacobian_from_frames(default_model, frames)
        xd = J @ qd_meas
        acc = admittance_accel(
            params, x_ref, np.zeros(6), np.zeros(6), x, xd, np.concatenate((force, np.zeros(3)))
        )
        qd_cmd = damped_pinv(J, 1e-3) @ integrate_velocity(acc, xd, T_r)
        q = q + qd_cmd * T_r
        qd_meas = qd_cmd
    displacement = x_ref.position - chain_frames(default_model, q).tool
    expected = force / 400.0
    assert np.abs(displacement - expected).max() < 0.01 * np.linalg.norm(expected) + 1e-5
