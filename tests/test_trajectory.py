import numpy as np
import pytest

from handover_sim.kinematics import forward_kinematics, jacobian, jacobian_dot
from handover_sim.trajectory import (
    PathParameter,
    QuinticTrajectory,
    advance_parameter,
    fit_cubic_spline,
    plan_quintic,
    sample_spline,
)


def to_cartesian(model, q_des, q_dot_des, q_ddot_des):
    """Oracle: map joint references to Cartesian pose, velocity, and acceleration.

    x = FK(q), x_dot = J q_dot, x_ddot = J q_ddot + J_dot q_dot, from the
    single-configuration kinematics (the harness computes the same image
    from shared chain frames).
    """
    q_des = model.check_q(q_des)
    q_dot_des = model.check_q(q_dot_des)
    q_ddot_des = model.check_q(q_ddot_des)
    pose = forward_kinematics(model, q_des)
    J = jacobian(model, q_des)
    Jd = jacobian_dot(model, q_des, q_dot_des)
    return pose, J @ q_dot_des, J @ q_ddot_des + Jd @ q_dot_des


def quintic_oracle(q0, q1, T, t):
    """Analytic quintic evaluated directly from the normalized profile."""
    tau = np.clip(t / T, 0.0, 1.0)
    sigma = 6 * tau**5 - 15 * tau**4 + 10 * tau**3
    sigma_d = (30 * tau**4 - 60 * tau**3 + 30 * tau**2) / T
    sigma_dd = (120 * tau**3 - 180 * tau**2 + 60 * tau) / T**2
    d = q1 - q0
    return q0 + sigma * d, sigma_d * d, sigma_dd * d


# ---------------------------------------------------------------------------
# quintic planning

def test_plan_degenerate_constant():
    q = np.array([0.5, -0.2])
    traj = plan_quintic(q, q, 1.0, 100.0)
    assert np.allclose(traj.q, q)
    assert np.allclose(traj.q_dot, 0.0)
    assert np.allclose(traj.q_ddot, 0.0)


def test_plan_midpoint_symmetry():
    traj = plan_quintic([0.0], [1.0], 2.0, 1000.5)  # odd count puts t=1 on the grid
    mid = len(traj.times) // 2
    assert abs(traj.times[mid] - 1.0) < 1e-12
    assert abs(traj.q[mid, 0] - 0.5) < 1e-12


def test_plan_peak_velocity():
    # delta 1 rad over 2 s: peak rate is 15/(8*2) at the midpoint
    traj = plan_quintic([0.0], [1.0], 2.0, 2000.0)
    assert abs(traj.q_dot.max() - 15.0 / 16.0) < 1e-6
    assert abs(traj.times[np.argmax(traj.q_dot[:, 0])] - 1.0) < 1e-3


def test_plan_boundary_conditions():
    traj = plan_quintic([0.1, -0.3], [1.2, 0.4], 1.5, 500.0)
    assert np.allclose(traj.q[0], [0.1, -0.3], atol=1e-9)
    assert np.allclose(traj.q[-1], [1.2, 0.4], atol=1e-9)
    for arr in (traj.q_dot, traj.q_ddot):
        assert np.allclose(arr[0], 0.0, atol=1e-9)
        assert np.allclose(arr[-1], 0.0, atol=1e-9)


def test_plan_sample_count():
    traj = plan_quintic([0.0], [1.0], 2.0, 500.0)
    assert len(traj.times) == 1000


def test_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_quintic([0.0], [1.0], 0.0, 100.0)
    with pytest.raises(ValueError):
        plan_quintic([0.0], [1.0], 1.0, -5.0)
    with pytest.raises(ValueError):
        plan_quintic([0.0, 0.0], [1.0], 1.0, 100.0)


# ---------------------------------------------------------------------------
# cubic splines

def test_spline_interpolates_knots():
    traj = plan_quintic([0.0, 1.0], [1.0, -1.0], 1.0, 100.0)
    spline = fit_cubic_spline(traj)
    for k in (0, 17, 50, 99):
        q, qd, qdd = sample_spline(spline, traj.times[k])
        assert np.abs(q - traj.q[k]).max() < 1e-9
        assert np.abs(qd - traj.q_dot[k]).max() < 1e-9
        assert np.abs(qdd - traj.q_ddot[k]).max() < 1e-9


def test_spline_reproduces_linear_data():
    times = np.linspace(0.0, 1.0, 20)
    q = np.outer(times, [2.0]) + 0.5
    traj = QuinticTrajectory(times=times, q=q, q_dot=np.full_like(q, 2.0), q_ddot=np.zeros_like(q))
    spline = fit_cubic_spline(traj)
    for s in np.linspace(0.0, 1.0, 57):
        qs, _, _ = sample_spline(spline, s)
        assert abs(qs[0] - (2.0 * s + 0.5)) < 1e-9


def test_spline_mid_knot_matches_quintic():
    traj = plan_quintic([0.0], [1.0], 1.0, 100.0)
    spline = fit_cubic_spline(traj)
    rng = np.random.default_rng(0)
    for s in rng.uniform(0.0, 1.0, 50):
        q = sample_spline(spline, s)[0]
        assert abs(q[0] - quintic_oracle(0.0, 1.0, 1.0, s)[0]) < 1e-5
    # the rate block is its own interpolant; natural ends are less accurate
    for s in rng.uniform(0.05, 0.95, 50):
        qd = sample_spline(spline, s)[1]
        assert abs(qd[0] - quintic_oracle(0.0, 1.0, 1.0, s)[1]) < 1e-4


def test_spline_too_few_samples():
    traj = plan_quintic([0.0], [1.0], 0.01, 300.0)
    assert len(traj.times) == 3
    with pytest.raises(ValueError):
        fit_cubic_spline(traj)


def test_spline_c2_continuity():
    traj = plan_quintic([0.0, -0.5], [1.0, 0.5], 1.0, 50.0)
    spline = fit_cubic_spline(traj)
    # one-sided second derivatives straight from the piecewise polynomial
    der2 = spline._stacked.derivative(2)
    eps = 1e-12
    for knot in traj.times[1:-1]:
        left = der2(knot - eps)
        right = der2(knot + eps)
        assert np.abs(left - right).max() < 1e-6


def test_three_spline_consistency():
    # velocity spline vs derivative of position spline stays within the
    # documented 1e-3 tolerance for independently splined blocks
    traj = plan_quintic([0.0], [1.0], 1.0, 500.0)
    spline = fit_cubic_spline(traj)
    h = 1e-6
    rng = np.random.default_rng(1)
    for s in rng.uniform(0.05, 0.95, 30):
        qp = sample_spline(spline, s + h)[0][0]
        qm = sample_spline(spline, s - h)[0][0]
        qd = sample_spline(spline, s)[1][0]
        assert abs((qp - qm) / (2 * h) - qd) < 1e-3


# ---------------------------------------------------------------------------
# spline sampling and clamping

def test_sample_boundaries():
    traj = plan_quintic([0.2], [0.9], 1.0, 100.0)
    spline = fit_cubic_spline(traj)
    q, qd, qdd = sample_spline(spline, 0.0)
    assert abs(q[0] - 0.2) < 1e-9 and abs(qd[0]) < 1e-9 and abs(qdd[0]) < 1e-9
    q, qd, qdd = sample_spline(spline, 5.0)  # beyond the horizon: clamp
    assert abs(q[0] - 0.9) < 1e-9 and abs(qd[0]) < 1e-9 and abs(qdd[0]) < 1e-9


def test_sample_midpoint_analytic():
    traj = plan_quintic([0.0], [2.0], 2.0, 500.0)
    spline = fit_cubic_spline(traj)
    q, qd, _ = sample_spline(spline, 1.0)
    oq, oqd, _ = quintic_oracle(0.0, 2.0, 2.0, 1.0)
    assert abs(q[0] - oq) < 1e-5
    assert abs(qd[0] - oqd) < 1e-5


# ---------------------------------------------------------------------------
# path parameter

def test_advance_zero_alpha_holds():
    p = PathParameter(s=0.5, s_dot=1.0, t_final=2.0)
    p2 = advance_parameter(p, 0.0, 0.002)
    assert p2.s == 0.5


def test_advance_nominal_rate():
    p = PathParameter(s=0.5, s_dot=1.0, t_final=2.0)
    p2 = advance_parameter(p, 1.0, 0.002)
    assert abs(p2.s - 0.502) < 1e-15


def test_advance_clamps_at_end():
    p = PathParameter(s=1.9999, s_dot=1.0, t_final=2.0)
    p2 = advance_parameter(p, 0.5, 0.002)
    assert p2.s <= 2.0
    p3 = advance_parameter(PathParameter(2.0, 1.0, 2.0), 1.0, 0.002)
    assert p3.s == 2.0


def test_advance_monotone_in_alpha():
    p = PathParameter(s=0.3, s_dot=1.0, t_final=2.0)
    alphas = np.linspace(0.0, 1.0, 21)
    ss = [advance_parameter(p, a, 0.002).s for a in alphas]
    assert all(s1 <= s2 + 1e-15 for s1, s2 in zip(ss, ss[1:]))


def test_advance_rejects_bad_inputs():
    p = PathParameter(s=0.0, s_dot=1.0, t_final=1.0)
    with pytest.raises(ValueError):
        advance_parameter(p, 1.5, 0.002)
    with pytest.raises(ValueError):
        advance_parameter(p, 0.5, 0.0)


def test_path_integrity_two_alpha_schedules():
    # whatever the alpha sequence, every visited reference lies on the path
    traj = plan_quintic([0.0, 1.0], [1.0, 0.0], 1.0, 200.0)
    spline = fit_cubic_spline(traj)
    rng = np.random.default_rng(3)
    for schedule in (np.full(400, 1.0), rng.uniform(0.0, 1.0, 400)):
        p = PathParameter(s=0.0, s_dot=1.0, t_final=1.0)
        for alpha in schedule:
            p = advance_parameter(p, float(alpha), 0.002)
            q_visited = sample_spline(spline, p.s)[0]
            q_on_path = sample_spline(spline, min(max(p.s, 0.0), 1.0))[0]
            assert np.abs(q_visited - q_on_path).max() < 1e-9


# ---------------------------------------------------------------------------
# Cartesian mapping

def test_to_cartesian_zero_rates(default_model):
    q = np.random.default_rng(2).uniform(-1, 1, 6)
    pose, xd, xdd = to_cartesian(default_model, q, np.zeros(6), np.zeros(6))
    assert np.allclose(xd, 0.0) and np.allclose(xdd, 0.0)
    assert np.allclose(pose.position, forward_kinematics(default_model, q).position)


def test_to_cartesian_velocity_matches_fd(default_model):
    traj = plan_quintic(np.zeros(6), np.random.default_rng(42).uniform(-1, 1, 6), 2.0, 500.0)
    spline = fit_cubic_spline(traj)
    h = 1e-6
    for s in (0.4, 1.0, 1.7):
        q, qd, qdd = sample_spline(spline, s)
        _, xd, _ = to_cartesian(default_model, q, qd, qdd)
        qp = sample_spline(spline, s + h)[0]
        qm = sample_spline(spline, s - h)[0]
        fd = (forward_kinematics(default_model, qp).position
              - forward_kinematics(default_model, qm).position) / (2 * h)
        assert np.abs(xd[:3] - fd).max() < 1e-4


def test_to_cartesian_one_link_circle(one_link):
    # point on the unit circle: v = qd * (-sin q, cos q), a = qdd*t_hat - qd^2*r_hat
    q, qd, qdd = 0.6, 0.8, 0.5
    _, xd, xdd = to_cartesian(one_link, [q], [qd], [qdd])
    assert np.allclose(xd[:3], qd * np.array([-np.sin(q), np.cos(q), 0.0]), atol=1e-12)
    expected_a = (qdd * np.array([-np.sin(q), np.cos(q), 0.0])
                  - qd**2 * np.array([np.cos(q), np.sin(q), 0.0]))
    assert np.allclose(xdd[:3], expected_a, atol=1e-12)
    assert abs(xd[5] - qd) < 1e-12
