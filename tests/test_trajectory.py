import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handover_sim.config import default_manipulator
from handover_sim.harness import _plan_stop
from handover_sim.kinematics import chain_frames, jacobian_dot_from_frames, jacobian_from_frames, pose_from_frames
from handover_sim.trajectory import (
    POLY_ROWS,
    PathParameter,
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
    frames = chain_frames(model, q_des)
    pose = pose_from_frames(model, frames)
    J = jacobian_from_frames(model, frames)
    Jd = jacobian_dot_from_frames(model, frames, q_dot_des)
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

def segment(q0, q1, T):
    return fit_cubic_spline(*plan_quintic(q0, q1, T))


def test_plan_degenerate_constant():
    q = np.array([0.5, -0.2])
    seg = segment(q, q, 1.0)
    for s in np.linspace(0.0, 1.0, 11):
        pos, vel, acc = sample_spline(seg, s)
        assert np.allclose(pos, q)
        assert np.allclose(vel, 0.0)
        assert np.allclose(acc, 0.0)


def test_plan_midpoint_symmetry():
    q, _, _ = sample_spline(segment([0.0], [1.0], 2.0), 1.0)
    assert abs(q[0] - 0.5) < 1e-12


def test_plan_peak_velocity():
    # delta 1 rad over 2 s: peak rate is 15/(8*2) at the midpoint
    seg = segment([0.0], [1.0], 2.0)
    grid = np.linspace(0.0, 2.0, 4001)
    q_dot = np.array([sample_spline(seg, s)[1][0] for s in grid])
    assert abs(q_dot.max() - 15.0 / 16.0) < 1e-6
    assert abs(grid[np.argmax(q_dot)] - 1.0) < 1e-3


def test_plan_boundary_conditions():
    seg = segment([0.1, -0.3], [1.2, 0.4], 1.5)
    for s, q_end in ((0.0, [0.1, -0.3]), (1.5, [1.2, 0.4])):
        q, q_dot, q_ddot = sample_spline(seg, s)
        assert np.allclose(q, q_end, atol=1e-9)
        assert np.allclose(q_dot, 0.0, atol=1e-9)
        assert np.allclose(q_ddot, 0.0, atol=1e-9)


def test_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_quintic([0.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        plan_quintic([0.0], [1.0], -5.0)
    with pytest.raises(ValueError):
        plan_quintic([0.0, 0.0], [1.0], 1.0)


# ---------------------------------------------------------------------------
# closed-form segments against the analytic quintic, over random plans

_joint = st.floats(-np.pi, np.pi)
_plans = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(_joint, min_size=n, max_size=n).map(np.array),
    st.lists(_joint, min_size=n, max_size=n).map(np.array),
    st.floats(0.2, 4.0),
))  # (q0, q1, T) with 1-6 joints


@settings(max_examples=200, deadline=None)
@given(_plans)
def test_quintic_hits_endpoints_at_rest(plan):
    q0, q1, T = plan
    seg = segment(q0, q1, T)
    for s, q_end in ((0.0, q0), (T, q1)):
        q, q_dot, q_ddot = sample_spline(seg, s)
        assert np.abs(q - q_end).max() < 1e-9
        assert np.abs(q_dot).max() < 1e-9
        assert np.abs(q_ddot).max() < 1e-9


@settings(max_examples=200, deadline=None)
@given(_plans, st.floats(0.0, 1.0))
def test_quintic_matches_analytic_oracle(plan, frac):
    q0, q1, T = plan
    s = frac * T
    got = sample_spline(segment(q0, q1, T), s)
    for value, want in zip(got, quintic_oracle(q0, q1, T, s)):
        assert np.abs(value - want).max() < 1e-9


@settings(max_examples=200, deadline=None)
@given(_plans, st.floats(0.01, 0.99))
def test_quintic_rates_match_central_differences(plan, frac):
    # q_dot is the derivative of q, and q_ddot of q_dot, at every s
    q0, q1, T = plan
    seg = segment(q0, q1, T)
    s, h = frac * T, 1e-6
    plus, here, minus = (sample_spline(seg, x) for x in (s + h, s, s - h))
    assert np.abs((plus[0] - minus[0]) / (2 * h) - here[1]).max() < 1e-6
    assert np.abs((plus[1] - minus[1]) / (2 * h) - here[2]).max() < 1e-6


@settings(max_examples=200, deadline=None)
@given(_plans, st.floats(0.0, 0.5))
def test_quintic_midpoint_symmetry(plan, frac):
    # q is point-symmetric about (T/2, (q0 + q1)/2); q_dot is mirror-symmetric
    q0, q1, T = plan
    seg = segment(q0, q1, T)
    assert np.abs(sample_spline(seg, 0.5 * T)[0] - 0.5 * (q0 + q1)).max() < 1e-12
    before, after = sample_spline(seg, (0.5 - frac) * T), sample_spline(seg, (0.5 + frac) * T)
    assert np.abs(before[0] + after[0] - (q0 + q1)).max() < 1e-9
    assert np.abs(before[1] - after[1]).max() < 1e-9


@settings(max_examples=200, deadline=None)
@given(_plans)
def test_quintic_peak_speed(plan):
    # the largest joint rate is 1.875 |delta| / T, reached at the midpoint
    q0, q1, T = plan
    seg = segment(q0, q1, T)
    peak = 1.875 * np.abs(q1 - q0) / T
    assert np.abs(np.abs(sample_spline(seg, 0.5 * T)[1]) - peak).max() < 1e-9
    grid = np.linspace(0.0, T, 201)
    assert max(np.abs(sample_spline(seg, s)[1]).max() - peak.max() for s in grid) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6), st.lists(_joint, min_size=6, max_size=6))
def test_stop_ramp_reaches_rest(q_dot, q):
    # the stop ramp leaves q with rate q_dot and is at rest at T, braking at
    # no more than half the acceleration box
    model = default_manipulator()
    q, q_dot = np.array(q), np.array(q_dot)
    poly, T = _plan_stop(q, q_dot, model, 500.0)
    seg = fit_cubic_spline(poly, T)
    start, end = sample_spline(seg, 0.0), sample_spline(seg, T)
    assert np.abs(start[0] - q).max() < 1e-12
    assert np.abs(start[1] - q_dot).max() < 1e-12
    assert np.abs(end[1]).max() < 1e-9
    assert np.abs(end[0] - (q + 0.5 * q_dot * T)).max() < 1e-9
    assert np.all(np.abs(start[2]) <= 0.5 * model.q_ddot_max + 1e-9)
    assert T >= 4.0 / 500.0


def test_fit_reproduces_low_degree_polynomials():
    # a linear plan zero-padded to the plan degree stays exactly linear
    poly = np.zeros((POLY_ROWS, 1))
    poly[0], poly[1] = 0.5, 2.0
    seg = fit_cubic_spline(poly, 1.0)
    for s in np.linspace(0.0, 1.0, 57):
        q, q_dot, q_ddot = sample_spline(seg, s)
        assert abs(q[0] - (2.0 * s + 0.5)) < 1e-12
        assert q_dot[0] == 2.0 and q_ddot[0] == 0.0


def test_fit_rejects_wrong_degree():
    with pytest.raises(ValueError):
        fit_cubic_spline(np.zeros((4, 2)), 1.0)
    with pytest.raises(ValueError):
        fit_cubic_spline(np.zeros(POLY_ROWS), 1.0)


# ---------------------------------------------------------------------------
# segment sampling and clamping

def test_sample_boundaries():
    seg = segment([0.2], [0.9], 1.0)
    q, qd, qdd = sample_spline(seg, 0.0)
    assert abs(q[0] - 0.2) < 1e-9 and abs(qd[0]) < 1e-9 and abs(qdd[0]) < 1e-9
    q, qd, qdd = sample_spline(seg, 5.0)  # beyond the horizon: clamp
    assert abs(q[0] - 0.9) < 1e-9 and abs(qd[0]) < 1e-9 and abs(qdd[0]) < 1e-9
    q, _, _ = sample_spline(seg, -1.0)
    assert abs(q[0] - 0.2) < 1e-9


def test_sample_midpoint_analytic():
    q, qd, _ = sample_spline(segment([0.0], [2.0], 2.0), 1.0)
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


def test_path_integrity_two_alpha_schedules():
    # whatever the alpha sequence, every visited reference lies on the path
    seg = segment([0.0, 1.0], [1.0, 0.0], 1.0)
    rng = np.random.default_rng(3)
    for schedule in (np.full(400, 1.0), rng.uniform(0.0, 1.0, 400)):
        p = PathParameter(s=0.0, s_dot=1.0, t_final=1.0)
        for alpha in schedule:
            p = advance_parameter(p, float(alpha), 0.002)
            q_visited = sample_spline(seg, p.s)[0]
            q_on_path = sample_spline(seg, min(max(p.s, 0.0), 1.0))[0]
            assert np.abs(q_visited - q_on_path).max() < 1e-9


# ---------------------------------------------------------------------------
# Cartesian mapping

def test_to_cartesian_zero_rates(default_model):
    q = np.random.default_rng(2).uniform(-1, 1, 6)
    pose, xd, xdd = to_cartesian(default_model, q, np.zeros(6), np.zeros(6))
    assert np.allclose(xd, 0.0) and np.allclose(xdd, 0.0)
    assert np.allclose(pose.position, chain_frames(default_model, q).tool)


def test_to_cartesian_velocity_matches_fd(default_model):
    seg = segment(np.zeros(6), np.random.default_rng(42).uniform(-1, 1, 6), 2.0)
    h = 1e-6
    for s in (0.4, 1.0, 1.7):
        q, qd, qdd = sample_spline(seg, s)
        _, xd, _ = to_cartesian(default_model, q, qd, qdd)
        qp = sample_spline(seg, s + h)[0]
        qm = sample_spline(seg, s - h)[0]
        fd = (chain_frames(default_model, qp).tool - chain_frames(default_model, qm).tool) / (2 * h)
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
