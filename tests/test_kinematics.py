from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from handover_sim.admittance import rotation_log
from handover_sim.config import default_manipulator
from handover_sim.kinematics import (
    ManipulatorModel,
    chain_frames,
    cross_rows,
    damped_pinv,
    jacobian_dot_from_frames,
    jacobian_from_frames,
    pose_from_frames,
)

from conftest import make_model


def dh_oracle(a, alpha, d, theta):
    """Independent homogeneous-transform oracle (plain matrix literal)."""
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array(
        [
            [ct, -st * ca, st * sa, a * ct],
            [st, ct * ca, -ct * sa, a * st],
            [0.0, sa, ca, d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def fk_oracle(model, q):
    mats = [dh_oracle(a, al, d, th + q[j]) for j, (a, al, d, th) in enumerate(model.dh_rows)]
    return reduce(np.matmul, mats, np.eye(4))


def jacobian_fd(model, q, h=1e-6):
    n = model.joint_count
    J = np.zeros((6, n))
    for j in range(n):
        dq = np.zeros(n)
        dq[j] = h
        plus = pose_from_frames(model, chain_frames(model, q + dq))
        minus = pose_from_frames(model, chain_frames(model, q - dq))
        J[:3, j] = (plus.position - minus.position) / (2 * h)
        J[3:, j] = rotation_log(plus.rotation @ minus.rotation.T) / (2 * h)
    return J


# ---------------------------------------------------------------------------
# forward kinematics

def test_fk_one_link_zero(one_link):
    pose = pose_from_frames(one_link, chain_frames(one_link, [0.0]))
    assert np.allclose(pose.position, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(pose.rotation, np.eye(3), atol=1e-15)


def test_fk_two_link_planar(two_link_planar):
    pose = pose_from_frames(two_link_planar, chain_frames(two_link_planar, [0.0, np.pi / 2]))
    assert np.allclose(pose.position, [1.0, 1.0, 0.0], atol=1e-12)


def test_fk_matches_oracle_chain(default_model):
    q = np.random.default_rng(42).uniform(-np.pi, np.pi, 6)
    T = fk_oracle(default_model, q)
    pose = pose_from_frames(default_model, chain_frames(default_model, q))
    assert np.allclose(pose.position, T[:3, 3], atol=1e-12)
    assert np.allclose(pose.rotation, T[:3, :3], atol=1e-12)


def test_fk_rotation_orthonormal(default_model):
    rng = np.random.default_rng(7)
    for _ in range(50):
        pose = pose_from_frames(default_model, chain_frames(default_model, rng.uniform(-np.pi, np.pi, 6)))
        assert np.allclose(pose.rotation @ pose.rotation.T, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9


def test_fk_dimension_mismatch(default_model):
    with pytest.raises(ValueError):
        chain_frames(default_model, np.zeros(5))


# ---------------------------------------------------------------------------
# jacobian

def test_jacobian_one_link(one_link):
    J = jacobian_from_frames(one_link, chain_frames(one_link, [0.0]))
    assert np.allclose(J[:, 0], [0.0, 1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_jacobian_zero_rate_contributes_nothing(default_model):
    q = np.random.default_rng(3).uniform(-1, 1, 6)
    J = jacobian_from_frames(default_model, chain_frames(default_model, q))
    q_dot = np.random.default_rng(4).uniform(-1, 1, 6)
    for locked in range(6):
        qd = q_dot.copy()
        qd[locked] = 0.0
        assert np.allclose(J @ qd, J @ qd - J[:, locked] * 0.0)
        # the locked joint's column is exactly the motion lost by locking it
        assert np.allclose(J @ q_dot - J @ qd, J[:, locked] * q_dot[locked], atol=1e-12)


def test_jacobian_axis_through_tool_has_zero_linear_part():
    # joint 2 axis passes through the end point: no linear contribution
    model = make_model([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    J = jacobian_from_frames(model, chain_frames(model, [0.3, -0.4]))
    assert np.allclose(J[:3, 1], 0.0, atol=1e-15)
    assert np.allclose(np.linalg.norm(J[3:, 1]), 1.0, atol=1e-12)


def test_jacobian_finite_difference(default_model):
    rng = np.random.default_rng(42)
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 6)
        J = jacobian_from_frames(default_model, chain_frames(default_model, q))
        assert np.abs(J - jacobian_fd(default_model, q)).max() < 1e-5


# ---------------------------------------------------------------------------
# jacobian time derivative

def test_jacobian_dot_zero_velocity(default_model):
    q = np.random.default_rng(5).uniform(-1, 1, 6)
    assert np.allclose(jacobian_dot_from_frames(default_model, chain_frames(default_model, q), np.zeros(6)), 0.0)


def test_jacobian_dot_finite_difference(default_model):
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(50):
        q = rng.uniform(-np.pi, np.pi, 6)
        q_dot = rng.uniform(-1.5, 1.5, 6)
        frames = chain_frames(default_model, q)
        ahead = chain_frames(default_model, q + q_dot * h)
        fd = (jacobian_from_frames(default_model, ahead) - jacobian_from_frames(default_model, frames)) / h
        assert np.abs(jacobian_dot_from_frames(default_model, frames, q_dot) - fd).max() < 1e-4


def test_jacobian_dot_one_link_analytic(one_link):
    # p = (cos q, sin q, 0); column = z x p; d/dt column = (-cos q, -sin q, 0) qd
    q, qd = 0.7, 1.0
    Jd = jacobian_dot_from_frames(one_link, chain_frames(one_link, [q]), [qd])
    expected = np.array([-np.cos(q), -np.sin(q), 0.0]) * qd
    assert np.allclose(Jd[:3, 0], expected, atol=1e-12)
    assert np.allclose(Jd[3:, 0], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# link positions: the frame origins

def test_link_positions_straight_chain(two_link_planar):
    pts = chain_frames(two_link_planar, [0.0, 0.0]).origins
    assert np.allclose(pts, [[0, 0, 0], [1, 0, 0], [2, 0, 0]], atol=1e-15)


def test_link_positions_base_fixed(default_model):
    rng = np.random.default_rng(8)
    for _ in range(10):
        pts = chain_frames(default_model, rng.uniform(-np.pi, np.pi, 6)).origins
        assert np.allclose(pts[0], 0.0)


def test_link_positions_truncated_chain_oracle(default_model):
    q = np.random.default_rng(42).uniform(-np.pi, np.pi, 6)
    pts = chain_frames(default_model, q).origins
    T = np.eye(4)
    for i, (a, al, d, th) in enumerate(default_model.dh_rows):
        T = T @ dh_oracle(a, al, d, th + q[i])
        assert np.allclose(pts[i + 1], T[:3, 3], atol=1e-12)


def test_link_positions_last_equals_fk(default_model):
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 6)
        frames = chain_frames(default_model, q)
        pose = pose_from_frames(default_model, frames)
        assert np.array_equal(frames.origins[-1], pose.position)  # the flange is the tool point


# ---------------------------------------------------------------------------
# damped pseudo-inverse

def test_damped_pinv_identity():
    assert np.allclose(damped_pinv(np.eye(6), 0.0), np.eye(6), atol=1e-15)


def test_damped_pinv_identity_with_damping():
    assert np.allclose(damped_pinv(np.eye(6), 1.0), 0.5 * np.eye(6), atol=1e-15)


def test_damped_pinv_exact_inverse(default_model):
    q = np.random.default_rng(42).uniform(-1.2, 1.2, 6)
    J = jacobian_from_frames(default_model, chain_frames(default_model, q))
    assert np.abs(damped_pinv(J, 0.0) @ J - np.eye(6)).max() < 1e-9


def test_damped_pinv_negative_damping_rejected():
    with pytest.raises(ValueError):
        damped_pinv(np.eye(6), -0.1)


# ---------------------------------------------------------------------------
# model container and JSON interface

def test_model_validation_errors():
    with pytest.raises(ValueError):
        make_model([[1.0, 0, 0, 0]], qd=-1.0)  # bad velocity bounds
    with pytest.raises(ValueError):
        make_model([[1.0, 0, 0, 0]], qdd=0.0)  # bad acceleration bounds
    with pytest.raises(ValueError):
        make_model([[1.0, 0, 0, 0]], masses=[-1.0])


@pytest.mark.parametrize("dh_rows", [np.zeros((0, 4)), [1.0, 0, 0, 0], [[1.0, 0, 0]], [[[1.0, 0, 0, 0]]]])
def test_model_rejects_dh_rows_not_shaped_n_by_4(dh_rows):
    with pytest.raises(ValueError, match="dh_rows"):
        ManipulatorModel(dh_rows=dh_rows, q_dot_max=[1.0], q_ddot_max=[1.0], link_masses=[1.0])


def test_joint_count_is_the_dh_row_count(default_model, two_link_planar):
    assert (default_model.joint_count, two_link_planar.joint_count) == (6, 2)


# ---------------------------------------------------------------------------
# batched chain geometry: every stacked entry equals the single call, bit for bit

_ARM = default_manipulator()
_angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False, allow_infinity=False)
_joint_batches = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda batch: batch + (6,)),
    elements=_angles,
)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=150, deadline=None)
@given(q=_joint_batches)
def test_stacked_chain_frames_equal_single_calls_bitwise(q):
    model = _ARM
    stacked = chain_frames(model, q)
    jac = jacobian_from_frames(model, stacked)
    for index in np.ndindex(q.shape[:-1]):
        single = chain_frames(model, q[index])
        for name, got, want in zip(single._fields, stacked.entry(index), single):
            assert _same_bits(got, want), name
        assert _same_bits(jac[index], jacobian_from_frames(model, single))


@settings(max_examples=150, deadline=None)
@given(
    rows=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.just(6)),
        elements=st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    )
)
def test_cross_rows_equals_np_cross_bitwise(rows):
    a, b = rows[:, :3], rows[:, 3:]
    assert _same_bits(cross_rows(a, b), np.cross(a, b))
    # broadcasting one operand across a leading axis, as link_constraints does
    assert _same_bits(cross_rows(a, np.stack([b, -b])), np.cross(a, np.stack([b, -b])))


def test_chain_frames_rejects_wrong_joint_count(default_model):
    with pytest.raises(ValueError, match="6 joint values"):
        chain_frames(default_model, np.zeros(5))
    with pytest.raises(ValueError, match="6 joint values"):
        chain_frames(default_model, 0.0)
