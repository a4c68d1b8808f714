import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from handover_sim.kinematics import chain_frames, cross_rows, jacobian_from_frames
from handover_sim.safety import (
    HumanState,
    SafetyParams,
    ScalingResult,
    apparent_mass,
    link_constraints,
    optimal_alpha,
    pfl_limit,
    ssm_limit,
)

from conftest import make_model

T_R = 0.002  # reaction time: one period at the default 500 Hz control rate


# ---------------------------------------------------------------------------
# oracles: one link point and one direction at a time (link_constraints
# builds every row at once)

def hr_versor(P_H: np.ndarray, P_R: np.ndarray) -> np.ndarray:
    """Unit vector from a robot point toward the human point."""
    diff = np.asarray(P_H, dtype=float) - np.asarray(P_R, dtype=float)
    norm = float(np.linalg.norm(diff))
    if norm < 1e-9:
        raise ValueError("human and robot points coincide; separation direction undefined")
    return diff / norm


def modified_jacobian(model, q: np.ndarray, versor: np.ndarray, link_index: int) -> np.ndarray:
    """Row mapping joint rates to the speed of link link_index toward the human.

    The row is the versor projection of the positional Jacobian of the link
    point, truncated so that joints beyond link_index contribute zero.
    """
    if not 1 <= link_index <= model.joint_count:
        raise ValueError(f"link_index must be in [1, {model.joint_count}], got {link_index}")
    versor = np.asarray(versor, dtype=float).reshape(3)
    if abs(np.linalg.norm(versor) - 1.0) > 1e-9:
        raise ValueError("versor must have unit norm")
    origins, axes, _ = chain_frames(model, q)
    row = np.zeros(model.joint_count)
    point = origins[link_index]
    cols = cross_rows(axes[:link_index], point - origins[:link_index])
    row[:link_index] = cols @ versor
    return row


_TAGS = ("iso-limit", "joint-velocity", "joint-acceleration")


def reference_optimal_alpha(q_dot_adm, q_dot_current, per_link_rows, v_max_per_link, q_dot_max, q_ddot_max, T_r):
    """The vectorised scaling that optimal_alpha's one pass replaced, as an
    oracle: every row's bound on alpha at once, in the same stacking order,
    then arg-min/max (the first row of a tie) for the tightest of each side."""
    q_dot_adm = np.asarray(q_dot_adm, dtype=float).ravel()
    q_dot_current = np.asarray(q_dot_current, dtype=float).ravel()
    rows = np.atleast_2d(np.asarray(per_link_rows, dtype=float))
    v_max = np.asarray(v_max_per_link, dtype=float).ravel()
    rate_step = T_r * np.asarray(q_ddot_max, dtype=float)

    neg_adm = -q_dot_adm
    coeff = np.concatenate((rows @ q_dot_adm, q_dot_adm, neg_adm, q_dot_adm, neg_adm))
    bound = np.concatenate((v_max, q_dot_max, q_dot_max, q_dot_current + rate_step, -(q_dot_current - rate_step)))
    n, m = len(q_dot_adm), len(v_max)
    tags = np.repeat([0, 1, 2], [m, 2 * n, 2 * n])
    if np.isnan(coeff).any() or np.isnan(bound).any():
        raise ValueError("scaling constraints must not be NaN")

    pos = coeff > 1e-12
    neg = coeff < -1e-12
    hard_infeasible = bool((bound[~(pos | neg)] < -1e-12).any())
    ubs = np.divide(bound, coeff, out=np.full(len(coeff), np.inf), where=pos)
    lbs = np.divide(bound, coeff, out=np.full(len(coeff), -np.inf), where=neg)
    lo, lo_tag, hi, hi_tag = 0.0, "box", 1.0, "box"
    k = int(ubs.argmin())
    if ubs[k] < hi:
        hi, hi_tag = float(ubs[k]), _TAGS[tags[k]]
    hi_actuator = min(1.0, float(ubs[m : m + 2 * n].min()))
    k = int(lbs.argmax())
    if lbs[k] > lo:
        lo, lo_tag = float(lbs[k]), _TAGS[tags[k]]

    if not hard_infeasible and lo <= hi + 1e-12:
        return ScalingResult(alpha=min(max(hi, 0.0), 1.0), binding_constraint=hi_tag, feasible=True)
    return ScalingResult(alpha=min(max(lo, 0.0), hi_actuator), binding_constraint=lo_tag, feasible=False)


# ---------------------------------------------------------------------------
# separation versor

def test_versor_basic():
    assert np.allclose(hr_versor([1, 0, 0], [0, 0, 0]), [1, 0, 0])


def test_versor_antisymmetric():
    a, b = np.array([0.3, -0.2, 0.9]), np.array([-0.1, 0.4, 0.2])
    assert np.allclose(hr_versor(a, b), -hr_versor(b, a), atol=1e-15)


def test_versor_unit_norm():
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = hr_versor(rng.normal(size=3), rng.normal(size=3))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_versor_coincident_points_raise():
    with pytest.raises(ValueError):
        hr_versor([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])


# ---------------------------------------------------------------------------
# separation-monitoring limit

def test_ssm_zero_at_protective_boundary():
    p = SafetyParams(C=0.05, Z_d=0.02, Z_r=0.01)
    assert abs(ssm_limit(p, 0.08, 0.0, T_R)) <= 1e-9


def test_ssm_scalar_value():
    p = SafetyParams(a_max=2.0, C=0.0, Z_d=0.0, Z_r=0.0)
    expected = math.sqrt(0.0**2 + (2.0 * 0.1) ** 2 + 2 * 2.0 * 1.0) - 2.0 * 0.1 - 0.0
    assert abs(ssm_limit(p, 1.0, 0.0, 0.1) - expected) < 1e-12
    assert abs(expected - 1.8100) < 1e-3


def test_ssm_monotone_in_human_speed():
    p = SafetyParams()
    limits = [ssm_limit(p, 0.8, v, T_R) for v in np.linspace(0.0, 1.5, 12)]
    assert all(a > b for a, b in zip(limits, limits[1:]))


def test_ssm_monotone_in_separation():
    p = SafetyParams()
    limits = [ssm_limit(p, s, 0.2, T_R) for s in np.linspace(0.0, 2.0, 15)]
    assert all(a <= b + 1e-12 for a, b in zip(limits, limits[1:]))


def test_ssm_clamps_below_boundary():
    p = SafetyParams(C=0.2)
    assert ssm_limit(p, 0.0, 0.0, T_R) == 0.0
    assert ssm_limit(p, 0.05, 0.5, T_R) == 0.0


def test_ssm_rejects_negative_separation():
    with pytest.raises(ValueError):
        ssm_limit(SafetyParams(), -0.1, 0.0, T_R)


# ---------------------------------------------------------------------------
# apparent mass and force-limited speed

def test_apparent_mass_value():
    model = make_model([[1.0, 0, 0, 0]] * 3, masses=[10.0, 12.0, 8.0], payload=1.0)
    assert abs(apparent_mass(model) - 16.0) < 1e-12


def test_apparent_mass_no_payload():
    model = make_model([[1.0, 0, 0, 0]], masses=[2.0])
    assert abs(apparent_mass(model) - 1.0) < 1e-12


def test_apparent_mass_zero_raises():
    model = make_model([[1.0, 0, 0, 0]], masses=[0.0])
    with pytest.raises(ValueError):
        apparent_mass(model)


def test_pfl_scalar_value():
    # independent evaluation: mu = (1/16 + 1/0.6)^-1, v = 140/sqrt(mu*75000)
    p = SafetyParams(F_max=140.0, k_spring=75000.0, m_h=0.6)
    mu = 1.0 / (1.0 / 16.0 + 1.0 / 0.6)
    expected = 140.0 / math.sqrt(mu * 75000.0)
    assert abs(pfl_limit(p, 16.0) - expected) < 1e-12
    assert abs(expected - 0.672) < 1e-3


def test_pfl_heavy_robot_limit():
    p = SafetyParams(F_max=140.0, k_spring=75000.0, m_h=0.6)
    asymptote = 140.0 / math.sqrt(0.6 * 75000.0)
    assert abs(pfl_limit(p, 1e9) - asymptote) < 1e-6


def test_pfl_linear_in_force():
    p1 = SafetyParams(F_max=100.0, p_max=1000.0)
    p2 = SafetyParams(F_max=200.0, p_max=1000.0)
    assert abs(pfl_limit(p2, 16.0) - 2.0 * pfl_limit(p1, 16.0)) < 1e-12


def test_pfl_pressure_bound_can_govern():
    # pressure-area product below the force bound takes over
    p = SafetyParams(F_max=140.0, p_max=50.0, A=1.0)
    expected_ratio = 50.0 / 140.0
    baseline = SafetyParams(F_max=140.0, p_max=1000.0)
    assert abs(pfl_limit(p, 16.0) / pfl_limit(baseline, 16.0) - expected_ratio) < 1e-12


def test_pfl_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        pfl_limit(SafetyParams(), 0.0)


# ---------------------------------------------------------------------------
# directed per-link Jacobian rows

def test_modified_jacobian_projection(default_model):
    rng = np.random.default_rng(42)
    q = rng.uniform(-1.2, 1.2, 6)
    q_dot = rng.uniform(-1, 1, 6)
    J = jacobian_from_frames(default_model, chain_frames(default_model, q))
    v = J[:3] @ q_dot
    versor = v / np.linalg.norm(v)
    row = modified_jacobian(default_model, q, versor, 6)
    # motion exactly along the versor at 1 m/s
    scale = 1.0 / np.linalg.norm(v)
    assert abs(row @ (q_dot * scale) - 1.0) < 1e-9


def test_modified_jacobian_orthogonal_motion(default_model):
    rng = np.random.default_rng(5)
    q = rng.uniform(-1.2, 1.2, 6)
    q_dot = rng.uniform(-1, 1, 6)
    v = jacobian_from_frames(default_model, chain_frames(default_model, q))[:3] @ q_dot
    perp = np.cross(v, [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    row = modified_jacobian(default_model, q, perp, 6)
    assert abs(row @ q_dot) < 1e-9


def test_modified_jacobian_truncation(default_model):
    q = np.random.default_rng(1).uniform(-1, 1, 6)
    versor = np.array([1.0, 0.0, 0.0])
    for link in (1, 3, 5):
        row = modified_jacobian(default_model, q, versor, link)
        assert np.allclose(row[link:], 0.0)


def test_modified_jacobian_finite_difference(default_model):
    rng = np.random.default_rng(42)
    h = 1e-7
    for _ in range(10):
        q = rng.uniform(-1.2, 1.2, 6)
        q_dot = rng.uniform(-1, 1, 6)
        versor = rng.normal(size=3)
        versor /= np.linalg.norm(versor)
        for link in (2, 4, 6):
            row = modified_jacobian(default_model, q, versor, link)
            p0 = chain_frames(default_model, q).origins[link] @ versor
            p1 = chain_frames(default_model, q + q_dot * h).origins[link] @ versor
            assert abs(row @ q_dot - (p1 - p0) / h) < 1e-5


def test_modified_jacobian_bad_inputs(default_model):
    with pytest.raises(ValueError):
        modified_jacobian(default_model, np.zeros(6), [1, 0, 0], 0)
    with pytest.raises(ValueError):
        modified_jacobian(default_model, np.zeros(6), [1, 0, 0], 7)
    with pytest.raises(ValueError):
        modified_jacobian(default_model, np.zeros(6), [2, 0, 0], 3)


# ---------------------------------------------------------------------------
# scaling optimization

def _random_instance(rng, n=6, m=6):
    # current velocity near a previous scaling of the same command, as in a
    # real control cycle; otherwise the one-cycle acceleration box makes
    # almost every random instance infeasible
    q_dot_adm = rng.uniform(-1.5, 1.5, n)
    beta = rng.uniform(0.0, 1.0)
    T_r = float(rng.uniform(0.002, 0.05))
    q_ddot_max = rng.uniform(2.0, 10.0, n)
    q_dot_current = beta * q_dot_adm + rng.uniform(-0.5, 0.5, n) * q_ddot_max * T_r
    rows = rng.uniform(-1.0, 1.0, (m, n))
    v_max = rng.uniform(0.05, 2.0, m)
    q_dot_max = rng.uniform(1.0, 3.0, n)
    return dict(
        q_dot_adm=q_dot_adm, q_dot_current=q_dot_current,
        per_link_rows=rows, v_max_per_link=v_max,
        q_dot_max=q_dot_max, q_ddot_max=q_ddot_max, T_r=T_r,
    )


def satisfies(inst, alpha, tol=1e-9):
    """Direct check of every constraint at a given alpha."""
    qd = alpha * inst["q_dot_adm"]
    rate = (qd - inst["q_dot_current"]) / inst["T_r"]
    return bool(
        np.all(inst["per_link_rows"] @ qd <= inst["v_max_per_link"] + tol)
        and np.all(qd <= inst["q_dot_max"] + tol)
        and np.all(qd >= -inst["q_dot_max"] - tol)
        and np.all(rate <= inst["q_ddot_max"] + tol)
        and np.all(rate >= -inst["q_ddot_max"] - tol)
    )


def grid_alpha(inst, step=1e-3, tol=1e-9):
    """Exhaustive search oracle: largest feasible alpha on a fixed grid.

    Returns None when no grid point is feasible; a feasible interval
    narrower than the step can hide between grid points.

    Every alpha is checked as satisfies checks it, all at once: the same
    element-wise products, and the link rows times each alpha's command as a
    stack of matrix-vector products, so no result rounds differently.
    """
    alphas = np.arange(0.0, 1.0 + step / 2, step)
    qd = alphas[:, None] * inst["q_dot_adm"]
    rate = (qd - inst["q_dot_current"]) / inst["T_r"]
    directed = (inst["per_link_rows"] @ qd[:, :, None])[..., 0]
    ok = (
        np.all(directed <= inst["v_max_per_link"] + tol, axis=1)
        & np.all(qd <= inst["q_dot_max"] + tol, axis=1)
        & np.all(qd >= -inst["q_dot_max"] - tol, axis=1)
        & np.all(rate <= inst["q_ddot_max"] + tol, axis=1)
        & np.all(rate >= -inst["q_ddot_max"] - tol, axis=1)
    )
    feasible = alphas[ok]
    return feasible[-1] if len(feasible) else None


def test_grid_alpha_equals_the_per_alpha_loop():
    # the oracle checks the whole grid at once; its answer is the loop's
    rng = np.random.default_rng(20240)
    for _ in range(30):
        inst = _random_instance(rng)
        feasible = [alpha for alpha in np.arange(0.0, 1.0005, 1e-3) if satisfies(inst, alpha)]
        assert grid_alpha(inst) == (feasible[-1] if feasible else None)


def test_alpha_all_slack():
    res = optimal_alpha(
        q_dot_adm=np.array([0.1, -0.1]), q_dot_current=np.array([0.1, -0.1]),
        per_link_rows=np.array([[0.5, 0.5]]), v_max_per_link=np.array([10.0]),
        q_dot_max=np.array([3.0, 3.0]), q_ddot_max=np.array([50.0, 50.0]),
        T_r=0.002,
    )
    assert res.alpha == 1.0 and res.feasible and res.binding_constraint == "box"


def test_alpha_single_iso_ratio():
    res = optimal_alpha(
        q_dot_adm=np.array([2.0]), q_dot_current=np.array([2.0]),
        per_link_rows=np.array([[1.0]]), v_max_per_link=np.array([1.0]),
        q_dot_max=np.array([10.0]), q_ddot_max=np.array([1e4]),
        T_r=0.002,
    )
    assert abs(res.alpha - 0.5) < 1e-12
    assert res.binding_constraint == "iso-limit" and res.feasible


def test_alpha_matches_grid_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        inst = _random_instance(rng)
        res = optimal_alpha(**inst)
        best = grid_alpha(inst)
        if res.feasible:
            assert satisfies(inst, res.alpha)
            if best is not None:
                assert abs(res.alpha - best) < 1e-3
                assert res.alpha >= best - 1e-9  # never worse than the grid
                checked += 1
        else:
            assert best is None  # the grid cannot find what does not exist
    assert checked > 100  # the braking box keeps a fraction genuinely infeasible


def test_alpha_velocity_box_always_satisfied():
    rng = np.random.default_rng(9)
    for _ in range(100):
        inst = _random_instance(rng)
        res = optimal_alpha(**inst)
        qd = res.alpha * inst["q_dot_adm"]
        assert np.all(qd <= inst["q_dot_max"] + 1e-9)
        assert np.all(qd >= -inst["q_dot_max"] - 1e-9)


def test_alpha_acceleration_box_when_feasible():
    rng = np.random.default_rng(10)
    for _ in range(100):
        inst = _random_instance(rng)
        res = optimal_alpha(**inst)
        if not res.feasible:
            continue
        rate = (res.alpha * inst["q_dot_adm"] - inst["q_dot_current"]) / inst["T_r"]
        assert np.all(rate <= inst["q_ddot_max"] + 1e-6)
        assert np.all(rate >= -inst["q_ddot_max"] - 1e-6)


@st.composite
def _scaling_instances(draw):
    """Arbitrary scaling problems, including zero command entries."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))

    def vec(shape, lo, hi):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi, allow_nan=False)))

    q_dot_max = vec(n, 0.1, 3.0)
    q_ddot_max = vec(n, 0.5, 20.0)
    return dict(
        q_dot_adm=vec(n, -3.0, 3.0), q_dot_current=vec(n, -3.0, 3.0),
        per_link_rows=vec((m, n), -2.0, 2.0), v_max_per_link=vec(m, 0.0, 3.0),
        q_dot_max=q_dot_max, q_ddot_max=q_ddot_max,
        T_r=draw(st.floats(1e-4, 0.05)),
    )


@settings(max_examples=300, deadline=None)
@given(inst=_scaling_instances())
def test_alpha_properties_on_arbitrary_instances(inst):
    res = optimal_alpha(**inst)
    assert 0.0 <= res.alpha <= 1.0
    # the velocity box holds whether or not the problem is feasible
    qd = res.alpha * inst["q_dot_adm"]
    assert np.all(qd <= inst["q_dot_max"] + 1e-12)
    assert np.all(qd >= -inst["q_dot_max"] - 1e-12)
    if res.feasible:
        assert satisfies(inst, res.alpha)
        assert res.binding_constraint in ("box", "iso-limit", "joint-velocity", "joint-acceleration")


@st.composite
def _oracle_instances(draw):
    """Scaling problems for the reference oracle: list or array inputs, 1-18
    link rows, coefficients and link limits at and around the 1e-12 cut
    (hard-infeasible on a zero row with a negative limit), braking the
    acceleration box cannot reach, and link rows that read one joint's
    command (+-e_j) with a box row's bound, so that a ratio ties across
    groups. The other link rows are tight or, so that the box and the
    tie rows bind, loose. q_dot_max stays positive, as every arm's is."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 18))
    cut = st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 5e-13, -5e-13, 2e-12, -2e-12])
    limit = draw(st.sampled_from([st.floats(-0.5, 3.0), st.floats(10.0, 1e3)]))

    def vec(shape, elements):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    inst = dict(
        q_dot_adm=vec(n, st.floats(-3.0, 3.0) | cut), q_dot_current=vec(n, st.floats(-3.0, 3.0)),
        per_link_rows=vec((m, n), st.floats(-2.0, 2.0) | cut), v_max_per_link=vec(m, limit),
        q_dot_max=vec(n, st.floats(0.1, 3.0)), q_ddot_max=vec(n, st.floats(0.5, 20.0)),
        T_r=draw(st.floats(1e-4, 0.05)),
    )
    if draw(st.booleans()):    # the arm already moves along the command, so the box is often feasible
        inst["q_dot_current"] = draw(st.floats(0.0, 1.0)) * inst["q_dot_adm"] + vec(n, st.floats(-0.05, 0.05))
    rows, v_max = inst["per_link_rows"], inst["v_max_per_link"]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True)):
        j = draw(st.integers(0, n - 1))
        sign = draw(st.sampled_from([1.0, -1.0]))
        rows[i] = 0.0
        rows[i, j] = sign
        step = inst["T_r"] * inst["q_ddot_max"][j]
        now = inst["q_dot_current"][j]
        if abs(inst["q_dot_adm"][j]) > 2e-12:
            v_max[i] = draw(st.sampled_from([inst["q_dot_max"][j], now + step if sign > 0 else -(now - step)]))
        else:    # a row at the cut gets a limit at the cut
            v_max[i] = draw(st.sampled_from([-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12]))
    if draw(st.booleans()):
        inst = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in inst.items()}
    return inst


@settings(max_examples=500, deadline=None)
@given(inst=_oracle_instances())
def test_alpha_equals_reference_bit_for_bit(inst):
    got, want = optimal_alpha(**inst), reference_optimal_alpha(**inst)
    assert (got.binding_constraint, got.feasible) == (want.binding_constraint, want.feasible)
    assert got.alpha == want.alpha and math.copysign(1.0, got.alpha) == math.copysign(1.0, want.alpha)


def test_alpha_tie_between_groups_names_the_first_row():
    # the link row and the velocity box both bound alpha by 1.5 / 2 from above
    tie = optimal_alpha(q_dot_adm=[2.0], q_dot_current=[2.0], per_link_rows=[[1.0]], v_max_per_link=[1.5],
                        q_dot_max=[1.5], q_ddot_max=[1e4], T_r=0.002)
    assert tie == (0.75, "iso-limit", True)
    # braking: the link row and the acceleration box both bound it by 0.99
    # from below, above a second link row's 0.1
    inst = dict(q_dot_adm=[-1.0], q_dot_current=[-1.0], per_link_rows=[[1.0], [-1.0]],
                v_max_per_link=[-1.0 + 0.002 * 5.0, 0.1], q_dot_max=[3.0], q_ddot_max=[5.0], T_r=0.002)
    assert optimal_alpha(**inst) == reference_optimal_alpha(**inst) == (0.99, "iso-limit", False)


def test_alpha_monotone_in_limits():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inst = _random_instance(rng)
        res = optimal_alpha(**inst)
        tighter = dict(inst)
        tighter["v_max_per_link"] = inst["v_max_per_link"] * 0.5
        res_tight = optimal_alpha(**tighter)
        assert res_tight.alpha <= res.alpha + 1e-12


def test_alpha_monotone_in_command_inflation():
    rng = np.random.default_rng(13)
    for _ in range(50):
        inst = _random_instance(rng)
        res = optimal_alpha(**inst)
        inflated = dict(inst)
        inflated["q_dot_adm"] = inst["q_dot_adm"] * 1.5
        res_inflated = optimal_alpha(**inflated)
        if res.feasible and res_inflated.feasible:
            assert res_inflated.alpha <= res.alpha + 1e-12


def test_alpha_infeasible_braking():
    # moving fast, commanded slow, acceleration box too tight to brake
    res = optimal_alpha(
        q_dot_adm=np.array([1.0]), q_dot_current=np.array([1.0]),
        per_link_rows=np.array([[1.0]]), v_max_per_link=np.array([0.1]),
        q_dot_max=np.array([3.0]), q_ddot_max=np.array([5.0]),
        T_r=0.002,
    )
    # alpha must stay >= the braking bound (1 - 5*0.002)/1 = 0.99 > iso 0.1
    assert not res.feasible
    assert res.binding_constraint == "joint-acceleration"
    assert abs(res.alpha - 0.99) < 1e-12


def test_alpha_less_conservative_than_single_paradigm():
    # combining the limits via max never scales harder than either alone
    rng = np.random.default_rng(12)
    for _ in range(100):
        inst = _random_instance(rng)
        ssm = rng.uniform(0.0, 1.5, len(inst["v_max_per_link"]))
        pfl = float(rng.uniform(0.1, 1.0))
        for variant, v_max in (
            ("combined", np.maximum(ssm, pfl)),
            ("ssm", ssm),
            ("pfl", np.full_like(ssm, pfl)),
        ):
            inst_v = dict(inst)
            inst_v["v_max_per_link"] = v_max
            if variant == "combined":
                combined = optimal_alpha(**inst_v).alpha
            elif variant == "ssm":
                ssm_alpha = optimal_alpha(**inst_v).alpha
            else:
                pfl_alpha = optimal_alpha(**inst_v).alpha
        assert combined >= ssm_alpha - 1e-12
        assert combined >= pfl_alpha - 1e-12


@pytest.mark.parametrize("name", ["q_dot_adm", "q_dot_current", "per_link_rows", "v_max_per_link",
                                  "q_dot_max", "q_ddot_max", "T_r"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_optimal_alpha_rejects_a_nan_in_any_input(name, sign):
    # a NaN limit loses every comparison, so unchecked it would drop out and
    # leave alpha at 1 or the acceleration bound; the command's sign puts it
    # on an upper or a lower bound
    inst = dict(q_dot_adm=np.full(6, sign), q_dot_current=np.zeros(6), per_link_rows=np.eye(6),
                v_max_per_link=np.ones(6), q_dot_max=np.full(6, 2.0), q_ddot_max=np.full(6, 10.0), T_r=0.002)
    value = np.array(inst[name], dtype=float)
    value.flat[-1] = np.nan
    inst[name] = value if value.ndim else float(value)
    for scaling in (optimal_alpha, reference_optimal_alpha):
        with pytest.raises(ValueError, match="NaN"):
            scaling(**inst)


# ---------------------------------------------------------------------------
# per-link constraint assembly

def test_link_constraints_match_modified_jacobian(default_model):
    rng = np.random.default_rng(21)
    q = rng.uniform(-1.2, 1.2, 6)
    human = HumanState(rng.uniform(-0.5, 0.5, 3) + [0.0, -0.8, 0.5], rng.normal(size=3) * 0.2)
    params = SafetyParams()
    frames = chain_frames(default_model, q)
    lc = link_constraints(frames, human, params, T_R, pfl_limit(params, 16.0))
    pts = frames.origins
    for i in range(1, 7):
        versor = hr_versor(human.hand_position, pts[i])
        row = modified_jacobian(default_model, q, versor, i)
        assert np.allclose(lc.rows[i - 1], row, atol=1e-12)
        sep = max(0.0, np.linalg.norm(human.hand_position - pts[i]) - params.human_radius)
        assert abs(lc.separation[i - 1] - sep) < 1e-12
        v_h = float(human.hand_velocity @ -versor)
        assert abs(lc.ssm[i - 1] - ssm_limit(params, sep, v_h, T_R)) < 1e-12
        assert abs(lc.v_max[i - 1] - max(lc.ssm[i - 1], lc.pfl)) < 1e-12


def test_link_constraints_inside_sphere_floors_separation(default_model):
    frames = chain_frames(default_model, np.zeros(6))
    pts = frames.origins
    human = HumanState(pts[6] + [0.01, 0.0, 0.0], np.zeros(3))  # 1 cm from the end point
    params = SafetyParams(human_radius=0.1)
    lc = link_constraints(frames, human, params, T_R, pfl_limit(params, 16.0))
    assert lc.separation[5] == 0.0
    assert lc.v_max[5] == lc.pfl  # contact-speed floor governs at the boundary


def test_link_constraints_point_at_hand_gets_zero_row(default_model):
    # a link point exactly at the tracked hand point: no direction, so its row
    # is zero and the contact-speed floor governs; the other links are as if
    # the coincidence were not there
    rng = np.random.default_rng(5)
    q = rng.uniform(-1.2, 1.2, 6)
    frames = chain_frames(default_model, q)
    pts = frames.origins
    velocity = rng.normal(size=3) * 0.2
    params = SafetyParams()
    lc = link_constraints(frames, HumanState(pts[4], velocity), params, T_R, pfl_limit(params, 16.0))
    assert np.all(lc.rows[3] == 0.0)
    assert lc.ssm[3] == 0.0 and lc.separation[3] == 0.0
    assert lc.v_max[3] == lc.pfl
    for i in (1, 2, 3, 5, 6):
        versor = hr_versor(pts[4], pts[i])
        assert np.allclose(lc.rows[i - 1], modified_jacobian(default_model, q, versor, i), atol=1e-12)
        sep = max(0.0, np.linalg.norm(pts[4] - pts[i]) - params.human_radius)
        assert abs(lc.ssm[i - 1] - ssm_limit(params, sep, float(velocity @ -versor), T_R)) < 1e-12


def test_safety_params_validation():
    with pytest.raises(ValueError):
        SafetyParams(a_max=0.0)
    with pytest.raises(ValueError):
        SafetyParams(C=-0.1)
