import bisect
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handover_sim import harness
from handover_sim.admittance import AdmittanceParams
from handover_sim.detector.curves import LoadCurveParams, generate_handover_sequence
from handover_sim.detector.training import TrainingConfig
from handover_sim.harness import (
    FAILED_RELEASE,
    PREMATURE_DROP,
    SUCCESS,
    Scenario,
    _hand_path,
    evaluate_batch,
    limit_respecting_duration,
    make_batch_scenarios,
    pd_controller,
    position_ik,
    run_handover,
    write_batch_csvs,
    write_episode_csv,
)
from handover_sim.config import default_manipulator
from handover_sim.kinematics import chain_frames
from handover_sim.safety import HumanState, SafetyParams, apparent_mass, link_constraints, pfl_limit
from handover_sim.trajectory import fit_cubic_spline, plan_quintic, sample_spline


def quick_scenario(**kwargs):
    defaults = dict(
        release="threshold",
        plan_duration=1.6,
        receiver_engagement_time=2.2,
        retreat_duration=0.6,
        release_timeout=0.6,
        episode_tail=0.1,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


# ---------------------------------------------------------------------------
# scripted hand

def oracle_hand(scenario: Scenario):
    """The hand's state at time t by the scalar formula the per-cycle engine
    used: bisect over the sorted waypoint times, at rest before the first and
    after the last."""
    if not scenario.hand_motion:
        times, points = [0.0], np.array([scenario.handover_hand_pose], dtype=float)
    else:
        rows = np.asarray(scenario.hand_motion, dtype=float)
        rows = rows[np.argsort(rows[:, 0])]
        times, points = rows[:, 0].tolist(), rows[:, 1:]
    steps = np.diff(times)[:, None]
    velocities = (points[1:] - points[:-1]) / np.where(steps > 0.0, steps, 1.0)

    def state(t: float) -> tuple[np.ndarray, np.ndarray]:
        if len(times) == 1 or t < times[0]:
            return points[0], np.zeros(3)
        if t >= times[-1]:
            return points[-1], np.zeros(3)
        idx = bisect.bisect_right(times, t) - 1
        vel = velocities[idx]
        return points[idx] + vel * (t - times[idx]), vel

    return state


def test_static_hand():
    pos, vel = _hand_path(Scenario(handover_hand_pose=(0.5, -0.4, 0.5)), 1000, 0.002)
    assert np.all(pos == [0.5, -0.4, 0.5])
    assert np.all(vel == 0.0)


def test_waypoint_speed():
    sc = Scenario(hand_motion=((0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0)))
    pos, vel = _hand_path(sc, 1001, 0.002)
    assert np.allclose(vel[250], [0.5, 0.0, 0.0])   # t = 0.5 s
    assert np.allclose(pos[250], [0.25, 0.0, 0.0])
    # at rest beyond the last waypoint
    assert np.all(vel[1000] == 0.0)


def test_velocity_integrates_to_displacement():
    sc = Scenario(
        hand_motion=((0.0, 0.0, 0.0, 0.0), (0.5, 0.2, -0.1, 0.3), (1.5, -0.1, 0.4, 0.1))
    )
    dt = 1e-3
    pos, vel = _hand_path(sc, 1501, dt)
    assert np.abs(pos[0] + vel[:1500].sum(axis=0) * dt - pos[1500]).max() < 1e-9
    assert np.all(pos[1500] == [-0.1, 0.4, 0.1])


_waypoint_time = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 2.5))
_coordinate = st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(_waypoint_time, _coordinate, _coordinate, _coordinate), max_size=5),
    rate=st.sampled_from([250.0, 500.0, 1000.0]),
)
@example(rows=[], rate=500.0)                                     # rests at handover_hand_pose
@example(rows=[(1.0, 0.1, 0.2, 0.3)], rate=1000.0)                 # one waypoint
@example(rows=[(2.0, 0.0, 0.0, 0.0), (0.5, 1.0, 0.0, 0.0), (1.25, 0.0, 1.0, 0.0)], rate=250.0)  # unsorted
@example(rows=[(0.5, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0), (1.5, 0.0, 0.0, 1.0)],
         rate=500.0)                                              # equal times
def test_hand_path_matches_scalar_oracle(rows, rate):
    # single, unsorted and equal-time waypoints; cycles before the first and
    # after the last: every cycle's state equals the oracle's, bit for bit
    sc = Scenario(hand_motion=tuple(rows))
    cycles = int(3.0 * rate)
    T_r = 1.0 / rate
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        state = oracle_hand(sc)
        expected = [state(k * T_r) for k in range(cycles)]
        pos = np.array([p for p, _ in expected])
        vel = np.array([v for _, v in expected])
        if not (np.isfinite(pos).all() and np.isfinite(vel).all()):
            # waypoints a subnormal time apart: the hand's speed overflows
            with pytest.raises(ValueError, match="human state must be finite"):
                _hand_path(sc, cycles, T_r)
            return
        got_pos, got_vel = _hand_path(sc, cycles, T_r)
    assert got_pos.tobytes() == pos.tobytes()
    assert got_vel.tobytes() == vel.tobytes()


def test_overflowing_hand_path_rejected_before_first_cycle(monkeypatch):
    # finite waypoints whose difference overflows: the hand's speed is inf
    calls = []
    monkeypatch.setattr(harness, "HumanState", lambda *a: calls.append(a) or HumanState(*a))
    sc = quick_scenario(hand_motion=((0.0, -1e308, 0.0, 0.5), (1.0, 1e308, 0.0, 0.5)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="human state must be finite"):
        run_handover(sc)
    assert calls == []


# ---------------------------------------------------------------------------
# simulated sensor: the generated trace run_handover reads, wrench while the
# gripper holds the object and noise after it opens

def test_sensor_gravity_hold():
    curve = LoadCurveParams(f_L0=9.81, engagement_time=1.0, noise_sigma=0.0, seed=0)
    wrench = generate_handover_sequence(curve, 2.0, 500.0).wrench[250]  # t = 0.5 s
    assert abs(wrench[2] + 9.81) < 1e-12
    assert np.allclose(wrench[3:], 0.0)


def test_object_mass_maps_to_weight():
    sc = Scenario(object_mass=1.0, load_curve={"noise_sigma": 0.0})
    assert abs(sc.curve_params().f_L0 - 9.81) < 1e-12


def test_sensor_noise_only_after_release():
    curve = LoadCurveParams(f_L0=9.81, engagement_time=1.0, noise_sigma=0.02, seed=1)
    trace = generate_handover_sequence(curve, 2.0, 500.0)
    held = trace.wrench[250]
    released = trace.noise[250]
    assert abs(held[2] + 9.81) < 0.2
    assert abs(released[2]) < 0.2  # load gone within the same sample


def test_sensor_rejects_non_finite_trace():
    # the one finiteness check of the wrench the admittance law reads: finite
    # parameters whose load and pulse add past the float range
    curve = LoadCurveParams(f_L0=1e308, engagement_time=1.0, disturbance_events=((0.5, -1e308, 0.1),))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        generate_handover_sequence(curve, 2.0, 500.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        run_handover(quick_scenario(object_mass=1e307, disturbances=((0.5, -1e308, 0.1),)))


def test_sensor_no_object_is_pure_noise():
    curve = LoadCurveParams(f_L0=5.0, engagement_time=1.0, noise_sigma=0.05, seed=2)
    readings = generate_handover_sequence(curve, 2.0, 500.0).noise[:900]
    assert abs(readings.mean()) < 0.02
    assert readings.std() < 0.1


# ---------------------------------------------------------------------------
# PD baseline controller

def test_pd_zero_error_passthrough():
    qd = pd_controller(np.zeros(3), np.array([0.1, 0.2, 0.3]), np.zeros(3), np.array([0.1, 0.2, 0.3]), 20.0, 0.1)
    assert np.allclose(qd, [0.1, 0.2, 0.3])


def test_pd_pure_position_term():
    e = np.array([0.05, -0.02])
    qd = pd_controller(e, np.zeros(2), np.zeros(2), np.zeros(2), 10.0, 0.0)
    assert np.allclose(qd, 10.0 * e)


def test_pd_discrete_step_converges():
    # one-joint ideal velocity plant, constant reference: error contracts to 0
    q, qd_meas = 0.0, 0.0
    T = 0.002
    for _ in range(2000):
        u = float(pd_controller(np.array([1.0]), np.zeros(1), np.array([q]), np.array([qd_meas]), 20.0, 0.1)[0])
        q += u * T
        qd_meas = u
    assert abs(q - 1.0) < 1e-6
    assert abs(qd_meas) < 1e-6


def test_pd_rejects_bad_gains():
    # the scenario checks the gains once; the controller is plain arithmetic
    for gains in ({"kp": 0.0}, {"kp": -1.0}, {"kd": -0.1}, {"kp": "stiff"}):
        with pytest.raises(ValueError, match="pd_gains"):
            Scenario(pd_gains=gains)
    sc = Scenario(pd_gains={"kp": 5, "kd": 0})
    assert (sc.pd_kp, sc.pd_kd) == (5.0, 0.0)
    assert (Scenario().pd_kp, Scenario().pd_kd) == (20.0, 0.1)


# ---------------------------------------------------------------------------
# IK and plan-duration helpers

def test_position_ik_reaches_target(default_model):
    grasp = np.array([1.57, -1.0, 1.2, -1.77, -1.57, 0.0])
    target = np.array([0.6, -0.4, 0.5])
    q = position_ik(default_model, target, grasp, tol=1e-9)
    assert np.linalg.norm(chain_frames(default_model, q).tool - target) < 1e-8


def test_position_ik_unreachable_raises(default_model):
    with pytest.raises(ValueError, match="unreachable|converge"):
        position_ik(default_model, [5.0, 5.0, 5.0], np.zeros(6))


def test_limit_respecting_duration(default_model):
    delta = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    T = limit_respecting_duration(default_model, delta, 0.1)
    peak_vel = 1.875 * 2.0 / T
    peak_acc = 5.7735 * 2.0 / T**2
    assert peak_vel <= default_model.q_dot_max[0] / 1.05
    assert peak_acc <= default_model.q_ddot_max[0] / 1.9
    # a generous request is honored unchanged
    assert limit_respecting_duration(default_model, delta * 0.01, 5.0) == 5.0


# ---------------------------------------------------------------------------
# full episodes

def test_unconstrained_approach_runs_at_nominal_timing():
    # hand far away: no scaling, trajectory tracks nominal time within a cycle
    sc = quick_scenario(handover_hand_pose=(0.65, -0.45, 0.55))
    far = dataclasses.replace(sc, hand_motion=((0.0, 3.0, 3.0, 2.0),))
    res = run_handover(far)
    cols = res.log.columns
    data = res.log.data
    alpha = data[:, cols.index("alpha")]
    approach = data[:, cols.index("t")] <= sc.plan_duration
    assert np.all(alpha[approach] == 1.0)
    s = data[:, cols.index("s")]
    t = data[:, cols.index("t")]
    lag = np.abs(s[approach] - np.minimum(t[approach] + 1.0 / sc.control_rate, sc.plan_duration))
    assert lag.max() <= 1.0 / sc.control_rate + 1e-9


def test_hand_near_path_respects_contact_floor():
    sc = quick_scenario()
    res = run_handover(sc)
    cols = res.log.columns
    data = res.log.data
    assert res.metrics.safety_violations == 0
    # the separation-monitoring limit hits zero at the hand, yet the contact
    # floor lets the robot finish the handover instead of stopping
    ssm = data[:, cols.index("ssm")]
    pfl = data[:, cols.index("pfl")]
    assert np.any(ssm < pfl)
    assert ssm.min() == 0.0
    assert res.metrics.min_separation <= 0.005
    # per-link compliance, re-derived from the logged state
    model = default_manipulator(payload_mass=sc.object_mass)
    params = SafetyParams(**sc.safety)
    pfl = pfl_limit(params, apparent_mass(model))
    hand = np.asarray(sc.handover_hand_pose)
    q_cols = [cols.index(f"q{i}") for i in range(6)]
    u_cols = [cols.index(f"u{i}") for i in range(6)]
    for k in range(0, res.metrics.cycles, 10):
        frames = chain_frames(model, data[k, q_cols])
        lc = link_constraints(frames, HumanState(hand, np.zeros(3)), params, 1.0 / sc.control_rate, pfl)
        directed = lc.rows @ data[k, u_cols]
        assert np.all(directed <= lc.v_max + 1e-6)


def test_threshold_episode_success_and_outcome_fields():
    res = run_handover(quick_scenario(seed=3))
    m = res.metrics
    assert m.outcome == SUCCESS
    assert m.release_fraction >= 0.9
    assert not math.isnan(m.release_time)
    assert m.cycles > 0 and m.cycle_time_mean > 0.0
    assert m.cycle_time_mean <= m.cycle_time_max and m.cycle_time_p99 <= m.cycle_time_max
    # a miss is a cycle over 1/control_rate: none iff the slowest one fits
    budget = 1.0 / res.scenario.control_rate
    assert 0 <= m.deadline_misses <= m.cycles
    assert (m.deadline_misses == 0) == (m.cycle_time_max <= budget)
    if m.cycle_time_p99 > budget:  # then the slowest 1% of cycles all miss
        assert m.deadline_misses >= m.cycles // 100


def test_threshold_baseline_succeeds_at_every_rate():
    # the hold and the calibration are durations: a fixed 25-sample hold was
    # 25 ms at 1 kHz and released before 90% of the load had passed
    releases = []
    for rate in (250.0, 500.0, 1000.0):
        m = run_handover(Scenario(release="threshold", control_rate=rate)).metrics
        assert m.outcome == SUCCESS, (rate, m.outcome, m.release_fraction)
        releases.append(m.release_time)
    assert max(releases) - min(releases) < 0.01, releases


def test_failed_release_outcome():
    # theta so strict the threshold can never fire
    sc = quick_scenario(load_curve={"noise_sigma": 0.3})
    sc = dataclasses.replace(sc, object_mass=0.001)  # load buried in noise
    res = run_handover(sc)
    assert res.metrics.outcome == FAILED_RELEASE
    assert math.isnan(res.metrics.release_time)


def test_premature_drop_outcome():
    # cancelling pulse during the pre-handover hold defeats the baseline
    sc = quick_scenario(
        seed=11,
        disturbances=((1.0, 9.81, 0.15),),
        object_mass=1.0,
    )
    res = run_handover(sc)
    assert res.metrics.outcome == PREMATURE_DROP
    assert res.metrics.release_fraction < 0.9
    assert res.metrics.release_time < sc.receiver_engagement_time


def test_compliance_corridor():
    # without disturbances the deviation from the reference stays within the
    # static-compliance bound of the constant payload force plus margin
    sc = quick_scenario(seed=4, object_mass=1.0, load_curve={"noise_sigma": 0.0})
    res = run_handover(sc)
    cols = res.log.columns
    data = res.log.data
    grasp = np.asarray(sc.grasp_q)
    model = default_manipulator(payload_mass=sc.object_mass)
    end_q = position_ik(model, sc.handover_hand_pose, grasp, tol=1e-8)
    plan_T = limit_respecting_duration(model, end_q - grasp, sc.plan_duration)
    seg = fit_cubic_spline(*plan_quintic(grasp, end_q, plan_T))
    x_cols = [cols.index(c) for c in ("x", "y", "z")]
    worst = 0.0
    for k in range(res.metrics.cycles):
        if data[k, cols.index("gripper")] > 0:
            break  # retreat replans the reference
        q_des = sample_spline(seg, data[k, cols.index("s")])[0]
        x_des = chain_frames(model, q_des).tool
        worst = max(worst, float(np.linalg.norm(data[k, x_cols] - x_des)))
    bound = (sc.object_mass * 9.81 + 3.0) / 400.0  # payload + pull, K_trans
    assert worst < 1.5 * bound + 0.01


def test_episode_determinism_bitwise(tmp_path):
    sc = quick_scenario(seed=21, disturbances=((1.0, 4.0, 0.12),))
    a = run_handover(sc)
    b = run_handover(sc)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_episode_csv(a, pa)
    write_episode_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_network_release_requires_weights():
    with pytest.raises(ValueError, match="network"):
        run_handover(quick_scenario(release="network"))


def test_scenario_round_trip_and_validation():
    sc = quick_scenario(seed=5, disturbances=((1.0, 2.0, 0.1),), hand_motion=((0.0, 0.9, -0.2, 0.6),))
    data = sc.to_dict()
    assert list(data) == [f.name for f in dataclasses.fields(Scenario)]
    assert Scenario(**json.loads(json.dumps(data))) == sc  # what simulate/compare manifests hold
    with pytest.raises(ValueError):
        Scenario(controller="mpc")
    with pytest.raises(ValueError):
        Scenario(release="oracle")
    with pytest.raises(ValueError):
        Scenario(control_rate=0.0)
    with pytest.raises(ValueError, match="grasp_q"):
        Scenario(grasp_q=(0, 0, 0))
    with pytest.raises(TypeError):
        Scenario(sensor_rate=500.0)


def test_scenario_rejects_unknown_nested_keys():
    # every nested dict accepts the keys of what reads it, and nothing else
    Scenario(
        safety={"a_max": 1.0, "human_radius": 0.12},
        pd_gains={"kp": 5.0, "kd": 0.2},
        admittance={"mass": 6.0, "k_rot": 10.0},
        load_curve={"f_L0": 4.0, "noise_sigma": 0.0},
    )
    for name, key in [("safety", "a_maxx"), ("safety", "T_r"), ("pd_gains", "kpp"), ("admittance", "M"),
                      ("load_curve", "noise")]:
        with pytest.raises(ValueError, match=rf"{name}\.{key}\b"):
            Scenario(**{name: {key: 1.0}})


def test_scenario_builds_episode_parameters_once(monkeypatch):
    sc = quick_scenario(control_rate=1000.0, safety={"a_max": 1.0}, admittance={"mass": 6.0},
                        load_curve={"noise_sigma": 0.0})
    assert sc.safety_params == SafetyParams(a_max=1.0)
    assert sc.admittance_params == AdmittanceParams(mass=6.0)
    assert sc.curve_params() is sc.curve_params() and sc.curve_params().noise_sigma == 0.0
    for name, values in [
        ("safety", {"a_max": -1.0}),
        ("admittance", {"mass": -1.0}),
        ("load_curve", {"f_L0": -1.0}),
        ("load_curve", {"noise_sigma": "loud"}),
    ]:
        with pytest.raises(ValueError, match=f"scenario {name}"):
            Scenario(**{name: values})
    with pytest.raises(ValueError, match="engagement"):
        Scenario(load_curve={"dwell_after_transfer": -5.0})
    # an episode only reads what the scenario built
    sc = quick_scenario()
    for name in ("SafetyParams", "AdmittanceParams", "LoadCurveParams"):
        monkeypatch.setattr(harness, name, None)
    assert run_handover(sc).metrics.outcome == SUCCESS


# Every float field of every parameter type, read off the dataclasses, so a
# field added later is covered without editing this list.
_REQUIRED = {LoadCurveParams: {"f_L0": 5.0}}
_FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (Scenario, SafetyParams, AdmittanceParams, LoadCurveParams, harness._PDGains, TrainingConfig)
    for f in dataclasses.fields(cls)
    if f.init and f.type in ("float", float)
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", _FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in _FLOAT_FIELDS])
def test_every_float_field_rejects_non_finite(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{**_REQUIRED.get(cls, {}), name: value})


def test_reaction_time_follows_control_rate():
    # the safety reaction term T_r is one control period: at 1 kHz the first
    # logged SSM limit is the one link_constraints gives for T_r = 1 ms
    sc = quick_scenario(control_rate=1000.0, hand_motion=((0.0, 0.9, -0.2, 0.6), (1.0, 0.65, -0.45, 0.55)))
    res = run_handover(sc)
    model = default_manipulator(payload_mass=sc.object_mass)
    q0 = np.asarray(sc.grasp_q)
    hand_pos, hand_vel = _hand_path(sc, 1, 1.0 / sc.control_rate)
    human = HumanState(hand_pos[0], hand_vel[0])

    def first_ssm(T_r):
        frames = chain_frames(model, q0)
        pfl = pfl_limit(SafetyParams(), apparent_mass(model))
        return link_constraints(frames, human, SafetyParams(), T_r, pfl).ssm.min()

    logged = res.log.data[0, res.log.columns.index("ssm")]
    assert logged == first_ssm(0.001)
    assert logged != first_ssm(0.002)


# ---------------------------------------------------------------------------
# batch evaluation

def test_identical_arms_paired_metrics():
    base = quick_scenario(seed=31)
    scenarios = make_batch_scenarios(base, 3, seed=5, disturbed=False)
    arms = {"a": ("admittance", "threshold"), "b": ("admittance", "threshold")}
    batch = evaluate_batch(scenarios, arms=arms)
    by_arm = {}
    for arm, idx, m in batch.episodes:
        by_arm.setdefault(arm, []).append((idx, m.outcome, m.release_time, m.min_separation))
    assert by_arm["a"] == by_arm["b"]


def test_batch_csv_outputs(tmp_path):
    base = quick_scenario(seed=8)
    scenarios = make_batch_scenarios(base, 2, seed=9, disturbed=False)
    batch = evaluate_batch(scenarios, arms={"baseline": ("pd", "threshold")})
    episodes_csv = tmp_path / "episodes.csv"
    summary_csv = tmp_path / "summary.csv"
    write_batch_csvs(batch, episodes_csv, summary_csv)
    lines = summary_csv.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("arm,episodes,successes")
    assert len(episodes_csv.read_text().strip().splitlines()) == 3


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        evaluate_batch([])


def test_batch_scenarios_deterministic():
    base = quick_scenario()
    a = make_batch_scenarios(base, 5, seed=13)
    b = make_batch_scenarios(base, 5, seed=13)
    assert a == b


# Outcomes of the first four criterion-1 episodes, recorded before the control
# cycle was restructured for speed: any change to the engine's arithmetic that
# moves a release or a violation shows up here long before criterion 1 runs.
CRITERION_1_HEAD = [
    # (outcome, release cycle, cycles, safety violations, infeasible cycles)
    (SUCCESS, 1216, 1776, 0, 0),
    (PREMATURE_DROP, 572, 1124, 0, 0),
    (PREMATURE_DROP, 784, 1353, 0, 0),
    (PREMATURE_DROP, 803, 1340, 0, 0),
]


def test_criterion_1_head_episodes_pinned():
    from test_acceptance import acceptance_scenario

    scenarios = make_batch_scenarios(acceptance_scenario(), 60, seed=2024)[:4]
    got = []
    for sc in scenarios:
        m = run_handover(sc).metrics
        release_cycle = -1 if math.isnan(m.release_time) else int(round(m.release_time * sc.control_rate))
        got.append((m.outcome, release_cycle, m.cycles, m.safety_violations, m.infeasible_cycles))
    assert got == CRITERION_1_HEAD
