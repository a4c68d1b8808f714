import dataclasses
import json
import math

import numpy as np
import pytest

from handover_sim import harness
from handover_sim.detector.curves import LoadCurveParams
from handover_sim.harness import (
    FAILED_RELEASE,
    PREMATURE_DROP,
    SUCCESS,
    EpisodeSensor,
    Scenario,
    _HandPath,
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
from handover_sim.kinematics import forward_kinematics
from handover_sim.safety import HumanState, SafetyParams, apparent_mass, link_constraints
from handover_sim.trajectory import fit_cubic_spline, plan_quintic, sample_spline


def human_motion(scenario: Scenario, t: float) -> HumanState:
    return _HandPath(scenario).state(t)


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

def test_static_hand():
    sc = Scenario(handover_hand_pose=(0.5, -0.4, 0.5))
    state = human_motion(sc, 1.0)
    assert np.allclose(state.hand_position, [0.5, -0.4, 0.5])
    assert np.allclose(state.hand_velocity, 0.0)


def test_waypoint_speed():
    sc = Scenario(hand_motion=((0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0)))
    state = human_motion(sc, 0.5)
    assert np.allclose(state.hand_velocity, [0.5, 0.0, 0.0])
    assert np.allclose(state.hand_position, [0.25, 0.0, 0.0])
    # at rest beyond the last waypoint
    assert np.allclose(human_motion(sc, 2.0).hand_velocity, 0.0)


def test_velocity_integrates_to_displacement():
    sc = Scenario(
        hand_motion=((0.0, 0.0, 0.0, 0.0), (0.5, 0.2, -0.1, 0.3), (1.5, -0.1, 0.4, 0.1))
    )
    dt = 1e-3
    pos = np.array(human_motion(sc, 0.0).hand_position)
    for k in range(1500):
        vel = human_motion(sc, k * dt).hand_velocity
        pos = pos + vel * dt
    expected = human_motion(sc, 1.5).hand_position
    assert np.abs(pos - expected).max() < 1e-9


# ---------------------------------------------------------------------------
# simulated sensor

def test_sensor_gravity_hold():
    curve = LoadCurveParams(f_L0=9.81, engagement_time=1.0, noise_sigma=0.0, seed=0)
    sensor = EpisodeSensor(curve, 2.0, 500.0)
    wrench = sensor.reading(250, gripper_open=False)  # t = 0.5 s
    assert abs(wrench[2] + 9.81) < 1e-12
    assert np.allclose(wrench[3:], 0.0)


def test_object_mass_maps_to_weight():
    sc = Scenario(object_mass=1.0, load_curve={"noise_sigma": 0.0})
    assert abs(sc.curve_params().f_L0 - 9.81) < 1e-12


def test_sensor_noise_only_after_release():
    curve = LoadCurveParams(f_L0=9.81, engagement_time=1.0, noise_sigma=0.02, seed=1)
    sensor = EpisodeSensor(curve, 2.0, 500.0)
    held = sensor.reading(250, gripper_open=False)
    released = sensor.reading(250, gripper_open=True)
    assert abs(held[2] + 9.81) < 0.2
    assert abs(released[2]) < 0.2  # load gone within the same sample


def test_sensor_rejects_non_finite_trace():
    # the one finiteness check of the wrench the admittance law reads
    curve = LoadCurveParams(f_L0=5.0, engagement_time=1.0, disturbance_events=((0.5, np.nan, 0.1),))
    with pytest.raises(ValueError, match="finite"):
        EpisodeSensor(curve, 2.0, 500.0)


def test_sensor_no_object_is_pure_noise():
    curve = LoadCurveParams(f_L0=5.0, engagement_time=1.0, noise_sigma=0.05, seed=2)
    sensor = EpisodeSensor(curve, 2.0, 500.0)
    readings = np.array([sensor.reading(k, True) for k in range(900)])
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
    assert np.linalg.norm(forward_kinematics(default_model, q).position - target) < 1e-8


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
    m_r = apparent_mass(model)
    params = SafetyParams(**sc.safety)
    hand = np.asarray(sc.handover_hand_pose)
    q_cols = [cols.index(f"q{i}") for i in range(6)]
    u_cols = [cols.index(f"u{i}") for i in range(6)]
    for k in range(0, res.metrics.cycles, 10):
        lc = link_constraints(model, data[k, q_cols], HumanState(hand, np.zeros(3)), params, m_r)
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
    spline = fit_cubic_spline(plan_quintic(grasp, end_q, plan_T, sc.control_rate))
    x_cols = [cols.index(c) for c in ("x", "y", "z")]
    worst = 0.0
    for k in range(res.metrics.cycles):
        if data[k, cols.index("gripper")] > 0:
            break  # retreat replans the reference
        q_des = sample_spline(spline, data[k, cols.index("s")])[0]
        x_des = forward_kinematics(model, q_des).position
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
    with pytest.raises(ValueError, match="control_rate"):
        Scenario(safety={"T_r": 0.001})
    with pytest.raises(TypeError):
        Scenario(sensor_rate=500.0)


def test_scenario_rejects_unknown_nested_keys():
    # every nested dict accepts the keys of what reads it, and nothing else
    Scenario(
        safety={"a_max": 1.0, "human_radius": 0.12},
        pd_gains={"kp": 5.0, "kd": 0.2},
        admittance={"mass": 6.0, "k_rot": 10.0},
        load_curve={"f_L0": 4.0, "noise_sigma": 0.0, "seed": 2},
    )
    for name, key in [("safety", "a_maxx"), ("pd_gains", "kpp"), ("admittance", "M"), ("load_curve", "noise")]:
        with pytest.raises(ValueError, match=rf"{name}\.{key}\b"):
            Scenario(**{name: {key: 1.0}})


def test_scenario_builds_episode_parameters_once(monkeypatch):
    sc = quick_scenario(control_rate=1000.0, safety={"a_max": 1.0}, admittance={"mass": 6.0},
                        load_curve={"noise_sigma": 0.0})
    assert sc.safety_params == SafetyParams(a_max=1.0, T_r=0.001)
    assert sc.admittance_params.M[0, 0] == 6.0 and sc.admittance_params.K[0, 0] == 400.0
    assert sc.curve_params() is sc.curve_params() and sc.curve_params().noise_sigma == 0.0
    assert dataclasses.replace(sc, control_rate=500.0).safety_params.T_r == 0.002
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


def test_reaction_time_follows_control_rate():
    # the safety reaction term T_r is one control period: at 1 kHz the first
    # logged SSM limit is the one link_constraints gives for T_r = 1 ms
    sc = quick_scenario(control_rate=1000.0, hand_motion=((0.0, 0.9, -0.2, 0.6), (1.0, 0.65, -0.45, 0.55)))
    res = run_handover(sc)
    model = default_manipulator(payload_mass=sc.object_mass)
    q0 = np.asarray(sc.grasp_q)
    human = human_motion(sc, 0.0)

    def first_ssm(T_r):
        return link_constraints(model, q0, human, SafetyParams(T_r=T_r), apparent_mass(model)).ssm.min()

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
