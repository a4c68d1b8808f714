"""Acceptance suite: every exit criterion, one test each, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS line per criterion.
The trained-classifier fixture is shared with the rest of the session and
takes a few minutes on first use.
"""

import json
import math
import time

import numpy as np
import pytest

from handover_sim.admittance import AdmittanceParams, admittance_accel
from handover_sim.cli import EXIT_OK, main
from handover_sim.detector import (
    RELEASE,
    ReleaseMonitor,
    ThresholdReleaseMonitor,
    evaluate_accuracy,
    generate_handover_sequence,
    sample_curve_params,
)
from handover_sim.harness import Scenario, evaluate_batch, make_batch_scenarios, run_handover
from handover_sim.kinematics import Pose, forward_kinematics, jacobian, jacobian_dot
from handover_sim.safety import SafetyParams, optimal_alpha, pfl_limit, ssm_limit

from test_admittance import _closed_loop
from test_detector_network import small_net
from test_kinematics import jacobian_fd
from test_safety import _random_instance, grid_alpha, satisfies


def acceptance_scenario(**kwargs) -> Scenario:
    defaults = dict(
        release="threshold",
        plan_duration=1.6,
        receiver_engagement_time=2.2,
        retreat_duration=0.8,
        release_timeout=0.8,
        episode_tail=0.1,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


# ---------------------------------------------------------------------------

def test_criterion_1_safety_compliance_across_episodes():
    scenarios = make_batch_scenarios(acceptance_scenario(), 60, seed=2024, disturbed=True)
    start = time.perf_counter()
    violations = 0
    cycles = 0
    min_sep = math.inf
    for scenario in scenarios:
        metrics = run_handover(scenario).metrics
        violations += metrics.safety_violations
        cycles += metrics.cycles
        min_sep = min(min_sep, metrics.min_separation)
    elapsed = time.perf_counter() - start
    # cycles and cost per cycle tell a slow machine from a slow engine
    per_cycle = f"{cycles} cycles at {elapsed / cycles * 1e6:.0f} us/cycle"
    assert violations == 0, f"{violations} directed-speed violations"
    assert elapsed <= 60.0, f"runtime {elapsed:.1f} s exceeds 60 s ({per_cycle})"
    assert min_sep <= 0.01  # the episodes genuinely reach the hand
    _report(1, f"0 violations over 60 episodes in {elapsed:.1f} s, {per_cycle} "
               f"(min separation {min_sep:.3f} m)")


def test_criterion_2_ssm_boundary_and_value():
    p = SafetyParams(a_max=2.0, T_r=0.1, C=0.03, Z_d=0.02, Z_r=0.01)
    boundary = ssm_limit(p, 0.06, 0.0)
    assert abs(boundary) <= 1e-9
    p0 = SafetyParams(a_max=2.0, T_r=0.1, C=0.0, Z_d=0.0, Z_r=0.0)
    value = ssm_limit(p0, 1.0, 0.0)
    assert abs(value - 1.8100) <= 1e-3
    _report(2, f"boundary limit {boundary:.1e}, 1 m limit {value:.4f} m/s")


def test_criterion_3_pfl_value():
    p = SafetyParams(F_max=140.0, k_spring=75000.0, m_h=0.6)
    mu = 1.0 / (1.0 / 16.0 + 1.0 / 0.6)        # independent scalar evaluation
    oracle = 140.0 / math.sqrt(mu * 75000.0)
    value = pfl_limit(p, 16.0)
    assert abs(value - oracle) <= 1e-12
    assert abs(value - 0.672) <= 1e-3
    _report(3, f"contact-speed limit {value:.4f} m/s (oracle {oracle:.4f})")


def test_criterion_4_alpha_matches_grid_and_is_less_conservative():
    rng = np.random.default_rng(20240)
    feasible_checked = 0
    for _ in range(1000):
        inst = _random_instance(rng)
        res = optimal_alpha(**inst)
        best = grid_alpha(inst)
        if res.feasible:
            assert satisfies(inst, res.alpha)
            if best is not None:
                assert abs(res.alpha - best) < 1e-3
                assert res.alpha >= best - 1e-9
                feasible_checked += 1
        else:
            assert best is None
        # combining the paradigms never scales harder than either alone
        ssm = rng.uniform(0.0, 1.5, len(inst["v_max_per_link"]))
        pfl = float(rng.uniform(0.1, 1.0))
        alphas = {}
        for key, v_max in (("combined", np.maximum(ssm, pfl)),
                           ("ssm", ssm),
                           ("pfl", np.full_like(ssm, pfl))):
            variant = dict(inst)
            variant["v_max_per_link"] = v_max
            alphas[key] = optimal_alpha(**variant).alpha
        assert alphas["combined"] >= alphas["ssm"] - 1e-12
        assert alphas["combined"] >= alphas["pfl"] - 1e-12
    assert feasible_checked >= 500
    _report(4, f"grid-search agreement on {feasible_checked} feasible of 1000 instances")


def test_criterion_5_kinematic_oracles(default_model):
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst_j = worst_jd = worst_orth = 0.0
    for _ in range(1000):
        q = rng.uniform(-np.pi, np.pi, 6)
        q_dot = rng.uniform(-1.5, 1.5, 6)
        pose = forward_kinematics(default_model, q)
        worst_orth = max(worst_orth, float(np.abs(pose.rotation @ pose.rotation.T - np.eye(3)).max()))
        worst_j = max(worst_j, float(np.abs(jacobian(default_model, q) - jacobian_fd(default_model, q)).max()))
        fd = (jacobian(default_model, q + q_dot * 1e-6) - jacobian(default_model, q)) / 1e-6
        worst_jd = max(worst_jd, float(np.abs(jacobian_dot(default_model, q, q_dot) - fd).max()))
    elapsed = time.perf_counter() - start
    assert worst_j <= 1e-5
    assert worst_jd <= 1e-4
    assert worst_orth <= 1e-9
    assert elapsed < 10.0
    _report(5, f"1000 configs in {elapsed:.1f} s: J err {worst_j:.1e}, Jdot err {worst_jd:.1e}, "
               f"orthonormality {worst_orth:.1e}")


def test_criterion_6_admittance_contracts(default_model):
    _, tracking_err, _ = _closed_loop(default_model, lambda t: np.zeros(6))
    assert tracking_err <= 1e-3

    # static offset within 1% of K^-1 F after settling
    params = AdmittanceParams.diagonal()
    force = np.array([12.0, -8.0, 5.0])
    from handover_sim.kinematics import damped_pinv
    from handover_sim.admittance import integrate_velocity

    start = np.array([1.57, -1.0, 1.2, -1.77, -1.57, 0.0])
    ref = forward_kinematics(default_model, start)
    q, qd = start.copy(), np.zeros(6)
    for _ in range(1500):
        x = forward_kinematics(default_model, q)
        J = jacobian(default_model, q)
        xd = J @ qd
        acc = admittance_accel(params, ref, np.zeros(6), np.zeros(6), x, xd,
                               np.concatenate((force, np.zeros(3))))
        qd = damped_pinv(J, 1e-3) @ integrate_velocity(acc, xd, 1.0 / 500.0)
        q = q + qd / 500.0
    offset = ref.position - forward_kinematics(default_model, q).position
    expected = force / 400.0
    offset_err = float(np.linalg.norm(offset - expected) / np.linalg.norm(expected))
    assert offset_err <= 0.01

    # linearity of the acceleration in the external wrench
    x_des = Pose([0.1, 0.0, 0.2], np.eye(3))
    x = Pose([0.08, 0.01, 0.21], np.eye(3))
    rng = np.random.default_rng(0)
    F1 = rng.normal(size=6)
    F2 = rng.normal(size=6)

    def accel(F):
        return admittance_accel(params, x_des, np.zeros(6), np.zeros(6), x, np.zeros(6), F)

    base = accel(np.zeros(6))
    lin_err = float(np.abs(
        (accel(F1 + F2) - base)
        - ((accel(F1) - base) + (accel(F2) - base))
    ).max())
    assert lin_err <= 1e-12
    _report(6, f"terminal tracking {tracking_err:.1e} rad, static offset error "
               f"{offset_err * 100:.2f}%, linearity residual {lin_err:.1e}")


def test_criterion_7_detector_training(trained_detector):
    # analytic gradients against central finite differences on a small net
    from handover_sim.detector import backward_batch, bce_loss, bce_output_grad, forward_batch, one_hot

    net = small_net()
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 3, 3))
    Y = one_hot(np.array([0, 1, 1, 0]))
    y_hat, cache = forward_batch(net, X)
    grads = backward_batch(net, cache, bce_output_grad(Y, y_hat))
    eps = 1e-5
    worst = 0.0
    for name, arr in net.arrays().items():
        g_fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = bce_loss(Y, forward_batch(net, X)[0])
            arr[idx] = orig - eps
            lm = bce_loss(Y, forward_batch(net, X)[0])
            arr[idx] = orig
            g_fd[idx] = (lp - lm) / (2 * eps)
        rel = np.abs(grads[name] - g_fd) / np.maximum(np.abs(grads[name]) + np.abs(g_fd), 1e-7)
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-4

    # desk-scale training quality and budget
    assert trained_detector.net.hidden == 64
    assert len(trained_detector.val_set) >= 10_000
    assert trained_detector.train_seconds <= 600.0
    accuracy = evaluate_accuracy(trained_detector.net, trained_detector.val_set)
    assert accuracy >= 0.95
    _report(7, f"gradient check {worst:.1e}; H=64 net reaches {accuracy * 100:.2f}% on "
               f"{len(trained_detector.val_set)} held-out windows "
               f"(trained in {trained_detector.train_seconds:.0f} s)")


def test_criterion_8_architecture_comparison(trained_detector):
    scenarios = make_batch_scenarios(acceptance_scenario(), 60, seed=77, disturbed=True)
    batch = evaluate_batch(scenarios, network=trained_detector.net)
    failures = {s.arm: s.failures for s in batch.summaries}
    violations = {s.arm: s.safety_violations for s in batch.summaries}
    assert set(failures) == {"proposed", "baseline"}
    assert failures["proposed"] < failures["baseline"], failures
    assert violations["proposed"] == 0 and violations["baseline"] == 0
    _report(8, f"proposed {failures['proposed']}/60 vs baseline {failures['baseline']}/60 "
               f"failures on paired disturbance-laden episodes")


def test_criterion_9_command_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(acceptance_scenario(seed=13).to_dict()))
    for run in ("s1", "s2"):
        assert main(["simulate", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / run)]) == EXIT_OK
    sim_a = (tmp_path / "s1" / "episode.csv").read_bytes()
    sim_b = (tmp_path / "s2" / "episode.csv").read_bytes()
    assert sim_a == sim_b

    for run in ("g1", "g2"):
        assert main(["gen-data", "--sequences", "4", "--seed", "5",
                     "--out", str(tmp_path / run)]) == EXIT_OK
    names = json.loads((tmp_path / "g1" / "manifest.json").read_text())["files"]
    for name in names:
        assert (tmp_path / "g1" / name).read_bytes() == (tmp_path / "g2" / name).read_bytes()
    _report(9, "byte-identical outputs for repeated simulate and gen-data commands")


def test_criterion_10_real_time_budget(trained_detector):
    result = run_handover(Scenario(release="network"), network=trained_detector.net)
    mean_ms = result.metrics.cycle_time_mean * 1e3
    assert mean_ms <= 2.0, f"mean cycle {mean_ms:.2f} ms over 2 ms budget"
    m = result.metrics
    _report(10, f"mean control cycle {mean_ms:.2f} ms over {m.cycles} cycles "
                f"(p99 {m.cycle_time_p99 * 1e3:.2f} ms, max {m.cycle_time_max * 1e3:.2f} ms, "
                f"{m.deadline_misses} over 2 ms)")


# ---------------------------------------------------------------------------
# supporting properties of the trained classifier

def test_trained_release_fires_after_pull_never_before_engagement(trained_detector):
    rng = np.random.default_rng(555)
    fired_after_pull = 0
    for _ in range(8):
        params = sample_curve_params(rng, disturbed=False)
        seq = generate_handover_sequence(params, params.schedule_end + 1.2, 500.0)
        monitor = ReleaseMonitor(trained_detector.net, period=10)
        release_t = None
        for k in range(len(seq)):
            if monitor.step(seq.wrench[k]) == RELEASE:
                release_t = seq.times[k]
                break
        assert release_t is not None, "no release on a clean transfer"
        assert release_t > params.engagement_time
        if release_t >= params.pull_onset:
            fired_after_pull += 1
    assert fired_after_pull >= 7  # firing is tied to the pull, not the ramp


def test_trained_detector_more_robust_than_threshold(trained_detector):
    # disturbance suite: spurious releases (ground-truth label still 0)
    rng = np.random.default_rng(777)
    net_spurious = 0
    thr_spurious = 0
    episodes = 0
    while episodes < 30:
        params = sample_curve_params(rng, disturbed=True)
        if not params.disturbance_events:
            continue
        episodes += 1
        seq = generate_handover_sequence(params, params.schedule_end + 1.2, 500.0)
        monitor = ReleaseMonitor(trained_detector.net, period=10)
        threshold = ThresholdReleaseMonitor()
        net_done = thr_done = False
        for k in range(len(seq)):
            if not net_done and monitor.step(seq.wrench[k]) == RELEASE:
                net_done = True
                if seq.labels[k] == 0:
                    net_spurious += 1
            if not thr_done and threshold.push(seq.wrench[k]) == RELEASE:
                thr_done = True
                if seq.labels[k] == 0:
                    thr_spurious += 1
            if net_done and thr_done:
                break
    assert net_spurious < thr_spurious, (net_spurious, thr_spurious)
