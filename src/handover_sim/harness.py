"""Scenario simulation of complete handover episodes.

One episode runs the full controller stack at the control rate: advance the
path parameter by the previous scaling factor, evaluate the plan's
closed-form polynomial at it, map to Cartesian references, compute the
compliant (or baseline PD) joint-velocity command, scale it through the
safety optimization, and integrate the velocity-controlled plant. A
scripted hand, a schedule-driven wrist sensor, and a release monitor close
the loop; opening the gripper triggers a retreat plan back to the grasp
configuration.

The plant is the ideal velocity integrator (commands are realized exactly at
the control rate); the sensor trace is generated, not contact-simulated, and
its internal transfer fraction is the episode's failure ground truth.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .admittance import AdmittanceParams, admittance_accel, integrate_velocity, transform_wrench
from .config import ARM_JOINTS, check_fields, default_manipulator
from .detector.curves import LoadCurveParams, generate_handover_sequence, sample_curve_params
from .detector.network import NetworkParams
from .detector.runtime import RELEASE, ReleaseMonitor, ThresholdReleaseMonitor
from .kinematics import (
    ManipulatorModel,
    chain_frames,
    damped_pinv,
    jacobian_dot_from_frames,
    jacobian_from_frames,
    pose_from_frames,
)
from .safety import HumanState, SafetyParams, apparent_mass, link_constraints, optimal_alpha, pfl_limit
from .trajectory import POLY_ROWS, PathParameter, advance_parameter, fit_cubic_spline, plan_quintic, sample_spline

__all__ = [
    "Scenario",
    "EpisodeMetrics",
    "EPISODE_COLUMNS",
    "EpisodeLog",
    "EpisodeResult",
    "pd_controller",
    "position_ik",
    "run_handover",
    "make_batch_scenarios",
    "evaluate_batch",
    "write_episode_csv",
    "write_batch_csvs",
    "ARMS",
]

GRAVITY = 9.81
SPEED_TOLERANCE = 1e-6
PINV_DAMPING = 1e-3             # damped-inverse regularization near singularities
PREMATURE_FRACTION = 0.90

SUCCESS = "success"
PREMATURE_DROP = "premature_drop"
FAILED_RELEASE = "failed_release"

# Architecture arms: name -> (controller, release detector).
ARMS = {
    "proposed": ("admittance", "network"),
    "baseline": ("pd", "threshold"),
}

_DEFAULT_GRASP_Q = (1.57, -1.0, 1.2, -1.77, -1.57, 0.0)
_DEFAULT_HAND = (0.65, -0.45, 0.55)

# load-curve parameters whose one home is a top-level scenario field
_CURVE_FROM_SCENARIO = {
    "engagement_time": "receiver_engagement_time",
    "disturbance_events": "disturbances",
    "seed": "seed",
}


@dataclass(frozen=True)
class _PDGains:
    """PD baseline gains.

    kd is kept well below 1: with a velocity-resolved plant the damping term
    feeds back the previous command, and kd near 1 sustains a cycle-to-cycle
    alternation that saturates the acceleration limits.
    """

    kp: float = 20.0
    kd: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self, positive="kp", non_negative="kd")


def _build(group: str, build, values: dict, **fixed):
    """build(**values, **fixed); an unknown key or a rejected value is a ValueError naming the group."""
    unknown = sorted(set(values) - {f.name for f in fields(build) if f.init})
    if unknown:
        raise ValueError(f"unknown scenario key(s): {', '.join(f'{group}.{k}' for k in unknown)}")
    try:
        return build(**values, **fixed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid scenario {group}: {exc}") from exc


def _finite(name: str, values, length: int | None = None) -> tuple:
    """values as a tuple of finite floats, of the given length if one is given."""
    try:
        out = tuple(map(float, values))
        ok = all(map(math.isfinite, out)) and length in (None, len(out))
    except (TypeError, ValueError):  # not a list of numbers
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {length or 'a list of'} finite numbers, got {values!r}")
    return out


@dataclass(frozen=True)
class Scenario:
    """Everything that defines one reproducible episode.

    Construction is the one place that decides validity: it checks every
    top-level field and builds every nested dict once, into non-field
    attributes that to_dict(), replace() and equality do not see:
    ``safety_params``, ``admittance_params``, ``pd_kp``/``pd_kd`` and the
    curve that curve_params() returns. What reads them checks nothing again.

    ``object_mass`` is the payload the arm carries. ``load_curve`` holds only
    the shape of the transfer (``f_L0``, ``transfer_duration``,
    ``dwell_after_transfer``, ``pull_magnitude``, ``pull_duration``,
    ``noise_sigma``); the curve's engagement time, disturbance pulses and
    noise seed are ``receiver_engagement_time``, ``disturbances`` and
    ``seed``, and setting them under ``load_curve`` is an error. ``f_L0``,
    the load the wrist sensor reads, defaults to ``object_mass * GRAVITY``
    and stays settable because make_batch_scenarios passes the sampled load
    exactly, which that product need not reproduce.
    """

    object_mass: float = 1.0
    grasp_q: tuple = _DEFAULT_GRASP_Q
    handover_hand_pose: tuple = _DEFAULT_HAND
    hand_motion: tuple = ()          # ((t, x, y, z), ...) piecewise-linear waypoints
    receiver_engagement_time: float = 2.6
    load_curve: dict = field(default_factory=dict)
    disturbances: tuple = ()         # ((start, peak, width), ...)
    controller: str = "admittance"
    release: str = "network"
    seed: int = 0
    control_rate: float = 500.0      # the one rate: control cycle, sensor samples, safety T_r
    plan_duration: float = 2.0
    retreat_duration: float = 0.8
    release_timeout: float = 1.0
    episode_tail: float = 0.3
    detector_period: int = 10        # control cycles between classifier inferences
    admittance: dict = field(default_factory=dict)
    safety: dict = field(default_factory=dict)
    pd_gains: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self, positive="object_mass control_rate plan_duration detector_period",
                     non_negative="retreat_duration release_timeout episode_tail seed",
                     finite="receiver_engagement_time", integers="detector_period seed")
        if self.controller not in ("admittance", "pd"):
            raise ValueError(f"unknown controller {self.controller!r}")
        if self.release not in ("network", "threshold"):
            raise ValueError(f"unknown release mode {self.release!r}")
        object.__setattr__(self, "grasp_q", _finite("grasp_q", self.grasp_q, ARM_JOINTS))
        object.__setattr__(self, "handover_hand_pose", _finite("handover_hand_pose", self.handover_hand_pose, 3))
        object.__setattr__(self, "hand_motion", tuple(
            _finite("hand_motion row (t, x, y, z)", w, 4) for w in self.hand_motion
        ))
        object.__setattr__(self, "disturbances", tuple(
            _finite("disturbances row (start, peak, width)", d, 3) for d in self.disturbances
        ))
        object.__setattr__(self, "safety_params", _build("safety", SafetyParams, self.safety))
        object.__setattr__(self, "admittance_params", _build("admittance", AdmittanceParams, self.admittance))
        gains = _build("pd_gains", _PDGains, self.pd_gains)
        object.__setattr__(self, "pd_kp", float(gains.kp))
        object.__setattr__(self, "pd_kd", float(gains.kd))
        for key, top in _CURVE_FROM_SCENARIO.items():
            if key in self.load_curve:
                raise ValueError(f"load_curve.{key} is the scenario field {top}; set {top} instead")
        object.__setattr__(self, "_curve", _build(
            "load_curve", LoadCurveParams, {"f_L0": self.object_mass * GRAVITY, **self.load_curve},
            **{key: getattr(self, top) for key, top in _CURVE_FROM_SCENARIO.items()},
        ))
        self.episode_duration()  # rejects an engagement outside the episode

    def curve_params(self) -> LoadCurveParams:
        """Episode load-curve parameters (scenario fields plus overrides)."""
        return self._curve

    def episode_duration(self) -> float:
        curve = self.curve_params()
        deadline = curve.schedule_end + self.release_timeout
        if curve.engagement_time >= deadline + self.retreat_duration + self.episode_tail:
            raise ValueError("engagement time must fall within the episode")
        return deadline + self.retreat_duration + self.episode_tail

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EpisodeMetrics:
    """Outcome and safety/timing aggregates of one episode."""

    outcome: str
    release_time: float              # nan when the gripper never opened
    release_fraction: float          # ground-truth transferred fraction at opening
    min_separation: float
    max_directed_speed: float
    safety_violations: int           # cycles where a link exceeded its speed limit
    infeasible_cycles: int           # cycles where the scaling problem was infeasible
    cycles: int
    cycle_time_mean: float           # wall-clock seconds, non-deterministic
    cycle_time_max: float
    cycle_time_p99: float
    deadline_misses: int             # cycles longer than 1/control_rate


# The deterministic EpisodeMetrics fields, in episodes.csv column order.
EPISODE_COLUMNS = (
    "outcome", "release_time", "release_fraction", "min_separation", "max_directed_speed", "safety_violations",
)


@dataclass
class EpisodeLog:
    """Per-cycle time series of one episode."""

    columns: list[str]
    data: np.ndarray
    binding: list[str]


@dataclass(frozen=True)
class EpisodeResult:
    scenario: Scenario
    metrics: EpisodeMetrics
    log: EpisodeLog


# ---------------------------------------------------------------------------
# scripted human hand

def _hand_path(scenario: Scenario, cycles: int, T_r: float) -> tuple[np.ndarray, np.ndarray]:
    """The scripted hand's (cycles, 3) positions and velocities at t = k T_r.

    The hand moves piecewise-linearly between the time-sorted hand_motion
    waypoints and rests at the first before it and at the last after it;
    without waypoints it rests at handover_hand_pose. Finite waypoints whose
    differences overflow are a ValueError here, before any cycle runs.
    """
    rows = np.asarray(scenario.hand_motion or [(0.0, *scenario.handover_hand_pose)], dtype=float)
    rows = rows[np.argsort(rows[:, 0])]
    times, points = rows[:, 0], rows[:, 1:]
    steps = np.diff(times)[:, None]
    velocities = (points[1:] - points[:-1]) / np.where(steps > 0.0, steps, 1.0)
    t = np.arange(cycles) * T_r
    pos = np.where((t < times[0])[:, None], points[0], points[-1])
    vel = np.zeros((cycles, 3))
    moving = (t >= times[0]) & (t < times[-1])
    seg = np.searchsorted(times, t[moving], side="right") - 1   # segment that holds t
    vel[moving] = velocities[seg]
    pos[moving] = points[seg] + vel[moving] * (t[moving] - times[seg])[:, None]
    if not (np.isfinite(pos).all() and np.isfinite(vel).all()):
        raise ValueError("human state must be finite")
    return pos, vel


# ---------------------------------------------------------------------------
# controllers

def pd_controller(
    q_des: np.ndarray,
    q_dot_des: np.ndarray,
    q: np.ndarray,
    q_dot: np.ndarray,
    kp: float,
    kd: float,
) -> np.ndarray:
    """Stiff velocity-resolved PD tracking; ignores external forces.

    The gains are checked where the scenario builds them (kp > 0, kd >= 0).
    """
    return q_dot_des + kp * (q_des - q) + kd * (q_dot_des - q_dot)


_QUINTIC_PEAK_VEL = 1.875       # max of the normalized quintic rate
_QUINTIC_PEAK_ACC = 5.7735      # max of the normalized quintic acceleration


def limit_respecting_duration(model: ManipulatorModel, delta_q: np.ndarray, requested: float) -> float:
    """Stretch a quintic plan duration until it fits the joint-rate limits.

    A plan whose nominal profile grazes the velocity or acceleration boxes
    forces the safety layer into infeasible braking as soon as the tracking
    controller adds its correction on top, so the nominal profile is kept
    10% inside the velocity box and a factor 2 inside the acceleration box.
    """
    delta = np.abs(np.asarray(delta_q, dtype=float))
    t_vel = _QUINTIC_PEAK_VEL * float(np.max(delta / model.q_dot_max))
    t_acc = math.sqrt(2.0 * _QUINTIC_PEAK_ACC * float(np.max(delta / model.q_ddot_max)))
    return max(requested, 1.1 * t_vel, t_acc)


def _plan_stop(q: np.ndarray, q_dot: np.ndarray, model: ManipulatorModel, rate: float) -> tuple[np.ndarray, float]:
    """Constant-deceleration ramp to rest: its position polynomial and duration T.

    q(s) = q + q_dot s - q_dot s^2 / (2 T), zero-padded to the plan degree,
    so it is followed like any other segment. Keeps the retreat replan C1:
    without it, opening the gripper mid-motion would snap the reference
    velocity to zero in one cycle.
    """
    speed = np.abs(q_dot)
    T = float(np.max(speed / (0.5 * model.q_ddot_max)))
    T = max(T, 4.0 / rate)
    poly = np.zeros((POLY_ROWS, len(q)))
    poly[0] = q
    poly[1] = q_dot
    poly[2] = -0.5 * (q_dot / T)
    return poly, T


def position_ik(
    model: ManipulatorModel,
    target: np.ndarray,
    q0: np.ndarray,
    tol: float = 1e-9,
    max_iters: int = 300,
) -> np.ndarray:
    """Damped least-squares position-only IK from seed q0 (deterministic)."""
    target = np.asarray(target, dtype=float).reshape(3)
    q = model.check_q(q0).copy()
    residual = math.inf
    for _ in range(max_iters):
        frames = chain_frames(model, q)
        pose = pose_from_frames(model, frames)
        err = target - pose.position
        residual = float(np.linalg.norm(err))
        if residual < tol:
            return q
        J_pos = jacobian_from_frames(model, frames)[:3]
        q = q + np.clip(damped_pinv(J_pos, PINV_DAMPING) @ err, -0.2, 0.2)
    raise ValueError(
        f"position IK did not converge to {target.tolist()} "
        f"(residual {residual:.3e} m); hand pose may be unreachable"
    )


# ---------------------------------------------------------------------------
# episode loop

LOG_COLUMNS = (
    ["t"]
    + [f"q{i}" for i in range(6)]
    + [f"qd{i}" for i in range(6)]
    + [f"u{i}" for i in range(6)]
    + ["x", "y", "z"]
    + ["Fx", "Fy", "Fz", "Tx", "Ty", "Tz"]
    + ["s", "alpha", "separation", "ssm", "pfl", "v_limit", "directed_max", "det_out", "gripper", "feasible"]
)


def run_handover(scenario: Scenario, network: NetworkParams | None = None) -> EpisodeResult:
    """Simulate one episode; deterministic for a fixed scenario."""
    if scenario.release == "network" and network is None:
        raise ValueError("release='network' requires trained network weights")
    model = default_manipulator(payload_mass=scenario.object_mass)
    n = model.joint_count
    T_r = 1.0 / scenario.control_rate
    safety_params = scenario.safety_params
    adm_params = scenario.admittance_params
    kp, kd = scenario.pd_kp, scenario.pd_kd
    pfl = pfl_limit(safety_params, apparent_mass(model))

    curve = scenario.curve_params()
    duration = scenario.episode_duration()
    max_cycles = int(round(duration * scenario.control_rate))
    # The wrist sensor reads the generated transfer curve (load, disturbances,
    # noise) while the gripper holds the object, and only its noise after
    # opening; fraction is the ground truth of the transferred load.
    trace = generate_handover_sequence(curve, duration + T_r, scenario.control_rate)
    hand_pos, hand_vel = _hand_path(scenario, max_cycles, T_r)

    grasp_q = np.asarray(scenario.grasp_q, dtype=float)
    end_q = position_ik(model, scenario.handover_hand_pose, grasp_q, tol=1e-8)

    def follow(poly: np.ndarray, T: float):
        """Differentiate a planned polynomial and start the timing law at its head."""
        return fit_cubic_spline(poly, T), PathParameter(s=0.0, s_dot=1.0, t_final=T)

    plan_T = limit_respecting_duration(model, end_q - grasp_q, scenario.plan_duration)
    segment, path = follow(*plan_quintic(grasp_q, end_q, plan_T))

    if scenario.release == "network":
        monitor: ReleaseMonitor | ThresholdReleaseMonitor = ReleaseMonitor(
            network, period=scenario.detector_period
        )
    else:
        monitor = ThresholdReleaseMonitor(scenario.control_rate)

    q = grasp_q.copy()
    q_dot_meas = np.zeros(n)
    alpha = 1.0
    gripper_open = False
    pending_retreat = False
    release_time = math.nan
    release_fraction = math.nan
    deadline = curve.schedule_end + scenario.release_timeout
    end_time = duration
    admittance = scenario.controller == "admittance"
    # The reference is resampled only when the path parameter or the segment
    # changes; while the timing law holds still (alpha = 0, or s at the end of
    # the plan) the previous cycle's reference is exact. The PD baseline
    # tracks joint references and never needs their Cartesian image.
    ref_s = math.nan
    ref_segment = None
    q_pair = np.empty((2, n))        # (q_des, q): both chains in one FK call

    data = np.empty((max_cycles, len(LOG_COLUMNS)))
    binding_log: list[str] = []
    cycle_times = np.empty(max_cycles)
    violations = 0
    infeasible = 0
    k = 0

    while k < max_cycles:
        t = k * T_r
        if t >= end_time:
            break
        tic = time.perf_counter()

        human = HumanState(hand_pos[k], hand_vel[k])
        raw = trace.noise[k] if gripper_open else trace.wrench[k]

        det_out = math.nan
        if not gripper_open:
            decision = monitor.step(raw)
            det_out = monitor.output
            if decision == RELEASE:
                gripper_open = True
                release_time = t
                release_fraction = float(trace.fraction[k])
                stop_T = 0.0
                retreat_T = 0.0
                if scenario.retreat_duration > 0.0:
                    retreat_T = limit_respecting_duration(model, grasp_q - q, scenario.retreat_duration)
                    pending_retreat = float(np.max(np.abs(q_dot_meas))) > 0.05
                    if pending_retreat:
                        # brake to rest first so the retreat reference starts C1
                        stop, stop_T = _plan_stop(q, q_dot_meas, model, scenario.control_rate)
                        segment, path = follow(stop, stop_T)
                    else:
                        segment, path = follow(*plan_quintic(q, grasp_q, retreat_T))
                end_time = min(end_time, t + stop_T + retreat_T + scenario.episode_tail)
            elif t > deadline:
                end_time = t  # receiver gave up waiting; episode is a failed release
        if pending_retreat and path.s >= segment.duration - 1e-9:
            retreat_T = limit_respecting_duration(model, grasp_q - q, scenario.retreat_duration)
            segment, path = follow(*plan_quintic(q, grasp_q, retreat_T))
            pending_retreat = False
        # advance the timing law with the previous cycle's scaling factor
        path = advance_parameter(path, alpha, T_r)
        ref_moved = path.s != ref_s or segment is not ref_segment
        if ref_moved:
            q_des, qd_des, qdd_des = sample_spline(segment, path.s)
            ref_s, ref_segment = path.s, segment

        if admittance:
            if ref_moved:
                # reference and current configuration share one FK call
                q_pair[0] = q_des
                q_pair[1] = q
                pair = chain_frames(model, q_pair)
                J_ref, J_cur = jacobian_from_frames(model, pair)
                ref_frames, cur_frames = pair.entry(0), pair.entry(1)
                x_des = pose_from_frames(model, ref_frames)
                Jd_ref = jacobian_dot_from_frames(model, ref_frames, qd_des)
                x_dot_des = J_ref @ qd_des
                x_ddot_des = J_ref @ qdd_des + Jd_ref @ qd_des
            else:
                cur_frames = chain_frames(model, q)
                J_cur = jacobian_from_frames(model, cur_frames)
            x_cur = pose_from_frames(model, cur_frames)
            x_dot = J_cur @ q_dot_meas
            wrench = transform_wrench(x_cur.rotation, raw, adm_params.force_weight)
            x_ddot_adm = admittance_accel(adm_params, x_des, x_dot_des, x_ddot_des, x_cur, x_dot, wrench)
            x_dot_adm = integrate_velocity(x_ddot_adm, x_dot, T_r)
            qd_adm = damped_pinv(J_cur, PINV_DAMPING) @ x_dot_adm
        else:
            cur_frames = chain_frames(model, q)
            x_cur = pose_from_frames(model, cur_frames)
            qd_adm = pd_controller(q_des, qd_des, q, q_dot_meas, kp, kd)

        lc = link_constraints(cur_frames, human, safety_params, T_r, pfl)
        result = optimal_alpha(qd_adm, q_dot_meas, lc.rows, lc.v_max, model.q_dot_max, model.q_ddot_max, T_r)
        alpha = result.alpha
        u = alpha * qd_adm
        directed = lc.rows @ u
        if (directed > lc.v_max + SPEED_TOLERANCE).any():
            violations += 1
        if not result.feasible:
            infeasible += 1

        row = data[k]
        row[0] = t
        row[1:7] = q
        row[7:13] = q_dot_meas
        row[13:19] = u
        row[19:22] = x_cur.position
        row[22:28] = raw
        row[28] = path.s
        row[29] = alpha
        row[30] = lc.separation.min()
        row[31] = lc.ssm.min()
        row[32] = lc.pfl
        row[33] = lc.v_max.min()
        row[34] = directed.max()
        row[35] = det_out
        row[36] = 1.0 if gripper_open else 0.0
        row[37] = 1.0 if result.feasible else 0.0
        binding_log.append(result.binding_constraint)

        q = q + u * T_r
        q_dot_meas = u
        cycle_times[k] = time.perf_counter() - tic
        k += 1

    data = data[:k]
    cycle_times = cycle_times[:k]
    if math.isnan(release_time):
        outcome = FAILED_RELEASE
    elif release_fraction < PREMATURE_FRACTION:
        outcome = PREMATURE_DROP
    else:
        outcome = SUCCESS

    sep_col = data[:, 30]
    metrics = EpisodeMetrics(
        outcome=outcome,
        release_time=release_time,
        release_fraction=release_fraction,
        min_separation=float(np.min(sep_col)) if k else math.nan,
        max_directed_speed=float(np.max(data[:, 34])) if k else math.nan,
        safety_violations=violations,
        infeasible_cycles=infeasible,
        cycles=k,
        cycle_time_mean=float(np.mean(cycle_times)) if k else math.nan,
        cycle_time_max=float(np.max(cycle_times)) if k else math.nan,
        cycle_time_p99=float(np.percentile(cycle_times, 99)) if k else math.nan,
        deadline_misses=int(np.count_nonzero(cycle_times > T_r)),
    )
    log = EpisodeLog(columns=list(LOG_COLUMNS), data=data, binding=binding_log)
    return EpisodeResult(scenario=scenario, metrics=metrics, log=log)


# ---------------------------------------------------------------------------
# batch evaluation

def make_batch_scenarios(
    base: Scenario,
    count: int,
    seed: int = 0,
    disturbed: bool = True,
) -> list[Scenario]:
    """Randomized episode family around a base scenario.

    Varies object weight, transfer schedule, hand placement, and hand
    approach motion; disturbance pulses follow the same family used for
    training-data augmentation.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    scenarios = []
    base_hand = np.asarray(base.handover_hand_pose, dtype=float)
    engagement_lo = base.plan_duration + 0.4
    for i in range(count):
        curve = sample_curve_params(
            rng,
            disturbed=disturbed,
            engagement_range=(engagement_lo, engagement_lo + 0.5),
        )
        hand = base_hand + rng.uniform(-0.08, 0.08, size=3)
        motion: tuple = ()
        if rng.random() < 0.5:
            # hand reaches in from up to 0.4 m away, arriving before engagement;
            # ease-in/ease-out segments keep the velocity steps small
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            start = hand + direction * rng.uniform(0.2, 0.4)
            arrive = max(curve.engagement_time - rng.uniform(0.2, 0.4), 0.4)
            span = hand - start
            motion = (
                (0.0, *start),
                (0.30 * arrive, *(start + 0.15 * span)),
                (0.70 * arrive, *(start + 0.85 * span)),
                (arrive, *hand),
            )
        scenarios.append(
            replace(
                base,
                object_mass=curve.f_L0 / GRAVITY,
                handover_hand_pose=tuple(hand),
                hand_motion=motion,
                receiver_engagement_time=curve.engagement_time,
                load_curve={
                    "f_L0": curve.f_L0,
                    "transfer_duration": curve.transfer_duration,
                    "dwell_after_transfer": curve.dwell_after_transfer,
                    "pull_magnitude": curve.pull_magnitude,
                    "pull_duration": curve.pull_duration,
                    "noise_sigma": curve.noise_sigma,
                },
                disturbances=curve.disturbance_events,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    return scenarios


@dataclass(frozen=True)
class ArmSummary:
    arm: str
    episodes: int
    successes: int
    premature_drops: int
    failed_releases: int
    failures: int
    mean_release_latency: float      # seconds from pull onset to gripper opening
    safety_violations: int


@dataclass(frozen=True)
class BatchResult:
    episodes: list[tuple[str, int, EpisodeMetrics]]   # (arm, scenario index, metrics)
    summaries: list[ArmSummary]


def evaluate_batch(
    scenarios: list[Scenario],
    arms: dict[str, tuple[str, str]] | None = None,
    network: NetworkParams | None = None,
) -> BatchResult:
    """Run every scenario under each architecture arm on matched seeds."""
    if not scenarios:
        raise ValueError("need at least one scenario")
    arms = arms or ARMS
    episodes: list[tuple[str, int, EpisodeMetrics]] = []
    summaries = []
    for arm_name, (controller, release) in arms.items():
        latencies = []
        successes = premature = failed = violations = 0
        for idx, scenario in enumerate(scenarios):
            run = replace(scenario, controller=controller, release=release)
            result = run_handover(run, network=network)
            m = result.metrics
            episodes.append((arm_name, idx, m))
            violations += m.safety_violations
            if m.outcome == SUCCESS:
                successes += 1
                latencies.append(m.release_time - run.curve_params().pull_onset)
            elif m.outcome == PREMATURE_DROP:
                premature += 1
            else:
                failed += 1
        summaries.append(
            ArmSummary(
                arm=arm_name,
                episodes=len(scenarios),
                successes=successes,
                premature_drops=premature,
                failed_releases=failed,
                failures=premature + failed,
                mean_release_latency=float(np.mean(latencies)) if latencies else math.nan,
                safety_violations=violations,
            )
        )
    return BatchResult(episodes=episodes, summaries=summaries)


# ---------------------------------------------------------------------------
# CSV output (deterministic: no wall-clock columns)

def write_episode_csv(result: EpisodeResult, path: str | Path) -> None:
    log = result.log
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(log.columns + ["binding"])
        for row, tag in zip(log.data, log.binding):
            writer.writerow([f"{v:.9g}" for v in row] + [tag])


def _cells(record, columns) -> list:
    """The named attributes of record as CSV cells, floats to 9 significant digits."""
    values = (getattr(record, name) for name in columns)
    return [f"{v:.9g}" if isinstance(v, float) else v for v in values]


def write_batch_csvs(batch: BatchResult, episodes_path: str | Path, summary_path: str | Path) -> None:
    with open(episodes_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "episode", *EPISODE_COLUMNS])
        for arm, idx, m in batch.episodes:
            writer.writerow([arm, idx, *_cells(m, EPISODE_COLUMNS)])
    summary_columns = [f.name for f in fields(ArmSummary)]
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(summary_columns)
        for s in batch.summaries:
            writer.writerow(_cells(s, summary_columns))
