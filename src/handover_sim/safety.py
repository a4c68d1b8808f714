"""ISO/TS 15066 velocity limits and the online velocity-scaling optimization.

Two limit paradigms are combined: separation monitoring (speed bounded by the
distance to the human and closing speeds) and power/force limiting (a
distance-independent contact-energy cap). Their maximum bounds the directed
speed of every link toward the human hand, enforced each cycle by choosing
the largest scaling factor alpha in [0, 1] that satisfies

    J_ri(q) q_dot_adm alpha <= v_max_i          for every link i
    |q_dot_adm alpha| <= q_dot_max
    |q_dot_adm alpha - q_dot| / T_r <= q_ddot_max

Because alpha is scalar, the linear program reduces to an exact interval
intersection, solved here in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import check_fields
from .kinematics import Frames, ManipulatorModel, cross_rows

__all__ = [
    "SafetyParams",
    "HumanState",
    "ScalingResult",
    "ssm_limit",
    "apparent_mass",
    "pfl_limit",
    "optimal_alpha",
    "LinkConstraints",
    "link_constraints",
]

_EPS = 1e-12


@dataclass(frozen=True)
class SafetyParams:
    """Constants of the separation-monitoring and force-limiting formulas.

    Defaults use hand/finger body-region values (contact force 140 N, spring
    constant 75 kN/m, body-part mass 0.6 kg, contact area 1 cm^2) and treat
    the hand as a sphere of human_radius around the tracked point.
    """

    a_max: float = 2.0
    C: float = 0.0
    Z_d: float = 0.0
    Z_r: float = 0.0
    F_max: float = 140.0
    p_max: float = 190.0
    A: float = 1.0
    k_spring: float = 75000.0
    m_h: float = 0.6
    human_radius: float = 0.1

    def __post_init__(self) -> None:
        check_fields(self, positive="a_max F_max p_max A k_spring m_h human_radius",
                     non_negative="C Z_d Z_r")


class HumanState(NamedTuple):
    """Tracked hand point (3,) and its velocity (3,) in the robot base frame;
    unchecked, as the harness checks the episode's whole hand path once."""

    hand_position: np.ndarray
    hand_velocity: np.ndarray


class ScalingResult(NamedTuple):
    """Outcome of the per-cycle scaling optimization; alpha lies in [0, 1]."""

    alpha: float
    binding_constraint: str
    feasible: bool


def _ssm_vector(params: SafetyParams, separation: np.ndarray, v_h: np.ndarray, T_r: float) -> np.ndarray:
    a_t = params.a_max * T_r
    margin = separation - params.C - params.Z_d - params.Z_r
    tail = -a_t - v_h
    radicand = v_h * v_h + a_t * a_t + 2.0 * params.a_max * margin
    return np.maximum(0.0, np.sqrt(np.maximum(radicand, 0.0)) + tail)


def ssm_limit(params: SafetyParams, separation: float, v_h_toward_robot: float, T_r: float) -> float:
    """Speed limit from separation monitoring, clamped below at zero.

    separation is the hand-to-link distance already reduced by human_radius;
    T_r is the reaction time, one control period.
    The limit is zero exactly at the protective boundary separation =
    C + Z_d + Z_r; the paper prints the distance margin and the reaction-time
    term with the opposite sign, which would leave a positive speed there.
    """
    if separation < 0.0:
        raise ValueError("separation must be non-negative")
    v_h = np.asarray(v_h_toward_robot, dtype=float)
    return float(_ssm_vector(params, np.asarray(separation, dtype=float), v_h, T_r))


def apparent_mass(model: ManipulatorModel) -> float:
    """Robot mass perceived at contact: half the moving link mass plus payload."""
    m_r = float(np.sum(model.link_masses)) / 2.0 + model.payload_mass
    if m_r <= 0.0:
        raise ValueError("apparent mass is zero; set link or payload masses")
    return m_r


def pfl_limit(params: SafetyParams, m_r: float) -> float:
    """Distance-independent contact speed limit from force/pressure bounds.

    Uses the stricter of the force and pressure expressions,
    v = min(F_max, p_max A) / sqrt(mu k), with mu the reduced mass of the
    robot/body-part pair.
    """
    if m_r <= 0.0:
        raise ValueError("m_r must be strictly positive")
    mu = 1.0 / (1.0 / m_r + 1.0 / params.m_h)
    force_cap = min(params.F_max, params.p_max * params.A)
    return force_cap / math.sqrt(mu * params.k_spring)


_TAGS = ("iso-limit", "joint-velocity", "joint-acceleration")


@functools.lru_cache(maxsize=None)
def _tag_index(links: int, joints: int) -> np.ndarray:
    """_TAGS index of each constraint row, in optimal_alpha's stacking order."""
    tags = np.repeat([0, 1, 2], [links, 2 * joints, 2 * joints])
    tags.flags.writeable = False
    return tags


def optimal_alpha(
    q_dot_adm: np.ndarray,
    q_dot_current: np.ndarray,
    per_link_rows: np.ndarray,
    v_max_per_link: np.ndarray,
    q_dot_max: np.ndarray,
    q_ddot_max: np.ndarray,
    T_r: float,
) -> ScalingResult:
    """Largest scaling factor in [0, 1] satisfying all per-cycle constraints.

    Every constraint has the form coeff * alpha <= bound and so contributes
    an upper (coeff > 0) or lower (coeff < 0) bound on alpha; the result is
    the top of the intersected interval. If the interval is empty (the arm
    cannot brake hard enough within one cycle), the result saturates to the
    closest value satisfying the lower bounds and is flagged infeasible.

    A NaN constraint is a ValueError: arg-min/max would pick it and no
    comparison with it holds, so it would drop out of the interval unseen.
    """
    q_dot_adm = np.asarray(q_dot_adm, dtype=float).ravel()
    q_dot_current = np.asarray(q_dot_current, dtype=float).ravel()
    rows = np.atleast_2d(np.asarray(per_link_rows, dtype=float))
    v_max = np.asarray(v_max_per_link, dtype=float).ravel()
    rate_step = T_r * np.asarray(q_ddot_max, dtype=float)

    neg_adm = -q_dot_adm
    coeff = np.concatenate((rows @ q_dot_adm, q_dot_adm, neg_adm, q_dot_adm, neg_adm))
    bound = np.concatenate((v_max, q_dot_max, q_dot_max, q_dot_current + rate_step, -(q_dot_current - rate_step)))
    n = len(q_dot_adm)
    m = len(v_max)
    tags = _tag_index(m, n)
    if np.isnan(coeff).any() or np.isnan(bound).any():
        raise ValueError("scaling constraints must not be NaN")

    pos = coeff > _EPS
    neg = coeff < -_EPS
    hard_infeasible = bool((bound[~(pos | neg)] < -_EPS).any())

    # Per-row bounds on alpha; rows that bound it from the other side (or not
    # at all) are +-inf, so arg-min/max pick the same row as over the subset.
    ubs = np.divide(bound, coeff, out=np.full(len(coeff), np.inf), where=pos)
    lbs = np.divide(bound, coeff, out=np.full(len(coeff), -np.inf), where=neg)
    lo, lo_tag, hi, hi_tag = 0.0, "box", 1.0, "box"
    k = int(ubs.argmin())
    if ubs[k] < hi:
        hi, hi_tag = float(ubs[k]), _TAGS[tags[k]]
    # the velocity box is a hard limit even when infeasible
    hi_actuator = min(1.0, float(ubs[m : m + 2 * n].min()))
    k = int(lbs.argmax())
    if lbs[k] > lo:
        lo, lo_tag = float(lbs[k]), _TAGS[tags[k]]

    if not hard_infeasible and lo <= hi + 1e-12:
        return ScalingResult(alpha=min(max(hi, 0.0), 1.0), binding_constraint=hi_tag, feasible=True)
    alpha = min(max(lo, 0.0), hi_actuator)
    return ScalingResult(alpha=alpha, binding_constraint=lo_tag, feasible=False)


class LinkConstraints(NamedTuple):
    """Per-link safety data for one control cycle."""

    rows: np.ndarray       # (n, n) directed-speed rows, one per link
    v_max: np.ndarray      # (n,) governing limit per link
    ssm: np.ndarray        # (n,) separation-monitoring limit per link
    separation: np.ndarray  # (n,) sphere-reduced distance per link
    pfl: float


@functools.lru_cache(maxsize=None)
def _lower_triangle(n: int) -> np.ndarray:
    """(n, n) mask of the joints j <= i that move link point i."""
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def link_constraints(
    frames: Frames,
    human: HumanState,
    params: SafetyParams,
    T_r: float,
    pfl: float,
) -> LinkConstraints:
    """Assemble the per-link directed rows and limits for one cycle.

    frames is chain_frames of the current configuration, T_r the reaction
    time (one control period) and pfl the contact-speed floor, pfl_limit of
    the arm's apparent mass.

    Each moving link point gets its own separation, closing speed, and limit
    (strictly stronger than limiting only the closest point). A link point
    coinciding with the hand gets a zero row: the direction is undefined and
    the contact-speed floor governs.
    """
    origins, axes, _, _ = frames
    n = len(axes)
    hand = human.hand_position

    diffs = hand - origins[1:]                      # (n, 3)
    dist = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    sep = np.maximum(0.0, dist - params.human_radius)
    if dist.min() >= 1e-9:  # the usual case: every link point has a direction
        versors = diffs / dist[:, None]
        ssm = _ssm_vector(params, sep, -(versors @ human.hand_velocity), T_r)
        v_max = np.maximum(ssm, pfl)
    else:
        safe = dist >= 1e-9
        versors = np.where(safe[:, None], diffs / np.where(safe, dist, 1.0)[:, None], 0.0)
        v_h = -(versors @ human.hand_velocity)
        ssm = np.where(safe, _ssm_vector(params, sep, v_h, T_r), 0.0)
        v_max = np.where(safe, np.maximum(ssm, pfl), pfl)

    # z_j x (p_i - p_j) for every (link point i, joint j <= i) pair at once.
    point_offsets = origins[1:, None, :] - origins[None, :-1, :]   # (n, n, 3)
    crossed = cross_rows(axes, point_offsets)
    rows = np.where(_lower_triangle(n), (crossed * versors[:, None, :]).sum(axis=2), 0.0)
    return LinkConstraints(rows=rows, v_max=v_max, ssm=ssm, separation=sep, pfl=pfl)
