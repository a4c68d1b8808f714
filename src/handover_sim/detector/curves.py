"""Synthetic load-transfer force sequences for the release classifier.

The vertical force channel follows the canonical giver-side load curve: the
gripper carries the full object weight (negative z by the gravity sign
convention), the load ramps linearly to zero while the receiver takes over,
a brief negative dip marks the receiver's slight pull, and the trace then
rests at zero. Gaussian sensor noise and scheduled disturbance pulses
(inadvertent impacts) are added on top. Labels switch to 1 (open the
gripper) once at least 95% of the load is transferred and the pull has
started, and stay 1 for the remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import check_fields

__all__ = [
    "LoadCurveParams",
    "ForceSequence",
    "generate_handover_sequence",
    "sample_curve_params",
]

TRANSFER_LABEL_FRACTION = 0.95


@dataclass(frozen=True)
class LoadCurveParams:
    """Schedule and randomness of one synthetic handover force trace."""

    f_L0: float
    engagement_time: float = 1.5
    transfer_duration: float = 0.4
    dwell_after_transfer: float = 0.1
    pull_magnitude: float = 2.0
    pull_duration: float = 0.2
    noise_sigma: float = 0.05
    disturbance_events: tuple[tuple[float, float, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, positive="f_L0 transfer_duration pull_magnitude pull_duration",
                     non_negative="noise_sigma seed", finite="engagement_time dwell_after_transfer",
                     integers="seed")
        events = tuple((float(start), float(peak), float(width)) for start, peak, width in self.disturbance_events)
        if not all(all(map(math.isfinite, event)) and event[2] > 0.0 for event in events):
            raise ValueError("every disturbance (start, peak, width) must be finite, with width > 0")
        object.__setattr__(self, "disturbance_events", events)

    @property
    def pull_onset(self) -> float:
        return self.engagement_time + self.transfer_duration + self.dwell_after_transfer

    @property
    def schedule_end(self) -> float:
        return self.pull_onset + self.pull_duration


@dataclass(frozen=True)
class ForceSequence:
    """A generated force trace with per-sample labels and ground truth.

    wrench composes noise with the scheduled z load; noise is kept separately
    so a simulator can cut the load at gripper opening. fraction is the
    ground-truth transferred load fraction.
    """

    times: np.ndarray
    wrench: np.ndarray
    labels: np.ndarray
    fraction: np.ndarray | None = None
    noise: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.times)


def _scheduled_load(p: LoadCurveParams, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free z load and transferred fraction over the time grid."""
    fraction = np.clip((t - p.engagement_time) / p.transfer_duration, 0.0, 1.0)
    load = -p.f_L0 * (1.0 - fraction)
    in_pull = (t >= p.pull_onset) & (t < p.schedule_end)
    phase = (t[in_pull] - p.pull_onset) / p.pull_duration
    load[in_pull] -= p.pull_magnitude * np.sin(np.pi * phase)
    return load, fraction


def _disturbance_pulses(p: LoadCurveParams, t: np.ndarray) -> np.ndarray:
    pulses = np.zeros_like(t)
    for start, peak, width in p.disturbance_events:
        inside = (t >= start) & (t < start + width)
        pulses[inside] += peak * np.sin(np.pi * (t[inside] - start) / width)
    return pulses


def sample_curve_params(
    rng: np.random.Generator,
    disturbed: bool = True,
    engagement_range: tuple[float, float] = (1.2, 2.0),
    f_L0_range: tuple[float, float] = (2.0, 15.0),
) -> LoadCurveParams:
    """Draw one randomized transfer schedule from the shared family.

    The same sampler feeds both classifier training data and simulated
    episodes, so disturbances seen online match the augmentation
    distribution. Disturbance pulses aim to roughly cancel the remaining load
    (the failure mode that defeats a plain force threshold): one lands in the
    pre-handover hold, one mid-transfer, each present with probability 0.7.
    """
    f_L0 = float(rng.uniform(*f_L0_range))
    engagement = float(rng.uniform(*engagement_range))
    transfer = float(rng.uniform(0.3, 0.45))
    events: list[tuple[float, float, float]] = []
    if disturbed:
        if rng.random() < 0.7 and engagement - 1.0 > 0.8:
            start = float(rng.uniform(0.8, engagement - 0.2 - 0.18))
            events.append((start, f_L0 * float(rng.uniform(1.0, 1.2)), float(rng.uniform(0.12, 0.18))))
        if rng.random() < 0.7:
            offset = float(rng.uniform(0.2, 0.6)) * transfer
            remaining = f_L0 * (1.0 - offset / transfer)
            events.append(
                (engagement + offset, remaining * float(rng.uniform(1.0, 1.2)), float(rng.uniform(0.12, 0.18)))
            )
    # Two draws of parameters since removed (grip force and residual grip) are
    # still taken, in their old places, so every seeded stream stays the same.
    rng.uniform(10.0, 30.0)
    rng.uniform(1.0, 3.0)
    return LoadCurveParams(
        f_L0=f_L0,
        engagement_time=engagement,
        transfer_duration=transfer,
        dwell_after_transfer=float(rng.uniform(0.08, 0.15)),
        pull_magnitude=float(rng.uniform(1.5, 3.0)),
        pull_duration=float(rng.uniform(0.15, 0.25)),
        noise_sigma=float(rng.uniform(0.02, 0.08)),
        disturbance_events=tuple(events),
        seed=int(rng.integers(0, 2**31 - 1)),
    )


def generate_handover_sequence(p: LoadCurveParams, duration: float, rate: float) -> ForceSequence:
    """Generate one labeled force sequence sampled at the given rate."""
    if duration <= 0.0 or rate <= 0.0:
        raise ValueError("duration and rate must be positive")
    if p.schedule_end > duration:
        raise ValueError(
            f"transfer schedule ends at {p.schedule_end:.3f} s but duration is {duration:.3f} s"
        )
    count = int(round(duration * rate))
    times = np.arange(count) / rate

    load, fraction = _scheduled_load(p, times)
    load += _disturbance_pulses(p, times)

    labels = ((fraction >= TRANSFER_LABEL_FRACTION) & (times > p.pull_onset)).astype(np.int8)

    rng = np.random.default_rng(p.seed)
    noise = np.zeros((count, 6))
    if p.noise_sigma > 0.0:
        noise[:, :3] = rng.normal(0.0, p.noise_sigma, size=(count, 3))
        noise[:, 3:] = rng.normal(0.0, 0.05 * p.noise_sigma, size=(count, 3))

    wrench = noise.copy()
    wrench[:, 2] += load
    # Every parameter is finite, but large ones can still overflow; noise is
    # part of every wrench entry, so a finite wrench implies finite noise.
    if not np.isfinite(wrench).all():
        raise ValueError("force trace must be finite; a load, pulse or noise term overflowed")
    return ForceSequence(
        times=times,
        wrench=wrench,
        labels=labels,
        fraction=fraction,
        noise=noise,
    )
