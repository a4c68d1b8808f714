import math
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handover_sim.detector import network, runtime
from handover_sim.detector import (
    HOLD,
    RELEASE,
    LoadCurveParams,
    ReleaseMonitor,
    ThresholdReleaseMonitor,
    generate_handover_sequence,
    init_network,
    load_weights,
    predict_batch,
)


def small_monitor(window=20, consecutive=3, seed=0):
    net = init_network(hidden=4, dense1=8, dense2=4, seed=seed)
    mon = ReleaseMonitor(net, window=window, period=1)
    mon.consecutive_required = consecutive
    return mon


def never_releasing(net, **kwargs) -> ReleaseMonitor:
    mon = ReleaseMonitor(net, **kwargs)
    mon.consecutive_required = 10**9
    return mon


# ---------------------------------------------------------------------------
# classifier monitor mechanics

def test_monitor_holds_until_window_full():
    mon = small_monitor(window=20)
    rng = np.random.default_rng(0)
    for k in range(19):
        assert mon.step(rng.normal(size=6)) == HOLD
        assert math.isnan(mon.output)  # no inference before the window fills
    mon.step(rng.normal(size=6))  # 20th push runs the first inference
    assert 0.0 < mon.output < 1.0


def test_monitor_first_inference_at_window():
    mon = small_monitor(window=20)
    rng = np.random.default_rng(1)
    probs = []
    for k in range(25):
        mon.step(rng.normal(size=6))
        probs.append(mon.output)
    assert all(math.isnan(p) for p in probs[:19])
    assert not any(math.isnan(p) for p in probs[19:])


def test_monitor_pure_function_of_window_contents():
    # different push histories, identical final window: identical score
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(31, 6))
    net = init_network(hidden=4, dense1=8, dense2=4, seed=0)
    a = ReleaseMonitor(net, window=10, period=3)
    b = ReleaseMonitor(net, window=10, period=3)
    for row in rows[-10:]:  # push 10 infers: 9 % 3 == 0
        a.step(row)
    for row in rows:  # extra churn first, same last 10 rows; push 31 infers
        b.step(row)
    assert not math.isnan(a.output)
    assert a.output == b.output


def test_monitor_matches_direct_forward():
    mon = small_monitor(window=15, consecutive=1000)
    rows = np.random.default_rng(3).normal(size=(40, 6))
    for row in rows:
        mon.step(row)
    direct = predict_batch(mon.net, rows[None, -15:])[0]
    assert mon.output == direct[1]


def pair_score(net, window: np.ndarray) -> float:
    """Oracle: predict_batch on the window padded to a pair with a zero window.

    The monitor projects, steps and scores with at least two rows, so its
    score equals this one bit for bit.
    """
    return float(predict_batch(net, np.stack([window, np.zeros_like(window)]))[0, 1])


@contextmanager
def counted_cell_steps(mon: ReleaseMonitor):
    """Count the monitor's calls of the shared LSTM cell: steps[True] inside
    infer, steps[False] outside it. Each call is one cell step of the state
    block."""
    steps = {True: 0, False: 0}
    inside = False
    cell, infer = runtime._lstm_cell, mon.infer

    def counting_cell(*args):
        steps[inside] += 1
        return cell(*args)

    def traced_infer():
        nonlocal inside
        inside = True
        try:
            return infer()
        finally:
            inside = False

    with patch.object(runtime, "_lstm_cell", counting_cell), patch.object(mon, "infer", traced_infer):
        yield steps


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    hidden=st.integers(1, 6),
    window=st.integers(1, 40),
    period=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@example(dtype=np.float32, hidden=4, window=20, period=10, seed=0)  # W % P == 0
@example(dtype=np.float64, hidden=3, window=7, period=3, seed=1)  # W % P != 0
@example(dtype=np.float32, hidden=6, window=4, period=9, seed=2)  # P > W
@example(dtype=np.float64, hidden=2, window=13, period=1, seed=3)  # every push scores
@example(dtype=np.float32, hidden=1, window=1, period=1, seed=4)
@example(dtype=np.float64, hidden=5, window=23, period=7, seed=5)
def test_monitor_infer_equals_reference_loop(dtype, hidden, window, period, seed):
    # at every push: the score of the last window readings exactly when
    # k % period == 0 and the window is full, nan otherwise; and at most one
    # cell step, inside infer, from the reading that starts the first window on
    net = init_network(hidden=hidden, dense1=5, dense2=3, seed=seed, dtype=dtype)
    readings = np.random.default_rng(seed).normal(scale=3.0, size=(3 * window + period, 6))
    mon = never_releasing(net, window=window, period=period)
    first = (1 - window) % period   # the reading that starts the first window
    with counted_cell_steps(mon) as steps:
        for k, reading in enumerate(readings):
            before = steps[True]
            mon.step(reading)
            assert steps[True] - before == (k >= first)
            assert steps[False] == 0
            if k % period == 0 and k + 1 >= window:
                w = readings[k + 1 - window : k + 1]
                assert mon.output == pair_score(net, w)
                # the head can round a last-bit change in h away, so compare
                # the scored state row too
                h_pair, _ = network._run_lstm(net, np.stack([w, np.zeros_like(w)]))
                assert np.array_equal(mon._pair[0], h_pair[0])
            else:
                assert math.isnan(mon.output)


def test_monitors_sharing_weights_are_independent():
    net = init_network(hidden=5, dense1=8, dense2=4, seed=6, dtype=np.float32)
    rng = np.random.default_rng(6)
    streams = rng.normal(scale=3.0, size=(2, 30, 6))

    def probs(mon, rows):
        out = []
        for row in rows:
            mon.step(row)
            out.append(mon.output)
        return out

    alone = [probs(ReleaseMonitor(net, window=7, period=1), rows) for rows in streams]
    a, b = ReleaseMonitor(net, window=7, period=1), ReleaseMonitor(net, window=7, period=1)
    interleaved = ([], [])
    for ra, rb in zip(*streams):
        interleaved[0].extend(probs(a, [ra]))
        interleaved[1].extend(probs(b, [rb]))
    np.testing.assert_array_equal(interleaved, alone)
    assert len(set(alone[0][6:])) > 1  # inferences ran and moved


# float.hex of the first 20 scores of a default-size monitor (window 500,
# hidden 64, float32 weights), one inference after every 10th reading of a
# synthetic handover trace, stepped in the weights' own dtype.
GOLDEN_DEFAULT_SCORES = [
    "0x1.012e880000000p-1", "0x1.012fd00000000p-1", "0x1.0130ba0000000p-1",
    "0x1.0132800000000p-1", "0x1.0131de0000000p-1", "0x1.012ddc0000000p-1",
    "0x1.012f3a0000000p-1", "0x1.01349c0000000p-1", "0x1.012d5a0000000p-1",
    "0x1.012dda0000000p-1", "0x1.012bf80000000p-1", "0x1.0131480000000p-1",
    "0x1.0130220000000p-1", "0x1.0138e00000000p-1", "0x1.0136dc0000000p-1",
    "0x1.0132180000000p-1", "0x1.0131220000000p-1", "0x1.012ff00000000p-1",
    "0x1.0129960000000p-1", "0x1.012c760000000p-1",
]


def test_default_monitor_scores_pinned():
    net = init_network(seed=11, dtype=np.float32)
    seq = generate_handover_sequence(LoadCurveParams(f_L0=5.0, seed=3), 3.0, 500.0)
    mon = never_releasing(net, period=10)
    scores = []
    # The scores were pinned after readings 10, 20, ...; one leading reading,
    # never inside a scored window, puts those at step's k % 10 == 0 phase.
    for reading in np.vstack((np.zeros(6), seq.wrench)):
        mon.step(reading)
        if not math.isnan(mon.output):
            scores.append(mon.output.hex())
            if len(scores) == len(GOLDEN_DEFAULT_SCORES):
                break
    assert scores == GOLDEN_DEFAULT_SCORES


def test_default_size_monitor_equals_reference_loop():
    # window 500, period 10, hidden 64: 50 slots step together in one gemm,
    # one reading per push
    net, _ = load_weights(Path(__file__).resolve().parent.parent / "perfbench" / "detector_weights.npz")
    seq = generate_handover_sequence(LoadCurveParams(f_L0=5.0, seed=3), 3.0, 500.0)
    mon = never_releasing(net, period=10)
    scored = 0
    per_push = []
    with counted_cell_steps(mon) as steps:
        for k, reading in enumerate(seq.wrench):
            before = steps[True]
            mon.step(reading)
            per_push.append(steps[True] - before)
            if not math.isnan(mon.output):
                assert mon.output == pair_score(net, seq.wrench[k - 499 : k + 1]), k
                scored += 1
    assert scored == 100
    assert steps[False] == 0
    assert max(per_push) == 1
    # reading 0 starts no scored window, so it is never stepped; every later
    # reading is stepped by its own push, so nothing is left pending
    assert sum(per_push) == len(seq.wrench) - 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_monitor_saturating_readings_raise_no_warning(dtype):
    # readings of about 1e4 drive gate pre-activations far past where exp
    # overflows (about 88 in float32, 710 in float64); the sigmoid must
    # saturate to 0 or 1 without an overflow warning, and the scores stay finite
    net = init_network(hidden=8, dense1=8, dense2=4, seed=9, dtype=dtype)
    readings = np.random.default_rng(9).normal(scale=1e4, size=(60, 6))
    mon = never_releasing(net, window=20, period=5)
    scores = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reading in readings:
            mon.step(reading)
            if not math.isnan(mon.output):
                scores.append(mon.output)
    assert len(scores) == 8 and all(0.0 <= p <= 1.0 for p in scores)


def test_monitor_debounce_and_absorbing():
    mon = small_monitor(window=5, consecutive=3)
    mon.threshold_prob = 1e-12  # every inference is a positive
    rng = np.random.default_rng(4)
    decisions = [mon.step(rng.normal(size=6)) for _ in range(12)]
    # 5 warm-up holds, then 2 more positives needed before release
    assert decisions[:6] == [HOLD] * 6
    assert decisions[6] == RELEASE
    assert all(d == RELEASE for d in decisions[7:])


def test_monitor_non_scoring_pushes_keep_the_streak():
    # period 10: pushes with k % 10 != 0 step the state block but do not
    # score, so they do not break the run of positive scores at k = 10, 20, 30
    mon = ReleaseMonitor(init_network(hidden=4, dense1=8, dense2=4), window=5, period=10)
    mon.consecutive_required = 3
    mon.threshold_prob = 1e-12  # every score is a positive
    rng = np.random.default_rng(7)
    decisions = [mon.step(rng.normal(size=6)) for _ in range(31)]
    assert decisions == [HOLD] * 30 + [RELEASE]


def test_monitor_streak_resets():
    mon = small_monitor(window=5, consecutive=3)
    rng = np.random.default_rng(5)
    mon.threshold_prob = 1.0 - 1e-12  # the first inference is a negative
    for _ in range(5):
        assert mon.step(rng.normal(size=6)) == HOLD
    mon.threshold_prob = 1e-12
    assert mon.step(rng.normal(size=6)) == HOLD
    mon.threshold_prob = 1.0 - 1e-12  # breaks the streak
    assert mon.step(rng.normal(size=6)) == HOLD
    mon.threshold_prob = 1e-12
    assert mon.step(rng.normal(size=6)) == HOLD
    assert mon.step(rng.normal(size=6)) == HOLD
    assert mon.step(rng.normal(size=6)) == RELEASE


def test_monitor_validation():
    net = init_network(hidden=4, dense1=8, dense2=4)
    with pytest.raises(ValueError):
        ReleaseMonitor(net, window=0)
    with pytest.raises(ValueError):
        ReleaseMonitor(net, period=0)


@pytest.mark.parametrize("period, window", [(1, 5), (3, 5), (10, 20), (4, 1)])
def test_monitor_period_phase(period, window):
    # push k+1 infers exactly when k % period == 0 and the window is full,
    # and output carries that score (nan in every other cycle)
    net = init_network(hidden=4, dense1=8, dense2=4, seed=0)
    mon = never_releasing(net, window=window, period=period)
    rows = np.random.default_rng(period).normal(size=(40, 6))
    for k, row in enumerate(rows):
        mon.step(row)
        if k % period == 0 and k + 1 >= window:
            ref = never_releasing(net, window=window, period=1)
            for r in rows[k + 1 - window : k + 1]:
                ref.step(r)
            assert mon.output == ref.output
        else:
            assert math.isnan(mon.output)


def test_monitor_keeps_one_state_row_per_window_in_flight():
    # window 500, period 10: 50 windows overlap at any reading, so the monitor
    # holds 50 state rows and no 500-row ring
    net = init_network(hidden=4, dense1=8, dense2=4, seed=0)
    mon = ReleaseMonitor(net, window=500, period=10)
    rows = [a.shape[0] for a in vars(mon).values() if isinstance(a, np.ndarray) and a.ndim == 2]
    assert max(rows) == 50


# ---------------------------------------------------------------------------
# force-threshold baseline

def clean_sequence(f_L0=5.0, **kwargs):
    defaults = dict(
        f_L0=f_L0, engagement_time=1.0, transfer_duration=0.4,
        dwell_after_transfer=0.1, pull_magnitude=2.0, pull_duration=0.2,
        noise_sigma=0.0, seed=0,
    )
    defaults.update(kwargs)
    return generate_handover_sequence(LoadCurveParams(**defaults), 3.0, 500.0)


def test_threshold_release_timing_on_clean_transfer():
    seq = clean_sequence()
    mon = ThresholdReleaseMonitor(500.0)
    release_idx = None
    for k in range(len(seq)):
        if mon.push(seq.wrench[k]) == RELEASE:
            release_idx = k
            break
    assert release_idx is not None
    # |load| falls to 20% at engagement + 0.8 * transfer; sustained 50 ms
    expected_t = 1.0 + 0.8 * 0.4 + 0.05
    assert abs(seq.times[release_idx] - expected_t) < 0.01
    assert abs(mon.f_L0 - 5.0) < 1e-9


def test_threshold_never_releases_under_constant_load():
    mon = ThresholdReleaseMonitor(500.0)
    reading = np.array([0.0, 0.0, -5.0, 0.0, 0.0, 0.0])
    for _ in range(5000):
        assert mon.push(reading) == HOLD


def test_threshold_fooled_by_cancelling_pulse():
    # a cancelling pulse holds |Fz| under the trigger level for 0.41 * width
    # (half-sine at peak == load), so 150 ms defeats the 50 ms hold window
    seq = clean_sequence(disturbance_events=((0.7, 5.0, 0.15),))
    mon = ThresholdReleaseMonitor(500.0)
    release_idx = None
    for k in range(len(seq)):
        if mon.push(seq.wrench[k]) == RELEASE:
            release_idx = k
            break
    assert release_idx is not None
    assert seq.times[release_idx] < 1.0  # fired inside the pulse, before engagement
    assert seq.fraction[release_idx] == 0.0


def test_threshold_survives_short_pulse():
    # a pulse shorter than the hold window does not trigger
    seq = clean_sequence(disturbance_events=((0.7, 5.0, 0.04),))
    mon = ThresholdReleaseMonitor(500.0)
    for k in range(int(1.0 * 500)):
        assert mon.push(seq.wrench[k]) == HOLD


def test_threshold_step_output_is_load_over_calibrated_weight():
    seq = clean_sequence(noise_sigma=0.05)
    mon = ThresholdReleaseMonitor(500.0)
    outputs = []
    for reading in seq.wrench[:600]:
        mon.step(reading)
        outputs.append(mon.output)
    assert all(math.isnan(v) for v in outputs[:249])
    # the push that completes the calibration already reports its ratio
    assert mon.f_L0 is not None
    assert outputs[249:] == [abs(float(seq.wrench[k][2])) / mon.f_L0 for k in range(249, 600)]


def test_threshold_calibration_validation():
    with pytest.raises(ValueError, match="rate"):
        ThresholdReleaseMonitor(math.nan)


@pytest.mark.parametrize("rate, hold, calibration", [(250.0, 13, 125), (500.0, 25, 250), (1000.0, 50, 500)])
def test_threshold_durations_become_sample_counts(rate, hold, calibration):
    # 50 ms and 0.5 s at the reading rate, rounded up once
    mon = ThresholdReleaseMonitor(rate)
    assert (mon.hold_samples, mon.calibration_samples) == (hold, calibration)
