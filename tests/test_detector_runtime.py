import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from handover_sim.detector import (
    HOLD,
    RELEASE,
    LoadCurveParams,
    NetworkParams,
    ReleaseMonitor,
    ThresholdReleaseMonitor,
    generate_handover_sequence,
    init_network,
    load_weights,
    predict_batch,
)


def small_monitor(window=20, consecutive=3, seed=0):
    net = init_network(hidden=4, dense1=8, dense2=4, seed=seed)
    return ReleaseMonitor(net, window=window, consecutive_required=consecutive)


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
    assert abs(mon.output - direct[1]) < 1e-12


def reference_infer(net: NetworkParams, readings: np.ndarray) -> float:
    """Oracle: the allocating per-step loop over one window of readings.

    Rows are projected one at a time with the weights' own dtype against a
    float64 state, oldest first, and the recurrence starts from zero state.
    """
    H, F = net.hidden, net.input_size
    bias, W_x, W_h = net.W_lstm[0], net.W_lstm[1 : 1 + F], net.W_lstm[1 + F :]
    proj = np.array([bias + np.asarray(r, dtype=float) @ W_x for r in readings])
    h = np.zeros(H)
    c = np.zeros(H)
    for row in proj:
        A = row + h @ W_h
        g = np.tanh(A[:H])
        ifo = expit(A[H:])
        c = ifo[:H] * g + ifo[H : 2 * H] * c
        h = ifo[2 * H :] * np.tanh(c)
    a1 = np.maximum(h @ net.W1 + net.b1, 0.0)
    a2 = np.maximum(a1 @ net.W2 + net.b2, 0.0)
    return float(expit(a2 @ net.W3 + net.b3)[1])


@settings(max_examples=200, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    hidden=st.integers(1, 6),
    window=st.integers(1, 40),
    period=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@example(dtype=np.float32, hidden=4, window=20, period=10, seed=0)  # W % P == 0
@example(dtype=np.float64, hidden=3, window=7, period=3, seed=1)  # reset inside a burst
@example(dtype=np.float32, hidden=6, window=4, period=9, seed=2)  # P > W
@example(dtype=np.float64, hidden=2, window=13, period=1, seed=3)  # every push infers
@example(dtype=np.float32, hidden=1, window=1, period=1, seed=4)
def test_monitor_infer_equals_reference_loop(dtype, hidden, window, period, seed):
    # at every push: the score of the last window readings exactly when
    # k % period == 0 and the window is full, nan otherwise
    net = init_network(hidden=hidden, dense1=5, dense2=3, seed=seed, dtype=dtype)
    readings = np.random.default_rng(seed).normal(scale=3.0, size=(3 * window + period, 6))
    mon = ReleaseMonitor(net, window=window, consecutive_required=10**9, period=period)
    for k, reading in enumerate(readings):
        mon.step(reading)
        if k % period == 0 and k + 1 >= window:
            assert mon.output == reference_infer(net, readings[k + 1 - window : k + 1])
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

    alone = [probs(ReleaseMonitor(net, window=7), rows) for rows in streams]
    a, b = ReleaseMonitor(net, window=7), ReleaseMonitor(net, window=7)
    interleaved = ([], [])
    for ra, rb in zip(*streams):
        interleaved[0].extend(probs(a, [ra]))
        interleaved[1].extend(probs(b, [rb]))
    np.testing.assert_array_equal(interleaved, alone)
    assert len(set(alone[0][6:])) > 1  # inferences ran and moved


# float.hex of the first 20 scores of a default-size monitor (window 500,
# hidden 64, float32 weights), one inference after every 10th reading of a
# synthetic handover trace, as computed by the allocating per-step loop.
GOLDEN_DEFAULT_SCORES = [
    "0x1.012e8884fc48ap-1", "0x1.012fd0de1da6ap-1", "0x1.0130b9a3943f4p-1",
    "0x1.01327f99a73dap-1", "0x1.0131ddb37765fp-1", "0x1.012ddce3a5fe7p-1",
    "0x1.012f3a6b220a6p-1", "0x1.01349b96841c6p-1", "0x1.012d589277f1cp-1",
    "0x1.012dda136c757p-1", "0x1.012bf73b6c59fp-1", "0x1.0131489e47d40p-1",
    "0x1.01302147a4f7ep-1", "0x1.0138e101459c1p-1", "0x1.0136dc8c93c46p-1",
    "0x1.0132184f73e12p-1", "0x1.0131215ca70fcp-1", "0x1.012fefadfa81bp-1",
    "0x1.01299579d6126p-1", "0x1.012c76300cabdp-1",
]


def test_default_monitor_scores_pinned():
    net = init_network(seed=11, dtype=np.float32)
    seq = generate_handover_sequence(LoadCurveParams(f_L0=5.0, seed=3), 3.0, 500.0)
    mon = ReleaseMonitor(net, consecutive_required=10**9, period=10)
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
    # window 500, period 10, hidden 64: 50 slots step together; a plain gemm
    # in place of the stacked per-row gemv moves some of these scores
    net, _ = load_weights(Path(__file__).resolve().parent.parent / "perfbench" / "detector_weights.npz")
    seq = generate_handover_sequence(LoadCurveParams(f_L0=5.0, seed=3), 3.0, 500.0)
    mon = ReleaseMonitor(net, consecutive_required=10**9, period=10)
    scored = 0
    for k, reading in enumerate(seq.wrench):
        mon.step(reading)
        if not math.isnan(mon.output):
            assert mon.output == reference_infer(net, seq.wrench[k - 499 : k + 1]), k
            scored += 1
    assert scored == 100


def test_monitor_debounce_and_absorbing():
    mon = small_monitor(window=5, consecutive=3)
    mon.threshold_prob = 1e-12  # every inference is a positive
    rng = np.random.default_rng(4)
    decisions = [mon.step(rng.normal(size=6)) for _ in range(12)]
    # 5 warm-up holds, then 2 more positives needed before release
    assert decisions[:6] == [HOLD] * 6
    assert decisions[6] == RELEASE
    assert all(d == RELEASE for d in decisions[7:])


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
        ReleaseMonitor(net, threshold_prob=1.5)
    with pytest.raises(ValueError):
        ReleaseMonitor(net, consecutive_required=0)
    with pytest.raises(ValueError):
        ReleaseMonitor(net, period=0)


@pytest.mark.parametrize("period, window", [(1, 5), (3, 5), (10, 20), (4, 1)])
def test_monitor_period_phase(period, window):
    # push k+1 infers exactly when k % period == 0 and the window is full,
    # and output carries that score (nan in every other cycle)
    net = init_network(hidden=4, dense1=8, dense2=4, seed=0)
    mon = ReleaseMonitor(net, window=window, consecutive_required=1000, period=period)
    rows = np.random.default_rng(period).normal(size=(40, 6))
    for k, row in enumerate(rows):
        mon.step(row)
        if k % period == 0 and k + 1 >= window:
            ref = ReleaseMonitor(net, window=window, consecutive_required=1000)
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
    mon = ThresholdReleaseMonitor(theta=0.8, hold_samples=25, calibration_samples=250)
    release_idx = None
    for k in range(len(seq)):
        if mon.push(seq.wrench[k]) == RELEASE:
            release_idx = k
            break
    assert release_idx is not None
    # |load| falls to 20% at engagement + 0.8 * transfer; sustained 50 ms
    expected_t = 1.0 + 0.8 * 0.4 + 25 / 500.0
    assert abs(seq.times[release_idx] - expected_t) < 0.01
    assert abs(mon.f_L0 - 5.0) < 1e-9


def test_threshold_never_releases_under_constant_load():
    mon = ThresholdReleaseMonitor()
    reading = np.array([0.0, 0.0, -5.0, 0.0, 0.0, 0.0])
    for _ in range(5000):
        assert mon.push(reading) == HOLD


def test_threshold_fooled_by_cancelling_pulse():
    # a cancelling pulse holds |Fz| under the trigger level for 0.41 * width
    # (half-sine at peak == load), so 150 ms defeats the 50 ms hold window
    seq = clean_sequence(disturbance_events=((0.7, 5.0, 0.15),))
    mon = ThresholdReleaseMonitor()
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
    mon = ThresholdReleaseMonitor()
    for k in range(int(1.0 * 500)):
        assert mon.push(seq.wrench[k]) == HOLD


def test_threshold_step_output_is_load_over_calibrated_weight():
    seq = clean_sequence(noise_sigma=0.05)
    mon = ThresholdReleaseMonitor(calibration_samples=250)
    outputs = []
    for reading in seq.wrench[:600]:
        mon.step(reading)
        outputs.append(mon.output)
    assert all(math.isnan(v) for v in outputs[:249])
    # the push that completes the calibration already reports its ratio
    assert mon.f_L0 is not None
    assert outputs[249:] == [abs(float(seq.wrench[k][2])) / mon.f_L0 for k in range(249, 600)]


def test_threshold_calibration_validation():
    with pytest.raises(ValueError, match="calibration"):
        ThresholdReleaseMonitor(calibration_samples=0)
    with pytest.raises(ValueError):
        ThresholdReleaseMonitor(theta=1.0)
    with pytest.raises(ValueError):
        ThresholdReleaseMonitor(hold_samples=0)
