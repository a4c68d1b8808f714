import logging

import numpy as np
import pytest

from handover_sim.detector import (
    LoadCurveParams,
    balance_dataset,
    generate_handover_sequence,
    load_sequence_csv,
    sample_curve_params,
    save_sequence_csv,
    window_dataset,
)


def clean_params(f_L0=5.0, **kwargs):
    defaults = dict(
        f_L0=f_L0, engagement_time=1.0, transfer_duration=0.4,
        dwell_after_transfer=0.1, pull_magnitude=2.0, pull_duration=0.2,
        noise_sigma=0.0, seed=0,
    )
    defaults.update(kwargs)
    return LoadCurveParams(**defaults)


# ---------------------------------------------------------------------------
# load-curve generator

def test_clean_trace_is_piecewise_schedule():
    p = clean_params()
    seq = generate_handover_sequence(p, 3.0, 500.0)
    fz = seq.wrench[:, 2]
    t = seq.times
    # hold at the full weight before engagement
    assert np.allclose(fz[t < 1.0], -5.0)
    # linear ramp to zero across the transfer
    ramp = (t >= 1.0) & (t <= 1.4)
    assert np.allclose(fz[ramp], -5.0 * (1.0 - (t[ramp] - 1.0) / 0.4), atol=1e-12)
    # dwell at zero, dip to -pull, then zero tail
    assert np.allclose(fz[(t > 1.4) & (t < 1.5)], 0.0, atol=1e-12)
    dip = fz[(t >= 1.5) & (t < 1.7)]
    assert abs(dip.min() + 2.0) < 1e-2
    assert np.allclose(fz[t >= 1.7], 0.0, atol=1e-12)
    # other channels stay quiet without noise
    assert np.allclose(seq.wrench[:, [0, 1, 3, 4, 5]], 0.0)


def test_first_release_label_follows_dip_onset():
    p = clean_params()
    seq = generate_handover_sequence(p, 3.0, 500.0)
    first_one = int(np.argmax(seq.labels))
    assert seq.labels[first_one] == 1
    assert seq.times[first_one - 1] <= p.pull_onset < seq.times[first_one]


def test_pre_engagement_hold_is_exact():
    seq = generate_handover_sequence(clean_params(), 3.0, 500.0)
    assert np.all(seq.wrench[seq.times < 1.0, 2] == -5.0)


def test_disturbance_before_engagement_keeps_labels_zero():
    p = clean_params(disturbance_events=((0.4, 5.0, 0.1),))
    seq = generate_handover_sequence(p, 3.0, 500.0)
    pulse = (seq.times >= 0.4) & (seq.times < 0.5)
    assert np.any(seq.wrench[pulse, 2] > -5.0 + 1.0)  # the pulse cancels load
    assert np.all(seq.labels[seq.times < p.pull_onset] == 0)


def test_labels_are_absorbing():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = sample_curve_params(rng)
        seq = generate_handover_sequence(p, p.schedule_end + 1.0, 500.0)
        labels = seq.labels.astype(int)
        assert np.all(np.diff(labels) >= 0)


def test_schedule_must_fit_duration():
    with pytest.raises(ValueError):
        generate_handover_sequence(clean_params(), 1.5, 500.0)


def test_generator_deterministic():
    p = clean_params(noise_sigma=0.05, seed=123, disturbance_events=((0.5, 3.0, 0.1),))
    a = generate_handover_sequence(p, 3.0, 500.0)
    b = generate_handover_sequence(p, 3.0, 500.0)
    assert np.array_equal(a.wrench, b.wrench)
    assert np.array_equal(a.labels, b.labels)


def test_curve_params_validation():
    with pytest.raises(ValueError):
        LoadCurveParams(f_L0=0.0)
    with pytest.raises(ValueError):
        LoadCurveParams(f_L0=1.0, pull_magnitude=0.0)
    with pytest.raises(ValueError):
        LoadCurveParams(f_L0=1.0, noise_sigma=-0.1)


@pytest.mark.parametrize("event", [
    (0.5, np.nan, 0.1),
    (0.5, np.inf, 0.1),
    (np.nan, 5.0, 0.1),
    (np.inf, 5.0, 0.1),
    (-np.inf, 5.0, 0.1),
    (0.5, 5.0, np.inf),
    (0.5, 5.0, 0.0),
])
def test_curve_params_reject_non_finite_disturbance(event):
    # every disturbance value is checked where the curve is built, before a
    # trace (or a saved CSV of it) could carry NaN samples
    with pytest.raises(ValueError, match="disturbance"):
        LoadCurveParams(f_L0=5.0, engagement_time=1.0, disturbance_events=(event,))


# ---------------------------------------------------------------------------
# windowing

def test_single_window_sequence():
    seq = generate_handover_sequence(clean_params(), 1.0 + 0.7, 500.0)
    # exactly window rows
    assert len(seq) >= 500
    ds = window_dataset([seq], window=len(seq), stride=10)
    assert len(ds) == 1


def test_window_count_formula():
    seq = generate_handover_sequence(clean_params(), 2.0, 500.0)
    assert len(seq) == 1000
    ds = window_dataset([seq], window=500, stride=10)
    assert len(ds) == (1000 - 500) // 10 + 1 == 51


def test_window_count_law_many_sequences():
    rng = np.random.default_rng(7)
    seqs = []
    expected = 0
    for _ in range(8):
        p = sample_curve_params(rng)
        duration = p.schedule_end + float(rng.uniform(0.5, 2.0))
        seq = generate_handover_sequence(p, duration, 500.0)
        seqs.append(seq)
        expected += (len(seq) - 500) // 10 + 1
    ds = window_dataset(seqs)
    assert len(ds) == expected


def test_window_label_is_last_row():
    seq = generate_handover_sequence(clean_params(), 3.0, 500.0)
    ds = window_dataset([seq], window=500, stride=10)
    for idx in (0, 10, len(ds) - 1):
        (window,), (label,) = ds.gather([idx])
        start = ds.refs[idx][1]
        assert label == seq.labels[start + 499]
        assert window.shape == (500, 6)
        # a window whose last row precedes release is labeled 0
        if seq.times[start + 499] < 1.5:
            assert label == 0


def test_short_sequence_skipped_with_warning(caplog):
    short = generate_handover_sequence(clean_params(), 1.75, 100.0)  # 175 rows
    ok = generate_handover_sequence(clean_params(), 3.0, 500.0)
    with caplog.at_level(logging.WARNING):
        ds = window_dataset([short, ok], window=500, stride=10)
    assert "skipping sequence" in caplog.text
    assert len(ds.sequences) == 1


def test_window_rejects_bad_sizes():
    with pytest.raises(ValueError):
        window_dataset([], window=0)


# ---------------------------------------------------------------------------
# balancing

def _dataset_with_ratio(n0, n1):
    # tiny windows over a hand-made sequence for exact class counts
    total = n0 + n1
    from handover_sim.detector import ForceSequence

    labels = np.array([0] * n0 + [1] * n1, dtype=np.int8)
    seq = ForceSequence(
        times=np.arange(total) / 500.0,
        wrench=np.random.default_rng(0).normal(size=(total, 6)),
        labels=labels,
    )
    return window_dataset([seq], window=1, stride=1)


def test_undersample_equalizes():
    ds = _dataset_with_ratio(90, 10)
    out, weights = balance_dataset(ds, "undersample", seed=1)
    assert out.class_counts().tolist() == [10, 10]
    assert np.allclose(weights, 1.0)


def test_oversample_equalizes():
    ds = _dataset_with_ratio(90, 10)
    out, weights = balance_dataset(ds, "oversample", seed=1)
    assert out.class_counts().tolist() == [90, 90]
    assert np.allclose(weights, 1.0)


def test_weighted_loss_inverse_frequency():
    ds = _dataset_with_ratio(75, 25)
    out, weights = balance_dataset(ds, "weighted-loss", seed=1)
    assert len(out) == 100
    assert np.allclose(weights, [2.0 / 3.0, 2.0], atol=1e-12)
    # expected sample weight is 1
    assert abs(np.mean(weights[out.labels]) - 1.0) < 1e-12


def test_balance_within_one_percent():
    ds = _dataset_with_ratio(403, 89)
    for strategy in ("oversample", "undersample"):
        out, _ = balance_dataset(ds, strategy, seed=2)
        counts = out.class_counts()
        assert abs(counts[0] - counts[1]) <= 0.01 * counts.sum()


def test_balance_single_class_raises():
    ds = _dataset_with_ratio(50, 1).subset(np.arange(50))
    with pytest.raises(ValueError):
        balance_dataset(ds, "undersample")


def test_balance_unknown_strategy():
    ds = _dataset_with_ratio(5, 5)
    with pytest.raises(ValueError):
        balance_dataset(ds, "smote")


# ---------------------------------------------------------------------------
# CSV round trip

def test_sequence_csv_round_trip(tmp_path):
    p = clean_params(noise_sigma=0.05, seed=9)
    seq = generate_handover_sequence(p, 2.0, 500.0)
    path = tmp_path / "seq.csv"
    save_sequence_csv(seq, path)
    loaded = load_sequence_csv(path)
    assert np.array_equal(loaded.labels, seq.labels)
    assert np.abs(loaded.wrench - seq.wrench).max() < 1e-7  # %.9g text precision
    assert np.abs(loaded.times - seq.times).max() < 1e-9


def test_sequence_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_sequence_csv(path)
