import numpy as np
import pytest

from handover_sim.detector import (
    LoadCurveParams,
    TrainingConfig,
    TrainingDivergedError,
    evaluate_accuracy,
    evaluate_loss,
    generate_handover_sequence,
    init_network,
    one_hot,
    train,
    window_dataset,
)


def tiny_dataset(window=50, stride=5, seeds=(0, 1)):
    """Short transfer traces with small windows: trains in seconds."""
    seqs = []
    for seed in seeds:
        p = LoadCurveParams(
            f_L0=5.0, engagement_time=0.4, transfer_duration=0.2,
            dwell_after_transfer=0.05, pull_magnitude=2.0, pull_duration=0.1,
            noise_sigma=0.02, seed=seed,
        )
        seqs.append(generate_handover_sequence(p, 1.4, 500.0))
    return window_dataset(seqs, window=window, stride=stride)


def tiny_config(**kwargs):
    defaults = dict(batch_size=32, seed=0, balancing="weighted-loss")
    defaults.update(kwargs)
    return TrainingConfig(**defaults)


def test_training_descends():
    ds = tiny_dataset()
    net = init_network(hidden=8, dense1=16, dense2=8, seed=0)
    initial = evaluate_loss(net, ds)
    trained, history = train(net, ds, None, tiny_config(max_epochs=200, patience=10))
    assert min(h["train_loss"] for h in history) < initial
    assert len(history) <= 200


def test_training_reaches_useful_accuracy():
    ds = tiny_dataset(seeds=(0, 1, 2, 3))
    net = init_network(hidden=8, dense1=16, dense2=8, seed=0)
    trained, _ = train(net, ds, None, tiny_config(max_epochs=30, patience=30))
    assert evaluate_accuracy(trained, ds) > 0.9


def test_early_stop_semantics():
    ds = tiny_dataset()
    net = init_network(hidden=8, dense1=16, dense2=8, seed=0)
    _, history = train(net, ds, None, tiny_config(max_epochs=60, patience=0))
    losses = [h["train_loss"] for h in history]
    if len(losses) < 60:
        # stopped: the last epoch is exactly the first non-improvement
        best_before_last = min(losses[:-1])
        assert losses[-1] >= best_before_last
        for k in range(1, len(losses) - 1):
            assert losses[k] < min(losses[:k])  # every earlier epoch improved


def test_patience_allows_plateau():
    ds = tiny_dataset()
    net = init_network(hidden=8, dense1=16, dense2=8, seed=0)
    _, strict = train(net, ds, None, tiny_config(max_epochs=40, patience=0))
    _, patient = train(net, ds, None, tiny_config(max_epochs=40, patience=5))
    assert len(patient) >= len(strict)


def test_best_parameters_returned():
    ds = tiny_dataset()
    net = init_network(hidden=8, dense1=16, dense2=8, seed=0)
    trained, history = train(net, ds, None, tiny_config(max_epochs=50, patience=3))
    best = min(h["train_loss"] for h in history)
    # re-evaluating the returned parameters cannot be worse than the best
    # recorded epoch by more than the batch-vs-full evaluation gap
    full_loss = evaluate_loss(trained, ds)
    assert full_loss < best + 0.1


def test_training_reproducible():
    ds = tiny_dataset()
    cfg = tiny_config(max_epochs=5)
    net = init_network(hidden=8, dense1=16, dense2=8, seed=0)
    t1, h1 = train(net, ds, None, cfg)
    t2, h2 = train(net, ds, None, cfg)
    assert h1 == h2
    for name, arr in t1.arrays().items():
        assert np.array_equal(arr, getattr(t2, name))


def test_divergence_reports_epoch():
    ds = tiny_dataset()
    net = init_network(hidden=8, dense1=16, dense2=8, seed=0)
    with pytest.raises(TrainingDivergedError) as info:
        with np.errstate(all="ignore"):
            train(net, ds, None, tiny_config(max_epochs=6, learning_rate=1e120))
    assert info.value.epoch >= 0


def test_empty_training_set_rejected():
    ds = tiny_dataset().subset(np.array([], dtype=int))
    net = init_network(hidden=8, dense1=16, dense2=8)
    with pytest.raises(ValueError):
        train(net, ds, None, tiny_config())


def test_float32_training_matches_task():
    ds = tiny_dataset(seeds=(0, 1, 2))
    net = init_network(hidden=8, dense1=16, dense2=8, seed=0, dtype=np.float32)
    trained, history = train(net, ds, None, tiny_config(max_epochs=20, dtype="float32"))
    assert trained.W_lstm.dtype == np.float32
    assert evaluate_accuracy(trained, ds) > 0.85


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(dtype="float16")


def test_one_hot_layout():
    out = one_hot(np.array([0, 1, 1]))
    assert np.array_equal(out, [[1, 0], [0, 1], [0, 1]])
