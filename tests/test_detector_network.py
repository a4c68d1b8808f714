import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handover_sim.detector import (
    NetworkParams,
    backward_batch,
    bce_loss,
    bce_output_grad,
    forward_batch,
    init_network,
    load_weights,
    one_hot,
    predict_batch,
    save_weights,
)


def small_net(seed=7, H=2, F=3, d1=4, d2=3):
    rng = np.random.default_rng(seed)
    return NetworkParams(
        W_lstm=rng.uniform(-0.6, 0.6, size=(1 + F + H, 4 * H)),
        W1=rng.uniform(-0.6, 0.6, size=(H, d1)),
        b1=rng.uniform(-0.2, 0.2, d1),
        W2=rng.uniform(-0.6, 0.6, size=(d1, d2)),
        b2=rng.uniform(-0.2, 0.2, d2),
        W3=rng.uniform(-0.6, 0.6, size=(d2, 2)),
        b3=rng.uniform(-0.2, 0.2, 2),
    )


# ---------------------------------------------------------------------------
# forward pass

def test_zero_network_outputs_half():
    zero = NetworkParams(
        W_lstm=np.zeros((1 + 6 + 4, 16)),
        W1=np.zeros((4, 8)), b1=np.zeros(8),
        W2=np.zeros((8, 4)), b2=np.zeros(4),
        W3=np.zeros((4, 2)), b3=np.zeros(2),
    )
    out = predict_batch(zero, np.random.default_rng(0).normal(size=(1, 20, 6)))
    assert np.allclose(out, 0.5)


def test_outputs_strictly_in_unit_interval():
    net = init_network(hidden=8, dense1=16, dense2=8, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(5):
        out = predict_batch(net, rng.normal(size=(1, 50, 6)) * 10)
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_single_timestep_manual_unroll():
    # hand-computed LSTM cell + head for one timestep, hidden size 1
    W = np.zeros((1 + 2 + 1, 4))
    W[0] = [0.1, 0.2, -0.1, 0.3]      # biases for (g, i, f, o)
    W[1] = [0.5, -0.4, 0.2, 0.1]      # input feature 1
    W[2] = [-0.3, 0.6, 0.4, -0.2]     # input feature 2
    W[3] = [0.7, 0.1, -0.5, 0.4]      # recurrent weight (unused at t=0)
    net = NetworkParams(
        W_lstm=W,
        W1=np.array([[1.5, -0.5]]), b1=np.array([0.1, -0.1]),
        W2=np.array([[0.8], [0.3]]), b2=np.array([0.05]),
        W3=np.array([[1.2, -0.7]]), b3=np.array([0.02, -0.03]),
    )
    x = np.array([[0.4, -0.6]])

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    pre = W[0] + x[0, 0] * W[1] + x[0, 1] * W[2]
    g = np.tanh(pre[0])
    i, f, o = sigmoid(pre[1]), sigmoid(pre[2]), sigmoid(pre[3])
    c = i * g
    h = o * np.tanh(c)
    a1 = np.maximum(h * net.W1[0] + net.b1, 0.0)
    a2 = np.maximum(a1 @ net.W2 + net.b2, 0.0)
    expected = sigmoid(a2 @ net.W3 + net.b3)

    assert np.allclose(predict_batch(net, x[None])[0], expected, atol=1e-12)


def test_window_shape_mismatch():
    net = init_network(hidden=4, dense1=8, dense2=4)
    with pytest.raises(ValueError):
        predict_batch(net, np.zeros((1, 10, 5)))
    with pytest.raises(ValueError):
        predict_batch(net, np.zeros((2, 10, 7)))


def test_predict_matches_cached_forward():
    net = small_net()
    for batch in (1, 5):
        X = np.random.default_rng(3).normal(size=(batch, 8, 3))
        assert np.array_equal(predict_batch(net, X), forward_batch(net, X)[0])


def reference_lstm(params, X):
    """The allocating LSTM forward that the buffered one replaced, as an oracle.

    One product projects every timestep's input; each step's c, tanh(c) and
    h are fresh arrays copied into the caches.
    """
    dtype = params.W_lstm.dtype
    B, T, F = X.shape
    H = params.hidden
    W = params.W_lstm
    bias, W_x, W_h = W[0], W[1 : 1 + F], W[1 + F :]
    X_tbf = np.ascontiguousarray(np.asarray(X, dtype=dtype).transpose(1, 0, 2))
    GIFO = (X_tbf.reshape(T * B, F) @ W_x + bias).reshape(T, B, 4 * H)
    h = np.zeros((B, H), dtype=dtype)
    c = np.zeros((B, H), dtype=dtype)
    ct = np.empty((B, H), dtype=dtype)
    C, Ct, Hout = (np.empty((T, B, H), dtype=dtype) for _ in range(3))
    with np.errstate(over="ignore"):
        for t in range(T):
            A = GIFO[t]
            A += h @ W_h
            np.tanh(A[:, :H], out=A[:, :H])
            s = A[:, H:]
            np.negative(s, out=s)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)
            g, i, f, o = A[:, :H], A[:, H : 2 * H], A[:, 2 * H : 3 * H], A[:, 3 * H :]
            c *= f
            c += i * g
            np.tanh(c, out=ct)
            h = o * ct
            C[t] = c
            Ct[t] = ct
            Hout[t] = h
    return h, {"X_tbf": X_tbf, "GIFO": GIFO, "C": C, "Ct": Ct, "Hout": Hout}


@settings(max_examples=80, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    hidden=st.integers(1, 8),
    batch=st.integers(1, 6),
    steps=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@example(dtype=np.float64, hidden=8, batch=1, steps=40, seed=4)  # a lone window
def test_forward_equals_reference_lstm(dtype, hidden, batch, steps, seed):
    net = small_net(seed=seed, H=hidden).astype(dtype)
    X = np.random.default_rng(seed).normal(size=(batch, steps, 3)) * 2.0
    h_ref, ref = reference_lstm(net, X)
    y_hat, cache = forward_batch(net, X)
    for key in ("X_tbf", "C", "Ct", "Hout"):
        assert np.array_equal(cache["lstm"][key], ref[key]), key
    # the same activated gates, cached gate-major
    G_ref = ref["GIFO"].reshape(steps, batch, 4, hidden).transpose(0, 2, 1, 3)
    assert np.array_equal(cache["lstm"]["G"], G_ref)
    assert np.array_equal(cache["head"][0], h_ref)
    assert np.array_equal(predict_batch(net, X), y_hat)


def reference_backward(params, cache, dz3):
    """The row-major allocating backward that the gate-major one replaced, as
    an oracle. cache["lstm"] is reference_lstm's, with the row-major GIFO."""
    dtype = params.W_lstm.dtype
    dz3 = np.asarray(dz3, dtype=dtype)
    h_last, a1, a2 = cache["head"]
    grads = {}
    grads["W3"] = a2.T @ dz3
    grads["b3"] = dz3.sum(axis=0)
    dz2 = (dz3 @ params.W3.T) * (a2 > 0.0)
    grads["W2"] = a1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params.W2.T) * (a1 > 0.0)
    grads["W1"] = h_last.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    dh = dz1 @ params.W1.T

    lstm = cache["lstm"]
    X_tbf, GIFO, C, Ct, Hout = (
        lstm["X_tbf"], lstm["GIFO"], lstm["C"], lstm["Ct"], lstm["Hout"],
    )
    T, B, F = X_tbf.shape
    H = params.hidden
    W_h = params.W_lstm[1 + F :]
    W_h_T = np.ascontiguousarray(W_h.T)
    dW = np.zeros_like(params.W_lstm)
    d_bias, dW_x, dW_h = dW[0], dW[1 : 1 + F], dW[1 + F :]
    dc = np.zeros((B, H), dtype=dtype)
    dA = np.empty((B, 4 * H), dtype=dtype)
    flush = dtype == np.float32
    for t in range(T - 1, -1, -1):
        if flush and t % 32 == 31:
            dc *= np.abs(dc) > 1e-30
            dh *= np.abs(dh) > 1e-30
        A = GIFO[t]
        g, i, f, o = A[:, :H], A[:, H : 2 * H], A[:, 2 * H : 3 * H], A[:, 3 * H :]
        ct = Ct[t]
        do = ct * dh
        dc += (1.0 - ct * ct) * o * dh
        dA[:, :H] = (1.0 - g * g) * (i * dc)
        dA[:, H : 2 * H] = i * (1.0 - i) * (g * dc)
        if t > 0:
            dA[:, 2 * H : 3 * H] = f * (1.0 - f) * (C[t - 1] * dc)
        else:
            dA[:, 2 * H : 3 * H] = 0.0
        dA[:, 3 * H :] = o * (1.0 - o) * do
        d_bias += dA.sum(axis=0)
        dW_x += X_tbf[t].T @ dA
        if t > 0:
            dW_h += Hout[t - 1].T @ dA
        dc *= f
        dh = dA @ W_h_T
    grads["W_lstm"] = dW
    return grads


@settings(max_examples=80, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    hidden=st.integers(1, 8),
    batch=st.integers(1, 6),
    steps=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
@example(dtype=np.float32, hidden=8, batch=1, steps=1, seed=0)
@example(dtype=np.float32, hidden=5, batch=4, steps=70, seed=3)  # flushes at t = 63 and 31
@example(dtype=np.float64, hidden=8, batch=1, steps=40, seed=4)  # a lone window
def test_backward_equals_reference_backward(dtype, hidden, batch, steps, seed):
    net = small_net(seed=seed, H=hidden).astype(dtype)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(batch, steps, 3)) * 2.0
    dz3 = rng.normal(size=(batch, 2))
    _, ref = reference_lstm(net, X)
    _, cache = forward_batch(net, X)
    grads = backward_batch(net, cache, dz3)
    expected = reference_backward(net, {"head": cache["head"], "lstm": ref}, dz3)
    assert grads.keys() == expected.keys()
    for name, grad in expected.items():
        assert grads[name].dtype == dtype and np.array_equal(grads[name], grad), name


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    hidden=st.sampled_from([1, 2, 5, 8]),
    shapes=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 8)), min_size=2, max_size=6),
    seed=st.integers(0, 2**16),
)
@example(dtype=np.float32, hidden=5, shapes=[(3, 6), (8, 6), (1, 6), (6, 6)], seed=0)
@example(dtype=np.float64, hidden=8, shapes=[(9, 8), (2, 3), (9, 8), (1, 1)], seed=1)
def test_reused_forward_buffers_equal_fresh(dtype, hidden, shapes, seed):
    # batches that grow and shrink (and change length) through one chain of
    # reused caches give exactly what fresh buffers give
    net = small_net(seed=seed, H=hidden).astype(dtype)
    rng = np.random.default_rng(seed)
    reused = None
    for batch, steps in shapes:
        X = rng.normal(size=(batch, steps, 3)) * 2.0
        dz3 = rng.normal(size=(batch, 2))
        y_fresh, fresh = forward_batch(net, X)
        y_reused, reused = forward_batch(net, X, reused)
        assert np.array_equal(y_reused, y_fresh)
        for key, arr in fresh["lstm"].items():
            assert np.array_equal(reused["lstm"][key], arr), key
        for arr_reused, arr in zip(reused["head"], fresh["head"]):
            assert np.array_equal(arr_reused, arr)
        g_fresh = backward_batch(net, fresh, dz3)
        g_reused = backward_batch(net, reused, dz3)
        for name, grad in g_fresh.items():
            assert grad.dtype == dtype and np.array_equal(g_reused[name], grad), name


# ---------------------------------------------------------------------------
# loss

def test_bce_perfect_prediction():
    y = np.array([[1.0, 0.0]])
    y_hat = np.array([[1.0 - 1e-9, 1e-9]])
    assert bce_loss(y, y_hat) < 1e-6


def test_bce_uninformative_prediction():
    loss = bce_loss(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert abs(loss - (-np.log(0.5))) < 1e-12


def test_bce_complement_symmetry():
    rng = np.random.default_rng(4)
    y = one_hot(rng.integers(0, 2, 8))
    y_hat = rng.uniform(0.01, 0.99, size=(8, 2))
    assert abs(bce_loss(y, y_hat) - bce_loss(1.0 - y, 1.0 - y_hat)) < 1e-12


def test_bce_clamps_extremes():
    loss = bce_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert np.isfinite(loss)
    assert loss > 10.0


def test_bce_sample_weights_scale():
    y = one_hot(np.array([0, 1]))
    y_hat = np.array([[0.7, 0.3], [0.4, 0.6]])
    base = bce_loss(y, y_hat)
    weighted = bce_loss(y, y_hat, sample_weights=np.array([2.0, 2.0]))
    assert abs(weighted - 2.0 * base) < 1e-12


# ---------------------------------------------------------------------------
# gradients

def test_gradient_check_small_net():
    net = small_net()
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 3, 3))  # 3 timesteps
    Y = one_hot(np.array([0, 1, 1, 0]))
    y_hat, cache = forward_batch(net, X)
    grads = backward_batch(net, cache, bce_output_grad(Y, y_hat))
    eps = 1e-5
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
        assert rel.max() < 1e-4, f"{name}: max relative error {rel.max():.2e}"


def test_gradient_with_sample_weights():
    net = small_net(seed=9)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3, 4, 3))
    Y = one_hot(np.array([1, 0, 1]))
    w = np.array([0.5, 2.0, 1.0])
    y_hat, cache = forward_batch(net, X)
    grads = backward_batch(net, cache, bce_output_grad(Y, y_hat, w))
    eps = 1e-5
    arr = net.W_lstm
    g_fd = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        lp = bce_loss(Y, forward_batch(net, X)[0], w)
        arr[idx] = orig - eps
        lm = bce_loss(Y, forward_batch(net, X)[0], w)
        arr[idx] = orig
        g_fd[idx] = (lp - lm) / (2 * eps)
    rel = np.abs(grads["W_lstm"] - g_fd) / np.maximum(np.abs(grads["W_lstm"]) + np.abs(g_fd), 1e-7)
    assert rel.max() < 1e-4


# ---------------------------------------------------------------------------
# serialization

def test_weights_round_trip(tmp_path):
    net = init_network(hidden=8, dense1=16, dense2=8, seed=3)
    path = tmp_path / "weights.npz"
    save_weights(net, path, meta={"train_loss": 0.123})
    loaded, meta = load_weights(path)
    for name, arr in net.arrays().items():
        assert np.array_equal(arr, getattr(loaded, name))
    assert meta["train_loss"] == 0.123
    assert meta["hidden"] == 8
    # the member order of a weights file, pinned literally
    with np.load(path) as data:
        assert data.files == ["meta", "W_lstm", "W1", "b1", "W2", "b2", "W3", "b3"]


def test_corrupt_weights_name_shape(tmp_path):
    net = init_network(hidden=8, dense1=16, dense2=8)
    path = tmp_path / "weights.npz"
    save_weights(net, path)
    import numpy as np_mod

    with np_mod.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["W1"] = arrays["W1"][:, :3]  # break the dense-1 shape
    np_mod.savez(path, **arrays)
    with pytest.raises(ValueError, match="W1|shape|corrupt"):
        load_weights(path)


def test_missing_entry_reported(tmp_path):
    path = tmp_path / "weights.npz"
    np.savez(path, meta="{}", W_lstm=np.zeros((8, 4)))
    with pytest.raises(ValueError, match="missing"):
        load_weights(path)


def test_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(
            W_lstm=np.full((10, 12), np.nan),
            W1=np.zeros((3, 4)), b1=np.zeros(4),
            W2=np.zeros((4, 3)), b2=np.zeros(3),
            W3=np.zeros((3, 2)), b3=np.zeros(2),
        )
    with pytest.raises(ValueError):
        NetworkParams(
            W_lstm=np.zeros((10, 12)),
            W1=np.zeros((5, 4)), b1=np.zeros(4),  # hidden mismatch
            W2=np.zeros((4, 3)), b2=np.zeros(3),
            W3=np.zeros((3, 2)), b3=np.zeros(2),
        )
