"""Network core: exact gradients, optimizers, checkpoints."""

import json

import numpy as np
import pytest

from lyapnav import nn


def finite_difference_param_grads(net, x, upstream, eps=1e-6):
    """Central finite differences of sum(upstream * net(x)) in every parameter."""
    grads = []
    for p in net.params():
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(np.sum(upstream * net.forward(x)))
            flat[i] = orig - eps
            lo = float(np.sum(upstream * net.forward(x)))
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + 1e-10)


@pytest.mark.parametrize("act", ["identity", "tanh", "softplus"])
def test_param_gradients_match_finite_differences(act):
    rng = np.random.default_rng(7)
    net = nn.Mlp([3, 8, 2], act, rng)
    x = rng.normal(size=(5, 3))
    upstream = rng.normal(size=(5, 2))
    analytic, _ = net.gradients(x, upstream)
    numeric = finite_difference_param_grads(net, x, upstream)
    for a, b in zip(analytic, numeric):
        assert np.max(rel_err(a, b)) < 1e-5


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    net = nn.Mlp([4, 16, 16, 1], "identity", rng)
    x = rng.normal(size=(6, 4))
    upstream = rng.normal(size=(6, 1))
    analytic = net.input_gradients(x, upstream)
    eps = 1e-6
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += eps
            xm[i, j] -= eps
            num = float(np.sum(upstream * (net.forward(xp) - net.forward(xm)))) / (2 * eps)
            assert rel_err(analytic[i, j], num) < 1e-5


@pytest.mark.parametrize("act", ["identity", "tanh", "softplus"])
@pytest.mark.parametrize("shape", [(3,), (1, 3), (5, 3)])
def test_forward_cache_and_backward_match_forward_and_gradients(act, shape):
    rng = np.random.default_rng(10)
    net = nn.Mlp([3, 6, 6, 2], act, rng)
    x = rng.normal(size=shape)
    u1, u2 = rng.normal(size=shape[:-1] + (2,)), rng.normal(size=shape[:-1] + (2,))
    out, cache = net.forward_cache(x)
    assert out.tobytes() == net.forward(x).tobytes()
    # one cache serves several backward passes, unchanged by each of them
    for u in (u1, u2):
        grads, input_grad = net.backward(cache, u)
        ref_grads, ref_input_grad = net.gradients(x, u)
        assert input_grad.shape == x.shape
        assert input_grad.tobytes() == ref_input_grad.tobytes()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]
    with pytest.raises(nn.ShapeError):
        net.backward(cache, np.zeros(shape[:-1] + (3,)))


def test_forward_1d_matches_batched():
    net = nn.Mlp([3, 5, 2], "tanh", np.random.default_rng(0))
    x = np.array([0.3, -0.2, 1.1])
    assert np.allclose(net.forward(x), net.forward(x[None, :])[0])


def test_forward_rejects_bad_shapes():
    net = nn.Mlp([3, 5, 2], "tanh", np.random.default_rng(0))
    with pytest.raises(nn.ShapeError):
        net.forward(np.zeros((4, 2)))


def test_adam_step_matches_reference_formula():
    # oracle: one hand-computed Adam update on scalar parameters
    p = np.array([1.0])
    g = np.array([0.5])
    state = nn.AdamState([p], lr=0.1)
    nn.adam_step(state, [p], [g])
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expected = 1.0 - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.isclose(p[0], expected)


def test_polyak_update_formula():
    a = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(1))
    b = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(2))
    before = [p.copy() for p in a.params()]
    nn.polyak_update(a, b, 0.25)
    for t, t0, o in zip(a.params(), before, b.params()):
        assert np.allclose(t, 0.75 * t0 + 0.25 * o)


def test_polyak_tau_one_copies():
    a = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(1))
    b = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(2))
    nn.polyak_update(a, b, 1.0)
    for t, o in zip(a.params(), b.params()):
        assert np.array_equal(t, o)


def test_checkpoint_roundtrip(tmp_path):
    net = nn.Mlp([3, 4, 2], "tanh", np.random.default_rng(3))
    path = tmp_path / "net.json"
    nn.save_params(net, path)
    other = nn.Mlp([3, 4, 2], "tanh", np.random.default_rng(99))
    nn.load_params(path, other)
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert np.array_equal(net.forward(x), other.forward(x))


def test_checkpoint_rejects_architecture_mismatch(tmp_path):
    net = nn.Mlp([3, 4, 2], "tanh", np.random.default_rng(3))
    path = tmp_path / "net.json"
    nn.save_params(net, path)
    other = nn.Mlp([3, 5, 2], "tanh", np.random.default_rng(4))
    with pytest.raises(nn.CheckpointError):
        nn.load_params(path, other)


def test_checkpoint_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    net = nn.Mlp([2, 2, 1], "identity", np.random.default_rng(0))
    with pytest.raises(nn.CheckpointError):
        nn.load_params(path, net)


def test_params_digest_detects_change():
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(5))
    d1 = nn.params_digest(net)
    assert d1 == nn.params_digest(net)
    net.params()[0][0, 0] += 1e-9
    assert nn.params_digest(net) != d1


def test_check_finite_raises_on_nan():
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(6))
    net.params()[0][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        nn.check_finite(net)
