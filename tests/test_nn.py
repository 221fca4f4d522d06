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


@pytest.mark.parametrize("act", nn.OUTPUT_ACTIVATIONS)
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


@pytest.mark.parametrize("act", nn.OUTPUT_ACTIVATIONS)
# the ids keep the numbering of the cases from when a 1-D case came first
@pytest.mark.parametrize(
    "shape", [pytest.param((1, 3), id="shape1"), pytest.param((5, 3), id="shape2")]
)
def test_forward_cache_and_backward_match_forward_and_gradients(act, shape):
    rng = np.random.default_rng(10)
    net = nn.Mlp([3, 6, 6, 2], act, rng)
    x = rng.normal(size=shape)
    u1, u2 = rng.normal(size=shape[:-1] + (2,)), rng.normal(size=shape[:-1] + (2,))
    out, acts = net.forward_cache(x)
    assert out.tobytes() == net.forward(x).tobytes()
    # one cache serves several backward passes, unchanged by each of them
    # gradients() is the pair of the two passes, bit for bit
    for u in (u1, u2):
        grads = net.backward(acts, u)
        input_grad = net.backward(acts, u, params=False)  # no parameter gradients
        ref_grads, ref_input_grad = net.gradients(x, u)
        assert isinstance(grads, nn.Params) and grads.layer_sizes == tuple(net.layer_sizes)
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]
        assert type(input_grad) is np.ndarray and input_grad.shape == x.shape
        assert input_grad.tobytes() == ref_input_grad.tobytes()
        assert net.input_gradients(x, u).tobytes() == ref_input_grad.tobytes()
    with pytest.raises(nn.ShapeError):
        net.backward(acts, np.zeros(shape[:-1] + (3,)))


def test_forward_1d_matches_batched():
    net = nn.Mlp([3, 5, 2], "tanh", np.random.default_rng(0))
    x = np.array([0.3, -0.2, 1.1])
    assert np.allclose(net.forward(x), net.forward(x[None, :])[0])


def test_forward_rejects_bad_shapes():
    net = nn.Mlp([3, 5, 2], "tanh", np.random.default_rng(0))
    with pytest.raises(nn.ShapeError):
        net.forward(np.zeros((4, 2)))
    with pytest.raises(nn.ShapeError):  # a batch of rows or one row, nothing else
        net.forward(np.zeros((2, 4, 3)))
    # a 1-D input is forward's alone: the cache and backward take batches
    with pytest.raises(nn.ShapeError):
        net.forward_cache(np.zeros(3))
    _, acts = net.forward_cache(np.zeros((1, 3)))
    with pytest.raises(nn.ShapeError):
        net.backward(acts, np.zeros(2))


def test_adam_step_matches_reference_formula():
    # oracle: one hand-computed Adam update of each scalar parameter of a
    # [1, 1] network, whose weight and bias gradients are both 0.5
    net = nn.Mlp([1, 1], "identity", np.random.default_rng(0))
    net.params().flat[:] = (1.0, -2.0)
    grads, _ = net.gradients(np.ones((1, 1)), np.full((1, 1), 0.5))
    assert grads.flat.tolist() == [0.5, 0.5]
    state = nn.AdamState(net.params(), lr=0.1)
    nn.adam_step(state, net.params(), grads)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    step = 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(net.params().flat, [1.0 - step, -2.0 - step])
    assert net.params().writes == 1


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


def _adam_step_writes_nothing(state, net, grads, match):
    before = net.params().flat.copy()
    with pytest.raises(nn.ShapeError, match=match):
        nn.adam_step(state, net.params(), grads)
    assert state.t == 0 and not state.m.any() and not state.v.any()
    assert net.params().flat.tobytes() == before.tobytes() and net.params().writes == 0


@pytest.mark.parametrize("reverse", [False, True])
def test_adam_step_rejects_another_networks_state(reverse):
    # the critic's and the actor's moments differ only in the last layer:
    # (64, 1) and (1,) against (64, 2) and (2,), which numpy would broadcast
    q = nn.Mlp([7, 64, 64, 1], "identity", np.random.default_rng(0))
    pi = nn.Mlp([7, 64, 64, 2], "tanh", np.random.default_rng(1))
    owner, net = (pi, q) if reverse else (q, pi)
    grads, _ = net.gradients(np.ones((3, 7)), np.ones((3, net.out_dim)))
    _adam_step_writes_nothing(nn.AdamState(owner.params()), net, grads, "state of a")


def test_adam_step_rejects_a_state_of_the_same_size():
    # [2, 3, 1] and [1, 4, 1] both have 13 parameters
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(0))
    owner = nn.Mlp([1, 4, 1], "identity", np.random.default_rng(1))
    assert net.params().flat.size == owner.params().flat.size == 13
    grads, _ = net.gradients(np.ones((2, 2)), np.ones((2, 1)))
    _adam_step_writes_nothing(nn.AdamState(owner.params()), net, grads, r"\[1, 4, 1\]")


def test_adam_step_rejects_arrays_that_are_not_one_networks_views():
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(0))
    grads, _ = net.gradients(np.ones((2, 2)), np.ones((2, 1)))
    state = nn.AdamState(net.params())
    _adam_step_writes_nothing(state, net, list(grads), "not a list")
    with pytest.raises(nn.ShapeError, match="not a list"):
        nn.adam_step(state, list(net.params()), grads)
    with pytest.raises(nn.ShapeError, match="not a list"):
        nn.AdamState(list(net.params()))
    assert state.t == 0


def test_polyak_update_rejects_another_output_activation():
    a = nn.Mlp([2, 3, 1], "tanh", np.random.default_rng(1))
    b = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(2))
    before = [p.copy() for p in a.params()]
    with pytest.raises(nn.ShapeError, match="identity"):
        nn.polyak_update(a, b, 0.5)
    assert all(np.array_equal(x, y) for x, y in zip(before, a.params()))


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


@pytest.mark.parametrize("key", ["weights", "biases"])
def test_checkpoint_rejects_a_missing_layer(tmp_path, key):
    # each loaded array is written into its view, so a short list would
    # leave the last layer's old values in place
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(0))
    path = tmp_path / "net.json"
    nn.save_params(net, path)
    doc = json.loads(path.read_text())
    doc[key].pop()
    path.write_text(json.dumps(doc))
    before = net.params().flat.copy()
    with pytest.raises(nn.CheckpointError, match="number of layers"):
        nn.load_params(path, net)
    assert net.params().flat.tobytes() == before.tobytes() and net.params().writes == 0


@pytest.mark.parametrize(
    "field, value", [("output_activation", "softplus"), ("hidden_activation", "relu"), ("format_version", 99)]
)
def test_checkpoint_rejects_unknown_activation(tmp_path, field, value):
    # activations no network has, and a format this code does not write
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(0))
    path = tmp_path / "net.json"
    nn.save_params(net, path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(nn.CheckpointError, match=str(value)):
        nn.load_params(path, net)


@pytest.mark.parametrize("where, value", [("weight", "0.5"), ("bias", True), ("bias", False)])
def test_checkpoint_rejects_parameters_that_are_not_numbers(tmp_path, where, value):
    # numpy reads "0.5" and true as 0.5 and 1.0
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(0))
    path = tmp_path / "net.json"
    nn.save_params(net, path)
    doc = json.loads(path.read_text())
    if where == "weight":
        doc["weights"][1][2][0] = value
    else:
        doc["biases"][0] = [value] * 3
    path.write_text(json.dumps(doc))
    before = net.params().flat.copy()
    with pytest.raises(nn.CheckpointError):
        nn.load_params(path, net)
    assert net.params().flat.tobytes() == before.tobytes() and net.params().writes == 0


def test_number_list_checks_each_level():
    assert nn.number_list([1, 2.5]) and nn.number_list([[1], []], 2) and nn.number_list([[[0.5]]], 3)
    for x, depth in (([True], 1), (["1"], 1), ([[1]], 1), ([1], 2), ([[1], 2], 2), ((1, 2), 1), ([[[False]]], 3)):
        assert not nn.number_list(x, depth), (x, depth)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["weight", "bias"])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, where, value):
    # Python's json reads these literals as floats; a network holding one
    # would act without error and never reach a goal
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(0))
    path = tmp_path / "net.json"
    nn.save_params(net, path)
    doc = json.loads(path.read_text())
    if where == "weight":
        doc["weights"][1][2][0] = float(value)
    else:
        doc["biases"][0][1] = float(value)
    path.write_text(json.dumps(doc))
    assert value in path.read_text()
    before = [p.copy() for p in net.params()]
    with pytest.raises(nn.CheckpointError, match="non-finite"):
        nn.load_params(path, net)
    assert all(np.array_equal(a, b) for a, b in zip(before, net.params()))


def test_params_digest_detects_change():
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(5))
    d1 = nn.params_digest(net)
    assert d1 == nn.params_digest(net)
    net.params()[0][0, 0] += 1e-9
    assert nn.params_digest(net) != d1


def test_check_finite_raises_on_nan():
    net = nn.Mlp([2, 3, 1], "identity", np.random.default_rng(6))
    nn.check_finite(net)
    net.params()[0][0, 0] = np.nan
    with pytest.raises(FloatingPointError, match=r"in pi: W0\[0, 0\] is nan"):
        nn.check_finite(net, "in pi")
    # the first non-finite entry in params() order is the one named
    net = nn.Mlp([3, 5, 4, 2], "tanh", np.random.default_rng(6))
    net.biases[1][3] = -np.inf
    net.weights[2][1, 0] = np.nan
    with pytest.raises(FloatingPointError, match=r"b1\[3\] is -inf"):
        nn.check_finite(net)
    net.biases[1][3] = 0.0
    with pytest.raises(FloatingPointError, match=r"W2\[1, 0\] is nan"):
        nn.check_finite(net)


def test_params_views_tile_one_array_in_order():
    net = nn.Mlp([3, 5, 4, 2], "tanh", np.random.default_rng(7))
    params = net.params()
    assert params is net.params() and isinstance(params.flat, np.ndarray)
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    assert [p.shape for p in params] == [(3, 5), (5,), (5, 4), (4,), (4, 2), (2,)]
    assert list(params[0::2]) == net.weights and list(params[1::2]) == net.biases
    start = 0
    for p in params:
        assert p.base is params.flat
        assert p.ctypes.data == params.flat.ctypes.data + 8 * start
        start += p.size
    assert start == params.flat.size
    assert params.flat.tobytes() == b"".join(p.tobytes() for p in params)
    other = net.copy()
    assert other.params().flat.tobytes() == params.flat.tobytes()
    assert not np.shares_memory(other.params().flat, params.flat)
    other.weights[0][0, 0] += 1.0
    assert other.params().flat[0] == params.flat[0] + 1.0


def test_a_view_taken_before_load_params_sees_the_loaded_values(tmp_path):
    path = tmp_path / "net.json"
    nn.save_params(nn.Mlp([3, 4, 2], "tanh", np.random.default_rng(3)), path)
    net = nn.Mlp([3, 4, 2], "tanh", np.random.default_rng(99))
    w1, flat = net.weights[1], net.params().flat
    nn.load_params(path, net)
    assert net.params().writes == 1 and net.params().flat is flat
    assert w1.tolist() == json.loads(path.read_text())["weights"][1]


def test_backward_gradients_do_not_alias():
    net = nn.Mlp([3, 6, 2], "tanh", np.random.default_rng(9))
    _, acts = net.forward_cache(np.ones((4, 3)))
    g1 = net.backward(acts, np.ones((4, 2)))
    g2 = net.backward(acts, np.ones((4, 2)))
    assert g1.flat.tobytes() == g2.flat.tobytes()
    assert not np.shares_memory(g1.flat, g2.flat)
    assert not np.shares_memory(g1.flat, net.params().flat)
    assert [g.shape for g in g1] == [p.shape for p in net.params()]
    assert all(g.base is g1.flat for g in g1)
