"""Small fully-connected networks with hand-written backprop.

Everything here is plain numpy. Networks are value objects: forward and
gradients never mutate state, so they can be shared read-only. Training code
owns a single mutable copy per network.

Each network keeps its parameters in one contiguous float64 array, in
``params()`` order ``[W0, b0, W1, b1, ...]``; ``weights``, ``biases`` and
``params()`` are views into it; backward returns its parameter gradients in
one fresh array of the same layout, or with ``params=False`` the input
gradient alone. Adam, Polyak averaging, the finite check, the digest and the
checkpoint loader each run once over the one array, with the elementwise
operations of a loop over the views, so their results are bit for bit those
of such a loop. ``Params.writes`` counts the writes of adam_step,
polyak_update and load_params, so that a value derived from the parameters
can tell when it went stale.

forward and forward_cache run one layer loop; forward keeps no activations.

The passes compute in place on arrays they allocate per call (the layer
product takes its bias and tanh in place; backward scales its delta by one
``1 - a**2`` temporary), in the operation order of the plain expressions, so
results are bit for bit those of ``np.tanh(a @ w + b)`` and
``delta * (1.0 - a ** 2)``. backward never writes to its cache, so a cache
and the output ``forward_cache`` returned stay valid after any number of
backward passes. Adam's moments and Polyak's targets are updated in place.
"""

import functools
import hashlib
import json
import math
import os

import numpy as np

CHECKPOINT_VERSION = 1

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

HIDDEN_ACTIVATION = "tanh"
OUTPUT_ACTIVATIONS = ("identity", "tanh")


class ShapeError(ValueError):
    """Input or parameter shapes do not match the network architecture."""


class CheckpointError(RuntimeError):
    """A parameter file is malformed or does not match the architecture."""


def _tanh_slope(a):
    """1 - a**2 in a fresh array: the derivative of tanh at its output a."""
    slope = np.square(a)
    np.subtract(1.0, slope, out=slope)
    return slope


@functools.cache
def _layout(layer_sizes):
    """(size, [(start, stop, shape), ...]) of W0, b0, W1, b1, ... in one array."""
    layout, start = [], 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        for shape in ((n_in, n_out), (n_out,)):
            size = math.prod(shape)
            layout.append((start, start + size, shape))
            start += size
    return start, tuple(layout)


class Params(tuple):
    """The parameters [W0, b0, W1, b1, ...] of a network with ``layer_sizes``,
    as views that tile one contiguous float64 array, ``flat``, in that order.
    Without ``flat`` a fresh, uninitialised array is allocated. ``writes``
    counts the writes of adam_step, polyak_update and load_params."""

    def __new__(cls, layer_sizes, flat=None):
        layer_sizes = tuple(layer_sizes)
        size, layout = _layout(layer_sizes)
        if flat is None:
            flat = np.empty(size)
        self = super().__new__(cls, [flat[start:stop].reshape(shape) for start, stop, shape in layout])
        self.layer_sizes = layer_sizes
        self.flat = flat
        self.writes = 0
        return self


class Mlp:
    """Feed-forward net, tanh hidden layers, identity or tanh output."""

    def __init__(self, layer_sizes, output_activation="identity", rng=None):
        if len(layer_sizes) < 2 or any(n <= 0 for n in layer_sizes):
            raise ShapeError(f"bad layer sizes {layer_sizes}")
        if output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.layer_sizes = list(layer_sizes)
        self.output_activation = output_activation
        if rng is None:
            rng = np.random.default_rng(0)
        self._bind(Params(layer_sizes))
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, params):
        self._params = params
        self.weights = list(params[0::2])
        self.biases = list(params[1::2])

    @property
    def in_dim(self):
        return self.layer_sizes[0]

    @property
    def out_dim(self):
        return self.layer_sizes[-1]

    def params(self):
        """The parameters [W0, b0, W1, b1, ...], live views of one array (Params)."""
        return self._params

    def copy(self):
        other = Mlp.__new__(Mlp)
        other.layer_sizes = list(self.layer_sizes)
        other.output_activation = self.output_activation
        other._bind(Params(self.layer_sizes, self._params.flat.copy()))
        return other

    def forward(self, x):
        """The output for a batch of rows, or for one 1-D input."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.in_dim:
            raise ShapeError(f"input shape {x.shape} incompatible with in_dim {self.in_dim}")
        return self._layers(x)

    def forward_cache(self, x):
        """forward(x) of a 2-D batch together with the activation cache, the
        activations per layer, input included, that backward() takes."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"input shape {x.shape} incompatible with in_dim {self.in_dim}")
        acts = [x]
        return self._layers(x, acts), acts

    def _layers(self, z, acts=None):
        """The one layer loop of forward and forward_cache; appends each
        layer's activations to ``acts`` when given."""
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = z @ w
            z += b
            if i < last or self.output_activation == "tanh":
                np.tanh(z, out=z)
            if acts is not None:
                acts.append(z)
        return z

    def backward(self, acts, upstream, params=True):
        """Backprop of <upstream, forward(x)> summed over the batch, where
        acts comes from forward_cache(x) on the current parameters.

        Returns the parameter gradients, the views of one fresh array in
        params() order (Params); with params=False, the gradient with
        respect to x alone, shaped like x, and no parameter gradient.
        """
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != (acts[0].shape[0], self.out_dim):
            raise ShapeError(f"upstream shape {upstream.shape} incompatible")
        if self.output_activation == "tanh":
            delta = _tanh_slope(acts[-1])
            delta *= upstream
        else:
            delta = upstream
        grads = Params(self.layer_sizes) if params else None
        for i in range(len(self.weights) - 1, -1, -1):
            if params:
                np.matmul(acts[i].T, delta, out=grads[2 * i])
                np.add.reduce(delta, axis=0, out=grads[2 * i + 1])  # delta.sum(axis=0)
                if i == 0:
                    return grads
            delta = delta @ self.weights[i].T
            if i > 0:
                delta *= _tanh_slope(acts[i])
        return delta

    def gradients(self, x, upstream):
        """(param_grads, input_grad): both backward() passes on one forward_cache(x)."""
        acts = self.forward_cache(x)[1]
        return self.backward(acts, upstream), self.backward(acts, upstream, params=False)

    def input_gradients(self, x, upstream):
        """Gradient of <upstream, forward(x)> with respect to x only."""
        return self.backward(self.forward_cache(x)[1], upstream, params=False)


class AdamState:
    """Adam moments of one network, one array each in its params() layout;
    the step counter increments on every update."""

    def __init__(self, params, lr=1e-3):
        _check_params("AdamState", "parameters", params)
        self.lr = lr
        self.t = 0
        self.layer_sizes = params.layer_sizes
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)


def _check_params(caller, what, params, layer_sizes=None):
    if not isinstance(params, Params):
        raise ShapeError(
            f"{caller}: {what} must be a network's params() or a backward's gradients, not a {type(params).__name__}"
        )
    if layer_sizes is not None and params.layer_sizes != layer_sizes:
        raise ShapeError(
            f"{caller}: {what} of a {list(params.layer_sizes)} network, state of a {list(layer_sizes)} network"
        )


def adam_step(state, params, grads):
    """One Adam update, in place on params and on the state's moments, over
    their flat arrays. Returns params for convenience. params must be a
    network's params() and grads a backward's gradients, both of the
    architecture the state was built for; anything else raises ShapeError
    before anything is written."""
    _check_params("adam_step", "parameters", params, state.layer_sizes)
    _check_params("adam_step", "gradients", grads, state.layer_sizes)
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1 - b1**state.t, 1 - b2**state.t
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    m *= b1
    m += (1 - b1) * g
    tmp = (1 - b2) * g
    tmp *= g
    v *= b2
    v += tmp
    # p -= lr (m / c1) / (sqrt(v / c2) + eps)
    step = m / c1
    step *= state.lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step /= tmp
    p -= step
    params.writes += 1
    return params


def polyak_update(target, online, tau):
    """target <- (1 - tau) * target + tau * online, elementwise and in place."""
    if target.layer_sizes != online.layer_sizes or target.output_activation != online.output_activation:
        raise ShapeError(
            f"polyak_update: architecture {target.layer_sizes}/{target.output_activation} "
            f"!= {online.layer_sizes}/{online.output_activation}"
        )
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    params = target.params()
    t = params.flat
    step = tau * online.params().flat  # read before t changes, in case target is online
    t *= 1 - tau
    t += step
    params.writes += 1


def check_finite(net, context=""):
    """Raise FloatingPointError naming the first NaN or infinity in net's parameters."""
    params = net.params()
    finite = np.isfinite(params.flat)
    if finite.all():
        return
    index = int(np.argmin(finite))  # the first non-finite entry, named as W1[12, 40] or b0[3]
    for k, p in enumerate(params):
        if index < p.size:
            where = np.unravel_index(index, p.shape)
            name = f"{'Wb'[k % 2]}{k // 2}[{', '.join(str(int(i)) for i in where)}]"
            raise FloatingPointError(f"non-finite parameters detected {context}: {name} is {p[where]}")
        index -= p.size


def save_params(net, path):
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "layer_sizes": net.layer_sizes,
        "hidden_activation": HIDDEN_ACTIVATION,
        "output_activation": net.output_activation,
        "weights": [np.asarray(w).tolist() for w in net.weights],
        "biases": [np.asarray(b).tolist() for b in net.biases],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_params(path, net):
    """Load a checkpoint into net, whose architecture must match and whose
    parameters must be finite."""
    try:
        with open(path) as f:
            doc = json.load(f)
        version = doc["format_version"]
        layer_sizes = list(doc["layer_sizes"])
        hidden_activation = doc["hidden_activation"]
        output_activation = doc["output_activation"]
        weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot parse checkpoint {path}: {exc}") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path} has format_version {version}, expected {CHECKPOINT_VERSION}")
    if hidden_activation != HIDDEN_ACTIVATION or output_activation not in OUTPUT_ACTIVATIONS:
        raise CheckpointError(
            f"checkpoint {path} has activations {hidden_activation}/{output_activation}; "
            f"networks have {HIDDEN_ACTIVATION} hidden layers and one of {OUTPUT_ACTIVATIONS} outputs"
        )
    if net.layer_sizes != layer_sizes or net.output_activation != output_activation:
        raise CheckpointError(
            f"checkpoint architecture {layer_sizes}/{output_activation} does not "
            f"match network {net.layer_sizes}/{net.output_activation}"
        )
    expected = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    if len(weights) != len(expected) or len(biases) != len(expected):
        raise CheckpointError("wrong number of layers in checkpoint")
    for (n_in, n_out), w, b in zip(expected, weights, biases):
        if w.shape != (n_in, n_out) or b.shape != (n_out,):
            raise CheckpointError("parameter shapes inconsistent with layer_sizes")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise CheckpointError(f"checkpoint {path} has non-finite parameters")
    for view, loaded in zip(net.weights + net.biases, weights + biases):
        view[...] = loaded
    net.params().writes += 1
    return net


def save_checkpoint(obj, out_dir, **fields):
    """``<name>.json`` per ``obj.networks()`` entry, and a manifest.json with
    the robot ``obj.kind``, ``fields`` and the file names."""
    os.makedirs(out_dir, exist_ok=True)
    networks = obj.networks()
    for name, net in networks.items():
        save_params(net, os.path.join(out_dir, f"{name}.json"))
    manifest = {"robot": obj.kind.value, **fields, "files": list(networks)}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)


def load_checkpoint(out_dir, make):
    """(object, manifest) from a save_checkpoint directory. ``make(robot)``
    builds the object whose networks() the manifest must list, in order."""
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict) or "robot" not in manifest:
        raise CheckpointError(f"manifest in {out_dir} is not a JSON object naming its robot")
    obj = make(manifest["robot"])
    networks = obj.networks()
    if manifest.get("files") != list(networks):
        raise CheckpointError(f"manifest in {out_dir} lists files {manifest.get('files')}, expected {list(networks)}")
    for name, net in networks.items():
        load_params(os.path.join(out_dir, f"{name}.json"), net)
    return obj, manifest


def params_digest(net):
    """Stable digest of the parameter values, used to pin derived artifacts."""
    h = hashlib.sha256()
    h.update(json.dumps(net.layer_sizes).encode())
    h.update(net.output_activation.encode())
    h.update(net.params().flat)  # the bytes of W0, b0, W1, b1, ... in turn
    return h.hexdigest()
