"""Small fully-connected networks with hand-written backprop.

Everything here is plain numpy. Networks are value objects: forward and
gradients never mutate state, so they can be shared read-only. Training code
owns a single mutable copy per network.
"""

import hashlib
import json
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
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(n_in)
            self.weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
            self.biases.append(rng.uniform(-bound, bound, size=n_out))

    @property
    def in_dim(self):
        return self.layer_sizes[0]

    @property
    def out_dim(self):
        return self.layer_sizes[-1]

    def params(self):
        """Flat parameter list [W0, b0, W1, b1, ...] (live references)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self):
        other = Mlp(self.layer_sizes, self.output_activation)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other

    def _check_input(self, x):
        x = np.asarray(x, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"input shape {x.shape} incompatible with in_dim {self.in_dim}")
        return x, squeeze

    def _forward_cached(self, x):
        """Activations per layer, input included."""
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w + b
            acts.append(np.tanh(z) if i < last or self.output_activation == "tanh" else z)
        return acts

    def forward(self, x):
        x, squeeze = self._check_input(x)
        out = self._forward_cached(x)[-1]
        return out[0] if squeeze else out

    def forward_cache(self, x):
        """forward(x) together with the activation cache that backward() takes."""
        x, squeeze = self._check_input(x)
        acts = self._forward_cached(x)
        out = acts[-1]
        return (out[0] if squeeze else out), (acts, squeeze)

    def backward(self, cache, upstream, params=True):
        """Backprop of <upstream, forward(x)> summed over the batch, where
        cache comes from forward_cache(x) on the current parameters.

        Returns (param_grads, input_grad); param_grads matches params() order,
        input_grad matches the shape of x. With params=False the parameter
        gradients are not computed and param_grads is None.
        """
        acts, squeeze = cache
        upstream = np.asarray(upstream, dtype=float)
        if squeeze:
            upstream = upstream[None, :]
        if upstream.shape != (acts[0].shape[0], self.out_dim):
            raise ShapeError(f"upstream shape {upstream.shape} incompatible")
        last = len(self.weights) - 1
        delta = upstream * (1.0 - acts[-1] ** 2) if self.output_activation == "tanh" else upstream
        grads = [None] * (2 * len(self.weights)) if params else None
        for i in range(last, -1, -1):
            if params:
                grads[2 * i] = acts[i].T @ delta
                grads[2 * i + 1] = delta.sum(axis=0)
            delta = delta @ self.weights[i].T
            if i > 0:
                delta = delta * (1.0 - acts[i] ** 2)
        return grads, (delta[0] if squeeze else delta)

    def gradients(self, x, upstream):
        """Backprop of <upstream, forward(x)>: backward() on a fresh forward_cache(x)."""
        return self.backward(self.forward_cache(x)[1], upstream)

    def input_gradients(self, x, upstream):
        """Gradient of <upstream, forward(x)> with respect to x only."""
        return self.backward(self.forward_cache(x)[1], upstream, params=False)[1]


class AdamState:
    """Per-network Adam moments; step counter increments on every update."""

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(state, params, grads):
    """One Adam update, in place on params. Returns params for convenience."""
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ShapeError("adam_step: parameter/gradient count mismatch")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ShapeError(f"adam_step: grad {i} shape {g.shape} != {p.shape}")
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / (1 - b1 ** state.t)
        v_hat = state.v[i] / (1 - b2 ** state.t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


def polyak_update(target, online, tau):
    """target <- (1 - tau) * target + tau * online, elementwise."""
    if target.layer_sizes != online.layer_sizes:
        raise ShapeError("polyak_update: architecture mismatch")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    for i in range(len(target.weights)):
        target.weights[i] = (1 - tau) * target.weights[i] + tau * online.weights[i]
        target.biases[i] = (1 - tau) * target.biases[i] + tau * online.biases[i]


def check_finite(net, context=""):
    for p in net.params():
        if not np.all(np.isfinite(p)):
            raise FloatingPointError(f"non-finite parameters detected {context}")


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
    """Load a checkpoint into net, whose architecture must match."""
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
    if len(weights) != len(expected):
        raise CheckpointError("wrong number of layers in checkpoint")
    for (n_in, n_out), w, b in zip(expected, weights, biases):
        if w.shape != (n_in, n_out) or b.shape != (n_out,):
            raise CheckpointError("parameter shapes inconsistent with layer_sizes")
    net.weights = weights
    net.biases = biases
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
    for p in net.params():
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.hexdigest()
