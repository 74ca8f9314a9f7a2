"""Minimal feed-forward network runtime.

Just enough of a dense-network stack to make the repository self-sufficient
at desk scale: load/save a model, run forward passes that record every
layer's output, take argmax decisions, backpropagate an output neuron's
gradient to a hidden layer, and train a small classifier on a built-in
synthetic dataset.  All arithmetic is float64; the monitor only consumes
activation signs, but the gradient tests need full precision.

Layer ``l`` (0-based) maps a width ``d_{l-1}`` vector to width ``d_l`` via
``x @ weights + bias`` followed by an optional ReLU.  The final layer must
be linear: decisions are taken on raw scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (INT64_MAX, JSON_LINE, FormatVersionError, SchemaError,
                     all_finite, as_int, as_real, finite_floats,
                     float_array, read_json, replace_on_success)

MODEL_VERSION = 1

ACTIVATIONS = ("relu", "none")

# the built-in blobs dataset, and the toy classifier's layers and training
BLOB_CLASSES = 3
BLOB_STD = 1.0
BLOB_RADIUS = 5.0
TOY_HIDDEN = (16, 14)
TOY_LEARNING_RATE = 0.1
TOY_BATCH_SIZE = 32


@dataclass
class Layer:
    weights: np.ndarray  # (d_in, d_out)
    bias: np.ndarray     # (d_out,)
    activation: str      # "relu" or "none"


@dataclass
class ModelSpec:
    """Immutable description of a trained dense network."""

    layers: list[Layer]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for i, layer in enumerate(self.layers):
            w = float_array(layer.weights, f"layer {i}: weights")
            b = float_array(layer.bias, f"layer {i}: bias")
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes disagree")
            if layer.activation not in ACTIVATIONS:
                raise ValueError(
                    f"layer {i}: unknown activation {layer.activation!r}")
            if i > 0 and self.layers[i - 1].weights.shape[1] != w.shape[0]:
                raise ValueError(
                    f"layer {i}: input width {w.shape[0]} does not match "
                    f"previous layer output")
            layer.weights, layer.bias = np.copy(w), np.copy(b)
        if self.layers[-1].activation != "none":
            raise ValueError("final layer must be linear (activation 'none')")
        if self.class_count < 2:
            raise ValueError("model must score at least 2 classes")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def class_count(self) -> int:
        return self.layers[-1].weights.shape[1]

    def layer_width(self, layer: int) -> int:
        return self.layers[layer].weights.shape[1]

    def is_relu_layer(self, layer: int) -> bool:
        return 0 <= layer < len(self.layers) \
            and self.layers[layer].activation == "relu"


@dataclass
class LayerTrace:
    """Per-layer post-activation outputs for one input row or a batch."""

    outputs: list[np.ndarray]  # outputs[l] is the output of layer l

    @property
    def final(self) -> np.ndarray:
        return self.outputs[-1]


def _run_layers(model: ModelSpec, x, first: int) -> list[np.ndarray]:
    """Outputs of layers ``first``.. for their input ``x``, a (D,) row or an
    (N, D) batch.  A row is ``x @ W + b``; a batch is viewed as (N, 1, D),
    so each of its rows is its own (1, D) product, bit-identical to a pass
    of that row alone.  A bad shape or value raises ``ValueError``."""
    x = float_array(x, f"layer {first} input")
    width = model.layers[first].weights.shape[0]
    if x.ndim not in (1, 2) or x.shape[-1] != width:
        raise ValueError(f"input shape {x.shape} does not match layer "
                         f"{first} input width {width}")
    if not all_finite(x):
        raise ValueError(f"non-finite value in layer {first} input")
    batch = x.ndim == 2
    if batch:
        x = x[:, None, :]
    outputs = []
    for i, layer in enumerate(model.layers[first:], start=first):
        x = x @ layer.weights + layer.bias
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
        if not all_finite(x):
            raise ValueError(f"non-finite value in layer {i} output")
        outputs.append(x[:, 0] if batch else x)
    return outputs


def forward(model: ModelSpec, inputs) -> LayerTrace:
    """Every layer's output for one (D,) input row or an (N, D) batch."""
    return LayerTrace(_run_layers(model, inputs, 0))


def decide(output) -> int | np.ndarray:
    """Argmax along the last axis, ties to the lowest index: an ``int`` for
    a score vector, an array of N labels for an (N, C) batch."""
    scores = float_array(output, "output")
    if scores.ndim not in (1, 2):
        raise ValueError("decide expects a score vector or a batch of them")
    labels = scores.argmax(axis=-1)
    return int(labels) if scores.ndim == 1 else labels


def gradient_from_activations(
        model: ModelSpec, activations, layer: int, class_index: int) \
        -> np.ndarray:
    """Gradient of output score ``class_index`` w.r.t. layer ``layer``'s
    post-ReLU outputs, by reverse-mode differentiation from a recorded
    (W,) activation vector of that layer or an (N, W) batch, of that shape.

    The downstream layers fully determine this gradient, so a stored trace
    is as good as the original input.  The ReLU subgradient at exactly zero
    is taken as zero, consistent with zero activations counting as
    suppressed.  ``layer`` and ``class_index`` are Python or numpy
    integers; a bool, float or string raises ``ValueError``, and so does a
    non-finite activation.
    """
    layer = as_int(layer, "layer")
    class_index = as_int(class_index, "class index", 0, model.class_count - 1)
    if not model.is_relu_layer(layer):
        raise ValueError(f"layer {layer} is not a ReLU layer")
    outputs = _run_layers(model, activations, layer + 1)
    grad = np.zeros(outputs[-1].shape)
    grad[..., class_index] = 1.0
    for lyr, out in zip(reversed(model.layers[layer + 1:]), reversed(outputs)):
        if lyr.activation == "relu":
            # a ReLU output is positive exactly where its pre-activation is
            grad = grad * (out > 0.0)
        grad = (lyr.weights @ grad[..., None])[..., 0]
    return grad


# -- toy training -----------------------------------------------------------


def make_blobs(per_class: int = 500, seed: int = 0,
               offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian blobs in the plane: ``per_class`` samples, a
    Python or numpy integer in ``0..INT64_MAX``, of each of
    ``BLOB_CLASSES`` classes, drawn from a generator seeded with ``seed``,
    an integer >= 0 by the same rule (a bool, float or string raises
    ``ValueError``).

    Class means sit on a circle of radius ``BLOB_RADIUS`` with standard
    deviation ``BLOB_STD``, so the classes are linearly separable by
    construction.  ``offset``, one finite number, translates every sample
    by that distance along the diagonal, which is how the shifted
    evaluation sets used in the distribution-shift experiments are made.
    """
    per_class = as_int(per_class, "per_class", 0, INT64_MAX)
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    offset = as_real(offset, "offset")
    angles = 2.0 * np.pi * np.arange(BLOB_CLASSES) / BLOB_CLASSES
    means = BLOB_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    y = np.repeat(np.arange(BLOB_CLASSES, dtype=np.int64), per_class)
    x = means[y] + BLOB_STD * rng.standard_normal((len(y), 2))
    if offset:
        x = x + offset * np.array([1.0, 1.0]) / np.sqrt(2.0)
    return x, y


def train_toy(inputs, labels, seed: int = 0, epochs: int = 40) -> ModelSpec:
    """Train a small ReLU classifier with plain minibatch SGD.

    Deterministic for a given seed: initialization and shuffling share one
    generator.  With ``epochs=0`` the freshly initialized model is returned
    untouched.  ``seed`` and ``epochs`` are Python or numpy integers >= 0,
    recorded as ints.  There is one label per row, a Python or numpy
    integer in ``0..INT64_MAX`` (a bool, float or string is refused), and
    the largest one sets the class count.
    Raises ``ValueError`` otherwise or if the loss diverges to NaN/inf.

    Every weight and bias is a view into one flat float64 vector, and each
    minibatch writes its gradients into the same views of a second one, so
    one ``params -= lr * grads`` updates every layer.  Elementwise that is
    per-layer SGD: every gradient is taken before any update, and each
    element goes through the same products, reductions and subtraction in
    the same order, so the model is the same bit for bit.
    """
    seed = as_int(seed, "seed", 0)
    epochs = as_int(epochs, "epochs", 0)
    x = float_array(inputs, "inputs")
    y = _label_array(labels)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[0] != len(y):
        raise ValueError("dataset must be nonempty with matching labels")
    n_classes = int(y.max()) + 1
    if n_classes < 2:
        raise ValueError("need at least 2 classes")

    rng = np.random.default_rng(seed)
    dims = (x.shape[1],) + TOY_HIDDEN + (n_classes,)
    shapes = [shape for d_in, d_out in zip(dims, dims[1:])
              for shape in ((d_in, d_out), (d_out,))]
    cuts = np.cumsum([math.prod(shape) for shape in shapes])
    params, grads = np.zeros(cuts[-1]), np.zeros(cuts[-1])
    # view 2l of each vector is layer l's weights, view 2l + 1 its bias
    param_views, grad_views = (
        [part.reshape(shape)
         for part, shape in zip(np.split(flat, cuts[:-1]), shapes)]
        for flat in (params, grads))
    weights, biases = param_views[0::2], param_views[1::2]
    grad_w, grad_b = grad_views[0::2], grad_views[1::2]
    for i, w in enumerate(weights):
        w[...] = rng.normal(0.0, np.sqrt(2.0 / dims[i]), w.shape)

    n, last = x.shape[0], len(weights) - 1
    rows = np.arange(TOY_BATCH_SIZE)
    # divergence shows up as a non-finite loss below, so the intermediate
    # overflow warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(epochs):
            order = rng.permutation(n)
            xs, ys = x[order], y[order]
            for start in range(0, n, TOY_BATCH_SIZE):
                xb = xs[start:start + TOY_BATCH_SIZE]
                yb = ys[start:start + TOY_BATCH_SIZE]
                picked = (rows[:len(yb)], yb)
                acts, pre = [xb], []
                for i, (w, b) in enumerate(zip(weights, biases)):
                    z = acts[-1] @ w + b
                    pre.append(z)
                    acts.append(np.maximum(z, 0.0) if i < last else z)
                logits = acts[-1]
                probs = np.exp(logits - np.maximum.reduce(
                    logits, axis=1, keepdims=True))
                probs /= np.add.reduce(probs, axis=1, keepdims=True)
                # the loss is minus this sum over the batch size
                if not math.isfinite(np.add.reduce(np.log(probs[picked]))):
                    raise ValueError("training diverged (non-finite loss)")
                delta = probs
                delta[picked] -= 1.0
                delta /= len(yb)
                for i in range(last, -1, -1):
                    np.matmul(acts[i].T, delta, out=grad_w[i])
                    np.add.reduce(delta, axis=0, out=grad_b[i])
                    if i > 0:
                        delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
                params -= TOY_LEARNING_RATE * grads

    layers = [Layer(w, b, "relu") for w, b in zip(weights[:-1], biases[:-1])]
    layers.append(Layer(weights[-1], biases[-1], "none"))
    return ModelSpec(layers, {
        "trainer": "minibatch-sgd", "seed": seed, "epochs": epochs,
        "learning_rate": TOY_LEARNING_RATE, "batch_size": TOY_BATCH_SIZE,
        "hidden": list(TOY_HIDDEN)})


def _label_array(labels) -> np.ndarray:
    """``labels``, one per row, as an int64 array of class indices, else a
    ``ValueError``: each label is an integer in ``0..INT64_MAX``.  A 1-D
    integer array or list of ints in int64 is checked by its extremes; any
    other labels go one by one, so the first bad one is named."""
    if type(labels) is list and set(map(type, labels)) == {int}:
        exact = np.array(labels)  # not int64 if an int lies beyond it
        labels = exact if exact.dtype.kind in "iu" else labels
    shape = np.shape(labels)
    if len(shape) != 1:
        raise ValueError(f"labels must be one per row, got shape {shape}")
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iu":
        if labels.size:
            as_int(labels.min(), "label", 0, INT64_MAX)
            as_int(labels.max(), "label", 0, INT64_MAX)
        return labels.astype(np.int64)
    return np.array([as_int(label, "label", 0, INT64_MAX)
                     for label in labels], np.int64)


def evaluate_accuracy(model: ModelSpec, inputs, labels) -> float:
    """Fraction of the (N, D) rows, N >= 1, whose argmax decision matches
    the label; the labels follow :func:`train_toy`'s rule."""
    y = _label_array(labels)
    predicted = decide(forward(model, inputs).final)
    if np.shape(predicted) != y.shape:
        raise ValueError(f"{np.size(predicted)} inputs but {y.size} labels")
    if not y.size:
        raise ValueError("cannot measure accuracy on zero rows")
    return np.count_nonzero(predicted == y) / len(y)


# -- model files -------------------------------------------------------------


def save_model(model: ModelSpec, path) -> None:
    """Write the model as versioned JSON by one ``JSON_LINE`` call."""
    with replace_on_success(path) as fh:
        fh.write(JSON_LINE({"version": MODEL_VERSION, "layers": [
            {"weights": layer.weights.tolist(), "bias": layer.bias.tolist(),
             "activation": layer.activation} for layer in model.layers],
            "metadata": model.metadata}) + "\n")


def load_model(path) -> ModelSpec:
    payload = read_json(path, "model")
    if not isinstance(payload, dict):
        raise SchemaError("model file must hold a JSON object")
    version = payload.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise FormatVersionError(f"unsupported model version {version!r}")
    if "layers" not in payload or not isinstance(payload["layers"], list):
        raise SchemaError("model file is missing the layers list")
    try:
        layers = [
            Layer(finite_floats(entry["weights"], "weights", 2),
                  finite_floats(entry["bias"], "bias", 1),
                  entry["activation"])
            for entry in payload["layers"]
        ]
        return ModelSpec(layers, payload.get("metadata", {}))
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"malformed model file: {exc}") from exc
