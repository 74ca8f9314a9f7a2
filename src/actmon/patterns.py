"""Activation patterns and monitored-neuron selection.

A pattern is a fixed-width tuple of 0/1 ints: bit ``i`` says whether the
``i``-th *monitored* neuron produced a strictly positive output.  Which
neurons are monitored, and in which order they map to pattern bits (and
hence BDD variables), is captured by a :class:`NeuronSelection`.

Neuron choice is driven by gradient magnitudes: neurons whose output most
influences the score of the class of interest are ranked first.  The
gradients start from the activations stored in trace records, which
:func:`actmon.traces.extract` makes from raw inputs.  In the common setup
where the monitored layer feeds a linear output layer, those magnitudes
are exactly the absolute connecting weights and do not depend on any
sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import SchemaError, all_finite, as_int, finite_floats
from .network import ModelSpec, gradient_from_activations
from .traces import TraceRecord

Pattern = tuple[int, ...]


@dataclass(frozen=True)
class NeuronSelection:
    """Ordered subset of one layer's neurons to monitor.

    ``indices[i]`` is the neuron behind pattern bit / BDD variable ``i``;
    the list order therefore fixes the variable order of every zone built
    from this selection.  ``scores`` holds the importance magnitude of each
    selected neuron (zeros when the selection was not score-based).
    ``index_array`` is ``indices`` as a read-only numpy ``intp`` array,
    made once here so that :func:`binarize` takes with it directly; it
    takes no part in equality, hashing or ``repr``.

    ``layer``, ``layer_width`` and each index may be Python or numpy
    integers (say from ``np.argsort``) and are stored as Python ints, so
    the selection saves as JSON; a bool, float or string raises
    ``ValueError``.  Scores are stored as floats; one that is not a
    finite number (a bool, a string, NaN) raises ``ValueError``.
    """

    layer: int
    layer_width: int
    indices: tuple[int, ...]
    scores: tuple[float, ...]
    index_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layer", as_int(self.layer, "layer"))
        object.__setattr__(self, "layer_width",
                           as_int(self.layer_width, "layer width", 1))
        object.__setattr__(self, "indices", tuple(
            as_int(i, "neuron index") for i in self.indices))
        if not self.indices:
            raise ValueError("selection must keep at least one neuron")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("duplicate neuron indices in selection")
        if any(not 0 <= i < self.layer_width for i in self.indices):
            raise ValueError("neuron index outside the monitored layer")
        if len(self.scores) != len(self.indices):
            raise ValueError("scores and indices must align")
        try:  # the file rule, so that every selection saves and loads
            scores = finite_floats([s.item() if isinstance(s, np.generic)
                                    else s for s in self.scores], "scores", 1)
        except SchemaError as exc:
            raise ValueError(str(exc)) from None
        object.__setattr__(self, "scores", tuple(scores.tolist()))
        index_array = np.array(self.indices, dtype=np.intp)
        index_array.flags.writeable = False
        object.__setattr__(self, "index_array", index_array)

    @property
    def width(self) -> int:
        """Pattern width = number of monitored neurons."""
        return len(self.indices)


def identity_selection(layer_width: int, layer: int = 0) -> NeuronSelection:
    """Monitor every neuron of the layer in natural order."""
    return NeuronSelection(
        layer=layer,
        layer_width=layer_width,
        indices=tuple(range(layer_width)),
        scores=(0.0,) * layer_width,
    )


def binarize(activations, selection: NeuronSelection) -> Pattern:
    """Project one (W,) activation row onto the monitored neurons and
    threshold: bit ``i`` is 1 iff the selected neuron's output is strictly
    positive.  An exact zero counts as suppressed.

    The pattern is a tuple of Python ints.  W is the selection's
    ``layer_width`` and the whole layer must be finite, monitored neuron or
    not: another shape, NaN or infinity raise ``ValueError``, and so does
    an (N, W) batch, which :func:`_threshold` takes instead.
    """
    bits = _threshold(activations, selection)
    if bits.ndim != 1:
        raise ValueError("expected one activation row, not a batch")
    return tuple(bits.tolist())


def _threshold(activations, selection: NeuronSelection) -> np.ndarray:
    """:func:`binarize`'s checked pass, as a (K,) 0/1 array from a (W,) row
    or an (N, K) one from an (N, W) batch (an array or a sequence of rows),
    in one numpy pass: a batch row's bits are the row's own."""
    width = selection.layer_width
    try:
        acts = np.asarray(activations, dtype=np.float64)
    except ValueError:  # rows of different widths: name the first misfit
        shapes = [np.shape(row) for row in activations]
        if len(set(shapes)) < 2:  # one shape: values that are no numbers
            raise
        misfit = next(s for s in shapes if s != (width,))
        raise ValueError(f"activation width {misfit} does not match "
                         f"monitored layer width {width}") from None
    if acts.shape != (width,) and (acts.ndim != 2 or acts.shape[1] != width):
        raise ValueError(f"activation width {acts.shape} does not match "
                         f"monitored layer width {width}")
    if not all_finite(acts):
        raise ValueError("non-finite activation value")
    return (acts.take(selection.index_array, axis=-1) > 0.0).view(np.int8)


def score_neurons(model: ModelSpec, records: Iterable[TraceRecord],
                  layer: int, class_index: int) -> np.ndarray:
    """Importance score of every neuron in ``layer`` for ``class_index``.

    Scores are mean absolute gradients of the class output score with
    respect to the layer's post-ReLU outputs, taken at the stored
    activations of the trace records of that class.  Records of other
    classes are ignored, and correctly classified ones are preferred.
    Their gradients come from one batched ``gradient_from_activations``
    call, so a non-finite activation among them raises ``ValueError``.

    When ``layer`` feeds straight into the linear output layer, the
    gradient is the connecting weight column, independent of any sample;
    that exact value is returned.  ``layer`` and ``class_index`` are
    Python or numpy integers; a bool, float or string raises
    ``ValueError``.
    """
    layer = as_int(layer, "layer")
    class_index = as_int(class_index, "class index")
    if not model.is_relu_layer(layer):
        raise ValueError(f"layer {layer} is not a ReLU layer")
    if not 0 <= class_index < model.class_count:
        raise ValueError(f"class index {class_index} out of range")
    records = list(records)
    if not records:
        raise ValueError("empty record set")

    if layer == len(model.layers) - 2:
        return np.abs(model.layers[-1].weights[:, class_index])

    of_class = [r for r in records if r.true_label == class_index]
    if not of_class:
        raise ValueError(f"no samples of class {class_index}")
    correct = [r for r in of_class if r.pred_label == class_index]
    chosen = correct or of_class

    grads = gradient_from_activations(
        model, [r.activations for r in chosen], layer, class_index)
    return np.abs(grads).sum(axis=0) / len(chosen)


def select_top_fraction(scores, fraction: float, layer: int = 0) \
        -> NeuronSelection:
    """Keep the highest-scoring ``fraction`` of neurons (at least one).

    ``k = max(1, floor(fraction * len(scores)))``; ties break toward the
    lower neuron index.  The selection lists neurons by descending score
    (then ascending index), which fixes the BDD variable order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty vector")
    if not all_finite(scores):  # NaN would rank by its position
        raise ValueError("scores must hold finite numbers")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    # the epsilon undoes binary rounding of fractions like 2/3 so that
    # mathematically-integral products floor correctly
    k = max(1, math.floor(fraction * scores.size + 1e-9))
    ranked = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    kept = ranked[:k]
    return NeuronSelection(
        layer=layer,
        layer_width=int(scores.size),
        indices=tuple(kept),
        scores=tuple(float(scores[i]) for i in kept),
    )
