"""Tests for binarization and neuron selection."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from actmon.network import Layer, ModelSpec, make_blobs, train_toy
from actmon.patterns import (
    NeuronSelection,
    _threshold,
    binarize,
    identity_selection,
    score_neurons,
    select_top_fraction,
)
from actmon.traces import TraceRecord, extract


def relu_chain(rng, dims):
    """Random model with ReLU everywhere except the final linear layer."""
    layers = []
    for i in range(len(dims) - 1):
        act = "relu" if i < len(dims) - 2 else "none"
        layers.append(Layer(
            rng.normal(size=(dims[i], dims[i + 1])),
            rng.normal(size=dims[i + 1]),
            act,
        ))
    return ModelSpec(layers)


def layer0_records(model, inputs, label):
    """Layer-0 trace records of ``inputs``, every one labeled ``label``."""
    return extract(model, inputs, [label] * len(inputs), 0)[1]


def forward_tail(model, acts, layer):
    """Independent re-implementation: forward from layer's outputs to the
    final scores (used as the finite-difference oracle)."""
    x = np.asarray(acts, dtype=float)
    for lyr in model.layers[layer + 1:]:
        x = x @ lyr.weights + lyr.bias
        if lyr.activation == "relu":
            x = np.maximum(x, 0.0)
    return x


def fd_gradient(model, acts, layer, class_index, eps=1e-4):
    """Central finite differences of the class score w.r.t. each activation."""
    base = np.asarray(acts, dtype=float)
    grad = np.zeros(base.size)
    for i in range(base.size):
        hi, lo = base.copy(), base.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (forward_tail(model, hi, layer)[class_index]
                   - forward_tail(model, lo, layer)[class_index]) / (2 * eps)
    return grad


def tail_preactivations(model, acts, layer):
    x = np.asarray(acts, dtype=float)
    pre = []
    for lyr in model.layers[layer + 1:]:
        z = x @ lyr.weights + lyr.bias
        pre.append(z)
        x = np.maximum(z, 0.0) if lyr.activation == "relu" else z
    return np.concatenate(pre) if pre else np.array([])


@pytest.fixture(scope="module")
def toy_activations():
    """Layer-0 and layer-1 activations of the acceptance toy model (seed 7)
    on its training blobs and on blobs shifted by 2.0."""
    x, y = make_blobs(seed=7, per_class=500)
    model = train_toy(x, y, seed=7)
    xe, ye = make_blobs(seed=7 + 5000, per_class=300, offset=2.0)
    inputs, labels = np.vstack([x, xe]), np.concatenate([y, ye])
    return {layer: np.array([r.activations for r in
                             extract(model, inputs, labels, layer)[1]])
            for layer in (0, 1)}


class TestBinarize:
    def test_strictly_positive_is_one(self):
        sel = identity_selection(3)
        assert binarize((0.5, 0.0, -3.1), sel) == (1, 0, 0)

    def test_exact_zero_is_suppressed(self):
        sel = identity_selection(2)
        assert binarize((0.0, 0.0), sel) == (0, 0)

    def test_projection_then_threshold(self):
        # hand-derived: pick neurons 3 and 0, both positive
        sel = NeuronSelection(layer=0, layer_width=4,
                              indices=(3, 0), scores=(0.0, 0.0))
        assert binarize((1.0, -1.0, 2.0, 3.0), sel) == (1, 1)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            binarize((1.0, 2.0), identity_selection(3))
        for acts in (np.ones((2, 2)),                     # short rows
                     [np.ones(3), np.ones(2)],           # different widths
                     [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0)],
                     [np.ones(3), np.ones((2, 3))],
                     np.ones((2, 1, 3))):                # a 3-D array
            with pytest.raises(ValueError, match=r"^activation width \(.*\) "
                               r"does not match monitored layer width 3$"):
                binarize(acts, identity_selection(3))

    def test_rows_of_one_shape_that_are_no_numbers(self):
        with pytest.raises(ValueError, match="could not convert string"):
            _threshold([("a", "b", "c"), ("d", "e", "f")],
                       identity_selection(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            binarize((1.0, np.nan), identity_selection(2))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError,
                               match="^non-finite activation value$"):
                binarize((1e200, bad), identity_selection(2))
            for row, fill in itertools.product(range(3), (1.0, 1e200)):
                acts = np.full((3, 2), fill)
                acts[row, 1] = bad
                with pytest.raises(ValueError,
                                   match="^non-finite activation value$"):
                    _threshold(acts, identity_selection(2))

    def test_values_whose_squares_overflow_pass(self):
        sel = identity_selection(2)
        assert binarize((1e200, -1e200), sel) == (1, 0)
        assert _threshold([(1e200, -1e200), (-1e200, 1e200)], sel).tolist() \
            == [[1, 0], [0, 1]]
        assert _threshold(np.zeros((0, 2)), sel).shape == (0, 2)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_batch_refused(self, count):
        """binarize takes one row; a batch of the layer's width, even of
        one row, goes to _threshold."""
        for acts in (np.ones((count, 3)), [(1.0, 0.0, 2.0)] * count):
            with pytest.raises(ValueError, match="^expected one activation "
                                                 "row, not a batch$"):
                binarize(acts, identity_selection(3))

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(3)
        sel = identity_selection(8)
        for _ in range(50):
            v = rng.normal(size=8)
            alpha = float(rng.uniform(1e-6, 1e6))
            assert binarize(alpha * v, sel) == binarize(v, sel)

    def test_matches_per_index_reference(self):
        rng = np.random.default_rng(5)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0])
        for trial in range(200):
            width = 1 if trial < 10 else int(rng.integers(2, 40))
            acts = rng.normal(size=width)
            mask = rng.random(width) < 0.5
            acts[mask] = rng.choice(specials, size=int(mask.sum()))
            k = int(rng.integers(1, width + 1))
            indices = tuple(int(i) for i in rng.permutation(width)[:k])
            sel = NeuronSelection(0, width, indices, (0.0,) * k)
            expected = tuple(1 if acts[i] > 0.0 else 0 for i in indices)
            got = binarize(acts, sel)
            assert got == expected
            assert all(type(bit) is int for bit in got)

    @pytest.mark.parametrize("layer", [0, 1])
    def test_batch_equals_rows_on_toy_traces(self, toy_activations, layer):
        acts = toy_activations[layer]
        assert (acts == 0.0).any() and (acts > 0.0).any()
        scores = np.random.default_rng(layer).random(acts.shape[1])
        for sel in (identity_selection(acts.shape[1]),
                    select_top_fraction(scores, 0.5)):
            rows = [list(binarize(row, sel)) for row in acts]
            assert _threshold(acts, sel).tolist() == rows
            assert _threshold(list(acts), sel).tolist() == rows

    def test_batch_equals_rows_on_projected_selections(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            width, count = int(rng.integers(1, 40)), int(rng.integers(0, 20))
            acts = rng.normal(size=(count, width))
            acts[rng.random(acts.shape) < 0.3] = 0.0
            acts[rng.random(acts.shape) < 0.1] = -0.0
            sel = select_top_fraction(rng.random(width),
                                      float(rng.uniform(0.05, 1.0)))
            got = _threshold(acts, sel)
            assert got.dtype == np.int8 and got.shape == (count, sel.width)
            assert got.tolist() == [list(binarize(row, sel)) for row in acts]
            assert _threshold(np.empty((0, width)), sel).shape \
                == (0, sel.width)


class TestSelectTopFraction:
    @pytest.mark.parametrize("scores", [
        [0.5, math.nan, 0.9, 0.1],  # kept (0, 1) by NaN's position
        [math.nan, 0.5, 0.9, 0.1],  # kept (0, 2) by NaN's position
        [0.5, 0.9, math.inf, 0.1],
        [-math.inf, 0.5, 0.9, 0.1],
    ])
    def test_non_finite_scores_refused_before_ranking(self, scores):
        with pytest.raises(ValueError,
                           match="^scores must hold finite numbers$"):
            select_top_fraction(scores, 0.5)

    @pytest.mark.parametrize("scores", [[], [[0.5, 0.9]]],
                             ids=["empty", "matrix"])
    def test_scores_must_be_a_nonempty_vector(self, scores):
        with pytest.raises(ValueError,
                           match="^scores must be a nonempty vector$"):
            select_top_fraction(scores, 0.5)

    def test_quarter_of_84(self):
        scores = np.linspace(1.0, 2.0, 84)
        sel = select_top_fraction(scores, 0.25)
        assert sel.width == 21

    def test_two_thirds_of_three(self):
        sel = select_top_fraction([0.9, 0.1, 0.5], 2 / 3)
        assert set(sel.indices) == {0, 2}
        assert sel.indices == (0, 2)  # descending score fixes the order

    def test_ties_break_to_lower_index(self):
        sel = select_top_fraction([1.0, 1.0, 1.0, 1.0], 0.5)
        assert sel.indices == (0, 1)

    def test_at_least_one_neuron(self):
        sel = select_top_fraction([0.2, 0.7, 0.1], 0.01)
        assert sel.indices == (1,)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        scores = rng.random(40)
        assert select_top_fraction(scores, 0.3) \
            == select_top_fraction(scores.copy(), 0.3)

    def test_fraction_range(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                select_top_fraction([1.0, 2.0], bad)

    def test_scores_follow_indices(self):
        sel = select_top_fraction([0.9, 0.1, 0.5], 1.0)
        assert sel.indices == (0, 2, 1)
        assert sel.scores == (0.9, 0.5, 0.1)


class TestNeuronSelection:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            NeuronSelection(0, 4, (1, 1), (0.0, 0.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            NeuronSelection(0, 4, (0, 4), (0.0, 0.0))

    @pytest.mark.parametrize("layer_width, indices, message", [
        (0, (0,), "^layer width must be >= 1, got 0$"),
        (4, (), "^selection must keep at least one neuron$"),
    ], ids=["width-0", "no-indices"])
    def test_empty_layer_or_selection_rejected(self, layer_width, indices,
                                               message):
        with pytest.raises(ValueError, match=message):
            NeuronSelection(0, layer_width, indices, (0.0,) * len(indices))

    def test_scores_must_align(self):
        with pytest.raises(ValueError, match="align"):
            NeuronSelection(0, 4, (0, 1), (0.0,))

    @pytest.mark.parametrize("scores, message", [
        (("a", "b"), "scores must hold numbers, got 'a'"),
        ((True, 2), "scores must hold numbers, got True"),
        ((0.5, np.True_), "scores must hold numbers, got True"),
        ((1.0, None), "scores must hold numbers, got None"),
        ((0.5, math.nan), "scores must hold finite numbers"),
        ((math.inf, 0.5), "scores must hold finite numbers"),
        ((10 ** 400, 0.5), "scores must hold finite numbers"),
    ])
    def test_scores_that_a_file_could_not_hold_rejected(self, scores,
                                                        message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NeuronSelection(0, 2, (0, 1), scores)

    def test_scores_stored_as_python_floats(self):
        sel = NeuronSelection(0, 4, (3, 0, 1),
                              (2, np.float32(0.5), np.int64(-1)))
        assert sel.scores == (2.0, 0.5, -1.0)
        assert all(type(s) is float for s in sel.scores)

    def test_identity(self):
        sel = identity_selection(5, layer=2)
        assert sel.indices == (0, 1, 2, 3, 4)
        assert sel.layer == 2
        assert sel.width == 5

    def test_index_array_leaves_equality_hash_and_repr_alone(self):
        sel = NeuronSelection(0, 4, (3, 0), (0.5, 0.25))
        same = NeuronSelection(0, 4, (3, 0), (0.5, 0.25))
        assert sel == same and hash(sel) == hash(same)
        assert hash(sel) == hash((0, 4, (3, 0), (0.5, 0.25)))
        assert sel != NeuronSelection(0, 4, (0, 3), (0.5, 0.25))
        assert repr(sel) == ("NeuronSelection(layer=0, layer_width=4, "
                             "indices=(3, 0), scores=(0.5, 0.25))")

    def test_index_array_is_a_read_only_copy_of_indices(self):
        sel = NeuronSelection(0, 4, (3, 0), (0.0, 0.0))
        assert sel.index_array.dtype == np.intp
        assert sel.index_array.tolist() == [3, 0]
        with pytest.raises(ValueError, match="read-only"):
            sel.index_array[0] = 1

    def test_numpy_integers_stored_as_python_ints(self):
        order = np.argsort([0.5, 2.0, 1.0, 0.0])[::-1][:2]  # int64 indices
        sel = NeuronSelection(np.int64(1), np.int32(4), tuple(order),
                              (2.0, 1.0))
        assert sel == NeuronSelection(1, 4, (1, 2), (2.0, 1.0))
        assert type(sel.layer) is type(sel.layer_width) is int
        assert all(type(i) is int for i in sel.indices)
        assert NeuronSelection(0, 4, order, (2.0, 1.0)).indices == (1, 2)

    @pytest.mark.parametrize("field, value", [
        ("layer", True), ("layer", 1.0), ("layer", "1"),
        ("layer_width", np.True_), ("layer_width", 4.0),
        ("layer_width", "4"), ("indices", (0, True)), ("indices", (0, 1.0)),
        ("indices", (0, "1")), ("indices", (0, np.float64(1.0))),
    ])
    def test_non_integer_rejected(self, field, value):
        args = {"layer": 0, "layer_width": 4, "indices": (0, 1),
                "scores": (0.0, 0.0), field: value}
        with pytest.raises(ValueError, match="is not an integer"):
            NeuronSelection(**args)

    def test_replace_recomputes_the_index_array(self):
        sel = NeuronSelection(0, 4, (3, 0), (0.0, 0.0))
        moved = dataclasses.replace(sel, indices=(1, 2))
        assert moved.index_array.tolist() == [1, 2]
        assert sel.index_array.tolist() == [3, 0]
        acts = (-1.0, 2.0, 0.0, 5.0)
        assert binarize(acts, sel) == (1, 0)
        assert binarize(acts, moved) == (1, 0)
        assert binarize((-1.0, 0.0, 2.0, 5.0), moved) == (0, 1)


class TestScoreNeurons:
    def test_penultimate_layer_equals_abs_weight_column(self):
        rng = np.random.default_rng(17)
        model = relu_chain(rng, (3, 6, 4))
        samples = [rng.normal(size=3) for _ in range(4)]
        for c in range(4):
            records = layer0_records(model, samples, c)
            scores = score_neurons(model, records, layer=0, class_index=c)
            expected = np.abs(model.layers[-1].weights[:, c])
            assert np.array_equal(scores, expected)

    def test_single_neuron_unit_chain(self):
        model = ModelSpec([
            Layer(np.array([[1.0]]), np.zeros(1), "relu"),
            Layer(np.array([[1.0, 0.0]]), np.zeros(2), "none"),
        ])
        records = layer0_records(model, [np.array([2.0])], 0)
        scores = score_neurons(model, records, 0, 0)
        assert scores.tolist() == [1.0]

    def test_interior_layer_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 10:
            model = relu_chain(rng, (3, 5, 6, 4))
            x = rng.normal(size=3)
            acts = np.maximum(x @ model.layers[0].weights
                              + model.layers[0].bias, 0.0)
            if np.min(np.abs(tail_preactivations(model, acts, 0))) <= 1e-3:
                continue  # too close to a ReLU kink for finite differences
            c = int(rng.integers(0, 4))
            records = layer0_records(model, [x], c)
            scores = score_neurons(model, records, layer=0, class_index=c)
            oracle = np.abs(fd_gradient(model, acts, 0, c))
            np.testing.assert_allclose(scores, oracle, rtol=1e-4, atol=1e-10)
            checked += 1

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(29)
        model = relu_chain(rng, (4, 7, 5, 3))
        samples = [rng.normal(size=4) for _ in range(6)]
        records = layer0_records(model, samples, 1)
        scores = score_neurons(model, records, layer=0, class_index=1)
        assert np.all(scores >= 0.0)

    def test_empty_samples_rejected(self):
        rng = np.random.default_rng(1)
        model = relu_chain(rng, (3, 5, 4))
        with pytest.raises(ValueError, match="empty"):
            score_neurons(model, [], 0, 0)

    def test_non_relu_layer_rejected(self):
        rng = np.random.default_rng(1)
        model = relu_chain(rng, (3, 5, 4))
        records = layer0_records(model, [np.zeros(3)], 0)
        with pytest.raises(ValueError, match="ReLU"):
            score_neurons(model, records, 1, 0)

    @pytest.mark.parametrize("layer, class_index, message", [
        (0, 4, "^class index 4 out of range$"),
        (0, -1, "^class index -1 out of range$"),
        (0, True, "^class index True is not an integer$"),
        (0, 1.0, "^class index 1.0 is not an integer$"),
        (True, 0, "^layer True is not an integer$"),
        (0.0, 0, "^layer 0.0 is not an integer$"),
    ], ids=["class-4", "class-minus-1", "bool-class", "float-class",
            "bool-layer", "float-layer"])
    @pytest.mark.parametrize("dims", [(3, 5, 4), (3, 5, 6, 4)],
                             ids=["penultimate", "interior"])
    def test_layer_and_class_are_checked(self, dims, layer, class_index,
                                         message):
        # a bool class once indexed the weight columns as a mask, and a
        # bool layer scored layer 1
        model = relu_chain(np.random.default_rng(1), dims)
        records = layer0_records(model, [np.ones(3), -np.ones(3)], 1)
        with pytest.raises(ValueError, match=message):
            score_neurons(model, records, layer, class_index)
        got = score_neurons(model, records, np.int64(0), np.int8(1))
        assert got.shape == (5,)
        assert got.tobytes() == score_neurons(model, records, 0, 1).tobytes()

    def _record(self, true_label, pred_label, acts):
        return TraceRecord(id="r", true_label=true_label,
                           pred_label=pred_label,
                           activations=np.asarray(acts, float))

    def test_trace_records_prefer_correctly_classified(self):
        rng = np.random.default_rng(31)
        model = relu_chain(rng, (3, 4, 6, 3))  # layer 0 is interior
        a_good = np.abs(rng.normal(size=4)) + 0.5
        a_bad = np.abs(rng.normal(size=4)) + 0.5
        records = [
            self._record(0, 0, a_good),
            self._record(0, 2, a_bad),   # misclassified, must be ignored
            self._record(1, 1, a_bad),   # other class, must be ignored
        ]
        scores = score_neurons(model, records, layer=0, class_index=0)
        only_good = score_neurons(model, [self._record(0, 0, a_good)], 0, 0)
        np.testing.assert_array_equal(scores, only_good)

    def test_trace_records_fall_back_to_all_of_class(self):
        rng = np.random.default_rng(37)
        model = relu_chain(rng, (3, 4, 6, 3))
        a = np.abs(rng.normal(size=4)) + 0.5
        records = [self._record(0, 1, a)]  # class 0 never predicted right
        scores = score_neurons(model, records, layer=0, class_index=0)
        assert np.all(scores >= 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_activation_rejected(self, value):
        rng = np.random.default_rng(43)
        model = relu_chain(rng, (3, 4, 6, 3))  # layer 0 is interior
        acts = np.abs(rng.normal(size=4)) + 0.5
        acts[2] = value
        records = [self._record(0, 0, np.ones(4)), self._record(0, 0, acts)]
        with pytest.raises(ValueError, match="non-finite"):
            score_neurons(model, records, layer=0, class_index=0)

    def test_no_samples_of_class_rejected(self):
        rng = np.random.default_rng(41)
        model = relu_chain(rng, (3, 4, 6, 3))
        records = [self._record(1, 1, np.ones(4))]
        with pytest.raises(ValueError, match="class 0"):
            score_neurons(model, records, layer=0, class_index=0)
