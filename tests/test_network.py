"""Tests for the feed-forward runtime: forward, decide, gradients, toy
training and model files."""

import json
import math
import re

import numpy as np
import pytest

from actmon.errors import FormatVersionError, SchemaError
from actmon.network import (
    TOY_BATCH_SIZE,
    TOY_HIDDEN,
    TOY_LEARNING_RATE,
    Layer,
    ModelSpec,
    _label_array,
    decide,
    evaluate_accuracy,
    forward,
    gradient_from_activations,
    load_model,
    make_blobs,
    save_model,
    train_toy,
)
from actmon.patterns import binarize, identity_selection

I2 = np.eye(2)


def random_model(rng, dims):
    layers = []
    for i in range(len(dims) - 1):
        act = "relu" if i < len(dims) - 2 else "none"
        layers.append(Layer(
            rng.normal(size=(dims[i], dims[i + 1])),
            rng.normal(size=dims[i + 1]),
            act,
        ))
    return ModelSpec(layers)


def rowwise_outputs(model, row):
    """Reference pass: every layer's output for one row, by plain row
    products ``x @ W + b``."""
    x, outputs = np.asarray(row, dtype=np.float64), []
    for layer in model.layers:
        x = x @ layer.weights + layer.bias
        if layer.activation == "relu":
            x = np.maximum(x, 0.0)
        outputs.append(x)
    return outputs


def rowwise_gradient(model, acts, layer, class_index):
    """Reference backward pass for one activation row, by plain products
    that keep the pre-activations."""
    pre, x = [], np.asarray(acts, dtype=np.float64)
    for lyr in model.layers[layer + 1:]:
        pre.append(x @ lyr.weights + lyr.bias)
        x = np.maximum(pre[-1], 0.0) if lyr.activation == "relu" else pre[-1]
    grad = np.zeros(model.class_count)
    grad[class_index] = 1.0
    for lyr, z in zip(reversed(model.layers[layer + 1:]), reversed(pre)):
        if lyr.activation == "relu":
            grad = grad * (z > 0.0)
        grad = lyr.weights @ grad
    return grad


def reference_train(x, y, seed, epochs):
    """Reference trainer: the per-minibatch loop ``train_toy`` replaced,
    with its own errstate, row gather and six per-layer updates per step;
    returns its weights and biases."""
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    dims = (x.shape[1],) + TOY_HIDDEN + (int(y.max()) + 1,)
    weights = [rng.normal(0.0, np.sqrt(2.0 / dims[i]), (dims[i], dims[i + 1]))
               for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, TOY_BATCH_SIZE):
            idx = order[start:start + TOY_BATCH_SIZE]
            xb, yb = x[idx], y[idx]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                acts = [xb]
                pre = []
                for i, (w, b) in enumerate(zip(weights, biases)):
                    z = acts[-1] @ w + b
                    pre.append(z)
                    acts.append(
                        np.maximum(z, 0.0) if i < len(weights) - 1 else z)
                logits = acts[-1]
                shifted = logits - logits.max(axis=1, keepdims=True)
                probs = np.exp(shifted)
                probs /= probs.sum(axis=1, keepdims=True)
                loss = -np.mean(np.log(probs[np.arange(len(yb)), yb]))
                if not np.isfinite(loss):
                    raise ValueError("training diverged (non-finite loss)")
                delta = probs
                delta[np.arange(len(yb)), yb] -= 1.0
                delta /= len(yb)
                for i in range(len(weights) - 1, -1, -1):
                    grad_w = acts[i].T @ delta
                    grad_b = delta.sum(axis=0)
                    if i > 0:
                        delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
                    weights[i] -= TOY_LEARNING_RATE * grad_w
                    biases[i] -= TOY_LEARNING_RATE * grad_b
    return weights, biases


class TestForward:
    def test_relu_clamps_negative(self):
        model = ModelSpec([Layer(I2, np.zeros(2), "relu"),
                           Layer(I2, np.zeros(2), "none")])
        trace = forward(model, (1.0, -1.0))
        assert trace.outputs[0].tolist() == [1.0, 0.0]

    def test_stacked_relu_keeps_zero(self):
        one = np.array([[1.0]])
        model = ModelSpec([
            Layer(one, np.zeros(1), "relu"),
            Layer(one, np.zeros(1), "relu"),
            Layer(np.array([[1.0, 1.0]]), np.zeros(2), "none"),
        ])
        trace = forward(model, (-5.0,))
        assert trace.outputs[1].tolist() == [0.0]
        assert trace.final.tolist() == [0.0, 0.0]

    def test_hand_multiplied_linear_layer(self):
        model = ModelSpec([
            Layer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2), "none")])
        assert forward(model, (1.0, 1.0)).final.tolist() == [4.0, 6.0]

    def test_width_mismatch(self):
        model = ModelSpec([Layer(I2, np.zeros(2), "none")])
        with pytest.raises(ValueError, match="width"):
            forward(model, (1.0, 2.0, 3.0))

    def test_non_finite_input(self):
        model = ModelSpec([Layer(I2, np.zeros(2), "none")])
        with pytest.raises(ValueError, match="input"):
            forward(model, (np.inf, 0.0))

    def test_non_finite_flagged_with_layer(self):
        model = ModelSpec([
            Layer(I2, np.zeros(2), "relu"),
            Layer(I2 * np.nan, np.zeros(2), "none"),
        ])
        with pytest.raises(ValueError, match="layer 1"):
            forward(model, (1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (2, 1)])
    @pytest.mark.parametrize("batch", [False, True], ids=["row", "batch"])
    def test_non_finite_input_anywhere(self, bad, at, batch):
        model = ModelSpec([Layer(I2, np.zeros(2), "relu"),
                           Layer(I2, np.zeros(2), "none")])
        x = np.ones((3, 2))
        x[at] = bad
        with pytest.raises(ValueError,
                           match="^non-finite value in layer 0 input$"):
            forward(model, x if batch else x[at[0]])

    # 1e10 times 1e300 overflows to inf in the scaled layer only
    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("batch", [False, True], ids=["row", "batch"])
    def test_overflow_to_inf_names_its_layer(self, bad, batch):
        model = ModelSpec([Layer(I2 * (1e300 if i == bad else 1.0),
                                 np.zeros(2), "none" if i == 2 else "relu")
                           for i in range(3)])
        x = np.array([[1.0, 2.0], [1e10, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=f"^non-finite value in layer {bad} output$"):
            forward(model, x if batch else x[1])

    @pytest.mark.parametrize("batch", [False, True], ids=["row", "batch"])
    def test_values_whose_squares_overflow_pass(self, batch):
        model = ModelSpec([Layer(I2, np.zeros(2), "relu"),
                           Layer(I2, np.zeros(2), "none")])
        x = np.array([[1e200, -1e200], [1.0, 2.0]])
        outputs = forward(model, x if batch else x[0]).outputs
        want = [[1e200, 0.0], [1.0, 2.0]] if batch else [1e200, 0.0]
        assert outputs[0].tolist() == want
        assert outputs[1].tolist() == want

    @pytest.mark.parametrize("batch", [False, True], ids=["row", "batch"])
    def test_minus_inf_pre_activation_clamped_to_zero(self, batch):
        # -1e10 * 1e300 is -inf before the ReLU and 0 after it
        model = ModelSpec([Layer(I2 * 1e300, np.zeros(2), "relu"),
                           Layer(I2, np.zeros(2), "none")])
        x = np.array([[-1e10, 1.0], [-1e10, -1.0]])
        with np.errstate(over="ignore"):
            trace = forward(model, x if batch else x[0])
        want = [[0.0, 1e300], [0.0, 0.0]] if batch else [0.0, 1e300]
        assert trace.outputs[0].tolist() == want
        assert trace.final.tolist() == want

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, (4, 8, 3))
        x = rng.normal(size=4)
        a = forward(model, x).final
        b = forward(model, x).final
        assert a.tobytes() == b.tobytes()

    def test_relu_outputs_nonnegative(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, (4, 8, 6, 3))
        for _ in range(20):
            trace = forward(model, rng.normal(size=4))
            assert np.all(trace.outputs[0] >= 0.0)
            assert np.all(trace.outputs[1] >= 0.0)

    def test_binarize_agrees_with_positive_indicator(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, (4, 8, 3))
        sel = identity_selection(8)
        for _ in range(20):
            acts = forward(model, rng.normal(size=4)).outputs[0]
            assert binarize(acts, sel) == tuple((acts > 0).astype(int))


class TestBatch:
    """A row's outputs, gradient and decision do not depend on its batch."""

    @pytest.fixture(scope="class", params=["toy", "40-256-128-10"])
    def model_and_rows(self, request):
        if request.param == "toy":
            x, y = make_blobs(seed=7, per_class=100)
            return train_toy(x, y, seed=7, epochs=5), x
        rng = np.random.default_rng(40)
        return (random_model(rng, (40, 256, 128, 10)),
                rng.normal(size=(120, 40)))

    def test_forward_rows_match_plain_row_products(self, model_and_rows):
        model, x = model_and_rows
        batch = forward(model, x).outputs
        for i, row in enumerate(x):
            single = forward(model, row).outputs
            for layer, want in enumerate(rowwise_outputs(model, row)):
                assert batch[layer][i].tobytes() == want.tobytes()
                assert single[layer].tobytes() == want.tobytes()

    def test_gradient_rows_match_single_rows(self, model_and_rows):
        model, x = model_and_rows
        acts = forward(model, x).outputs[0]
        for c in range(model.class_count):
            batch = gradient_from_activations(model, acts, 0, c)
            assert batch.shape == acts.shape
            for row, got in zip(acts, batch):
                want = rowwise_gradient(model, row, 0, c)
                assert got.tobytes() == want.tobytes()
                assert gradient_from_activations(model, row, 0, c).tobytes() \
                    == want.tobytes()

    def test_decide_rows_match_single_rows(self, model_and_rows):
        model, x = model_and_rows
        scores = forward(model, x).final
        assert decide(scores).tolist() == [decide(row) for row in scores]

    def test_output_shapes(self, model_and_rows):
        model, x = model_and_rows
        widths = [layer.weights.shape[1] for layer in model.layers]
        for rows in (x, x[:1], x[:0]):
            outputs = forward(model, rows).outputs
            assert [out.shape for out in outputs] \
                == [(len(rows), w) for w in widths]
            assert all(out.flags.c_contiguous for out in outputs)
        assert [out.shape for out in forward(model, x[0]).outputs] \
            == [(w,) for w in widths]

    def test_decide_types(self, model_and_rows):
        model, x = model_and_rows
        for rows in (x, x[:1], x[:0]):
            labels = decide(forward(model, rows).final)
            assert isinstance(labels, np.ndarray)
            assert labels.shape == (len(rows),)
            assert labels.dtype.kind == "i"
        assert type(decide(forward(model, x[0]).final)) is int
        assert decide(np.zeros((0, model.class_count))).shape == (0,)

    def test_accuracy_needs_one_label_per_input(self, model_and_rows):
        model, x = model_and_rows
        with pytest.raises(ValueError, match=f"{len(x)} inputs but "
                           f"{len(x) - 1} labels"):
            evaluate_accuracy(model, x, np.zeros(len(x) - 1, np.int64))

    def test_accuracy_needs_a_row(self, model_and_rows):
        model, x = model_and_rows
        with pytest.raises(ValueError,
                           match="^cannot measure accuracy on zero rows$"):
            evaluate_accuracy(model, x[:0], np.zeros(0))


class TestDecide:
    def test_plain_argmax(self):
        assert decide((0.1, 0.9, 0.3)) == 1

    def test_tie_breaks_low(self):
        assert decide((0.5, 0.5)) == 0

    def test_batch_ties_break_low(self):
        scores = [[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0],
                  [-1.0, -2.0, -0.5]]
        assert decide(scores).tolist() == [0, 1, 0, 2]
        assert [decide(row) for row in scores] == [0, 1, 0, 2]

    def test_more_than_two_axes_rejected(self):
        with pytest.raises(ValueError, match="score vector or a batch"):
            decide(np.zeros((2, 2, 2)))

    def test_all_negative(self):
        assert decide((-1.0, -2.0)) == 0

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = rng.normal(size=5)
            assert decide(v) == decide(v + 13.7)
            assert decide(v) == decide(v * 3.1)


class TestLayerGradient:
    def test_penultimate_is_weight_column(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, (3, 7, 4))
        acts = forward(model, rng.normal(size=3)).outputs[0]
        for c in range(4):
            grad = gradient_from_activations(model, acts, 0, c)
            assert np.array_equal(grad, model.layers[-1].weights[:, c])

    def test_penultimate_ignores_input(self):
        rng = np.random.default_rng(22)
        model = random_model(rng, (3, 7, 4))
        a1 = forward(model, rng.normal(size=3)).outputs[0]
        a2 = forward(model, rng.normal(size=3)).outputs[0]
        assert np.array_equal(gradient_from_activations(model, a1, 0, 2),
                              gradient_from_activations(model, a2, 0, 2))

    def test_zero_weight_row_gives_zero_gradient(self):
        w_out = np.zeros((5, 3))
        w_out[:, 1] = 1.0
        model = ModelSpec([
            Layer(np.ones((2, 5)), np.zeros(5), "relu"),
            Layer(w_out, np.zeros(3), "none"),
        ])
        acts = forward(model, (1.0, 1.0)).outputs[0]
        grad = gradient_from_activations(model, acts, 0, 0)
        assert grad.tolist() == [0.0] * 5

    def test_matches_finite_differences(self):
        # oracle: central differences on an independent forward pass
        from test_patterns import fd_gradient, tail_preactivations

        rng = np.random.default_rng(25)
        checked = 0
        while checked < 10:
            model = random_model(rng, (4, 6, 5, 3))
            x = rng.normal(size=4)
            acts = forward(model, x).outputs[0]
            if np.min(np.abs(tail_preactivations(model, acts, 0))) <= 1e-3:
                continue
            c = int(rng.integers(0, 3))
            grad = gradient_from_activations(model, acts, 0, c)
            oracle = fd_gradient(model, acts, 0, c)
            np.testing.assert_allclose(grad, oracle, rtol=1e-4, atol=1e-10)
            checked += 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("batch", [False, True], ids=["row", "batch"])
    def test_non_finite_activation_rejected(self, value, batch):
        rng = np.random.default_rng(27)
        model = random_model(rng, (3, 5, 6, 4))
        acts = np.abs(rng.normal(size=(2, 5)))
        acts[1, 3] = value
        with pytest.raises(ValueError,
                           match="non-finite value in layer 1 input"):
            gradient_from_activations(model, acts if batch else acts[1], 0, 2)

    @pytest.mark.parametrize("batch", [False, True], ids=["row", "batch"])
    def test_activations_whose_squares_overflow_pass(self, batch):
        rng = np.random.default_rng(29)
        model = random_model(rng, (3, 2, 4, 3))
        acts = np.array([[1e200, -1e200], [1e-3, 2.0]])
        for c in range(3):
            got = gradient_from_activations(model, acts if batch else acts[0],
                                            0, c)
            want = [rowwise_gradient(model, row, 0, c) for row in acts]
            assert got.tolist() == ([w.tolist() for w in want] if batch
                                    else want[0].tolist())

    @pytest.mark.parametrize("bad", [1, 2])
    def test_non_finite_output_names_model_layer(self, bad):
        rng = np.random.default_rng(28)
        model = random_model(rng, (3, 5, 6, 4, 3))
        model.layers[bad].weights[0, 0] = np.nan
        acts = np.abs(rng.normal(size=5))
        with pytest.raises(ValueError,
                           match=f"non-finite value in layer {bad} output"):
            gradient_from_activations(model, acts, 0, 1)

    def test_invalid_layer_and_class(self):
        rng = np.random.default_rng(26)
        model = random_model(rng, (3, 5, 2))
        acts = forward(model, np.zeros(3)).outputs
        with pytest.raises(ValueError, match="ReLU"):
            gradient_from_activations(model, acts[1], 1, 0)
        with pytest.raises(ValueError, match="class"):
            gradient_from_activations(model, acts[0], 0, 2)

    @pytest.mark.parametrize("layer, class_index, message", [
        (True, 0, "^layer True is not an integer$"),
        (0.0, 0, "^layer 0.0 is not an integer$"),
        (0, True, "^class index True is not an integer$"),
        (0, 1.0, "^class index 1.0 is not an integer$"),
        (0, "1", "^class index '1' is not an integer$"),
    ], ids=["bool-layer", "float-layer", "bool-class", "float-class",
            "string-class"])
    def test_layer_and_class_are_integers(self, layer, class_index,
                                          message):
        rng = np.random.default_rng(26)
        model = random_model(rng, (3, 5, 4, 2))
        acts = forward(model, np.ones(3)).outputs[0]
        with pytest.raises(ValueError, match=message):
            gradient_from_activations(model, acts, layer, class_index)
        got = gradient_from_activations(model, acts, np.int64(0), np.int8(1))
        assert got.tobytes() \
            == gradient_from_activations(model, acts, 0, 1).tobytes()


class TestModelSpec:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            ModelSpec([
                Layer(np.ones((2, 3)), np.zeros(3), "relu"),
                Layer(np.ones((4, 2)), np.zeros(2), "none"),
            ])

    def test_final_layer_must_be_linear(self):
        with pytest.raises(ValueError, match="linear"):
            ModelSpec([Layer(I2, np.zeros(2), "relu")])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="classes"):
            ModelSpec([Layer(np.ones((2, 1)), np.zeros(1), "none")])

    @pytest.mark.parametrize("layers, message", [
        ([], "^model needs at least one layer$"),
        ([Layer(np.ones((2, 3)), np.zeros(2), "none")],
         "^layer 0: weight/bias shapes disagree$"),
        ([Layer(I2, np.zeros(2), "tanh"), Layer(I2, np.zeros(2), "none")],
         "^layer 0: unknown activation 'tanh'$"),
    ], ids=["no-layers", "bias-width", "activation"])
    def test_malformed_layers_rejected(self, layers, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec(layers)


class TestMakeBlobs:
    def test_shapes_and_labels(self):
        x, y = make_blobs(per_class=100, seed=1)
        assert x.shape == (300, 2)
        assert sorted(set(y.tolist())) == [0, 1, 2]

    def test_deterministic(self):
        x1, y1 = make_blobs(seed=5, per_class=50)
        x2, y2 = make_blobs(seed=5, per_class=50)
        assert x1.tobytes() == x2.tobytes()
        assert y1.tobytes() == y2.tobytes()

    def test_offset_translates_by_distance(self):
        base, _ = make_blobs(seed=5, per_class=50)
        moved, _ = make_blobs(seed=5, per_class=50, offset=2.0)
        shifts = np.linalg.norm(moved - base, axis=1)
        np.testing.assert_allclose(shifts, 2.0)

    @pytest.mark.parametrize("per_class, message", [
        (-2, "^per_class must be >= 0, got -2$"),
        (2.5, "^per_class 2.5 is not an integer$"),
        (True, "^per_class True is not an integer$"),
        (10 ** 20, f"^per_class must be <= {2 ** 63 - 1}, got {10 ** 20}$"),
    ], ids=["negative", "float", "bool", "beyond-int64"])
    def test_per_class_is_a_count(self, per_class, message):
        with pytest.raises(ValueError, match=message):
            make_blobs(per_class=per_class)

    @pytest.mark.parametrize("offset, message", [
        ([1, 2], "offset must be one finite number, got [1, 2]"),
        (math.nan, "offset must be one finite number, got nan"),
        (np.inf, "offset must be one finite number, got inf"),
        ("2", "offset must hold numbers, got '2'"),
        (None, "offset must hold numbers, got None"),
        (True, "offset must hold numbers, got True"),
    ], ids=["list", "nan", "infinite", "string", "none", "bool"])
    def test_offset_is_one_finite_number(self, offset, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_blobs(per_class=1, offset=offset)

    def test_numpy_offset_accepted(self):
        moved = make_blobs(per_class=4, seed=5, offset=2.0)[0].tobytes()
        for offset in (np.float32(2.0), np.array(2.0), 2):
            assert make_blobs(per_class=4, seed=5,
                              offset=offset)[0].tobytes() == moved

    def test_numpy_per_class_accepted(self):
        x, y = make_blobs(per_class=np.int64(4), seed=5)
        assert x.tobytes() == make_blobs(per_class=4, seed=5)[0].tobytes()

    @pytest.mark.parametrize("seed, message", [
        (-1, "^seed must be >= 0, got -1$"),
        (True, "^seed True is not an integer$"),
        (2.5, "^seed 2.5 is not an integer$"),
        ("3", "^seed '3' is not an integer$"),
    ], ids=["negative", "bool", "float", "string"])
    def test_seed_is_a_count(self, seed, message):
        with pytest.raises(ValueError, match=message):
            make_blobs(per_class=2, seed=seed)

    def test_numpy_seed_gives_the_same_bytes(self):
        x, y = make_blobs(per_class=4, seed=np.int64(5))
        x_int, y_int = make_blobs(per_class=4, seed=5)
        assert x.tobytes() == x_int.tobytes()
        assert y.tobytes() == y_int.tobytes()


# label-table rows that stand for a whole label array, not one label: the
# labels as floats, and the labels as a column
FLOAT_ARRAY, COLUMN = object(), object()


class TestTrainToy:
    def test_separable_blobs_reach_90_percent(self):
        x, y = make_blobs(per_class=500, seed=7)
        model = train_toy(x, y, seed=7)
        assert evaluate_accuracy(model, x, y) >= 0.90

    def test_zero_epochs_returns_initial_model(self):
        x, y = make_blobs(per_class=100, seed=3)
        model = train_toy(x, y, seed=3, epochs=0)
        accuracy = evaluate_accuracy(model, x, y)
        assert accuracy < 0.9  # untrained, roughly chance level

    def test_same_seed_same_bytes(self, tmp_path):
        x, y = make_blobs(per_class=100, seed=11)
        for name in ("a.json", "b.json"):
            save_model(train_toy(x, y, seed=11, epochs=5), tmp_path / name)
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    def test_divergence_raises(self):
        x, y = make_blobs(per_class=50, seed=2)
        with pytest.raises(ValueError, match="diverged"):
            train_toy(x * 1e300, y, seed=2, epochs=50)

    def test_hyperparameters_recorded(self):
        x, y = make_blobs(per_class=50, seed=2)
        model = train_toy(x, y, seed=2, epochs=1)
        assert model.metadata["seed"] == 2
        assert model.metadata["epochs"] == 1
        assert "learning_rate" in model.metadata

    @pytest.mark.parametrize("epochs, message", [
        (-3, "^epochs must be >= 0, got -3$"),
        (2.5, "^epochs 2.5 is not an integer$"),
        ("2", "^epochs '2' is not an integer$"),
    ], ids=["negative", "float", "string"])
    def test_epochs_is_a_count(self, epochs, message):
        x, y = make_blobs(per_class=10, seed=2)
        with pytest.raises(ValueError, match=message):
            train_toy(x, y, epochs=epochs)

    @pytest.mark.parametrize("x, y, message", [
        (np.zeros((0, 2)), np.zeros(0),
         "^dataset must be nonempty with matching labels$"),
        (np.ones((4, 2)), np.zeros(4, np.int64), "^need at least 2 classes$"),
    ], ids=["empty", "one-class"])
    def test_dataset_needs_rows_of_two_classes(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            train_toy(x, y, epochs=1)

    @pytest.mark.parametrize("seed, message", [
        (-1, "^seed must be >= 0, got -1$"),
        (True, "^seed True is not an integer$"),
        (2.5, "^seed 2.5 is not an integer$"),
        ("3", "^seed '3' is not an integer$"),
    ], ids=["negative", "bool", "float", "string"])
    def test_seed_is_a_count(self, seed, message):
        x, y = make_blobs(per_class=10, seed=2)
        with pytest.raises(ValueError, match=message):
            train_toy(x, y, seed=seed, epochs=1)

    def test_numpy_seed_saved_as_int(self, tmp_path):
        x, y = make_blobs(per_class=10, seed=2)
        save_model(train_toy(x, y, seed=np.int64(3), epochs=1),
                   tmp_path / "numpy.json")
        save_model(train_toy(x, y, seed=3, epochs=1), tmp_path / "int.json")
        saved = (tmp_path / "numpy.json").read_bytes()
        assert json.loads(saved)["metadata"]["seed"] == 3
        assert saved == (tmp_path / "int.json").read_bytes()

    def test_numpy_epochs_recorded_as_int(self):
        x, y = make_blobs(per_class=10, seed=2)
        model = train_toy(x, y, seed=2, epochs=np.int64(1))
        assert type(model.metadata["epochs"]) is int
        assert model.metadata == train_toy(x, y, seed=2, epochs=1).metadata

    @pytest.mark.parametrize("bad, message", [
        (-1, "^label must be >= 0, got -1$"),
        (0.5, r"^label 0\.5 is not an integer$"),
        (np.nan, "^label nan is not an integer$"),
        (np.inf, "^label inf is not an integer$"),
        ("1", "^label '1' is not an integer$"),
        ("a", "^label 'a' is not an integer$"),
        (None, "^label None is not an integer$"),
        (True, "^label True is not an integer$"),
        (1.0, r"^label 1\.0 is not an integer$"),
        (FLOAT_ARRAY, r"^label np\.float64\(0\.0\) is not an integer$"),
        (COLUMN, r"^labels must be one per row, got shape \(30, 1\)$"),
    ], ids=["negative", "fraction", "nan", "inf", "string", "letter", "none",
            "bool", "whole-float", "float-array", "2-D"])
    def test_labels_are_whole_numbers_of_at_least_zero(self, bad, message):
        x, y = make_blobs(per_class=10, seed=2)
        if bad is FLOAT_ARRAY:
            labels = y.astype(np.float64)
        elif bad is COLUMN:
            labels = y[:, None]
        else:  # an int in the int64 array, checked by its minimum; any
            # other label in a list, where it keeps its own type
            labels = y.copy() if type(bad) is int else y.tolist()
            labels[4] = bad
        model = train_toy(x, y, epochs=0)
        # evaluate_accuracy keeps train_toy's rule
        for run in (lambda: train_toy(x, labels, epochs=1),
                    lambda: evaluate_accuracy(model, x, labels)):
            with pytest.raises(ValueError, match=message):
                run()

    @pytest.mark.parametrize("big, as_array", [(2 ** 70, False),
                                               (2 ** 63, True)],
                             ids=["list", "uint64-array"])
    def test_label_beyond_int64_is_named(self, big, as_array):
        x, y = make_blobs(per_class=10, seed=2)
        labels = y.astype(np.uint64) if as_array else y.tolist()
        labels[4] = big
        model = train_toy(x, y, epochs=0)
        message = f"^label must be <= {2 ** 63 - 1}, got {big}$"
        for run in (lambda: train_toy(x, labels, epochs=1),
                    lambda: evaluate_accuracy(model, x, labels)):
            with pytest.raises(ValueError, match=message):
                run()

    @pytest.mark.parametrize("labels, message", [
        ([0, 1, -2, -5, 1], "^label must be >= 0, got -5$"),
        # numpy reads 2**63 among ints as a float64 array
        ([0, 2 ** 63, 1], f"^label must be <= {2 ** 63 - 1}, got {2 ** 63}$"),
        ([0, 2 ** 64, 1], f"^label must be <= {2 ** 63 - 1}, got {2 ** 64}$"),
    ], ids=["negative", "2**63", "2**64"])
    def test_list_of_ints_is_checked_at_once(self, labels, message):
        """A list of exact ints, a record set's labels, is checked by its
        extremes as an int64 array; one beyond int64 goes one by one."""
        assert _label_array([0, 2, 1]).tolist() == [0, 2, 1]
        assert _label_array([0, 2, 1]).dtype == np.int64
        with pytest.raises(ValueError, match=message):
            _label_array(labels)

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    @pytest.mark.parametrize("seed, per_class", [(0, 32), (4, 37), (9, 11)])
    def test_equals_the_per_layer_loop(self, seed, per_class, epochs):
        """One flat update per minibatch trains the same model, bit for
        bit, as six per-layer updates: 96 rows fill three minibatches,
        while 111 rows end in one of 15 and 33 rows in one of 1."""
        x, y = make_blobs(per_class=per_class, seed=seed)
        model = train_toy(x, y, seed=seed, epochs=epochs)
        weights, biases = reference_train(x, y, seed, epochs)
        assert len(model.layers) == len(weights) == len(biases)
        for layer, w, b in zip(model.layers, weights, biases):
            assert np.array_equal(layer.weights, w)
            assert np.array_equal(layer.bias, b)

    def test_both_loops_diverge_on_huge_inputs(self):
        x, y = make_blobs(per_class=50, seed=2)
        with pytest.raises(ValueError, match="diverged"):
            reference_train(x * 1e300, y, 2, 50)
        with pytest.raises(ValueError, match="diverged"):
            train_toy(x * 1e300, y, seed=2, epochs=50)

    @pytest.mark.parametrize("scale", [1.0, 1e300], ids=["returns", "raises"])
    def test_numpy_error_state_restored(self, scale):
        x, y = make_blobs(per_class=20, seed=2)
        before = np.geterr()
        try:
            train_toy(x * scale, y, seed=2, epochs=3)
        except ValueError as exc:
            assert scale != 1.0 and "diverged" in str(exc)
        else:
            assert scale == 1.0
        assert np.geterr() == before


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        model = random_model(rng, (3, 6, 4))
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        for a, b in zip(model.layers, loaded.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.activation == b.activation

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(32)
        model = random_model(rng, (3, 6, 4))
        save_model(model, tmp_path / "a.json")
        save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    def test_file_is_the_compact_encoding_of_its_payload(self, tmp_path):
        """``save_model`` writes the compact ``json`` encoding of the
        object its file holds, and a loaded model saved again gives the
        same bytes."""
        model = random_model(np.random.default_rng(34), (3, 6, 4))
        model.layers[0].weights[0, :3] = [-0.0, 1e-300, 1e200]
        model.metadata = {"seed": 34, "hidden": [6], "note": "\u00e9"}
        path = tmp_path / "m.json"
        save_model(model, path)
        payload = {"version": 1, "layers": [
            {"weights": layer.weights.tolist(), "bias": layer.bias.tolist(),
             "activation": layer.activation} for layer in model.layers],
            "metadata": model.metadata}
        assert path.read_text(encoding="utf-8") == json.dumps(
            payload, separators=(",", ":"), allow_nan=False) + "\n"
        save_model(load_model(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        rng = np.random.default_rng(33)
        model = random_model(rng, (3, 6, 4))
        path = tmp_path / "m.json"
        save_model(model, path)
        old = path.read_bytes()
        # a set is not JSON
        model.metadata["tags"] = {"a"}
        with pytest.raises(TypeError):
            save_model(model, path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_non_finite_weight_not_saved(self, tmp_path):
        rng = np.random.default_rng(34)
        model = random_model(rng, (3, 6, 4))
        model.layers[1].weights[2, 0] = np.inf
        path = tmp_path / "m.json"
        path.write_text("old contents\n")
        with pytest.raises(ValueError, match="JSON"):
            save_model(model, path)
        assert path.read_text() == "old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_not_loaded(self, tmp_path, value):
        rng = np.random.default_rng(35)
        path = tmp_path / "m.json"
        save_model(random_model(rng, (3, 6, 4)), path)
        data = json.loads(path.read_text())
        data["layers"][0]["weights"][1][2] = value
        path.write_text(json.dumps(data))  # json writes the bare token
        with pytest.raises(SchemaError, match="model file .*non-finite"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [
        ("bias", ["0.5", True, 0.0, 0.0, 0.0, 0.0]),
        ("bias", [0.5, None, 0.0, 0.0, 0.0, 0.0]),
        ("bias", [[0.5]] * 6),
        ("weights", [[1.0] * 6, [1.0] * 6, ["1"] * 6]),
        ("weights", [1.0] * 18),
    ], ids=["string-and-bool", "null", "nested", "string", "flat"])
    def test_weights_and_biases_must_be_numbers(self, tmp_path, field,
                                                value):
        path = tmp_path / "m.json"
        save_model(random_model(np.random.default_rng(36), (3, 6, 4)), path)
        data = json.loads(path.read_text())
        data["layers"][0][field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match=f"malformed model file: "
                           f"{field} must"):
            load_model(path)

    @pytest.mark.parametrize("literal, message", [
        ("1" * 400, "weights beyond the float64 range"),
        ("-1e999", "weights must hold finite numbers"),
    ], ids=["huge-int", "minus-inf"])
    def test_overflowing_weight_is_schema_error(self, tmp_path, literal,
                                                message):
        path = tmp_path / "m.json"
        save_model(random_model(np.random.default_rng(37), (3, 6, 4)), path)
        data = json.loads(path.read_text())
        data["layers"][1]["weights"][0][0] = 12345.678
        path.write_text(json.dumps(data).replace("12345.678", literal))
        with pytest.raises(SchemaError, match=(
                f"^malformed model file: {message}$")):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 9, "layers": []}))
        with pytest.raises(FormatVersionError):
            load_model(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_exact_int(self, tmp_path, version):
        path = tmp_path / "m.json"
        save_model(random_model(np.random.default_rng(38), (3, 6, 4)), path)
        data = json.loads(path.read_text())
        data["version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(FormatVersionError,
                           match=f"^unsupported model version {version}$"):
            load_model(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": 1}')
        with pytest.raises(SchemaError):
            load_model(path)

    @pytest.mark.parametrize("text", ["[]", "3", '"model"', "null"])
    def test_not_an_object(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(SchemaError,
                           match="^model file must hold a JSON object$"):
            load_model(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError):
            load_model(path)
