import math
import re
import traceback
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from symdigits.network import (GATHER_BATCHES, PAPER_HIDDEN_DIMS, Layer, Mlp, TrainConfig,
                               TrainingDiverged, TrainResult, _flatten, _forward, as_integers, backward, cross_entropy_loss, forward, grad_check,
                               init_mlp, predict, sample_loss, softmax, total_loss,
                               train)

from conftest import random_images


def small_net(use_bias=False, seed=0, dims=(64, 10, 5, 10)):
    return init_mlp(dims, use_bias, seed)


# ---------------------------------------------------------------------------
# forward / softmax / predict
# ---------------------------------------------------------------------------


def test_zero_input_gives_zero_logits():
    mlp = small_net()
    assert np.all(forward(mlp, np.zeros(64)) == 0.0)


def test_no_bias_network_is_odd():
    # logits(-x) == -logits(x) for tanh units without biases
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(25):
        mlp = small_net(seed=trial)
        x = rng.uniform(-1, 1, size=(40, 64))
        gap = np.abs(forward(mlp, -x) + forward(mlp, x))
        worst = max(worst, float(gap.max()))
    assert worst <= 1e-12  # 25 nets x 40 inputs = 1000 pairs


@st.composite
def bias_free_nets_and_batches(draw):
    dims = draw(st.lists(st.integers(1, 12), min_size=2, max_size=5))
    mlp = init_mlp(dims, use_bias=False, seed_or_rng=draw(st.integers(0, 2**32 - 1)))
    x = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), dims[0]),
                        elements=st.floats(-1.0, 1.0)))
    return mlp, x


@settings(max_examples=200, deadline=None)
@given(bias_free_nets_and_batches())
def test_no_bias_network_is_odd_bit_for_bit(net_and_batch):
    mlp, x = net_and_batch
    assert np.array_equal(forward(mlp, -x), -forward(mlp, x))


def test_forward_matches_hand_rolled_chain():
    # independent re-computation of the layer recurrence with scalar loops
    mlp = small_net(seed=0)
    x = random_images(1, seed=42)[0]
    z = list(x)
    for li, layer in enumerate(mlp.layers):
        out = []
        for i in range(layer.fan_out):
            s = 0.0
            for j in range(layer.fan_in):
                s += layer.weights[i, j] * z[j]
            out.append(math.tanh(s) if li < len(mlp.layers) - 1 else s)
        z = out
    np.testing.assert_allclose(forward(mlp, x), z, rtol=0, atol=1e-12)


def test_forward_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        forward(small_net(), np.zeros(63))


def test_softmax_uniform_on_equal_logits():
    assert np.allclose(softmax(np.zeros(10)), 0.1, rtol=0, atol=1e-15)


def test_softmax_one_hot_logit():
    p = softmax(np.array([1.0] + [0.0] * 9))
    assert abs(p[0] - math.e / (math.e + 9)) < 1e-15


def test_softmax_normalization_property():
    rng = np.random.default_rng(1)
    logits = rng.uniform(-50, 50, size=(500, 10))
    sums = softmax(logits).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-12)


def test_softmax_probability_inversion_identity():
    # p_a(x) * p_a(-x) is constant across classes for an odd network
    mlp = small_net(seed=3)
    x = random_images(100, seed=3)
    p = softmax(forward(mlp, x))
    p_inv = softmax(forward(mlp, -x))
    prod = p * p_inv
    spread = prod.max(axis=1) / prod.min(axis=1) - 1.0
    assert np.all(spread <= 1e-10)


def test_softmax_of_inverted_input_is_bitwise_softmax_of_negated_logits():
    # logits(-x) == -logits(x) holds bitwise, so the probability vectors
    # agree bit-for-bit by construction
    mlp = small_net(seed=8)
    x = random_images(50, seed=8)
    a = softmax(forward(mlp, -x))
    b = softmax(-forward(mlp, x))
    assert np.array_equal(a, b)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax(np.array([np.inf] + [0.0] * 9))


def test_predict_breaks_ties_toward_lowest_class():
    assert predict(small_net(), np.zeros(64)) == 0


def test_predict_on_inverted_input_is_argmin():
    mlp = small_net(seed=4)
    x = random_images(200, seed=4)
    logits = forward(mlp, x)
    unique = (logits == logits.min(axis=1, keepdims=True)).sum(axis=1) == 1
    preds = predict(mlp, -x)
    assert np.array_equal(preds[unique], np.argmin(logits, axis=1)[unique])


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_zero_when_label_probability_is_one():
    p = np.zeros(10)
    p[4] = 1.0
    assert cross_entropy_loss(p, 4) == 0.0


def test_loss_of_uniform_probabilities_is_log_ten():
    assert abs(cross_entropy_loss(np.full(10, 0.1), 7) - math.log(10)) < 1e-15


def test_loss_quarter_probability_is_log_four():
    p = np.full(10, (1 - 0.25) / 9)
    p[2] = 0.25
    assert abs(cross_entropy_loss(p, 2) - math.log(4)) < 1e-15


def test_loss_rejects_bad_label():
    with pytest.raises(ValueError):
        cross_entropy_loss(np.full(10, 0.1), 10)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_zero_input_zeroes_first_layer_gradient():
    grads = backward(small_net(), np.zeros(64), 3)
    assert np.all(grads[0].weights == 0.0)


def test_last_layer_gradient_identity():
    # d loss / d u = (p - onehot(y)) outer z for the softmax head
    mlp = small_net(seed=5)
    x = random_images(1, seed=5)[0]
    y = 6
    *_, hidden, logits = _layer_outputs(mlp.layers, x)
    p = softmax(logits)
    expected = np.outer(p - np.eye(10)[y], hidden)
    np.testing.assert_allclose(backward(mlp, x, y)[-1].weights, expected,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("use_bias", [False, True])
def test_gradients_match_finite_differences(use_bias):
    mlp = init_mlp((64, 6, 5, 10), use_bias, 6)
    x = random_images(1, seed=6)[0]
    assert grad_check(mlp, (x, 2), step=1e-5) < 1e-5


def test_grad_check_detects_corruption():
    mlp = small_net(seed=7, dims=(64, 6, 10))
    x = random_images(1, seed=7)[0]
    grads = backward(mlp, x, 1)
    grads[0].weights[2, 3] *= 2.0
    assert grad_check(mlp, (x, 1), gradients=grads) > 1e-2


def test_grad_check_step_range():
    with pytest.raises(ValueError):
        grad_check(small_net(), (np.zeros(64), 0), step=1e-2)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def toy_feature_set(n=64, seed=0):
    """(features, labels) of n random 64-feature samples."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(n, 64)), rng.integers(0, 10, size=n)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)


def test_zero_learning_rate_is_noop():
    data = toy_feature_set()
    result = train(TrainConfig(seed=9, epochs=1, learning_rate=0.0), *data)
    reference = init_mlp((64, 10, 5, 10), False, 9)
    for got, want in zip(result.mlp.layers, reference.layers):
        assert np.array_equal(got.weights, want.weights)


def test_training_is_bit_deterministic():
    data = toy_feature_set()
    config = TrainConfig(seed=11, epochs=5)
    a = train(config, *data)
    b = train(config, *data)
    for la, lb in zip(a.mlp.layers, b.mlp.layers):
        assert np.array_equal(la.weights, lb.weights)
    assert a.epoch_losses == b.epoch_losses


def test_batch_size_cannot_exceed_dataset():
    with pytest.raises(ValueError):
        train(TrainConfig(batch_size=65), *toy_feature_set(n=10))


def test_divergence_aborts_naming_epoch():
    features, labels = toy_feature_set(n=8)
    features[0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the abort
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(TrainConfig(epochs=2, batch_size=8), features, labels)


def test_weight_overflow_aborts_naming_layer_and_epoch():
    # lr*g overflows in the first update while the logits are still finite:
    # the input is one pixel, scaled so that the hidden unit weighting it
    # least stays off the tanh plateau and its weight gradient grows large
    w0 = init_mlp((64, 10, 5, 10), False, np.random.default_rng(0)).layers[0].weights
    unit, pixel = np.unravel_index(np.argmin(np.abs(w0)), w0.shape)
    features = np.zeros((1, 64))
    features[0, pixel] = 1.0 / abs(w0[unit, pixel])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="non-finite weights in layer .* in epoch 1"):
            train(TrainConfig(seed=0, epochs=1, batch_size=1, learning_rate=1e308),
                  features, np.array([0]))


def test_label_outside_range_is_a_value_error():
    features, labels = toy_feature_set(n=8)
    labels[3] = 10
    with pytest.raises(ValueError, match="label outside 0..9"):
        train(TrainConfig(epochs=1, batch_size=8), features, labels)


@pytest.mark.parametrize("labels", [[0.9, 1.5, 2.2, 3.99], [0, 1, 2, np.nan]])
def test_train_rejects_fractional_labels(labels):
    # truncating would silently train on labels 0, 1, 2, 3
    with pytest.raises(ValueError, match="labels must be integers"):
        train(TrainConfig(epochs=1, batch_size=2), np.ones((4, 64)), labels)


def test_train_accepts_integral_float_labels():
    features, labels = toy_feature_set(n=8)
    config = TrainConfig(epochs=1, batch_size=4)
    as_float = train(config, features, labels.astype(np.float64))
    as_int = train(config, features, labels)
    assert as_float.epoch_losses == as_int.epoch_losses


def test_as_integers_stops_below_two_to_the_63():
    # 2**63 is the first double outside int64; the one below it converts exactly
    with pytest.raises(ValueError, match="labels must be integers"):
        as_integers([2.0**63], "labels")
    assert as_integers([np.nextafter(2.0**63, 0)], "labels").tolist() == [9223372036854774784]


@pytest.mark.parametrize("label", [[2.7, 3.2], 0.5, [1, np.inf]])
def test_backward_rejects_fractional_labels(label):
    features = np.zeros((np.size(label), 64))
    with pytest.raises(ValueError, match="labels must be integers"):
        backward(small_net(), features, label)


@pytest.mark.parametrize("label", [10, -1])
def test_backward_rejects_label_outside_range(label):
    with pytest.raises(ValueError, match="label outside 0..9"):
        backward(small_net(), np.zeros(64), label)


@pytest.mark.parametrize("use_bias", [False, True])
def test_full_batch_epoch_steps_along_backward(use_bias):
    # the gradient that trains is bit-for-bit the one grad_check verifies
    features, labels = toy_feature_set(n=48, seed=3)
    eta = 0.05
    config = TrainConfig(seed=4, epochs=1, batch_size=len(labels), learning_rate=eta,
                         momentum=0.0, use_bias=use_bias)
    result = train(config, features, labels)
    rng = np.random.default_rng(4)  # drawn in train's order: init, then one shuffle
    init = init_mlp((64, 10, 5, 10), use_bias, rng)
    order = rng.permutation(len(labels))
    grads = backward(init, features[order], labels[order])
    for got, start, grad in zip(result.mlp.layers, init.layers, grads):
        assert np.array_equal(got.weights, start.weights - eta * grad.weights)
        if use_bias:
            assert np.array_equal(got.bias, start.bias - eta * grad.bias)
        else:
            assert got.bias is None and grad.bias is None
    assert result.epoch_losses == [total_loss(init, features[order], labels[order])
                                   / len(labels)]


@pytest.mark.parametrize("use_bias", [False, True])
def test_minibatch_momentum_training_matches_per_layer_loop(use_bias):
    # train's update, written layer by layer: the partial last batch and the
    # velocity carried across steps and epochs come out bit for bit
    features, labels = toy_feature_set(n=44, seed=5)
    eta, momentum, batch = 0.05, 0.9, 8
    config = TrainConfig(seed=6, epochs=3, batch_size=batch, learning_rate=eta,
                         momentum=momentum, use_bias=use_bias)
    result = train(config, features, labels)
    rng = np.random.default_rng(6)  # drawn in train's order: init, then one shuffle per epoch
    mlp = init_mlp((64, 10, 5, 10), use_bias, rng)
    vel = [Layer(np.zeros_like(l.weights), None if l.bias is None else np.zeros_like(l.bias))
           for l in mlp.layers]
    epoch_losses = []
    for _ in range(3):
        order = rng.permutation(len(labels))
        loss_sum = 0.0
        for start in range(0, len(labels), batch):
            idx = order[start:start + batch]
            loss_sum += total_loss(mlp, features[idx], labels[idx])
            grads = backward(mlp, features[idx], labels[idx])
            for layer, v, g in zip(mlp.layers, vel, grads):
                v.weights = momentum * v.weights - eta * g.weights
                layer.weights = layer.weights + v.weights
                if use_bias:
                    v.bias = momentum * v.bias - eta * g.bias
                    layer.bias = layer.bias + v.bias
        epoch_losses.append(loss_sum / len(labels))
    for got, want in zip(result.mlp.layers, mlp.layers):
        assert np.array_equal(got.weights, want.weights)
        if use_bias:
            assert np.array_equal(got.bias, want.bias)
        else:
            assert got.bias is None
    assert np.array_equal(result.epoch_losses, epoch_losses)


def test_trained_network_owns_its_arrays():
    result = train(TrainConfig(seed=0, epochs=1, use_bias=True), *toy_feature_set())
    arrays = [a for l in result.mlp.layers for a in (l.weights, l.bias)]
    assert all(a.flags.owndata for a in arrays)


def test_no_bias_mode_keeps_bias_absent_through_training():
    result = train(TrainConfig(seed=0, epochs=2, use_bias=False), *toy_feature_set())
    assert all(layer.bias is None for layer in result.mlp.layers)


def test_bias_mode_trains_biases():
    result = train(TrainConfig(seed=0, epochs=3, use_bias=True), *toy_feature_set())
    assert any(np.any(layer.bias != 0.0) for layer in result.mlp.layers)


def test_short_training_learns_something(small_splits, quick_config):
    train_ds, test_ds = small_splits
    result = train(quick_config, train_ds.pixels, train_ds.labels)
    preds = predict(result.mlp, test_ds.pixels)
    assert (preds == test_ds.labels).mean() > 0.5
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    # predict on the first test image agrees with a manual argmax of the logits
    first = test_ds.pixels[0]
    assert predict(result.mlp, first) == int(np.argmax(forward(result.mlp, first)))


def test_total_loss_is_sum_of_sample_losses():
    mlp = small_net(seed=12)
    x = random_images(10, seed=12)
    y = np.arange(10) % 10
    per_sample = [cross_entropy_loss(softmax(forward(mlp, xi)), int(yi))
                  for xi, yi in zip(x, y)]
    assert abs(total_loss(mlp, x, y) - sum(per_sample)) < 1e-12


def test_mlp_rejects_mismatched_dims():
    with pytest.raises(ValueError, match="chain"):
        Mlp([Layer(np.zeros((10, 64))), Layer(np.zeros((5, 11)))])


# ---------------------------------------------------------------------------
# the buffered backprop kernel and train, against the loop they replaced
# ---------------------------------------------------------------------------


def _layer_outputs(layers, h):
    """[input, hidden..., logits] of the layer recurrence: the allocating
    forward pass that ``network._forward`` replaced, kept verbatim as the
    reference for its bits."""
    outputs = [h]
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        z = np.dot(h, layer.weights.T)
        if layer.bias is not None:
            z = z + layer.bias
        h = z if i == last else np.tanh(z)
        outputs.append(h)
    return outputs


def reference_softmax(logits):
    """The allocating softmax that ``network._softmax`` replaced."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def reference_loss_and_gradients(mlp, X, y, grads=None):
    """The per-call backprop loop that the buffered kernel replaced, kept
    verbatim as the reference for its bits."""
    activations = _layer_outputs(mlp.layers, X)
    logits = activations[-1]
    if not np.isfinite(logits).all():
        raise ValueError("softmax requires finite logits")
    n = len(y)
    rows = np.arange(n)
    delta = logits - logits.max(axis=-1, keepdims=True)
    np.exp(delta, out=delta)
    delta /= delta.sum(axis=-1, keepdims=True)  # the softmax probabilities
    loss = float(np.sum(-np.log(np.maximum(delta[rows, y], 1e-15))))
    delta[rows, y] -= 1.0
    delta /= n
    if grads is None:
        grads = _flatten(mlp.layers)[1]  # every entry is overwritten below
    for i in range(len(mlp.layers) - 1, -1, -1):
        a_prev = activations[i]
        np.dot(delta.T, a_prev, out=grads[i].weights)
        if grads[i].bias is not None:
            np.sum(delta, axis=0, out=grads[i].bias)
        if i > 0:
            delta = np.dot(delta, mlp.layers[i].weights) * (1.0 - a_prev * a_prev)
    return loss, grads


@np.errstate(over="ignore", invalid="ignore")
def reference_train(config, features, labels):
    """train's step loop before the gather block and the per-epoch loss: a
    fresh batch copy, a reference_loss_and_gradients call and a loss sum
    per step."""
    X = np.asarray(features, dtype=np.float64)
    y = as_integers(labels, "labels")
    n = len(y)
    rng = np.random.default_rng(config.seed)
    init = init_mlp((X.shape[1], *PAPER_HIDDEN_DIMS, 10), config.use_bias, rng)
    params, layers = _flatten(init.layers)
    mlp = Mlp(layers)
    vel = np.zeros_like(params)
    grad, grads = _flatten(init.layers)
    epoch_losses = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            batch_loss, _ = reference_loss_and_gradients(mlp, X[idx], y[idx], grads)
            loss_sum += batch_loss
            vel *= config.momentum
            grad *= config.learning_rate
            vel -= grad
            params += vel
        epoch_losses.append(loss_sum / n)
    return TrainResult(mlp=mlp.copy(), epoch_losses=epoch_losses)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_layers(got, want):
    for g, w in zip(got, want, strict=True):
        assert same_bits(g.weights, w.weights)
        assert (g.bias is None) == (w.bias is None)
        assert g.bias is None or same_bits(g.bias, w.bias)


@st.composite
def nets_and_batches(draw):
    """A random network (any depth, bias mode and class count) and batch.
    Scaled weights saturate tanh and push label probabilities below the
    1e-15 clamp of the loss."""
    dims = [draw(st.integers(1, 16)), *draw(st.lists(st.integers(1, 12), max_size=3)),
            draw(st.integers(2, 12))]
    use_bias = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mlp = init_mlp(dims, use_bias, rng)
    scale = draw(st.sampled_from([1.0, 8.0, 64.0]))
    for layer in mlp.layers:
        layer.weights *= scale
        if use_bias:
            layer.bias[:] = rng.uniform(-scale, scale, layer.fan_out)
    n = draw(st.integers(1, 40))
    return mlp, rng.uniform(-1, 1, (n, dims[0])), rng.integers(0, dims[-1], n)


@settings(max_examples=300, deadline=None)
@given(nets_and_batches())
def test_backprop_kernel_is_bit_equal_to_the_loop_it_replaced(case):
    mlp, X, y = case
    want_loss, want_grads = reference_loss_and_gradients(mlp, X, y)
    assert same_bits(np.float64(total_loss(mlp, X, y)), np.float64(want_loss))
    assert_same_layers(backward(mlp, X, y), want_grads)


@st.composite
def nets_and_inputs(draw):
    """A random network (any depth and bias mode) and a feature vector or a
    batch of them."""
    mlp, X, _ = draw(nets_and_batches())
    return mlp, X[0] if draw(st.booleans()) else X


@settings(max_examples=300, deadline=None)
@given(nets_and_inputs())
def test_forward_is_bit_equal_to_the_allocating_recurrence(case):
    mlp, x = case
    assert same_bits(forward(mlp, x), _layer_outputs(mlp.layers, x)[-1])


@pytest.mark.parametrize("n", [None, 1, 7, 32, 2245, 17970], ids=lambda n: f"n={n}")
@pytest.mark.parametrize("use_bias", [False, True], ids=["no-bias", "bias"])
def test_forward_is_bit_equal_to_the_recurrence_on_preallocated_outputs(n, use_bias):
    # forward allocates each layer's output as it goes, while _backprop
    # writes into a workspace made beforehand: their logits must agree
    mlp = small_net(use_bias=use_bias, seed=9)
    if use_bias:
        for layer in mlp.layers:
            layer.bias[:] = np.random.default_rng(9).uniform(-1, 1, layer.fan_out)
    x = random_images(1 if n is None else n, seed=9)
    if n is None:
        x = x[0]
    outs = [np.empty((*x.shape[:-1], layer.fan_out)) for layer in mlp.layers]
    assert same_bits(forward(mlp, x), _forward(mlp.layers, x, outs))


logit_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
                          elements=st.floats(-800.0, 800.0))


@settings(max_examples=300, deadline=None)
@given(logit_arrays)
def test_softmax_is_bit_equal_to_the_allocating_form(logits):
    before = logits.copy()
    assert same_bits(softmax(logits), reference_softmax(logits))
    assert same_bits(logits, before)  # the caller's array is left alone


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cross_entropy_loss_is_the_clamped_log_it_replaced(data):
    # probabilities down to 0 and subnormals, below and above the 1e-15 clamp
    p = data.draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
                             elements=st.floats(0.0, 1.0)))
    y = data.draw(hnp.arrays(np.int64, p.shape[:-1], elements=st.integers(0, p.shape[-1] - 1)))
    picked = np.take_along_axis(p, y.reshape(*y.shape, 1), axis=-1)[..., 0]
    want = -np.log(np.maximum(picked, 1e-15))
    got = cross_entropy_loss(p, y)
    if y.ndim == 0:
        assert type(got) is float and same_bits(np.float64(got), want)
    else:
        assert same_bits(got, want)


@pytest.mark.parametrize("n, batch", [(37, 1), (20, 20), (44, 8), (75, 2), (100, 3)], ids=[
    "batch-1-three-blocks",
    "batch-n",
    "under-one-block-partial-batch",
    "three-blocks-partial-last-batch",
    "last-block-one-batch-and-a-row",
])
@pytest.mark.parametrize("use_bias", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("momentum", [0.0, 0.9], ids=["momentum-0", "momentum-0.9"])
def test_train_is_bit_equal_to_the_reference_step_loop(n, batch, use_bias, momentum):
    features, labels = toy_feature_set(n=n, seed=n)
    config = TrainConfig(seed=batch, epochs=3, batch_size=batch, learning_rate=0.05,
                         momentum=momentum, use_bias=use_bias)
    got, want = train(config, features, labels), reference_train(config, features, labels)
    assert_same_layers(got.mlp.layers, want.mlp.layers)
    assert got.epoch_losses == want.epoch_losses
    assert all(type(loss) is float for loss in got.epoch_losses)


@pytest.mark.parametrize("layout", [np.asfortranarray, lambda x: np.ascontiguousarray(x.T).T,
                                    lambda x: np.repeat(x, 2, axis=0)[::2]],
                         ids=["fortran-ordered", "transposed-view", "every-other-row"])
def test_train_gives_the_same_model_for_any_memory_layout(layout):
    # a row gather from a non-C-ordered matrix copied the whole matrix per block
    features, labels = toy_feature_set(n=75, seed=3)
    laid_out = layout(features)
    assert not laid_out.flags.c_contiguous and np.array_equal(laid_out, features)
    config = TrainConfig(seed=2, epochs=3, batch_size=2, use_bias=True)
    got, want = train(config, laid_out, labels), train(config, features, labels)
    assert same_bits(_flatten(got.mlp.layers)[0], _flatten(want.mlp.layers)[0])
    assert got.epoch_losses == want.epoch_losses


def features_with_bad_row(n, position, value, seed=0):
    """Toy features whose row at ``position`` of the first epoch's order
    (for TrainConfig(seed=seed)) holds one pixel set to ``value``."""
    rng = np.random.default_rng(seed)  # drawn in train's order: init, then one shuffle
    init_mlp((64, 10, 5, 10), False, rng)
    row = rng.permutation(n)[position]
    features, labels = toy_feature_set(n=n, seed=1)
    features[row, 5] = value
    return features, labels


# A NaN pixel reaches the logits.  An inf pixel does not (tanh(inf) is 1),
# but it makes the layer-0 weight gradient non-finite.  The messages are
# the ones the per-step loop gave.
@pytest.mark.parametrize("value, message", [
    (np.nan, "softmax requires finite logits in epoch 1"),
    (np.inf, "non-finite weights in layer 0 in epoch 1"),
], ids=["logits", "weights"])
@pytest.mark.parametrize("n, batch, position", [
    (52, 8, 49),  # in batch 7, the partial last batch (rows 48..51)
    (40, 2, 35),  # in the second gather block (rows 32..39)
], ids=["partial-last-batch", "second-gather-block"])
def test_divergence_names_its_cause_and_epoch(value, message, n, batch, position):
    assert position >= n - n % batch or position >= GATHER_BATCHES * batch
    features, labels = features_with_bad_row(n, position, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as info:
            train(TrainConfig(seed=0, epochs=2, batch_size=batch), features, labels)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# shape contracts
# ---------------------------------------------------------------------------


def _mismatch(x_shape, y_shape):
    return re.escape(f"need (n, d) features and n labels, got {x_shape} and {y_shape}")


@pytest.mark.parametrize("call, message", [
    (lambda m: backward(m, np.zeros((3, 64)), [1, 2]), _mismatch((3, 64), (2,))),
    (lambda m: backward(m, np.zeros(64), [1, 2]), _mismatch((1, 64), (2,))),
    (lambda m: grad_check(m, (np.zeros(64), [1, 2])), _mismatch((1, 64), (2,))),
    (lambda m: total_loss(m, np.zeros((3, 64)), [1, 2]), _mismatch((3, 64), (2,))),
    (lambda m: sample_loss(m, np.zeros((3, 64)), [1, 2]), _mismatch((3, 64), (2,))),
    (lambda m: cross_entropy_loss(np.full((2, 10), 0.1), [1, 2, 3]), _mismatch((2, 10), (3,))),
    (lambda m: forward(m, np.float64(1.0)), re.escape("got shape ()")),
    (lambda m: predict(m, np.zeros((2, 3, 64))), re.escape("got shape (2, 3, 64)")),
], ids=["backward-rows", "backward-vector", "grad_check", "total_loss", "sample_loss",
        "cross_entropy_loss", "forward-scalar", "predict-3d"])
def test_a_shape_outside_the_contract_is_a_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=message):
        call(small_net())


SHAPE_NET = init_mlp((3, 4, 10), True, 0)


def _public_calls(x, y):
    """Every public function of ``network`` that takes features, logits or
    labels, called on ``x`` and ``y``."""
    return {
        "forward": lambda: forward(SHAPE_NET, x),
        "predict": lambda: predict(SHAPE_NET, x),
        "softmax": lambda: softmax(x),
        "cross_entropy_loss": lambda: cross_entropy_loss(x, y),
        "sample_loss": lambda: sample_loss(SHAPE_NET, x, y),
        "total_loss": lambda: total_loss(SHAPE_NET, x, y),
        "backward": lambda: backward(SHAPE_NET, x, y),
        "grad_check": lambda: grad_check(SHAPE_NET, (x, y)),
        "train": lambda: train(TrainConfig(epochs=1, batch_size=1), x, y),
        "as_integers": lambda: as_integers(y, "labels"),
    }


@st.composite
def shape_pairs(draw):
    """A features shape (0-3 dims, often SHAPE_NET's 3 wide) and a labels
    shape (0-2 dims), half the time the one that matches the rows."""
    x_shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    y_shape = draw(st.one_of(st.just(x_shape[:-1]),
                             hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)))
    return x_shape, y_shape


@settings(max_examples=300, deadline=None)
@given(shapes=shape_pairs(), seed=st.integers(0, 2**32 - 1))
def test_public_functions_return_or_raise_their_own_errors_for_any_shape(shapes, seed):
    x_shape, y_shape = shapes
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, x_shape)  # also probabilities, for cross_entropy_loss
    y = rng.integers(0, 3, y_shape)
    for name, call in _public_calls(x, y).items():
        try:
            call()
        except (ValueError, TypeError) as exc:
            # numpy's AxisError is a ValueError and an IndexError
            assert not isinstance(exc, IndexError), (name, x_shape, y_shape, exc)
            assert "symdigits" in traceback.extract_tb(exc.__traceback__)[-1].filename, \
                (name, x_shape, y_shape, exc)
