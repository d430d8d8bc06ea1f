import math

import numpy as np
import pytest

from symdigits.network import (Layer, Mlp, TrainConfig, TrainingDiverged,
                               backward, cross_entropy_loss, forward, grad_check,
                               init_mlp, predict, softmax, total_loss, train)

from conftest import random_images


def small_net(use_bias=False, seed=0, dims=(64, 10, 5, 10)):
    return init_mlp(dims, use_bias, seed)


# ---------------------------------------------------------------------------
# forward / softmax / predict
# ---------------------------------------------------------------------------


def test_zero_input_gives_zero_logits():
    mlp = small_net()
    assert np.all(forward(mlp, np.zeros(64)).logits == 0.0)


def test_no_bias_network_is_odd():
    # logits(-x) == -logits(x) for tanh units without biases
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(25):
        mlp = small_net(seed=trial)
        x = rng.uniform(-1, 1, size=(40, 64))
        gap = np.abs(forward(mlp, -x).logits + forward(mlp, x).logits)
        worst = max(worst, float(gap.max()))
    assert worst <= 1e-12  # 25 nets x 40 inputs = 1000 pairs


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
    np.testing.assert_allclose(forward(mlp, x).logits, z, rtol=0, atol=1e-12)


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
    p = softmax(forward(mlp, x).logits)
    p_inv = softmax(forward(mlp, -x).logits)
    prod = p * p_inv
    spread = prod.max(axis=1) / prod.min(axis=1) - 1.0
    assert np.all(spread <= 1e-10)


def test_softmax_of_inverted_input_is_bitwise_softmax_of_negated_logits():
    # logits(-x) == -logits(x) holds bitwise, so the probability vectors
    # agree bit-for-bit by construction
    mlp = small_net(seed=8)
    x = random_images(50, seed=8)
    a = softmax(forward(mlp, -x).logits)
    b = softmax(-forward(mlp, x).logits)
    assert np.array_equal(a, b)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError):
        softmax(np.array([np.inf] + [0.0] * 9))


def test_predict_breaks_ties_toward_lowest_class():
    assert predict(small_net(), np.zeros(64)) == 0


def test_predict_on_inverted_input_is_argmin():
    mlp = small_net(seed=4)
    x = random_images(200, seed=4)
    logits = forward(mlp, x).logits
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
    result = forward(mlp, x)
    p = softmax(result.logits)
    expected = np.outer(p - np.eye(10)[y], result.activations[-2])
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


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_aborts_naming_epoch():
    features, labels = toy_feature_set(n=8)
    features[0, 0] = np.inf
    with pytest.raises(TrainingDiverged, match="epoch 1"):
        train(TrainConfig(epochs=2, batch_size=8), features, labels)


def test_label_outside_range_is_a_value_error():
    features, labels = toy_feature_set(n=8)
    labels[3] = 10
    with pytest.raises(ValueError, match="label outside 0..9"):
        train(TrainConfig(epochs=1, batch_size=8), features, labels)


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
    assert predict(result.mlp, first) == int(np.argmax(forward(result.mlp, first).logits))


def test_total_loss_is_sum_of_sample_losses():
    mlp = small_net(seed=12)
    x = random_images(10, seed=12)
    y = np.arange(10) % 10
    per_sample = [cross_entropy_loss(softmax(forward(mlp, xi).logits), int(yi))
                  for xi, yi in zip(x, y)]
    assert abs(total_loss(mlp, x, y) - sum(per_sample)) < 1e-12


def test_mlp_rejects_mismatched_dims():
    with pytest.raises(ValueError, match="chain"):
        Mlp([Layer(np.zeros((10, 64))), Layer(np.zeros((5, 11)))])
