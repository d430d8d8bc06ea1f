"""Dense feed-forward tanh network with optional biases.

Hidden layers apply tanh elementwise; the final layer produces raw logits
that feed a softmax head.  Without biases the whole map from input to
logits is odd: logits(-x) == -logits(x) bit-for-bit, which is the property
the inversion-bound experiments rely on.

Training is plain mini-batch SGD with momentum, deterministic for a given
seed and sample order.  A central-finite-difference gradient checker
serves as the independent oracle for the backpropagation code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAPER_HIDDEN_DIMS = (10, 5)
N_CLASSES = 10


class TrainingDiverged(RuntimeError):
    """Raised when the logits or weights stop being finite during training."""


@dataclass
class Layer:
    """One dense layer: weights (fan_out, fan_in) and an optional bias.

    Also used as the per-layer gradient record (same shapes).
    """

    weights: np.ndarray
    bias: np.ndarray | None = None

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "Layer":
        return Layer(self.weights.copy(), None if self.bias is None else self.bias.copy())


@dataclass
class Mlp:
    """Layered dense network; the last layer's outputs are logits."""

    layers: list[Layer]

    def __post_init__(self):
        for i, layer in enumerate(self.layers):
            w = np.asarray(layer.weights, dtype=np.float64)
            if w.ndim != 2:
                raise ValueError(f"layer {i}: weights must be a matrix")
            layer.weights = w
            if layer.bias is not None:
                b = np.asarray(layer.bias, dtype=np.float64)
                if b.shape != (w.shape[0],):
                    raise ValueError(f"layer {i}: bias shape {b.shape} != ({w.shape[0]},)")
                layer.bias = b
            if i > 0 and w.shape[1] != self.layers[i - 1].weights.shape[0]:
                raise ValueError(
                    f"layer {i}: fan_in {w.shape[1]} does not chain with previous "
                    f"fan_out {self.layers[i - 1].weights.shape[0]}")

    @property
    def dims(self) -> tuple:
        return (self.layers[0].fan_in, *(l.fan_out for l in self.layers))

    @property
    def use_bias(self) -> bool:
        return self.layers[0].bias is not None

    def copy(self) -> "Mlp":
        return Mlp([l.copy() for l in self.layers])

    def check_finite(self) -> None:
        for i, layer in enumerate(self.layers):
            if not np.isfinite(layer.weights).all():
                raise TrainingDiverged(f"non-finite weights in layer {i}")
            if layer.bias is not None and not np.isfinite(layer.bias).all():
                raise TrainingDiverged(f"non-finite bias in layer {i}")


@dataclass(frozen=True)
class TrainConfig:
    """Training knobs; the feature map is applied by the caller, before train."""

    seed: int = 0
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    use_bias: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


def init_mlp(dims, use_bias: bool, seed_or_rng=0) -> Mlp:
    """Fan-in-scaled uniform init: weights ~ U[-a, a], a = 1/sqrt(fan_in);
    biases (when present) start at zero."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else np.random.default_rng(seed_or_rng)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-a, a, size=(fan_out, fan_in))
        layers.append(Layer(w, np.zeros(fan_out) if use_bias else None))
    return Mlp(layers)


@dataclass
class ForwardResult:
    logits: np.ndarray
    activations: list  # [input, hidden..., logits]


def forward(mlp: Mlp, features) -> ForwardResult:
    """Run the network on a single feature vector or a batch (..., fan_in)."""
    h = np.asarray(features, dtype=np.float64)
    if h.shape[-1] != mlp.layers[0].fan_in:
        raise ValueError(
            f"feature dimension {h.shape[-1]} does not match network input "
            f"{mlp.layers[0].fan_in}")
    activations = [h]
    last = len(mlp.layers) - 1
    for i, layer in enumerate(mlp.layers):
        z = h @ layer.weights.T
        if layer.bias is not None:
            z = z + layer.bias
        h = z if i == last else np.tanh(z)
        activations.append(h)
    return ForwardResult(logits=h, activations=activations)


def softmax(logits) -> np.ndarray:
    """Normalized probabilities, computed with max-subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("softmax requires finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict(mlp: Mlp, features) -> int | np.ndarray:
    """Class with the largest logit; ties break toward the lowest index."""
    logits = forward(mlp, features).logits
    cls = np.argmax(logits, axis=-1)
    return int(cls) if cls.ndim == 0 else cls


def cross_entropy_loss(probabilities, label) -> float | np.ndarray:
    """-log p_label, with p clamped at 1e-15 before the log."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(label)
    if np.any(y < 0) or np.any(y >= p.shape[-1]):
        raise ValueError(f"label outside 0..{p.shape[-1] - 1}")
    picked = np.take_along_axis(p, y.reshape(*y.shape, 1), axis=-1)[..., 0]
    out = -np.log(np.maximum(picked, 1e-15))
    return float(out) if out.ndim == 0 else out


def sample_loss(mlp: Mlp, features, label) -> float | np.ndarray:
    """Cross-entropy of softmax(forward(...)) for one sample or a batch."""
    return cross_entropy_loss(softmax(forward(mlp, features).logits), label)


def total_loss(mlp: Mlp, features, labels) -> float:
    """Sum of per-sample cross-entropy losses over a whole set."""
    return float(np.sum(sample_loss(mlp, features, labels)))


def loss_and_gradients(mlp: Mlp, X: np.ndarray, y: np.ndarray) -> tuple[float, list[Layer]]:
    """Summed cross-entropy over a batch and the gradient of its mean.

    ``X`` is (n, fan_in) float64 and ``y`` holds n integer labels.  This is
    the one backpropagation path: train steps along it and grad_check
    checks it.  The gradient list has one Layer per network layer; bias
    slots are None exactly where the network has no bias.
    """
    result = forward(mlp, X)
    probs = softmax(result.logits)
    loss = float(np.sum(cross_entropy_loss(probs, y)))
    n = len(y)
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads: list[Layer | None] = [None] * len(mlp.layers)
    for i in range(len(mlp.layers) - 1, -1, -1):
        a_prev = result.activations[i]
        g_b = delta.sum(axis=0) if mlp.layers[i].bias is not None else None
        grads[i] = Layer(delta.T @ a_prev, g_b)
        if i > 0:
            delta = (delta @ mlp.layers[i].weights) * (1.0 - a_prev * a_prev)
    return loss, grads


def backward(mlp: Mlp, features, label) -> list[Layer]:
    """Analytic gradient of the mean cross-entropy over the given samples.

    For a single sample this is exactly the gradient of that sample's loss.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.atleast_1d(np.asarray(label, dtype=np.int64))
    return loss_and_gradients(mlp, x, y)[1]


@dataclass
class TrainResult:
    mlp: Mlp
    epoch_losses: list[float]


def train(config: TrainConfig, features, labels,
          hidden_dims=PAPER_HIDDEN_DIMS, n_classes: int = N_CLASSES) -> TrainResult:
    """Mini-batch SGD with momentum; bit-deterministic per (seed, data order).

    ``features`` is the (n, d) output of a feature map and ``labels`` the n
    class indices.  One generator seeded from config.seed drives both the
    parameter init and the per-epoch reshuffles.  Aborts with
    TrainingDiverged (naming the epoch) once the logits or the weights stop
    being finite.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or y.shape != (len(X),):
        raise ValueError(f"need (n, d) features and n labels, got {X.shape} and {y.shape}")
    n = len(y)
    if n == 0:
        raise ValueError("training set is empty")
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"label outside 0..{n_classes - 1}")
    rng = np.random.default_rng(config.seed)
    mlp = init_mlp((X.shape[1], *hidden_dims, n_classes), config.use_bias, rng)
    vel = [Layer(np.zeros_like(l.weights), None if l.bias is None else np.zeros_like(l.bias))
           for l in mlp.layers]
    epoch_losses = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            try:
                batch_loss, grads = loss_and_gradients(mlp, X[idx], y[idx])
            except ValueError as exc:  # labels are checked above: the logits overflowed
                raise TrainingDiverged(f"{exc} in epoch {epoch}") from None
            loss_sum += batch_loss
            for layer, v, g in zip(mlp.layers, vel, grads):
                v.weights = config.momentum * v.weights - config.learning_rate * g.weights
                layer.weights = layer.weights + v.weights
                if layer.bias is not None:
                    v.bias = config.momentum * v.bias - config.learning_rate * g.bias
                    layer.bias = layer.bias + v.bias
            try:
                mlp.check_finite()
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"{exc} in epoch {epoch}") from None
        epoch_losses.append(loss_sum / n)
    return TrainResult(mlp=mlp, epoch_losses=epoch_losses)


def grad_check(mlp: Mlp, sample, step: float = 1e-5, gradients=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``sample`` is a (features, label) pair.  ``gradients`` defaults to
    backward(...); pass a record explicitly to test the checker itself.
    Relative error uses max(|analytic|, |numeric|, 1e-12) as denominator.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError(f"step must be in [1e-7, 1e-3], got {step}")
    features, label = sample
    if gradients is None:
        gradients = backward(mlp, features, label)
    worst = 0.0
    probe = mlp.copy()

    def numeric(arr, i):
        old = arr.flat[i]
        arr.flat[i] = old + step
        up = sample_loss(probe, features, label)
        arr.flat[i] = old - step
        down = sample_loss(probe, features, label)
        arr.flat[i] = old
        return (up - down) / (2.0 * step)

    for layer, grad in zip(probe.layers, gradients):
        for arr, g in ((layer.weights, grad.weights), (layer.bias, grad.bias)):
            if arr is None:
                continue
            for i in range(arr.size):
                num = numeric(arr, i)
                ana = g.flat[i]
                err = abs(ana - num) / max(abs(ana), abs(num), 1e-12)
                worst = max(worst, err)
    return worst
