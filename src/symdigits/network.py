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
# Mini-batches that train gathers with one np.take: at batch 32 a 512-row
# block, which holds 256 kB of 64-dimensional features.
GATHER_BATCHES = 16


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


def as_integers(values, name: str) -> np.ndarray:
    """Class labels as int64.  A float value must be integral (2.0 is
    2) and within int64; a fractional or non-finite one is rejected, never
    truncated.  ``name`` is the quantity the error message names."""
    y = np.asarray(values)
    if y.dtype.kind not in "iu":
        y = np.asarray(y, dtype=np.float64)
        if not (np.isfinite(y) & (y == np.rint(y)) & (np.abs(y) < 2.0**63)).all():
            raise ValueError(f"{name} must be integers")
    return np.asarray(y, dtype=np.int64)


def _check_features(mlp: Mlp, h: np.ndarray) -> None:
    if h.shape[-1] != mlp.layers[0].fan_in:
        raise ValueError(
            f"feature dimension {h.shape[-1]} does not match network input "
            f"{mlp.layers[0].fan_in}")


def _forward(layers: list[Layer], h: np.ndarray, outs: list[np.ndarray]) -> np.ndarray:
    """The layer recurrence: layer i's output goes to ``outs[i]`` (tanh on
    the hidden layers); returns the last one, the logits."""
    last = len(layers) - 1
    for i, layer in enumerate(layers):
        h = np.dot(h, layer.weights.T, out=outs[i])
        if layer.bias is not None:
            h += layer.bias
        if i < last:
            np.tanh(h, out=h)
    return h


def forward(mlp: Mlp, features) -> np.ndarray:
    """The logits of a feature vector (fan_in,) or a batch (n, fan_in)."""
    h = np.asarray(features, dtype=np.float64)
    _check_features(mlp, h)
    return _forward(mlp.layers, h, [np.empty((*h.shape[:-1], l.fan_out)) for l in mlp.layers])


def _check_logits(z: np.ndarray) -> None:
    if not np.isfinite(z).all():
        raise ValueError("softmax requires finite logits")


def _softmax(z: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of ``z``, in place, with max-subtraction;
    ``row`` (z's shape, last axis 1) holds the max, then the sum."""
    np.maximum.reduce(z, axis=-1, keepdims=True, out=row)
    z -= row
    np.exp(z, out=z)
    np.add.reduce(z, axis=-1, keepdims=True, out=row)
    z /= row
    return z


def softmax(logits) -> np.ndarray:
    """Normalized probabilities, computed with max-subtraction."""
    z = np.asarray(logits, dtype=np.float64)
    _check_logits(z)
    return _softmax(z.copy(), np.empty((*z.shape[:-1], 1)))


def _log_probability(p: np.ndarray) -> np.ndarray:
    """log(max(p, 1e-15)), in place."""
    np.maximum(p, 1e-15, out=p)
    return np.log(p, out=p)


def _check_labels(y: np.ndarray, n_classes: int) -> None:
    if np.any(y < 0) or np.any(y >= n_classes):
        raise ValueError(f"label outside 0..{n_classes - 1}")


def predict(mlp: Mlp, features) -> int | np.ndarray:
    """Class with the largest logit; ties break toward the lowest index."""
    cls = np.argmax(forward(mlp, features), axis=-1)
    return int(cls) if cls.ndim == 0 else cls


def cross_entropy_loss(probabilities, label) -> float | np.ndarray:
    """-log p_label, with p clamped at 1e-15 before the log."""
    p = np.asarray(probabilities, dtype=np.float64)
    y = np.asarray(label)
    _check_labels(y, p.shape[-1])
    picked = np.take_along_axis(p, y.reshape(*y.shape, 1), axis=-1)[..., 0]
    out = np.negative(_log_probability(picked), out=picked)
    return float(out) if out.ndim == 0 else out


def sample_loss(mlp: Mlp, features, label) -> float | np.ndarray:
    """Cross-entropy of softmax(forward(...)) for one sample or a batch."""
    return cross_entropy_loss(softmax(forward(mlp, features)), label)


def total_loss(mlp: Mlp, features, labels) -> float:
    """Sum of per-sample cross-entropy losses over a whole set."""
    return float(np.sum(sample_loss(mlp, features, labels)))


class _Workspace:
    """What one backprop pass over m rows writes, built once per m: each
    layer's (m, fan_out) output (the last one's goes from logits to the
    output delta), each hidden layer's delta and 1 - a*a, and the per-row
    softmax max and sum."""

    def __init__(self, layers: list[Layer], m: int):
        self.acts = [np.empty((m, l.fan_out)) for l in layers]
        self.deltas = [np.empty((m, l.fan_out)) for l in layers[:-1]]
        self.slopes = [np.empty((m, l.fan_out)) for l in layers[:-1]]
        self.row = np.empty((m, 1))


def _backprop(layers: list[Layer], X: np.ndarray, onehot: np.ndarray,
              codes: np.ndarray, picked: np.ndarray, grads: list[Layer],
              ws: _Workspace) -> None:
    """The one backpropagation kernel: forward and backward over the m rows
    of ``X``.  It runs the code of ``forward`` and ``softmax``
    (``_forward`` and ``_softmax``) on the workspace, so its logits and
    probabilities are theirs.

    ``onehot`` holds the labels one-hot and ``codes`` as flat indices
    row * n_classes + label; subtracting ``onehot`` is subtracting 1 at
    each label, since x - 0.0 == x.  Each row's label probability goes to
    ``picked``, and the gradient of the mean loss to the C-contiguous
    arrays of ``grads``.
    """
    logits = _forward(layers, X, ws.acts)
    _check_logits(logits)
    delta = _softmax(logits, ws.row)  # the probabilities
    delta.take(codes, out=picked, mode="clip")  # codes are in range; "clip" skips a copy
    delta -= onehot
    delta /= float(len(delta))
    for i in range(len(layers) - 1, -1, -1):
        a_prev = ws.acts[i - 1] if i else X
        np.dot(delta.T, a_prev, out=grads[i].weights)
        if grads[i].bias is not None:
            np.add.reduce(delta, axis=0, out=grads[i].bias)
        if i:
            slope = np.multiply(a_prev, a_prev, out=ws.slopes[i - 1])
            np.subtract(1.0, slope, out=slope)
            delta = np.dot(delta, layers[i].weights, out=ws.deltas[i - 1])
            delta *= slope


def backward(mlp: Mlp, features, label) -> list[Layer]:
    """Analytic gradient of the mean cross-entropy over the given samples.

    For a single sample this is exactly the gradient of that sample's loss.
    It runs ``_backprop``, the kernel that train steps along, so grad_check
    checks the code that trains.  The gradient list has one Layer per
    network layer; bias slots are None exactly where the network has no
    bias.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.atleast_1d(as_integers(label, "labels"))
    _check_features(mlp, x)
    n, n_classes = len(y), mlp.layers[-1].fan_out
    _check_labels(y, n_classes)
    grads = _flatten(mlp.layers)[1]  # every entry is overwritten by the kernel
    _backprop(mlp.layers, x, np.eye(n_classes)[y], np.arange(n) * n_classes + y, np.empty(n),
              grads, _Workspace(mlp.layers, n))
    return grads


def _flatten(layers: list[Layer]) -> tuple[np.ndarray, list[Layer]]:
    """A flat copy of the arrays of ``layers`` (each layer's weights, then
    its bias when it has one) and Layers whose arrays are views into it."""
    buffer = np.concatenate([a.ravel() for l in layers for a in (l.weights, l.bias)
                             if a is not None])
    views, at = [], 0
    for layer in layers:
        weights = buffer[at:at + layer.weights.size].reshape(layer.weights.shape)
        at += layer.weights.size
        bias = None
        if layer.bias is not None:
            bias = buffer[at:at + layer.fan_out]
            at += layer.fan_out
        views.append(Layer(weights, bias))
    return buffer, views


@dataclass
class TrainResult:
    mlp: Mlp
    epoch_losses: list[float]


@np.errstate(over="ignore", invalid="ignore")  # divergence raises TrainingDiverged
def train(config: TrainConfig, features, labels) -> TrainResult:
    """Mini-batch SGD with momentum; bit-deterministic per (seed, data order).

    ``features`` is the (n, d) output of a feature map and ``labels`` the n
    class indices.  One generator seeded from config.seed drives both the
    parameter init and the per-epoch reshuffles.  Aborts with
    TrainingDiverged (naming the epoch) once the logits or the weights stop
    being finite.

    The parameters, their velocities and their gradients each live in one
    flat buffer that the per-layer arrays view, so one momentum update
    covers every layer; element by element it is the per-layer update
    v = momentum*v - lr*g, W = W + v.

    The shuffled rows are gathered GATHER_BATCHES batches at a time into
    one block, and each step runs ``_backprop`` on a row view of it.  The
    epoch loss is reduced once per epoch from the label probabilities the
    steps keep: per-batch sums of log p (one row reduction, bit-equal to
    each batch's np.sum), added in batch order as -sum == sum(-log p).
    """
    X = np.asarray(features, dtype=np.float64, order="C")  # row gathers copy only their rows
    y = as_integers(labels, "labels")
    if X.ndim != 2 or y.shape != (len(X),):
        raise ValueError(f"need (n, d) features and n labels, got {X.shape} and {y.shape}")
    n = len(y)
    if n == 0:
        raise ValueError("training set is empty")
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    _check_labels(y, N_CLASSES)
    rng = np.random.default_rng(config.seed)
    init = init_mlp((X.shape[1], *PAPER_HIDDEN_DIMS, N_CLASSES), config.use_bias, rng)
    params, layers = _flatten(init.layers)
    vel = np.zeros_like(params)
    grad, grads = _flatten(init.layers)  # every step overwrites every entry
    batch = config.batch_size
    workspaces = {m: _Workspace(layers, m) for m in {batch, n % batch} - {0}}
    block = np.empty((min(n, GATHER_BATCHES * batch), X.shape[1]))
    onehot = np.empty((len(block), N_CLASSES))
    codes = np.empty(len(block), dtype=np.int64)
    offsets = N_CLASSES * (np.arange(len(block)) % batch)  # row in its batch, times n_classes
    eye = np.eye(N_CLASSES)
    picked = np.empty(n)
    full = n - n % batch
    epoch_losses = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        for a in range(0, n, len(block)):
            b = min(a + len(block), n)
            # each block starts a batch; indices are in range, and "clip"
            # skips the copy that "raise" makes with out=
            rows = X.take(order[a:b], axis=0, out=block[:b - a], mode="clip")
            block_codes = y.take(order[a:b], out=codes[:b - a], mode="clip")  # labels, so far
            hot = eye.take(block_codes, axis=0, out=onehot[:b - a], mode="clip")
            block_codes += offsets[:b - a]  # now the flat codes
            for s in range(0, b - a, batch):
                e = min(s + batch, b - a)
                try:
                    _backprop(layers, rows[s:e], hot[s:e], block_codes[s:e],
                              picked[a + s:a + e], grads, workspaces[e - s])
                except ValueError as exc:  # labels are checked above: the logits overflowed
                    raise TrainingDiverged(f"{exc} in epoch {epoch}") from None
                vel *= config.momentum
                grad *= config.learning_rate
                vel -= grad
                params += vel
                if not np.isfinite(params).all():
                    what, i = next((what, i) for i, l in enumerate(layers)
                                   for what, a in (("weights", l.weights), ("bias", l.bias))
                                   if a is not None and not np.isfinite(a).all())
                    raise TrainingDiverged(f"non-finite {what} in layer {i} in epoch {epoch}")
        _log_probability(picked)
        sums = np.add.reduce(picked[:full].reshape(-1, batch), axis=1).tolist()
        if full < n:
            sums.append(float(np.sum(picked[full:])))
        loss_sum = 0.0
        for s in sums:
            loss_sum += -s
        epoch_losses.append(loss_sum / n)
    return TrainResult(mlp=Mlp(layers).copy(), epoch_losses=epoch_losses)


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
