"""Probes of the symmetry-induced degeneracy of symmetrized training losses.

Training on a dataset closed under a symmetry group makes the total loss
invariant under the matching transformation of the first-layer weights,
so minima come in whole group orbits.  For the grayscale-inversion group
this is exact: flipping the sign of the first-layer weight matrix of a
bias-free network permutes the per-sample loss terms of an inversion-closed
dataset and leaves their sum unchanged up to float reassociation.

The continuous-rotation story is probed on a 2-D toy task closed under
the cyclic group C_n: as n grows the loss valley along the weight orbit
flattens toward a continuous (Goldstone-like) flat direction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .digits import Dataset
from .network import Mlp, total_loss, sample_loss

MACHINE_EPS = float(np.finfo(np.float64).eps)

# ---------------------------------------------------------------------------
# image-network probes
# ---------------------------------------------------------------------------


def dataset_is_inversion_closed(ds: Dataset) -> bool:
    """True if the multiset of (pixels, label) pairs is closed under x -> -x.

    The rows are sorted once by label, then lexicographically by pixels.
    Negation reverses a lexicographic order, so within one label the sorted
    negated rows are the sorted rows negated and reversed: the set is
    closed exactly when every label block equals its own reversed negation.
    That condition pairs row i with row m-1-i, so the first half of each
    block against the negated last half decides it; one block's rows are
    gathered at a time.
    """
    order = np.lexsort((*ds.pixels.T, ds.labels))
    ends = np.flatnonzero(np.diff(ds.labels[order])) + 1
    for block in np.split(order, ends):
        half = (len(block) + 1) // 2
        head = ds.pixels[block[:half]]
        tail = ds.pixels[block[::-1][:half]]
        if not np.array_equal(head, np.negative(tail, out=tail)):
            return False
    return True


def weight_flip_deviation(mlp: Mlp, ds: Dataset) -> float:
    """|Omega(W1) - Omega(-W1)| / Omega(W1) on raw pixels (no closure guard).

    -W1 is the inversion image of the parameters; every other layer is kept.
    An empty dataset, or a loss Omega(W1) of 0, leaves the ratio undefined
    and is a ValueError.
    """
    if len(ds) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    flipped = mlp.copy()
    flipped.layers[0].weights = -flipped.layers[0].weights
    omega = total_loss(mlp, ds.pixels, ds.labels)
    if omega == 0.0:
        raise ValueError("the loss is 0, so its relative change under W1 -> -W1 is undefined")
    omega_flipped = total_loss(flipped, ds.pixels, ds.labels)
    return abs(omega - omega_flipped) / abs(omega)


def weight_orbit_invariance(mlp: Mlp, ds: Dataset) -> float:
    """Relative change of the total loss under W1 -> -W1.

    Requires a bias-free model and an inversion-closed dataset; then the
    two losses are the same sum in a different order and the deviation is
    pure float reassociation (<= 1e-9 by a wide margin).
    """
    if mlp.use_bias:
        raise ValueError("weight-orbit probe requires a bias-free model")
    if not dataset_is_inversion_closed(ds):
        raise ValueError("dataset is not closed under inversion; symmetrize it first")
    return weight_flip_deviation(mlp, ds)


@dataclass
class SampledLossReport:
    mu: float
    trials: int
    omega: float            # full symmetrized loss, Eq-style double sum
    expected: float         # mu * omega
    empirical_mean: float
    ratio: float            # empirical_mean / (mu * omega)
    ratio_std_error: float  # standard error of the ratio, from trial variance
    trial_min: float        # at mu=1 every single trial equals omega exactly
    trial_max: float


def sampled_loss_expectation(mlp: Mlp, ds: Dataset, group: list, mu: float, trials: int,
                             seed: int = 0) -> SampledLossReport:
    """Monte Carlo check that random sample inclusion restores symmetry in
    expectation.

    Each group element is a map of (n, 64) pixel arrays.  Each (sample,
    group element) term of the symmetrized loss is kept with independent
    probability mu; a single draw breaks the symmetry, but the mean over
    trials converges to mu times the full symmetrized loss.
    """
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"inclusion probability must be in (0, 1], got {mu}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if len(ds) == 0:
        raise ValueError("cannot sample the loss of an empty dataset")
    terms = np.concatenate([sample_loss(mlp, g(ds.pixels), ds.labels) for g in group])
    omega = float(np.sum(terms))
    # Trials are drawn in blocks of rows: one (rows, terms.size) draw is the
    # same stream as rows single draws, and each row sums pairwise as a 1-D
    # sum would.
    rng = np.random.default_rng(seed)
    values = np.empty(trials)
    rows = max(1, 2**16 // terms.size)
    for a in range(0, trials, rows):
        b = min(a + rows, trials)
        draws = rng.random((b - a, terms.size))
        values[a:b] = np.sum(np.where(draws < mu, terms, 0.0), axis=1)
    empirical = float(np.mean(values))
    expected = mu * omega
    spread = float(np.std(values, ddof=1)) if trials > 1 else 0.0
    return SampledLossReport(
        mu=mu, trials=trials, omega=omega, expected=expected,
        empirical_mean=empirical, ratio=empirical / expected,
        ratio_std_error=spread / np.sqrt(trials) / expected,
        trial_min=float(values.min()), trial_max=float(values.max()))


# ---------------------------------------------------------------------------
# toy rotation task (cyclic approximants of a continuous symmetry)
# ---------------------------------------------------------------------------

ROTATION_GENERATOR = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass
class ToyRotationTask:
    """2-D points on two circles, labels a function of radius only, and the
    cyclic group C_n of plane rotations.  The training inputs are all n
    rotations of the base points, so C_1 is the unclosed dataset.

    The model is a single bias-free tanh unit read out through its square,
    f(x; w) = tanh(w.x)^2, with squared-error loss.  The even readout is
    what gives the group-averaged loss a ring of minima at |w| > 0; an odd
    readout averages to zero over every rotation orbit and collapses the
    minimum to the trivial fixed point w = 0.
    """

    n: int                    # group order
    points: np.ndarray        # (n * m, 2): every C_n rotation of the m base points
    labels: np.ndarray        # (n * m,)
    # three float64 scratch vectors, one entry per point, that toy_loss and
    # toy_gradient overwrite on every call
    work: tuple


def group_angles(n: int) -> np.ndarray:
    """The rotation angles 2 pi k / n of C_n, k = 0..n-1."""
    return 2.0 * np.pi * np.arange(n) / n


TOY_RADII = (0.5, 1.0)
TOY_LABELS = (0.2, 0.8)     # label of the points on each circle
TOY_BASE_POINTS = 200       # base points, half on each circle, before the rotations


def make_toy_task(n: int, seed: int = 0) -> ToyRotationTask:
    """TOY_BASE_POINTS points at random angles on two circles, labels by
    radius, and all their C_n rotations."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"group order n must be an integer >= 1, got {n!r}")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=TOY_BASE_POINTS)
    radius = np.repeat(TOY_RADII, TOY_BASE_POINTS // 2)
    labels = np.repeat(TOY_LABELS, TOY_BASE_POINTS // 2)
    base = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
    mats = np.stack([rotation_matrix(t) for t in group_angles(n)])  # (n, 2, 2)
    points = np.einsum("kab,mb->kma", mats, base).reshape(-1, 2)
    return ToyRotationTask(n, points, np.tile(labels, n),
                           tuple(np.empty(len(points)) for _ in range(3)))


def _toy_weights(w) -> np.ndarray:
    """w as float64 toy weights of shape (2,); any other shape is a
    ValueError that names it.  toy_loss and toy_gradient call it only once
    their matmul has rejected w, so the loops that call them pay nothing."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (2,):
        raise ValueError(f"toy weights must have shape (2,), got {w.shape}") from None
    return w


def toy_loss(task: ToyRotationTask, w) -> float:
    """Omega(w) = sum over the dataset of (y - tanh(w.x)^2)^2.

    Computed in the task's work vectors, so two threads must not evaluate
    the loss or gradient of one task at the same time.
    """
    x, y = task.points, task.labels
    r, _, _ = task.work
    w = np.asarray(w, dtype=np.float64)
    try:
        np.matmul(x, w, out=r)
    except ValueError:
        _toy_weights(w)
        raise
    np.tanh(r, out=r)
    np.multiply(r, r, out=r)      # f
    np.subtract(y, r, out=r)
    np.multiply(r, r, out=r)
    return float(np.sum(r))


def toy_gradient(task: ToyRotationTask, w) -> np.ndarray:
    """dOmega/dw = sum over x of 2 (f - y) f'(w.x) x, with f = tanh^2.

    Computed in the task's work vectors, so two threads must not evaluate
    the loss or gradient of one task at the same time.  The returned
    gradient is a fresh array.
    """
    x, y = task.points, task.labels
    t, f, coeff = task.work
    w = np.asarray(w, dtype=np.float64)
    try:
        np.matmul(x, w, out=t)
    except ValueError:
        _toy_weights(w)
        raise
    np.tanh(t, out=t)
    np.multiply(t, t, out=f)
    np.subtract(f, y, out=coeff)
    coeff *= 4.0                  # 2 * (f - y) * 2, exact: a power of two
    coeff *= t
    np.subtract(1.0, f, out=f)    # 1 - t * t
    coeff *= f
    return x.T @ coeff


def toy_hessian(task: ToyRotationTask, w) -> np.ndarray:
    """Analytic 2x2 Hessian (used by the damped-Newton polish)."""
    x, y = task.points, task.labels
    t = np.tanh(x @ _toy_weights(w))
    f = t * t
    fp = 2.0 * t * (1.0 - t * t)
    fpp = 2.0 * (1.0 - t * t) * (1.0 - 3.0 * t * t)
    coeff = 2.0 * (fp * fp + (f - y) * fpp)
    return (x * coeff[:, None]).T @ x


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """True if a and b hold the same bytes: unlike np.array_equal, -0.0 and
    0.0 differ.  The fixed-point exits of the iterations below use it."""
    return a.tobytes() == b.tobytes()


TOY_INIT = (0.9, 0.4)       # starting weights of train_toy
GD_ITERS = 800
GD_RATE = 0.5
GRAD_TOL = 1e-9             # gradient norm that ends the Newton polish


def train_toy(task: ToyRotationTask) -> np.ndarray:
    """Find a minimum of the toy loss: gradient descent to reach the valley,
    an orbit scan over one modulation period to pick the right angular
    basin, then damped Newton down to machine-level gradient norms.

    A descent step depends only on the task and the bits of w, so a step
    that leaves w bitwise unchanged would be repeated exactly by every later
    one: the descent ends there, with the w that all GD_ITERS steps give."""
    w = np.array(TOY_INIT, dtype=np.float64)
    for _ in range(GD_ITERS):
        w_next = w - GD_RATE * toy_gradient(task, w) / len(task.points)
        if _same_bits(w_next, w):
            break
        w = w_next
    # place w at the best angle within one period of the C_n modulation
    period = 2.0 * np.pi / task.n
    offsets = np.linspace(0.0, period, 64, endpoint=False)
    losses = [toy_loss(task, rotation_matrix(t) @ w) for t in offsets]
    w = rotation_matrix(offsets[int(np.argmin(losses))]) @ w
    # damped Newton (Levenberg) polish
    lam = 1e-8
    for _ in range(200):
        g = toy_gradient(task, w)
        gn = float(np.linalg.norm(g))
        if gn < GRAD_TOL:
            break
        H = toy_hessian(task, w)
        for _ in range(60):
            try:
                step = np.linalg.solve(H + lam * np.eye(2), g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.linalg.norm(toy_gradient(task, w - step)) < gn:
                w = w - step
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        else:
            break
    return w


@dataclass
class OrbitScan:
    angles: np.ndarray
    losses: np.ndarray
    relative_spread: float


def orbit_loss_scan(task: ToyRotationTask, w) -> OrbitScan:
    """Loss along the weight orbit {R(2 pi k / n) w}.

    The dataset is closed under C_n, so every orbit point sums the same
    loss terms in a different order and all n values agree to float
    reassociation.
    """
    angles = group_angles(task.n)
    w = _toy_weights(w)
    losses = np.array([toy_loss(task, rotation_matrix(t) @ w) for t in angles])
    spread = float((losses.max() - losses.min()) / np.mean(losses))
    return OrbitScan(angles=angles, losses=losses, relative_spread=spread)


# ---------------------------------------------------------------------------
# curvature along the symmetry generator
# ---------------------------------------------------------------------------


HVP_STEP = 1e-6             # central-difference spacing of H v
POWER_ITERATIONS = 200      # steps per power iteration, at most
POWER_SEED = 0              # seeds the start vectors of the power iterations


def _hessian_vector_product(task: ToyRotationTask, w, v) -> np.ndarray:
    """Central-difference H v from analytic gradients."""
    v = np.asarray(v, dtype=np.float64)
    return (toy_gradient(task, w + HVP_STEP * v)
            - toy_gradient(task, w - HVP_STEP * v)) / (2.0 * HVP_STEP)


def _power_iteration(operator, v) -> float:
    """Rayleigh quotient v.Av of the dominant eigenvector of ``operator``,
    from start vector v.  A step that leaves v bitwise unchanged would be
    repeated exactly by every later step, so the loop ends there."""
    v = v / np.linalg.norm(v)
    rayleigh = 0.0
    for _ in range(POWER_ITERATIONS):
        av = operator(v)
        norm = np.linalg.norm(av)
        if norm == 0.0:
            break
        rayleigh = float(v @ av)
        v_next = av / norm
        if _same_bits(v_next, v):
            break
        v = v_next
    return rayleigh


def smallest_hessian_eigenvalue(task: ToyRotationTask, w) -> float:
    """Power iteration on the shifted operator (c I - H) using
    finite-difference Hessian-vector products; never forms H."""
    w = _toy_weights(w)
    rng = np.random.default_rng(POWER_SEED)
    lam_max = _power_iteration(lambda v: _hessian_vector_product(task, w, v),
                               rng.normal(size=2))
    shift = abs(lam_max) * 1.05 + 1.0
    mu = _power_iteration(lambda v: shift * v - _hessian_vector_product(task, w, v),
                          rng.normal(size=2))
    return shift - mu


@dataclass
class CurvatureReport:
    """Second-order probe of the loss along the symmetry generator."""

    n: int
    loss: float
    gradient_norm: float
    directional_derivative: float    # grad . (G w), ~0 for a group-averaged loss
    generator_curvature: float       # floored at the estimator resolution
    generator_curvature_raw: float
    curvature_resolution: float
    radial_curvature: float
    curvature_ratio: float           # generator / radial, after flooring
    smallest_hessian_eigenvalue: float


CURVATURE_STEP = 1e-4       # spacing of the second differences
GRAD_NORM_LIMIT = 1e-6      # larger gradient norms warn: w_star is no minimum


def generator_curvature(task: ToyRotationTask, w_star) -> CurvatureReport:
    """Directional derivative and curvature along the generator direction
    d = G w_star, compared with the radial direction w_star/|w_star|.

    Curvatures are unit-direction second differences with spacing
    step = CURVATURE_STEP.  A second difference cannot resolve curvature
    below roughly 64 eps |Omega| / step^2; raw values inside that bound are
    reported as zero, with the bound recorded, so an exponentially flat
    valley does not read as noise.
    """
    w = _toy_weights(w_star)
    g = toy_gradient(task, w)
    grad_norm = float(np.linalg.norm(g))
    if grad_norm > GRAD_NORM_LIMIT:
        warnings.warn(
            f"generator_curvature called away from a minimum "
            f"(|grad| = {grad_norm:.2e} > {GRAD_NORM_LIMIT:.0e}); results returned anyway",
            stacklevel=2)
    d = ROTATION_GENERATOR @ w
    directional = float(g @ d)
    d_unit = d / np.linalg.norm(d)
    r_unit = w / np.linalg.norm(w)

    loss_0 = toy_loss(task, w)

    def second_difference(direction):
        up = toy_loss(task, w + CURVATURE_STEP * direction)
        down = toy_loss(task, w - CURVATURE_STEP * direction)
        raw = (up - 2.0 * loss_0 + down) / CURVATURE_STEP**2
        resolution = (64.0 * MACHINE_EPS * max(abs(up), abs(loss_0), abs(down))
                      / CURVATURE_STEP**2)
        return raw, resolution

    gen_raw, resolution = second_difference(d_unit)
    gen = 0.0 if abs(gen_raw) < resolution else gen_raw
    radial_raw, _ = second_difference(r_unit)
    return CurvatureReport(
        n=task.n, loss=loss_0, gradient_norm=grad_norm,
        directional_derivative=directional,
        generator_curvature=gen, generator_curvature_raw=gen_raw,
        curvature_resolution=resolution, radial_curvature=radial_raw,
        curvature_ratio=gen / radial_raw if radial_raw != 0.0 else float("inf"),
        smallest_hessian_eigenvalue=smallest_hessian_eigenvalue(task, w))


def generator_curvature_sweep(ns=(4, 16, 64, 360), seed: int = 0) -> list[CurvatureReport]:
    """Train the toy task for each group order and measure the generator
    curvature at the minimum; flattening toward the continuous limit shows
    up as a non-increasing sequence."""
    reports = []
    for n in ns:
        task = make_toy_task(n, seed=seed)
        w_star = train_toy(task)
        reports.append(generator_curvature(task, w_star))
    return reports
