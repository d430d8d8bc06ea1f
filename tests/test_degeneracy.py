import re
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import symdigits.degeneracy as degeneracy
from symdigits.degeneracy import (GRAD_TOL, ROTATION_GENERATOR, TOY_BASE_POINTS, SampledLossReport,
                                  dataset_is_inversion_closed,
                                  generator_curvature, generator_curvature_sweep,
                                  make_toy_task, orbit_loss_scan, rotation_matrix,
                                  sampled_loss_expectation, smallest_hessian_eigenvalue,
                                  toy_gradient, toy_hessian, toy_loss, train_toy,
                                  weight_flip_deviation, weight_orbit_invariance)
from symdigits.digits import Dataset, symmetrize
from symdigits.features import NeighborProduct, Square, inversion_group
from symdigits.network import Layer, Mlp, init_mlp, sample_loss, train, TrainConfig

from conftest import random_images


def _quarter_turns(k):
    """Rotate each (n, 64) image's grid by k counterclockwise quarter turns."""
    return lambda x: np.rot90(x.reshape(-1, 8, 8), k, axes=(1, 2)).reshape(-1, 64)


ROTATION_GROUP = [_quarter_turns(k) for k in range(4)]  # C4, as maps of pixel arrays


def image_dataset(n=120, seed=0):
    return Dataset(random_images(n, seed=seed), np.arange(n) % 10)


# ---------------------------------------------------------------------------
# weight-flip degeneracy
# ---------------------------------------------------------------------------


def test_inversion_closure_detector():
    ds = image_dataset()
    assert not dataset_is_inversion_closed(ds)
    sym = symmetrize(ds)
    assert dataset_is_inversion_closed(sym)
    # the pixels stay closed, but one inverted copy is moved to another label
    labels = sym.labels.copy()
    labels[-1] = (labels[-1] + 1) % 10
    assert not dataset_is_inversion_closed(
        Dataset(sym.pixels, labels))
    # closure is a multiset property: the row order does not matter
    order = np.random.default_rng(0).permutation(len(sym))
    assert dataset_is_inversion_closed(
        Dataset(sym.pixels[order], sym.labels[order]))


def test_weight_flip_invariance_on_symmetrized_data():
    sym = symmetrize(image_dataset())
    for seed in range(5):
        mlp = init_mlp((64, 10, 5, 10), False, seed)
        assert weight_orbit_invariance(mlp, sym) <= 1e-9


def test_weight_flip_witness_on_unsymmetrized_data(small_splits, quick_config):
    # a trained model is not invariant to W1 -> -W1 on its own training data
    train_ds, _ = small_splits
    result = train(quick_config, train_ds.pixels, train_ds.labels)
    assert weight_flip_deviation(result.mlp, train_ds) > 1e-3


def test_weight_flip_guards():
    sym = symmetrize(image_dataset())
    with pytest.raises(ValueError, match="bias"):
        weight_orbit_invariance(init_mlp((64, 4, 10), True, 0), sym)
    with pytest.raises(ValueError, match="closed"):
        weight_orbit_invariance(init_mlp((64, 4, 10), False, 0), image_dataset())


def test_weight_flip_on_an_empty_dataset_is_a_value_error():
    empty = Dataset(np.empty((0, 64)), [])
    mlp = init_mlp((64, 4, 10), False, 0)
    for probe in (weight_flip_deviation, weight_orbit_invariance):
        with pytest.raises(ValueError, match="cannot evaluate on an empty dataset"):
            probe(mlp, empty)


def test_weight_flip_at_zero_loss_is_a_value_error():
    # one image whose label logit leads by 3200: p == 1.0 exactly, so
    # Omega(W1) == 0 and the relative deviation has no denominator
    weights = np.zeros((10, 64))
    weights[3] = 100.0
    mlp = Mlp([Layer(weights)])
    ds = Dataset(np.full((1, 64), 0.5), [3])
    assert sample_loss(mlp, ds.pixels, ds.labels)[0] == 0.0
    with pytest.raises(ValueError, match="the loss is 0"):
        weight_flip_deviation(mlp, ds)


def test_invariant_features_remove_the_degeneracy_premise():
    # with invariant features the group acts as the identity on the network
    # input, so each sample's loss is unchanged under inversion, bit-exactly
    ds = image_dataset(seed=3)
    mlp = init_mlp((64, 10, 5, 10), False, 3)
    for kind in (Square(), NeighborProduct()):
        losses = sample_loss(mlp, kind.apply(ds.pixels), ds.labels)
        assert np.array_equal(sample_loss(mlp, kind.apply(-ds.pixels), ds.labels), losses)


# ---------------------------------------------------------------------------
# sampled loss
# ---------------------------------------------------------------------------


def test_sampled_loss_mu_one_is_exact():
    ds = image_dataset(seed=4)
    mlp = init_mlp((64, 10, 5, 10), False, 4)
    report = sampled_loss_expectation(mlp, ds, inversion_group(), mu=1.0, trials=7)
    # every single trial reproduces the full symmetrized loss bit-for-bit
    assert report.trial_min == report.omega
    assert report.trial_max == report.omega


def test_sampled_loss_mean_approaches_mu_omega():
    ds = image_dataset(seed=5)
    mlp = init_mlp((64, 10, 5, 10), False, 5)
    report = sampled_loss_expectation(mlp, ds, inversion_group(), mu=0.5,
                                      trials=3000, seed=5)
    assert abs(report.ratio - 1.0) <= 3.0 * report.ratio_std_error
    assert report.expected == 0.5 * report.omega


def test_sampled_loss_single_trial_breaks_symmetry():
    ds = image_dataset(seed=6)
    mlp = init_mlp((64, 10, 5, 10), False, 6)
    report = sampled_loss_expectation(mlp, ds, inversion_group(), mu=0.5,
                                      trials=1, seed=6)
    assert report.ratio != 1.0


def test_sampled_loss_works_with_rotation_group():
    ds = image_dataset(seed=7, n=40)
    mlp = init_mlp((64, 6, 10), False, 7)
    report = sampled_loss_expectation(mlp, ds, ROTATION_GROUP, mu=1.0, trials=2)
    assert report.trial_min == report.omega == report.trial_max


def reference_sampled_loss(mlp, ds, group, mu, trials, seed=0):
    """One draw and one sum per trial: the plain form of the estimator."""
    terms = np.concatenate([sample_loss(mlp, g(ds.pixels), ds.labels)
                            for g in group])
    omega = float(np.sum(terms))
    rng = np.random.default_rng(seed)
    values = np.empty(trials)
    for t in range(trials):
        keep = rng.random(terms.shape) < mu
        values[t] = np.sum(np.where(keep, terms, 0.0))
    empirical = float(np.mean(values))
    spread = float(np.std(values, ddof=1)) if trials > 1 else 0.0
    return SampledLossReport(
        mu=mu, trials=trials, omega=omega, expected=mu * omega,
        empirical_mean=empirical, ratio=empirical / (mu * omega),
        ratio_std_error=spread / np.sqrt(trials) / (mu * omega),
        trial_min=float(values.min()), trial_max=float(values.max()))


@pytest.mark.parametrize("n, group, mu, trials", [
    (60, inversion_group(), 0.5, 1237),     # 120 terms: blocks of 546 rows, last one short
    (37, inversion_group(), 0.3, 1),
    (40, ROTATION_GROUP, 0.7, 333),
    (33000, inversion_group(), 0.5, 3),     # 66000 terms > 2**16: one row per block
    (50, inversion_group(), 1.0, 700),
    (20, ROTATION_GROUP, 1.0, 9),
], ids=["inversion-partial-block", "one-trial", "rotation", "one-row-blocks",
        "mu-one", "rotation-mu-one"])
def test_sampled_loss_equals_per_trial_reference(n, group, mu, trials):
    ds = image_dataset(n=n, seed=n)
    mlp = init_mlp((64, 10, 5, 10), False, n)
    report = sampled_loss_expectation(mlp, ds, group, mu=mu, trials=trials, seed=11)
    assert asdict(report) == asdict(reference_sampled_loss(mlp, ds, group, mu, trials, seed=11))
    if mu == 1.0:
        assert report.trial_min == report.omega == report.trial_max


def test_sampled_loss_validation():
    ds = image_dataset(n=5)
    mlp = init_mlp((64, 4, 10), False, 0)
    with pytest.raises(ValueError):
        sampled_loss_expectation(mlp, ds, inversion_group(), mu=0.0, trials=5)
    with pytest.raises(ValueError):
        sampled_loss_expectation(mlp, ds, inversion_group(), mu=0.5, trials=0)
    with pytest.raises(ValueError, match="empty"):
        sampled_loss_expectation(mlp, image_dataset(n=0), inversion_group(), mu=0.5, trials=5)


# ---------------------------------------------------------------------------
# toy rotation task
# ---------------------------------------------------------------------------


def test_toy_task_labels_are_radius_functions():
    task = make_toy_task(8)
    radii = np.linalg.norm(task.points, axis=1)
    labels = task.labels
    for r, y in ((0.5, 0.2), (1.0, 0.8)):
        mask = np.isclose(radii, r)
        assert np.all(labels[mask] == y)
    assert len(task.points) == TOY_BASE_POINTS * 8


def reference_toy_loss(task, w):
    x, y = task.points, task.labels
    f = np.tanh(x @ np.asarray(w, dtype=np.float64)) ** 2
    return float(np.sum((y - f) ** 2))


def reference_toy_gradient(task, w):
    x, y = task.points, task.labels
    t = np.tanh(x @ np.asarray(w, dtype=np.float64))
    f = t * t
    coeff = 2.0 * (f - y) * 2.0 * t * (1.0 - t * t)
    return x.T @ coeff


TOY_WEIGHTS = [(0.0, 0.0), (0.9, 0.4), (40.0, -25.0), (-1.3, 0.05), (1e-3, -2e-3)]


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "unclosed"])
@pytest.mark.parametrize("n", [1, 4, 7, 360])
def test_toy_loss_and_gradient_match_reference_bits(n, closed):
    # the unclosed dataset is the C_1 task: the base points alone
    task = make_toy_task(n if closed else 1, seed=n)
    for w in TOY_WEIGHTS:
        assert toy_loss(task, w) == reference_toy_loss(task, w)
        assert np.array_equal(toy_gradient(task, w), reference_toy_gradient(task, w))


def test_toy_work_vectors_leak_no_state():
    task = make_toy_task(7)
    expected = {w: (reference_toy_loss(task, w), reference_toy_gradient(task, w))
                for w in TOY_WEIGHTS}
    # repeated and interleaved calls in both orders
    order = TOY_WEIGHTS + TOY_WEIGHTS[::-1] + TOY_WEIGHTS[::2]
    for w in order:
        assert np.array_equal(toy_gradient(task, w), expected[w][1])
        assert np.array_equal(toy_gradient(task, w), expected[w][1])
        assert toy_loss(task, w) == expected[w][0]
    for w in order:
        assert toy_loss(task, w) == expected[w][0]
        assert np.array_equal(toy_gradient(task, w), expected[w][1])
    # a returned gradient is the caller's: later calls do not overwrite it
    g = toy_gradient(task, (0.9, 0.4))
    kept = g.copy()
    toy_gradient(task, (40.0, -25.0))
    toy_loss(task, (-1.3, 0.05))
    assert np.array_equal(g, kept)


def test_toy_gradient_matches_finite_differences():
    task = make_toy_task(4)
    w = np.array([0.7, -0.4])
    g = toy_gradient(task, w)
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1e-6
        numeric = (toy_loss(task, w + e) - toy_loss(task, w - e)) / 2e-6
        assert abs(g[k] - numeric) / max(abs(numeric), 1e-12) < 1e-6


def test_toy_hessian_matches_finite_differences():
    task = make_toy_task(4)
    w = np.array([0.9, 0.2])
    H = toy_hessian(task, w)
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1e-6
        col = (toy_gradient(task, w + e) - toy_gradient(task, w - e)) / 2e-6
        np.testing.assert_allclose(H[:, k], col, rtol=1e-5, atol=1e-8)


def test_train_toy_reaches_a_nontrivial_minimum():
    task = make_toy_task(16)
    w = train_toy(task)
    assert np.linalg.norm(toy_gradient(task, w)) < 1e-6
    assert np.linalg.norm(w) > 0.5  # the ring, not the trivial fixed point
    eigs = np.linalg.eigvalsh(toy_hessian(task, w))
    assert eigs[0] > -1e-6  # a minimum, not a saddle


def reference_train_toy(task):
    """All 800 descent steps, with no early stop, then the basin scan and
    the Newton polish."""
    w = np.array((0.9, 0.4), dtype=np.float64)
    n_points = len(task.points)
    for _ in range(800):
        w -= 0.5 * toy_gradient(task, w) / n_points
    period = 2.0 * np.pi / task.n
    offsets = np.linspace(0.0, period, 64, endpoint=False)
    losses = [toy_loss(task, rotation_matrix(t) @ w) for t in offsets]
    w = rotation_matrix(offsets[int(np.argmin(losses))]) @ w
    lam = 1e-8
    for _ in range(200):
        g = toy_gradient(task, w)
        gn = float(np.linalg.norm(g))
        if gn < 1e-9:
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


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("n", [1, 4, 16, 64, 360])
def test_train_toy_stops_at_its_fixed_point_with_the_same_bits(monkeypatch, n, seed):
    task = make_toy_task(n, seed=seed)
    calls = []  # "g" per gradient, "l" per loss; the basin scan's losses end the descent

    def counted_gradient(task, w):
        calls.append("g")
        return toy_gradient(task, w)

    def counted_loss(task, w):
        calls.append("l")
        return toy_loss(task, w)

    monkeypatch.setattr(degeneracy, "toy_gradient", counted_gradient)
    monkeypatch.setattr(degeneracy, "toy_loss", counted_loss)
    assert train_toy(task).tobytes() == reference_train_toy(task).tobytes()
    if n >= 64:  # w reaches a bitwise fixed point near step 500 at these orders
        assert calls.index("l") < 800


def test_train_toy_rejects_seven_newton_steps_at_n16_seed2(monkeypatch):
    # the one task among n in {4, 16, 64, 360} and seeds 0-9 where a damped
    # Newton step fails to lower the gradient norm and is retried with more
    # damping; each Newton iteration computes one Hessian and ends at the
    # step it accepts, so every other solve is a rejected step
    task = make_toy_task(16, seed=2)
    calls = []
    solve, hessian = np.linalg.solve, degeneracy.toy_hessian
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append("solve") or solve(a, b))
    monkeypatch.setattr(degeneracy, "toy_hessian",
                        lambda task, w: calls.append("H") or hessian(task, w))
    w = train_toy(task)
    assert calls.count("solve") - calls.count("H") == 7
    assert np.linalg.norm(toy_gradient(task, w)) < GRAD_TOL


def test_train_toy_retries_a_singular_newton_system_with_more_damping(monkeypatch):
    task = make_toy_task(16)
    systems = []
    solve = np.linalg.solve

    def singular_once(a, b):
        systems.append(a.copy())
        if len(systems) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    w = train_toy(task)
    # the retry solves H + lam I again with lam ten times larger (1e-8 to 1e-7)
    assert systems[1][0, 1] == systems[0][0, 1]
    np.testing.assert_allclose(np.diag(systems[1] - systems[0]), 9e-8, rtol=1e-6)
    assert np.linalg.norm(toy_gradient(task, w)) < GRAD_TOL


def test_orbit_scan_is_flat_for_closed_task():
    task = make_toy_task(4)
    scan = orbit_loss_scan(task, np.array([1.3, -0.2]))
    assert len(scan.losses) == 4
    assert scan.relative_spread <= 1e-9


def test_unclosed_profile_shows_the_witness_spread():
    # the C_1 task is not closed under C_8, so its loss moves along the C_8 orbit
    task = make_toy_task(1)
    w = np.array([1.5, 0.3])
    losses = np.array([toy_loss(task, rotation_matrix(2 * np.pi * k / 8) @ w)
                       for k in range(8)])
    spread = (losses.max() - losses.min()) / losses.mean()
    assert spread > 1e-3


def test_rotation_matrix_and_generator_agree():
    theta = 1e-7
    approx = (rotation_matrix(theta) - np.eye(2)) / theta
    np.testing.assert_allclose(approx, ROTATION_GENERATOR, atol=1e-6)


# ---------------------------------------------------------------------------
# generator curvature
# ---------------------------------------------------------------------------


def test_generator_curvature_at_minimum():
    task = make_toy_task(64)
    w = train_toy(task)
    report = generator_curvature(task, w)
    assert abs(report.directional_derivative) < 1e-8
    assert report.generator_curvature <= report.radial_curvature / 100.0
    assert report.radial_curvature > 0.0


def test_generator_curvature_warns_away_from_minimum():
    task = make_toy_task(8)
    with pytest.warns(UserWarning, match="minimum"):
        report = generator_curvature(task, np.array([2.0, 1.0]))
    assert np.isfinite(report.generator_curvature_raw)


def test_curvature_sweep_is_non_increasing_small():
    reports = generator_curvature_sweep((4, 16, 64))
    values = [r.generator_curvature for r in reports]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] > 1.0  # n=4 has a genuinely curved angular direction


def test_smallest_eigenvalue_estimate_matches_dense_hessian():
    task = make_toy_task(4)
    w = train_toy(task)
    dense = float(np.linalg.eigvalsh(toy_hessian(task, w))[0])
    estimate = smallest_hessian_eigenvalue(task, w)
    assert abs(estimate - dense) / max(abs(dense), 1e-9) < 1e-3


def reference_smallest_hessian_eigenvalue(task, w):
    """Both power iterations for all 200 steps, with no early stop."""
    def hessian(v):
        return (toy_gradient(task, w + 1e-6 * v) - toy_gradient(task, w - 1e-6 * v)) / 2e-6

    rng = np.random.default_rng(0)
    v = rng.normal(size=2)
    v /= np.linalg.norm(v)
    lam_max = 0.0
    for _ in range(200):
        hv = hessian(v)
        norm = np.linalg.norm(hv)
        if norm == 0.0:
            break
        lam_max = float(v @ hv)
        v = hv / norm
    shift = abs(lam_max) * 1.05 + 1.0
    v = rng.normal(size=2)
    v /= np.linalg.norm(v)
    mu = 0.0
    for _ in range(200):
        bv = shift * v - hessian(v)
        norm = np.linalg.norm(bv)
        if norm == 0.0:
            break
        mu = float(v @ bv)
        v = bv / norm
    return shift - mu


@pytest.mark.parametrize("n", [4, 16, 64, 360])
def test_power_iteration_stops_at_its_fixed_point_with_the_same_bits(monkeypatch, n):
    task = make_toy_task(n)
    w = train_toy(task)
    calls = []

    def counted(task, w):
        calls.append(1)
        return toy_gradient(task, w)

    monkeypatch.setattr(degeneracy, "toy_gradient", counted)
    estimate = smallest_hessian_eigenvalue(task, w)
    assert estimate == reference_smallest_hessian_eigenvalue(task, w)
    assert len(calls) < 2 * 2 * 200  # the first iteration reached its fixed point


def test_group_order_validation():
    for n in (0, -1, 1.5, 4.0, "4", None):
        with pytest.raises(ValueError, match=re.escape(f"an integer >= 1, got {n!r}")):
            make_toy_task(n)


SHAPE_TASK = make_toy_task(2)
# every public function of ``degeneracy`` that takes toy weights
TOY_WEIGHT_FUNCTIONS = (toy_loss, toy_gradient, toy_hessian, orbit_loss_scan,
                        generator_curvature, smallest_hessian_eigenvalue)


@settings(max_examples=100, deadline=None)
@given(shape=st.one_of(st.just((2,)),
                       hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
       seed=st.integers(0, 2**32 - 1))
def test_toy_functions_take_weights_of_shape_2_only(shape, seed):
    w = np.random.default_rng(seed).uniform(0.5, 1.0, shape)
    for function in TOY_WEIGHT_FUNCTIONS:
        if shape == (2,):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # generator_curvature: w is no minimum
                function(SHAPE_TASK, w)
        else:
            with pytest.raises(ValueError, match=re.escape(f"must have shape (2,), got {shape}")):
                function(SHAPE_TASK, w)
