import numpy as np
import pytest

from symdigits.degeneracy import (ROTATION_GENERATOR, dataset_is_inversion_closed,
                                  generator_curvature, generator_curvature_sweep,
                                  make_toy_task, orbit_loss_scan, orbit_profile,
                                  per_sample_inversion_gap, rotation_matrix,
                                  sampled_loss_expectation, smallest_hessian_eigenvalue,
                                  toy_gradient, toy_hessian, toy_loss, train_toy,
                                  weight_flip_deviation, weight_orbit_invariance)
from symdigits.digits import Dataset, symmetrize
from symdigits.features import (NeighborProduct, Rotation90, Square,
                                inversion_group, rotation_group)
from symdigits.network import init_mlp, train, TrainConfig

from conftest import random_images


def image_dataset(n=120, seed=0):
    return Dataset(random_images(n, seed=seed), np.arange(n) % 10, np.arange(n))


# ---------------------------------------------------------------------------
# weight-flip degeneracy
# ---------------------------------------------------------------------------


def test_inversion_closure_detector():
    ds = image_dataset()
    assert not dataset_is_inversion_closed(ds)
    assert dataset_is_inversion_closed(symmetrize(ds))


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


def test_invariant_features_remove_the_degeneracy_premise():
    # with invariant features the group acts as the identity on the network
    # input, so each sample's loss is unchanged under inversion, bit-exactly
    ds = image_dataset(seed=3)
    mlp = init_mlp((64, 10, 5, 10), False, 3)
    assert per_sample_inversion_gap(mlp, Square(), ds) == 0.0
    assert per_sample_inversion_gap(mlp, NeighborProduct(), ds) == 0.0


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
    report = sampled_loss_expectation(mlp, ds, rotation_group(), mu=1.0, trials=2)
    assert report.trial_min == report.omega == report.trial_max


def test_sampled_loss_validation():
    ds = image_dataset(n=5)
    mlp = init_mlp((64, 4, 10), False, 0)
    with pytest.raises(ValueError):
        sampled_loss_expectation(mlp, ds, inversion_group(), mu=0.0, trials=5)
    with pytest.raises(ValueError):
        sampled_loss_expectation(mlp, ds, inversion_group(), mu=0.5, trials=0)


# ---------------------------------------------------------------------------
# toy rotation task
# ---------------------------------------------------------------------------


def test_toy_task_labels_are_radius_functions():
    task = make_toy_task(8, n_points=50)
    radii = np.linalg.norm(task.points(), axis=1)
    labels = task.labels()
    for r, y in ((0.5, 0.2), (1.0, 0.8)):
        mask = np.isclose(radii, r)
        assert np.all(labels[mask] == y)
    assert len(task.points()) == 50 * 8


def test_toy_gradient_matches_finite_differences():
    task = make_toy_task(4, n_points=30)
    w = np.array([0.7, -0.4])
    g = toy_gradient(task, w)
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1e-6
        numeric = (toy_loss(task, w + e) - toy_loss(task, w - e)) / 2e-6
        assert abs(g[k] - numeric) / max(abs(numeric), 1e-12) < 1e-6


def test_toy_hessian_matches_finite_differences():
    task = make_toy_task(4, n_points=30)
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


def test_orbit_scan_is_flat_for_closed_task():
    task = make_toy_task(4)
    scan = orbit_loss_scan(task, np.array([1.3, -0.2]))
    assert len(scan.losses) == 4
    assert scan.relative_spread <= 1e-9


def test_orbit_scan_rejects_unclosed_task():
    task = make_toy_task(4, closed=False)
    with pytest.raises(ValueError, match="closed"):
        orbit_loss_scan(task, np.array([1.0, 0.0]))


def test_unclosed_profile_shows_the_witness_spread():
    task = make_toy_task(360, closed=False)
    angles = 2 * np.pi * np.arange(8) / 8
    losses = orbit_profile(task, np.array([1.5, 0.3]), angles)
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


def test_group_order_validation():
    with pytest.raises(ValueError):
        make_toy_task(0)
