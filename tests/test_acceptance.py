"""Acceptance suite: every exit criterion at its stated tolerance.

Exact theorem checks use machine tolerances; table cells are graded
against bands on the across-seed mean because no canonical training
hyperparameters exist for the published numbers.  Each criterion prints
one PASS/FAIL line (run with -s to see them as they finish).
"""

import time

import numpy as np
import pytest

from symdigits.degeneracy import (generator_curvature, generator_curvature_sweep,
                                  make_toy_task, orbit_loss_scan,
                                  sampled_loss_expectation, train_toy,
                                  weight_flip_deviation, weight_orbit_invariance)
from symdigits.digits import Dataset, augment_shifts, split, symmetrize
from symdigits.experiments import bound_check, reproduce_tables
from symdigits.features import Identity, inversion_group
from symdigits.network import TrainConfig, backward, grad_check, init_mlp, train
from symdigits.persistence import load_model, save_model

SEEDS = [0, 1, 2, 3, 4]


def _report(number, name, ok, details=""):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}  {details}")
    assert ok, f"criterion {number} ({name}) failed: {details}"


@pytest.fixture(scope="module")
def table1(augmented):
    start = time.monotonic()
    report = reproduce_tables(augmented, SEEDS, config=TrainConfig(), tables=("table1",))
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def table2(augmented):
    start = time.monotonic()
    report = reproduce_tables(augmented, SEEDS, config=TrainConfig(), tables=("table2",))
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def trained_nobias(augmented):
    """Default-config no-bias identity models, one per seed, with their
    train/test splits."""
    out = []
    for seed in SEEDS:
        train_ds, test_ds = split(augmented, 0.25, seed=seed)
        result = train(TrainConfig(seed=seed), train_ds.pixels, train_ds.labels)
        out.append((result.mlp, train_ds, test_ds))
    return out


# ---------------------------------------------------------------------------
# 1. theorem suite (exact)
# ---------------------------------------------------------------------------


def test_criterion_1_bound_theorem(augmented, trained_nobias):
    start = time.monotonic()
    _, test_ds = split(augmented, 0.25, seed=0)
    checked = 0
    worst_sum = -np.inf
    for seed in range(100):
        report = bound_check(init_mlp((64, 10, 5, 10), False, 1000 + seed),
                             Identity(), test_ds)
        assert report.holds and report.n_argmin_violations == 0
        worst_sum = max(worst_sum, report.bound_sum)
        checked += 1
    for mlp, _, its_test in trained_nobias:
        report = bound_check(mlp, Identity(), its_test)
        assert report.holds and report.n_argmin_violations == 0
        worst_sum = max(worst_sum, report.bound_sum)
        checked += 1
    elapsed = time.monotonic() - start
    _report(1, "theorem suite", checked == 105 and elapsed < 60.0,
            f"{checked} models, worst R+Rbar = {worst_sum:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Table 1 bands
# ---------------------------------------------------------------------------


def test_criterion_2_table1_bands(table1):
    report, elapsed = table1
    mean = report.cell_mean
    checks = {
        "no_bias/X R >= 0.75":
            mean(("table1", "no_bias", "identity", "X_train", "X_test")) >= 0.75,
        "no_bias/X Rbar <= 0.05":
            mean(("table1", "no_bias", "identity", "X_train", "-X_test")) <= 0.05,
        "bias/X R >= 0.72":
            mean(("table1", "bias", "identity", "X_train", "X_test")) >= 0.72,
        "bias/X Rbar <= 0.10":
            mean(("table1", "bias", "identity", "X_train", "-X_test")) <= 0.10,
        "bias/pmX in [0.55, 0.80]": all(
            0.55 <= mean(("table1", "bias", "identity", "pmX_train", t)) <= 0.80
            for t in ("X_test", "-X_test")),
        "bias/pmX |R-Rbar| <= 0.10": abs(
            mean(("table1", "bias", "identity", "pmX_train", "X_test"))
            - mean(("table1", "bias", "identity", "pmX_train", "-X_test"))) <= 0.10,
        "no_bias/pmX each <= 0.55": all(
            mean(("table1", "no_bias", "identity", "pmX_train", t)) <= 0.55
            for t in ("X_test", "-X_test")),
        "no_bias/pmX R+Rbar <= 1 per seed": all(
            report.cells[("table1", "no_bias", "identity", "pmX_train", "X_test")][s]
            + report.cells[("table1", "no_bias", "identity", "pmX_train", "-X_test")][s]
            <= 1.0 for s in SEEDS),
        "graded bands all pass": report.all_bands_pass(),
        "runtime < 15 min": elapsed < 900.0,
    }
    failed = [k for k, ok in checks.items() if not ok]
    summary = (f"R={mean(('table1', 'no_bias', 'identity', 'X_train', 'X_test')):.3f} "
               f"Rbar={mean(('table1', 'no_bias', 'identity', 'X_train', '-X_test')):.4f} "
               f"{elapsed:.0f}s")
    _report(2, "table 1 bands", not failed, summary + (f"; failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 3. Table 2 bands
# ---------------------------------------------------------------------------


def test_criterion_3_table2_bands(table2):
    report, elapsed = table2
    mean = report.cell_mean
    cell = lambda bias, fm: ("table2", bias, fm, "X_train", "X_test")
    equal_bit_exact = all(
        report.cells[c][s] == report.cells[c[:4] + ("-X_test",)][s]
        for c in report.cells if c[4] == "X_test" for s in SEEDS)
    ordering = all(
        report.cells[cell(bias, "neighbor")][s] - report.cells[cell(bias, "square")][s] >= 0.08
        for bias in ("no_bias", "bias") for s in SEEDS)
    checks = {
        "square no_bias in [0.50, 0.75]": 0.50 <= mean(cell("no_bias", "square")) <= 0.75,
        "neighbor no_bias >= 0.78": mean(cell("no_bias", "neighbor")) >= 0.78,
        "perm no_bias >= 0.72": mean(cell("no_bias", "perm")) >= 0.72,
        "square bias in [0.50, 0.80]": 0.50 <= mean(cell("bias", "square")) <= 0.80,
        "neighbor bias >= 0.78": mean(cell("bias", "neighbor")) >= 0.78,
        "perm bias >= 0.72": mean(cell("bias", "perm")) >= 0.72,
        "neighbor > square by 0.08 every seed": ordering,
        "R == Rbar bit-exact every cell/seed": equal_bit_exact,
        "graded bands all pass": report.all_bands_pass(),
    }
    failed = [k for k, ok in checks.items() if not ok]
    summary = (f"square={mean(cell('no_bias', 'square')):.3f} "
               f"neighbor={mean(cell('no_bias', 'neighbor')):.3f} "
               f"perm={mean(cell('no_bias', 'perm')):.3f} {elapsed:.0f}s")
    _report(3, "table 2 bands", not failed, summary + (f"; failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 4. gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(100):
        n_hidden = int(rng.integers(1, 3))
        dims = (int(rng.integers(4, 65)),
                *(int(rng.integers(3, 13)) for _ in range(n_hidden)), 10)
        use_bias = bool(case % 2)
        mlp = init_mlp(dims, use_bias, int(rng.integers(0, 2**31)))
        x = rng.uniform(-1.0, 1.0, size=dims[0])
        y = int(rng.integers(0, 10))
        worst = max(worst, grad_check(mlp, (x, y), step=1e-5))
    assert worst < 1e-5
    # self-test: a corrupted gradient must be detected
    mlp = init_mlp((32, 8, 10), False, 7)
    x = np.random.default_rng(7).uniform(-1, 1, size=32)
    grads = backward(mlp, x, 3)
    grads[1].weights[0, 0] *= 2.0
    detected = grad_check(mlp, (x, 3), gradients=grads) > 1e-2
    elapsed = time.monotonic() - start
    _report(4, "gradient oracle", worst < 1e-5 and detected and elapsed < 60.0,
            f"worst relative error {worst:.2e} over 100 cases, "
            f"corruption detected={detected}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. degeneracy probes (exact)
# ---------------------------------------------------------------------------


def test_criterion_5_degeneracy_probes(trained_nobias):
    start = time.monotonic()
    mlp, train_ds, _ = trained_nobias[0]

    flip_sym = weight_orbit_invariance(mlp, symmetrize(train_ds))
    flip_witness = weight_flip_deviation(mlp, train_ds)
    random_flips = [
        weight_orbit_invariance(init_mlp((64, 10, 5, 10), False, 50 + k),
                                symmetrize(train_ds))
        for k in range(3)
    ]

    task = make_toy_task(360)
    w_star = train_toy(task)
    scan = orbit_loss_scan(task, w_star)
    curvature = generator_curvature(task, w_star)
    sweep = generator_curvature_sweep((4, 16, 64, 360))
    values = [r.generator_curvature for r in sweep]

    checks = {
        "weight-flip deviation <= 1e-9 (trained)": flip_sym <= 1e-9,
        "weight-flip deviation <= 1e-9 (random)": max(random_flips) <= 1e-9,
        "unsymmetrized witness > 1e-3": flip_witness > 1e-3,
        "orbit spread <= 1e-9 at n=360": scan.relative_spread <= 1e-9,
        "generator derivative <= 1e-8": abs(curvature.directional_derivative) <= 1e-8,
        "generator curvature <= radial/100":
            curvature.generator_curvature <= curvature.radial_curvature / 100.0,
        "curvature non-increasing in n": all(a >= b for a, b in zip(values, values[1:])),
    }
    elapsed = time.monotonic() - start
    checks["runtime < 2 min"] = elapsed < 120.0
    failed = [k for k, ok in checks.items() if not ok]
    _report(5, "degeneracy probes", not failed,
            f"flip={flip_sym:.1e} witness={flip_witness:.1e} "
            f"spread={scan.relative_spread:.1e} "
            f"curvatures={[f'{v:.2e}' for v in values]} {elapsed:.0f}s"
            + (f"; failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 6. sampled-loss expectation
# ---------------------------------------------------------------------------


def test_criterion_6_sampled_loss(corpus):
    subset = Dataset(corpus.pixels[:200], corpus.labels[:200],
                     corpus.origin_ids[:200], name="subset200")
    mlp = init_mlp((64, 10, 5, 10), False, 11)
    exact = sampled_loss_expectation(mlp, subset, inversion_group(), mu=1.0,
                                     trials=100, seed=0)
    sampled = sampled_loss_expectation(mlp, subset, inversion_group(), mu=0.5,
                                       trials=10000, seed=0)
    mu_one_exact = exact.trial_min == exact.omega == exact.trial_max
    within = abs(sampled.ratio - 1.0) <= 3.0 * sampled.ratio_std_error
    _report(6, "sampled-loss expectation", mu_one_exact and within,
            f"mu=1 exact={mu_one_exact}; mu=0.5 ratio={sampled.ratio:.5f} "
            f"+- {sampled.ratio_std_error:.5f} over {sampled.trials} trials")


# ---------------------------------------------------------------------------
# 7. pipeline integrity
# ---------------------------------------------------------------------------


def test_criterion_7_pipeline_integrity(tmp_path, corpus, augmented, trained_nobias):
    from symdigits.cli import _figure1_index
    from symdigits.digits import pixels_to_gray_levels, read_pgm, render_image
    from symdigits.features import NeighborProduct, apply_feature_map

    counts_ok = len(corpus) == 1797 and len(augmented) == 8985

    train_ds, test_ds = split(augmented, 0.25, seed=0)
    leak_free = not (set(np.unique(train_ds.origin_ids)) &
                     set(np.unique(test_ds.origin_ids)))

    mlp, _, _ = trained_nobias[0]
    save_model(tmp_path / "model.json", mlp, Identity())
    loaded, _ = load_model(tmp_path / "model.json")
    round_trip = all(np.array_equal(a.weights, b.weights)
                     for a, b in zip(loaded.layers, mlp.layers))

    idx = _figure1_index(corpus)
    image = corpus[idx]
    render_image(image.pixels, tmp_path / "original.pgm")
    render_image(-image.pixels, tmp_path / "inverted.pgm")
    render_image(apply_feature_map(NeighborProduct(), image.pixels),
                 tmp_path / "features.pgm")
    original = read_pgm(tmp_path / "original.pgm")
    inverted = read_pgm(tmp_path / "inverted.pgm")
    complement = bool(np.all(original + inverted == 255))

    ok = counts_ok and leak_free and round_trip and complement and image.label == 6
    _report(7, "pipeline integrity", ok,
            f"1797->8985={counts_ok} leak_free={leak_free} "
            f"round_trip={round_trip} figure1_complement={complement} "
            f"(sample {idx})")
