import json
import sys

import numpy as np
import pytest

from symdigits.cli import main
from symdigits.digits import bundled_data_path, read_pgm


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """First 300 corpus lines; keeps CLI trainings quick."""
    lines = bundled_data_path().read_text().splitlines()[:300]
    path = tmp_path_factory.mktemp("data") / "small.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(*argv):
    return main(list(argv))


def test_data_stats(tmp_path):
    out = tmp_path / "stats"
    assert run("data", "stats", "--out", str(out)) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["size"] == 1797
    assert all(174 <= c <= 183 for c in stats["class_counts"])
    assert (out / "manifest.json").exists()


def test_data_convert_and_fetch(tmp_path, monkeypatch, capsys):
    out = tmp_path / "conv"
    assert run("data", "convert", "--out", str(out)) == 0
    assert (out / "optdigits.csv").read_bytes() == bundled_data_path().read_bytes()
    # Without the optional scikit-learn, fetch is a usage error that points
    # to the bundled corpus and writes no CSV. The submodule is blocked too,
    # since an already imported `sklearn.datasets` bypasses its parent.
    for name in ("sklearn", "sklearn.datasets"):
        monkeypatch.setitem(sys.modules, name, None)
    out2 = tmp_path / "fetch"
    assert run("data", "fetch", "--out", str(out2)) == 1
    assert str(bundled_data_path()) in capsys.readouterr().err
    assert not (out2 / "optdigits.csv").exists()


def test_data_fetch_rebuilds_bundled_corpus(tmp_path):
    pytest.importorskip("sklearn")
    out = tmp_path / "fetch"
    assert run("data", "fetch", "--out", str(out)) == 0
    assert (out / "optdigits.csv").read_bytes() == bundled_data_path().read_bytes()


def test_train_then_eval_round_trip(tmp_path, small_csv):
    train_out = tmp_path / "train"
    assert run("train", "--data", small_csv, "--out", str(train_out),
               "--epochs", "3", "--no-bias", "--seed", "1") == 0
    assert (train_out / "model.json").exists()
    curve = (train_out / "training_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,mean_loss" and len(curve) == 4
    train_report = json.loads((train_out / "train_report.json").read_text())

    eval_out = tmp_path / "eval"
    assert run("eval", "--data", small_csv, "--model", str(train_out / "model.json"),
               "--out", str(eval_out), "--seed", "1") == 0
    eval_report = json.loads((eval_out / "eval_report.json").read_text())
    assert eval_report["R"] == train_report["R"]  # bit-exact persistence round trip
    assert eval_report["bound_holds"] is True


def test_eval_invert_flag_swaps_accuracies(tmp_path, small_csv):
    train_out = tmp_path / "train"
    run("train", "--data", small_csv, "--out", str(train_out), "--epochs", "2")
    plain, inverted = tmp_path / "plain", tmp_path / "inv"
    run("eval", "--data", small_csv, "--model", str(train_out / "model.json"),
        "--out", str(plain))
    run("eval", "--data", small_csv, "--model", str(train_out / "model.json"),
        "--out", str(inverted), "--invert")
    a = json.loads((plain / "eval_report.json").read_text())
    b = json.loads((inverted / "eval_report.json").read_text())
    assert b["R"] == a["R_bar"] and b["R_bar"] == a["R"]


def test_eval_of_invariant_model_ignores_inversion(tmp_path, small_csv):
    train_out = tmp_path / "train"
    run("train", "--data", small_csv, "--out", str(train_out), "--epochs", "2",
        "--features", "neighbor")
    plain, inverted = tmp_path / "plain", tmp_path / "inv"
    run("eval", "--data", small_csv, "--model", str(train_out / "model.json"),
        "--out", str(plain))
    run("eval", "--data", small_csv, "--model", str(train_out / "model.json"),
        "--out", str(inverted), "--invert")
    a = (plain / "eval_report.json").read_text()
    b = (inverted / "eval_report.json").read_text()
    assert a == b


def test_reproduce_figure1(tmp_path):
    out = tmp_path / "fig"
    assert run("reproduce", "figure1", "--out", str(out)) == 0
    original = read_pgm(out / "figure1_original.pgm")
    inverted = read_pgm(out / "figure1_inverted.pgm")
    assert np.array_equal(original + inverted, np.full((8, 8), 255))
    assert (out / "figure1_features.pgm").exists()
    meta = json.loads((out / "figure1.json").read_text())
    assert meta["label"] == 6 and meta["inverted_is_255_complement"] is True


def test_reproduce_table_bands_fail_with_tiny_budget(tmp_path, small_csv):
    out = tmp_path / "t1"
    code = run("reproduce", "table1", "--data", small_csv, "--out", str(out),
               "--epochs", "1", "--seeds", "0")
    assert code == 2  # bands cannot pass after one epoch on 300 images
    assert (out / "results.csv").exists()
    assert (out / "bands.txt").exists()
    assert (out / "accuracies.svg").exists()


def test_probe_weight_flip(tmp_path, small_csv):
    out = tmp_path / "probe"
    assert run("probe", "weight-flip", "--data", small_csv, "--out", str(out)) == 0
    payload = json.loads((out / "probe_weight_flip.json").read_text())
    assert payload["passed"] and payload["deviation_symmetrized"] <= 1e-9
    assert payload["deviation_unsymmetrized_witness"] > 0.0


def test_probe_orbit_small_n(tmp_path):
    out = tmp_path / "orbit"
    assert run("probe", "orbit", "--n", "8", "--out", str(out)) == 0
    rows = (out / "orbit_profile.csv").read_text().splitlines()
    assert rows[0] == "theta,omega" and len(rows) == 9
    assert (out / "orbit_valley.svg").exists()


def test_probe_goldstone_small(tmp_path):
    out = tmp_path / "gold"
    assert run("probe", "goldstone", "--n", "64", "--out", str(out)) == 0
    payload = json.loads((out / "probe_goldstone.json").read_text())
    assert payload["curvature_non_increasing"] is True
    assert [r["n"] for r in payload["sweep"]] == [4, 16, 64]


def test_probe_sampled_loss_mu_one_exact(tmp_path, small_csv):
    out = tmp_path / "sl"
    assert run("probe", "sampled-loss", "--data", small_csv, "--mu", "1.0",
               "--trials", "3", "--out", str(out)) == 0
    payload = json.loads((out / "probe_sampled_loss.json").read_text())
    assert payload["trial_min"] == payload["omega"] == payload["trial_max"]


def test_config_file_and_flag_precedence(tmp_path, small_csv):
    config = tmp_path / "run.cfg"
    config.write_text("epochs=2\nseed=3\n# comment\nlr=0.01\n")
    out = tmp_path / "out"
    assert run("train", "--data", small_csv, "--config", str(config),
               "--epochs", "1", "--out", str(out)) == 0
    curve = (out / "training_curve.csv").read_text().splitlines()
    assert len(curve) == 2  # flag --epochs 1 beat the file's epochs=2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3  # file value beat the default
    assert manifest["config"]["lr"] == 0.01


def test_bad_config_file_is_usage_error(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("nonsense=1\n")
    assert run("train", "--config", str(config)) == 1


def test_config_booleans_are_strict(tmp_path, small_csv, capsys):
    config = tmp_path / "typo.cfg"
    config.write_text("epochs=1\nbias = ture\n")
    assert run("train", "--data", small_csv, "--config", str(config)) == 1
    assert "line 2: bad value for bias" in capsys.readouterr().err
    config.write_text("epochs=1\nbias = YES\n")
    out = tmp_path / "out"
    assert run("train", "--data", small_csv, "--config", str(config),
               "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["bias"] is True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_exits_two_naming_epoch(tmp_path, small_csv, capsys):
    code = run("train", "--data", small_csv, "--epochs", "2", "--lr", "1e308",
               "--momentum", "0.99", "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("check failed: ") and " in epoch 1" in err
    assert not (tmp_path / "out" / "model.json").exists()


def test_usage_errors_exit_one():
    assert run("eval") == 1                       # missing --model
    assert run("train", "--features", "cubic") == 1


def test_outputs_are_idempotent_except_manifest(tmp_path, small_csv):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run("train", "--data", small_csv, "--epochs", "2", "--out", str(out))
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    assert (a / "training_curve.csv").read_bytes() == (b / "training_curve.csv").read_bytes()
    assert (a / "train_report.json").read_bytes() == (b / "train_report.json").read_bytes()
