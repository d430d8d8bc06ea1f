import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import symdigits
import symdigits.cli as cli
from symdigits.cli import COMMANDS, DEFAULTS, FLAGS, CliError, _resolve, build_parser, main
from symdigits.digits import bundled_data_path
from symdigits.features import Identity
from symdigits.network import init_mlp
from symdigits.persistence import model_to_dict, save_model


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    """First 300 corpus lines; keeps CLI trainings quick."""
    lines = bundled_data_path().read_text().splitlines()[:300]
    path = tmp_path_factory.mktemp("data") / "small.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(*argv):
    return main(list(argv))


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def read_pgm(path):
    """The gray levels of a plain (P2) PGM written by render_image."""
    return np.loadtxt(path, skiprows=3, dtype=np.int64)


def test_data_stats(tmp_path):
    out = tmp_path / "stats"
    assert run("data", "stats", "--out", str(out)) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["size"] == 1797
    assert all(174 <= c <= 183 for c in stats["class_counts"])
    assert (out / "manifest.json").exists()


def test_data_convert(tmp_path):
    out = tmp_path / "conv"
    assert run("data", "convert", "--out", str(out)) == 0
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


# every command, with relative paths so that no output names the directory
# its interpreter ran in
EVERY_COMMAND = [
    ["data", "stats", "--out", "stats"],
    ["data", "convert", "--out", "convert"],
    ["train", "--epochs", "2", "--out", "train"],
    ["eval", "--model", "train/model.json", "--out", "eval"],
    ["eval", "--model", "train/model.json", "--invert", "--out", "eval-inverted"],
    ["reproduce", "figure1", "--out", "figure1"],
    ["reproduce", "table1", "--epochs", "2", "--seeds", "0", "--out", "table1"],
    ["reproduce", "table2", "--epochs", "2", "--seeds", "0", "--out", "table2"],
    ["probe", "weight-flip", "--out", "weight-flip"],
    ["probe", "orbit", "--n", "16", "--out", "orbit"],
    ["probe", "goldstone", "--n", "16", "--out", "goldstone"],
    ["probe", "sampled-loss", "--trials", "200", "--out", "sampled-loss"],
]


def test_saved_model_does_not_depend_on_blas_thread_count(tmp_path):
    # one interpreter per thread count (OpenBLAS reads it once, at start-up),
    # which runs every command through cli.main
    src = str(Path(symdigits.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # prints every exit status: the tables' bands fail at 2 epochs (2)
    script = ("import json, sys\n"
              "from symdigits.cli import main\n"
              "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(EVERY_COMMAND)], cwd=cwd,
            env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        codes = dict(zip((" ".join(argv) for argv in EVERY_COMMAND),
                         json.loads(proc.stdout.splitlines()[-1])))
        assert all(code in (0, 2) for code in codes.values()), (codes, proc.stderr)
        outputs.append((codes, {path.relative_to(cwd).as_posix(): path.read_bytes()
                                for path in sorted(cwd.rglob("*"))
                                if path.is_file() and path.name != "manifest.json"}))
    (codes, files), (codes_2, files_2) = outputs
    assert codes == codes_2
    assert {name.split("/")[0] for name in files} == {argv[-1] for argv in EVERY_COMMAND}
    assert files.keys() == files_2.keys()
    assert [name for name in files if files[name] != files_2[name]] == []


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


def test_a_no_flag_overrides_a_config_files_true(tmp_path, small_csv):
    train_out = tmp_path / "train"
    run("train", "--data", small_csv, "--out", str(train_out), "--epochs", "2")
    model = str(train_out / "model.json")
    config = tmp_path / "run.cfg"
    config.write_text("invert = true\n")
    plain, overridden = tmp_path / "plain", tmp_path / "overridden"
    assert run("eval", "--data", small_csv, "--model", model, "--out", str(plain)) == 0
    assert run("eval", "--data", small_csv, "--model", model, "--config", str(config),
               "--no-invert", "--out", str(overridden)) == 0
    assert manifest(overridden)["config"]["invert"] is False
    assert ((overridden / "eval_report.json").read_bytes()
            == (plain / "eval_report.json").read_bytes())


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
    written = manifest(out)  # a failed check still records what ran
    assert written["command"] == "reproduce table1"
    assert written["config"]["epochs"] == 1 and written["config"]["seeds"] == "0"


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


@pytest.mark.parametrize("n, sweep, code", [("10", [4, 10], 2), ("32", [4, 16, 32], 0)])
def test_probe_goldstone_sweep_ends_at_requested_n(tmp_path, n, sweep, code):
    out = tmp_path / "gold"
    assert run("probe", "goldstone", "--n", n, "--out", str(out)) == code
    payload = json.loads((out / "probe_goldstone.json").read_text())
    assert [r["n"] for r in payload["sweep"]] == sweep
    # the final checks grade the requested order; C_10 is far from the
    # continuous limit, so its curvature ratio fails the 0.01 check
    assert payload["curvature_ratio"] == payload["sweep"][-1]["curvature_ratio"]
    assert payload["passed"] is (code == 0)
    assert (payload["curvature_ratio"] > 0.01) is (n == "10")


@pytest.mark.parametrize("flag", [["--bias"], ["--features", "square"], ["--perm-seed", "7"],
                                  ["--seed", "5"]],
                         ids=["bias", "features", "perm-seed", "seed"])
def test_reproduce_rejects_flags_the_table_rows_fix(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert run("reproduce", "table2", *flag, "--seeds", "0", "--epochs", "1",
               "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: unrecognized arguments: {flag[0]}")
    assert not (out / "manifest.json").exists()


def test_probe_sampled_loss_mu_one_exact(tmp_path, small_csv):
    out = tmp_path / "sl"
    assert run("probe", "sampled-loss", "--data", small_csv, "--mu", "1.0",
               "--trials", "3", "--out", str(out)) == 0
    payload = json.loads((out / "probe_sampled_loss.json").read_text())
    assert payload["trial_min"] == payload["omega"] == payload["trial_max"]


def test_failed_probe_writes_payload_and_manifest(tmp_path, capsys):
    # C_10 is far from the continuous limit: its curvature ratio fails the 0.01 check
    out = tmp_path / "gold"
    assert run("probe", "goldstone", "--n", "10", "--out", str(out)) == 2
    assert capsys.readouterr().err == "check failed: goldstone probe failed its exact tolerances\n"
    payload = json.loads((out / "probe_goldstone.json").read_text())
    assert payload["passed"] is False and payload["sweep"][-1]["n"] == 10
    assert manifest(out)["command"] == "probe goldstone"


@pytest.mark.parametrize("mu, trials, least", [("0.5", "1", 2), ("0.9", "0", 2), ("1.0", "0", 1)])
def test_sampled_loss_trials_without_a_standard_error_exit_one(tmp_path, capsys, mu, trials,
                                                                least):
    # one trial at mu < 1 has no standard error, so the check could never pass
    out = tmp_path / "sl"
    assert run("probe", "sampled-loss", "--mu", mu, "--trials", trials, "--out", str(out)) == 1
    assert capsys.readouterr().err == \
        f"error: --trials must be >= {least} at --mu {float(mu)}, got {trials}\n"
    assert not (out / "manifest.json").exists()


# one digit more than int() converts from text by default
LONG_SEED = "1" * 4301


@pytest.mark.parametrize("argv, message", [
    (["reproduce", "table1", "--seeds", "0,x"],
     "--seeds must be comma-separated non-negative integers, got '0,x'"),
    (["reproduce", "table2", "--seeds", "1,-2"],
     "--seeds must be comma-separated non-negative integers, got '1,-2'"),
    (["reproduce", "table1", "--seeds", "0,,1,"],
     "--seeds must be comma-separated non-negative integers, got '0,,1,'"),
    (["reproduce", "table1", "--seeds", "0,0"], "--seeds must not repeat a seed, got '0,0'"),
    (["train", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    (["train", "--features", "perm", "--perm-seed", "-1"],
     "--perm-seed must be a non-negative integer, got -1"),
    (["eval", "--model", "model.json", "--seed", "-3"],
     "--seed must be a non-negative integer, got -3"),
    (["probe", "orbit", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    (["train", "--config", "CONFIG"], "--seed must be a non-negative integer, got -4"),
    (["reproduce", "table1", "--seeds", "\u0661,2"],
     "--seeds must be comma-separated non-negative integers, got '\u0661,2'"),
    (["train", "--seed", "\u0663"], "argument --seed: invalid int value: '\u0663'"),
    (["probe", "orbit", "--seed", "1_0"], "argument --seed: invalid int value: '1_0'"),
    (["reproduce", "table1", "--seeds", f"0,{LONG_SEED}"],
     f"--seeds must have at most 4300 digits per seed, got '0,{LONG_SEED}'"),
    (["reproduce", "table2", "--config", "SEEDS_CONFIG"],
     f"--seeds must have at most 4300 digits per seed, got '{LONG_SEED}'"),
], ids=["seeds-letter", "seeds-negative", "seeds-empty-item", "seeds-repeated", "train-seed",
        "perm-seed",
        "eval-seed", "probe-seed", "config-seed", "seeds-arabic-indic", "seed-arabic-indic",
        "seed-underscore", "seeds-too-long", "config-seeds-too-long"])
def test_bad_seeds_exit_one_naming_their_flag(tmp_path, capsys, argv, message):
    configs = {"CONFIG": "seed = -4\n", "SEEDS_CONFIG": f"seeds = {LONG_SEED}\n"}
    for name, text in configs.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    argv = [str(tmp_path / a) if a in configs else a for a in argv]
    assert run(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--batch", "0"], "--batch must be >= 1, got 0"),
    (["train", "--lr", "-1"], "--lr must be finite and >= 0, got -1.0"),
    (["train", "--epochs", "0"], "--epochs must be >= 1, got 0"),
    (["train", "--momentum", "1"], "--momentum must be in [0, 1), got 1.0"),
    (["eval", "--model", "model.json", "--test-fraction", "0"],
     "--test-fraction must be in (0, 1), got 0.0"),
    (["reproduce", "table2", "--jobs", "0"], "--jobs must be >= 1, got 0"),
    (["reproduce", "table1", "--seeds", ","],
     "--seeds must be comma-separated non-negative integers, got ','"),
    (["probe", "sampled-loss", "--mu", "1.5"], "--mu must be in (0, 1], got 1.5"),
    (["probe", "sampled-loss", "--mu", "nan", "--trials", "1"], "--mu must be in (0, 1], got nan"),
    (["probe", "orbit", "--n", "0"], "--n must be >= 1, got 0"),
    (["probe", "goldstone", "--n", "-2"], "--n must be >= 1, got -2"),
    (["train", "--features", "cubic"],
     "--features must be one of identity, square, neighbor, perm, got 'cubic'"),
    (["train", "--config", "CONFIG:batch = 0"], "--batch must be >= 1, got 0"),
    (["train", "--config", "CONFIG:features = cubic"],
     "--features must be one of identity, square, neighbor, perm, got 'cubic'"),
    # only ASCII digits, and no digit-group underscores, as in the CSV parser
    (["train", "--epochs", "1_0"], "argument --epochs: invalid int value: '1_0'"),
    (["train", "--lr", "0.0_5"], "argument --lr: invalid float value: '0.0_5'"),
    (["train", "--lr", "\u0661.\u0665"], "argument --lr: invalid float value: '\u0661.\u0665'"),
    (["train", "--config", "CONFIG:epochs = 1_0"], "CONFIG: line 1: bad value for epochs"),
    (["train", "--config", "CONFIG:lr = 0.0_5"], "CONFIG: line 1: bad value for lr"),
    (["train", "--config", "CONFIG:epochs = 3\nseed = \u0663"],
     "CONFIG: line 2: not ASCII"),
    # a key set twice is an error, not the last value
    (["train", "--config", "CONFIG:epochs = 3\nepochs = 1"],
     "CONFIG: line 2: key 'epochs' repeats line 1"),
    (["data", "stats", "--data", ""], "--data must be a non-empty path, got ''"),
    (["data", "stats", "--config", "CONFIG:data ="], "--data must be a non-empty path, got ''"),
], ids=["batch", "lr", "epochs", "momentum", "test-fraction", "jobs", "seeds-empty", "mu",
        "mu-before-trials", "orbit-n", "goldstone-n", "features", "config-batch",
        "config-features", "epochs-underscore", "lr-underscore", "lr-arabic-indic",
        "config-epochs-underscore", "config-lr-underscore", "config-seed-arabic-indic",
        "config-repeated-key", "empty-data", "config-empty-data"])
def test_out_of_range_values_exit_one_naming_their_flag(tmp_path, capsys, argv, message):
    # a config file's values are checked like flags
    config = tmp_path / "run.cfg"
    config.write_text("".join(a[len("CONFIG:"):] + "\n" for a in argv if a.startswith("CONFIG:")),
                      encoding="utf-8")
    out = tmp_path / "out"
    argv = [str(config) if a.startswith("CONFIG:") else a for a in argv]
    assert run(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message.replace('CONFIG', str(config))}\n"
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_an_empty_out_is_a_usage_error(tmp_path, capsys, monkeypatch, how):
    # not the current directory: nothing is written there
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out =\n")
    argv = ["--out", ""] if how == "flag" else ["--config", "run.cfg"]
    assert run("data", "stats", *argv) == 1
    assert capsys.readouterr().err == "error: --out must be a non-empty path, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("argv, key, value", [
    (["train", "--lr", "5e-2"], "lr", 0.05),
    (["train", "--lr", ".05"], "lr", 0.05),
    (["train", "--momentum", "9E-1"], "momentum", 0.9),
    (["train", "--epochs", "+7"], "epochs", 7),
    (["probe", "orbit", "--seed", "007"], "seed", 7),
])
def test_ascii_numbers_still_parse(argv, key, value):
    assert _resolve(build_parser().parse_args(argv))[key] == value


_ASCII = st.characters(codec="ascii")
_CONFIG_VALUES = st.one_of(
    st.text(_ASCII, max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["0", "1", "-1", "0.5", "1e999", "nan", "yes", "False", "0,1", "1,1",
                     "perm", LONG_SEED]))
_CONFIG_LINES = st.one_of(
    st.text(_ASCII, max_size=20),
    st.builds("{} = {}".format, st.sampled_from(list(FLAGS)), _CONFIG_VALUES))
_PARSER = build_parser()  # parse_args leaves it unchanged


@pytest.mark.parametrize("command", ["train", "eval", "reproduce table1", "probe orbit",
                                     "probe sampled-loss", "data stats"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_CONFIG_LINES, max_size=6))
def test_any_ascii_config_file_resolves_or_is_a_usage_error(tmp_path, command, lines):
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(lines), encoding="ascii")
    args = _PARSER.parse_args([*command.split(), "--config", str(config)])
    try:
        resolved = _resolve(args)
    except CliError:
        return
    assert set(resolved) == {key for key in FLAGS if hasattr(args, key)}


def leaves(parser, command=""):
    """(command words, parser) for every leaf parser under ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for action in subparsers:
        for name, child in action.choices.items():
            yield from leaves(child, f"{command} {name}".strip())
    if not subparsers:
        yield command, parser


def _parser_rows():
    """command -> (keys, other flags, reads --data) for every command that
    build_parser defines."""
    rows = {}
    for command, parser in leaves(build_parser(), ""):
        optional = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        keys = {a.dest for a in optional if a.dest in DEFAULTS} - {"data", "out"}
        flags = {a.option_strings[0] for a in optional
                 if a.dest not in DEFAULTS and a.dest != "config"}
        row = (keys, flags, any(a.dest == "data" for a in optional))
        whats = [a.choices for a in parser._actions if not a.option_strings and a.choices]
        for what in whats[0] if whats else [None]:
            rows[f"{command} {what}" if what else command] = row
    return rows


def _readme_rows():
    """command -> (keys, other flags, reads --data) from README's table of
    each command's own flags and keys."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| command | its own flags and keys |\n|---|---|\n", 1)[1]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        commands, cell = (part.strip() for part in line.strip("|").split(" | "))
        first, _, whats = commands.strip("`").partition(" ")
        ticked = re.findall(r"`([^`]*)`", cell)
        keys = set() if cell == "none" else set(ticked[0].split())
        row = (keys, set(re.findall(r"the flag `(--[a-z-]+)`", cell)), "no `--data`" not in cell)
        for what in whats.split("\\|") if whats else [None]:
            rows[f"{first} {what}" if what else first] = row
    return rows


def test_readme_flag_table_matches_the_parsers():
    assert _readme_rows() == _parser_rows()


@pytest.mark.parametrize("command, extra, keys", [
    ("data stats", ["--data", "CSV"], "data"),
    ("train", ["--data", "CSV", "--epochs", "1"],
     "data seed test_fraction bias features perm_seed epochs lr batch momentum"),
    ("eval", ["--data", "CSV", "--model", "MODEL"], "data seed test_fraction invert"),
    ("reproduce figure1", ["--data", "CSV"], "data"),
    ("probe orbit", ["--n", "8"], "seed n"),
    ("probe sampled-loss", ["--data", "CSV", "--trials", "2"], "data seed mu trials samples"),
], ids=["data-stats", "train", "eval", "reproduce-figure1", "probe-orbit",
        "probe-sampled-loss"])
def test_manifest_names_the_command(tmp_path, small_csv, command, extra, keys):
    model = tmp_path / "model.json"
    save_model(model, init_mlp((64, 10, 5, 10), False, 0), Identity())
    extra = [{"MODEL": str(model), "CSV": small_csv}.get(arg, arg) for arg in extra]
    out = tmp_path / "out"
    assert run(*command.split(), *extra, "--out", str(out)) == 0
    written = manifest(out)
    assert written["command"] == command
    assert set(written) == {"command", "config", "version", "timestamp"}
    # the config echoes the keys the command reads, and no other
    assert set(written["config"]) == {"out", *keys.split()}


def test_config_file_and_flag_precedence(tmp_path, small_csv):
    config = tmp_path / "run.cfg"
    config.write_text("epochs=2\nseed=3\n# comment\nlr=0.01\n")
    out = tmp_path / "out"
    assert run("train", "--data", small_csv, "--config", str(config),
               "--epochs", "1", "--out", str(out)) == 0
    curve = (out / "training_curve.csv").read_text().splitlines()
    assert len(curve) == 2  # flag --epochs 1 beat the file's epochs=2
    config = manifest(out)["config"]
    assert config["seed"] == 3  # file value beat the default
    assert config["lr"] == 0.01


@pytest.mark.parametrize("argv, flag", [
    (["data", "stats", "--seed", "1"], "--seed"),
    (["probe", "orbit", "--n", "8", "--test-fraction", "0.5"], "--test-fraction"),
    (["reproduce", "figure1", "--epochs", "3"], "--epochs"),
    (["reproduce", "figure1", "--seeds", "7"], "--seeds"),
    (["reproduce", "figure1", "--jobs", "2"], "--jobs"),
    (["reproduce", "figure1", "--test-fraction", "0.5"], "--test-fraction"),
    (["probe", "orbit", "--n", "8", "--mu", "0.9"], "--mu"),
    (["probe", "orbit", "--n", "8", "--trials", "5"], "--trials"),
    (["probe", "orbit", "--n", "8", "--data", "CSV"], "--data"),
    (["probe", "goldstone", "--n", "8", "--samples", "5"], "--samples"),
    (["probe", "weight-flip", "--n", "8"], "--n"),
    (["probe", "sampled-loss", "--model", "model.json"], "--model"),
], ids=["data-seed", "probe-test-fraction", "figure1-epochs", "figure1-seeds",
        "figure1-jobs", "figure1-test-fraction", "orbit-mu", "orbit-trials", "orbit-data",
        "goldstone-samples", "weight-flip-n", "sampled-loss-model"])
def test_commands_reject_flags_they_do_not_read(tmp_path, small_csv, capsys, argv, flag):
    out = tmp_path / "out"
    argv = [small_csv if arg == "CSV" else arg for arg in argv]
    assert run(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: unrecognized arguments: {flag}")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, key", [
    ("reproduce figure1", "epochs=3"),
    ("probe orbit", "mu=0.9"),
    ("probe goldstone", "data=x.csv"),
], ids=["figure1-epochs", "orbit-mu", "goldstone-data"])
def test_config_keys_a_what_does_not_read_are_usage_errors(tmp_path, capsys, command, key):
    config = tmp_path / "run.cfg"
    config.write_text(key + "\n")
    out = tmp_path / "out"
    assert run(*command.split(), "--config", str(config), "--out", str(out)) == 1
    name = key.split("=")[0]
    assert capsys.readouterr().err == f"error: {config}: line 1: unknown key {name!r}\n"
    assert not (out / "manifest.json").exists()


def test_config_keys_the_command_does_not_read_are_usage_errors(tmp_path, small_csv, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("epochs=1\nbias=1\n")
    out = tmp_path / "out"
    assert run("reproduce", "table2", "--data", small_csv, "--seeds", "0",
               "--config", str(config), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {config}: line 2: unknown key 'bias'\n"
    assert not (out / "manifest.json").exists()


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
    assert manifest(out)["config"]["bias"] is True


def test_diverged_training_exits_two_naming_epoch(tmp_path, small_csv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # divergence is reported once, as a check failure
        code = run("train", "--data", small_csv, "--epochs", "2", "--lr", "1e308",
                   "--momentum", "0.99", "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("check failed: ") and " in epoch 1" in err
    assert not (tmp_path / "out" / "model.json").exists()


def test_usage_errors_exit_one(tmp_path):
    out = tmp_path / "eval"
    assert run("eval", "--out", str(out)) == 1    # missing --model
    assert not (out / "manifest.json").exists()   # a usage error records no run
    assert run("train", "--features", "cubic") == 1


@pytest.mark.parametrize("argv, message", [
    (["eval"], "eval requires --model"),
    (["probe", "sampled-loss", "--samples", "0"], "--samples must be in 1..1797, got 0"),
    (["probe", "sampled-loss", "--samples", "1798"], "--samples must be in 1..1797, got 1798"),
    (["probe", "weight-flip", "--model", "BIAS_MODEL"],
     "weight-flip probe needs a bias-free identity-feature model"),
], ids=["eval-without-model", "samples-zero", "samples-above-corpus", "weight-flip-bias-model"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_usage_errors_in_a_command_leave_no_directory_behind(tmp_path, capsys, argv, message,
                                                             existing):
    model = tmp_path / "bias-model.json"
    save_model(model, init_mlp((64, 10, 5, 10), True, 0), Identity())
    out = tmp_path / "runs" / "out"  # main makes both levels
    if existing:
        out.mkdir(parents=True)
        (out / "kept.txt").write_text("kept")
    argv = [str(model) if a == "BIAS_MODEL" else a for a in argv]
    assert run(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    if existing:  # left as it was
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
    else:
        assert not (tmp_path / "runs").exists()


def run_process(*argv):
    """Run the CLI in a fresh interpreter, so an escaping exception shows as
    a traceback on stderr."""
    src = str(Path(symdigits.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "symdigits.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command, model_doc", [
    (["probe", "weight-flip"], {"format": "symdigits-model-v1"}),
    (["eval"], {"format": "symdigits-model-v1", "dims": [64, 10], "use_bias": False,
                "feature_map": {"kind": "identity"}, "layers": [1]}),
], ids=["weight-flip-no-layers", "eval-int-layer"])
def test_malformed_model_file_exits_one_naming_it(tmp_path, small_csv, command, model_doc):
    model = tmp_path / "broken-model.json"
    model.write_text(json.dumps(model_doc))
    proc = run_process(*command, "--model", str(model),
                       "--data", small_csv, "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert str(model) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("dims", [(64, 10, 1), (64, 10, 5), (64, 10, 12), (36, 10, 10)],
                         ids=["1-output", "5-output", "12-output", "36-input"])
@pytest.mark.parametrize("command", [["eval"], ["probe", "weight-flip"]],
                         ids=["eval", "weight-flip"])
def test_model_not_of_64_pixels_to_10_classes_exits_one_naming_it(tmp_path, small_csv, capsys,
                                                                 command, dims):
    model = tmp_path / "model.json"
    save_model(model, init_mlp(dims, False, 3), Identity())
    out = tmp_path / "out"
    assert main([*command, "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: model file {model} maps {dims[0]} inputs to {dims[-1]} outputs; "
        "need 64 pixels to 10 classes\n")
    assert not out.exists()


def _model_text_with_weight(weight_text):
    """A valid model file's text with its first weight written as ``weight_text``."""
    doc = model_to_dict(init_mlp((64, 10), False, 0), Identity())
    doc["layers"][0]["weights"][0][0] = "@weight@"
    return json.dumps(doc).replace('"@weight@"', weight_text)


@pytest.mark.parametrize("text", [_model_text_with_weight("1" + "0" * 400), "[" * 100_000],
                         ids=["int-beyond-float", "nested-100000-deep"])
def test_unloadable_model_exits_one_and_leaves_no_out(tmp_path, small_csv, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text, encoding="ascii")
    out = tmp_path / "out"
    assert main(["eval", "--model", str(model), "--data", small_csv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: malformed model file {model}: ")
    assert not out.exists()


def _csv_row(fields):
    return ",".join(str(v) for v in fields)


GOOD_ROW = [0] * 64 + [3]


@pytest.mark.parametrize("bad_line, where", [
    (_csv_row(GOOD_ROW[:-1]), "line 3"),
    (_csv_row([17] + GOOD_ROW[1:]), "line 3"),
    (_csv_row(GOOD_ROW[:-1] + [10]), "line 3"),
    (_csv_row(GOOD_ROW[:-1] + ["2.5"]), "line 3"),
    (None, "empty"),
], ids=["field-count", "pixel-17", "label-10", "non-integer", "empty"])
def test_malformed_csv_exits_one_naming_file_and_line(tmp_path, bad_line, where):
    data = tmp_path / "bad.csv"
    data.write_text("" if bad_line is None
                    else "\n".join([_csv_row(GOOD_ROW)] * 2 + [bad_line, _csv_row(GOOD_ROW)]) + "\n")
    out = tmp_path / "out"
    proc = run_process("train", "--data", str(data), "--out", str(out), "--epochs", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert f"{data}: {where}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("samples", ["0", "-5", "99999"])
def test_sampled_loss_samples_outside_the_corpus_exit_one(tmp_path, samples):
    out = tmp_path / "out"
    proc = run_process("probe", "sampled-loss", "--samples", samples, "--trials", "2",
                       "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"error: --samples must be in 1..1797, got {samples}\n"
    assert not (out / "manifest.json").exists()


def test_outputs_are_idempotent_except_manifest(tmp_path, small_csv):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run("train", "--data", small_csv, "--epochs", "2", "--out", str(out))
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    assert (a / "training_curve.csv").read_bytes() == (b / "training_curve.csv").read_bytes()
    assert (a / "train_report.json").read_bytes() == (b / "train_report.json").read_bytes()


# ---------------------------------------------------------------------------
# a call builds only its command's leaf parser
# ---------------------------------------------------------------------------


def reference_parser():
    """The full parser as every call built it before a call built only its
    own command's leaf, copied verbatim but for its imports."""
    parser = cli._Parser(
        prog="symdigits",
        description="Inversion-symmetric digit models: training, tables, probes.")
    parser.add_argument("--version", action="version", version=symdigits.__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (runner, text, keys, others) in COMMANDS.items():
        command, _, what = name.partition(" ")
        if what and command not in groups:
            group = commands.add_parser(command, help=cli._GROUPS[command])
            groups[command] = group.add_subparsers(dest="what", required=True)
        p = (groups[command] if what else commands).add_parser(what or command, help=text)
        p.set_defaults(func=runner)
        p.add_argument("--config", help="flat key=value config file")
        for key in ("out", *keys.split()):
            cli._add_flag(p, key)
        for flag, flag_text in others.items():
            p.add_argument(flag, help=flag_text)
    return parser


def _options(parser):
    """What a parser accepts, field by field, and its help text."""
    fields = ("option_strings", "dest", "default", "help", "type", "nargs", "const", "required")
    return ([tuple(getattr(a, f) for f in fields) for a in parser._actions],
            parser._defaults, parser.format_help())


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_leaf_parser_built_alone_is_its_leaf_in_the_full_parser(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    in_full = dict(leaves(build_parser()))[command]
    assert _options(build_parser(command)) == _options(in_full)
    # as before, but for the command's words, now defaults of the leaf
    options, defaults, text = _options(in_full)
    old_options, old_defaults, old_text = _options(dict(leaves(reference_parser()))[command])
    assert (options, text) == (old_options, old_text)
    first, _, what = command.partition(" ")
    assert defaults == {**old_defaults, "command": first, "what": what or None}


def _stream_of(capsys, call):
    """(stdout, stderr, exit status) of a call that may exit through argparse."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize("argv", [
    ["train", "--bogus"], ["train", "--epo", "3"], ["reproduce", "table1", "--seed", "0"],
    ["bogus"], ["reproduce"], ["data", "--out", "d", "stats"], [],
    ["train", "--epochs", "x"], ["train", "--bias", "--no-bias"],
    ["eval", "--invert", "--no-invert"], ["eval", "--model"],
    ["probe", "orbit", "extra"], ["train", "--", "x"], ["train", "--out=d", "--version"],
], ids=["unknown-flag", "abbreviated-flag", "abbreviated-seeds", "unknown-command",
        "missing-second-word", "flag-before-second-word", "no-command", "bad-int",
        "exclusive-flags", "exclusive-invert-flags", "missing-value", "extra-word",
        "double-dash", "leaf-version"])
def test_usage_errors_read_as_with_the_full_parser(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a parse that succeeded would write here
    with pytest.raises(CliError) as expected:
        reference_parser().parse_args(argv)
    assert _stream_of(capsys, lambda: main(argv)) == ("", f"error: {expected.value}\n", 1)
    command = cli._command_of(argv)
    if command:  # the leaf alone says it too
        with pytest.raises(CliError, match=re.escape(str(expected.value))):
            build_parser(command).parse_args(argv[command.count(" ") + 1:])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["--version"], ["probe", "--help"], ["reproduce", "-h"],
    *([*command.split(), "--help"] for command in COMMANDS),
    ["train", "--epochs", "3", "-h"],
], ids=lambda argv: " ".join(argv) or "none")
def test_help_and_version_print_what_they_printed_before(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    before = _stream_of(capsys, lambda: reference_parser().parse_args(argv))
    assert before[0] and before[1:] == ("", 0)
    assert _stream_of(capsys, lambda: main(argv)) == before


def test_a_call_builds_one_leaf_parser(tmp_path, small_csv, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert run("train", "--data", small_csv, "--epochs", "1", "--out", str(tmp_path / "t")) == 0
    assert built == ["symdigits train"]
    built.clear()
    build_parser()  # the full parser: 1 + 3 groups + 11 leaves
    assert len(built) == 1 + len(cli._GROUPS) + len(COMMANDS)
