"""End-to-end tests for the command-line interface.

Each test drives ``confshift.cli.main`` in process with a scratch directory,
then inspects the CSV/JSON artifacts. Exit-code contract: 0 success, 2 bad
data, 3 bad configuration.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from confshift import cli
from confshift.cli import _TABLES, main
from confshift.core import Dataset, read_dataset, read_table
from confshift.scores import KNNQuantileModel
from confshift.simulate import _UNREAD, SimConfig
from confshift.worstcase import DiscreteJoint, lp_oracle_marginal, worst_cdf_marginal
from conftest import write_units


# ---------------------------------------------------------------------------
# Fixtures: a small observational CSV corpus shared across tests
# ---------------------------------------------------------------------------


def _toy_dataset(n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 2))
    t = (rng.uniform(size=n) < 0.5).astype(int)
    t[:2] = [0, 1]  # both arms always present
    y = x @ np.array([1.0, -0.5]) + 0.3 * t + rng.normal(scale=0.2, size=n)
    return Dataset(x, t, y)


def _write_xmatrix(path, x, t=None, y=None) -> None:
    header = [f"x{j + 1}" for j in range(x.shape[1])]
    rows = [[repr(float(v)) for v in row] for row in x]
    if t is not None:
        header += ["t", "y"]
        for i, row in enumerate(rows):
            row += [str(int(t[i])), repr(float(y[i]))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    train = _toy_dataset(160, seed=5)
    calib = _toy_dataset(90, seed=6)
    write_units(str(root / "train.csv"), train)
    write_units(str(root / "calib.csv"), calib)
    test = _toy_dataset(12, seed=7)
    _write_xmatrix(root / "test.csv", test.x)
    obs = _toy_dataset(10, seed=8)
    _write_xmatrix(root / "obstest.csv", obs.x, obs.t, obs.y)
    # two-atom worst-case instance with known closed form
    with open(root / "instance.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("v,lo,hi,m\n1.0,0.5,2.0,0.5\n2.0,0.5,2.0,0.5\n")
    return {k: str(root / f"{k}.csv")
            for k in ("train", "calib", "test", "obstest", "instance")}


def _read_csv(path):
    """Return (stamp_line, header, rows) from a stamped output file."""
    with open(path, encoding="utf-8") as fh:
        stamp = fh.readline().rstrip("\n")
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return stamp, header, rows


def _manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_predict(corpus, out_dir, *extra):
    return main([
        "predict", "--train", corpus["train"], "--calib", corpus["calib"],
        "--test", corpus["test"], "--out-dir", str(out_dir), *extra,
    ])


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_happy_path(corpus, tmp_path):
    out = tmp_path / "run"
    rc = _run_predict(corpus, out, "--alpha", "0.2", "--gamma", "1.5,1.0")
    assert rc == 0

    stamp, header, rows = _read_csv(out / "intervals.csv")
    assert header == ["row", "gamma", "v_hat", "lo", "hi",
                      "unbounded_lo", "unbounded_hi"]
    assert len(rows) == 2 * 12  # gammas x test rows

    manifest = _manifest(out)
    assert manifest["command"] == "predict"
    assert sorted(manifest["outputs"]) == ["intervals.csv", "manifest.json"]
    assert stamp == f"# confshift config_hash={manifest['config_hash']} seed=0"
    # manifest stores canonical strings; gamma keeps the given order
    assert manifest["config"]["gamma"] == "1.5,1.0"
    assert manifest["config"]["alpha"] == "0.2"

    # rows grouped by ascending gamma, unit ids restart at 1
    gammas = [float(r[1]) for r in rows]
    assert gammas == [1.0] * 12 + [1.5] * 12
    assert [int(r[0]) for r in rows[:12]] == list(range(1, 13))
    for r in rows:
        lo_empty, hi_empty = r[3] == "", r[4] == ""
        assert (r[5] == "1") == lo_empty
        assert (r[6] == "1") == hi_empty


def test_predict_gamma_widens_thresholds(corpus, tmp_path):
    out = tmp_path / "run"
    assert _run_predict(corpus, out, "--gamma", "1.0,2.5") == 0
    _, _, rows = _read_csv(out / "intervals.csv")

    def v_hat(row):
        return math.inf if row[2] == "" else float(row[2])

    narrow, wide = rows[:12], rows[12:]
    for a, b in zip(narrow, wide):
        assert a[0] == b[0]
        assert v_hat(b) >= v_hat(a)


def test_predict_alg2_threshold_constant_over_rows(corpus, tmp_path):
    out = tmp_path / "run"
    rc = _run_predict(corpus, out, "--method", "alg2:plugin", "--alpha", "0.3")
    assert rc == 0
    _, _, rows = _read_csv(out / "intervals.csv")
    assert len({r[2] for r in rows}) == 1


def test_predict_reruns_are_byte_identical(corpus, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert _run_predict(corpus, out, "--gamma", "1.0,1.8") == 0
    bytes_a = (out_a / "intervals.csv").read_bytes()
    assert bytes_a == (out_b / "intervals.csv").read_bytes()
    assert _manifest(out_a)["config_hash"] == _manifest(out_b)["config_hash"]


def test_predict_split_calibration_without_calib_file(corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["predict", "--train", corpus["train"], "--test", corpus["test"],
               "--out-dir", str(out), "--train-fraction", "0.6", "--seed", "4"])
    assert rc == 0
    stamp, _, rows = _read_csv(out / "intervals.csv")
    assert stamp.endswith("seed=4")
    assert len(rows) == 12


# ---------------------------------------------------------------------------
# calibration row order
# ---------------------------------------------------------------------------

_ALL_METHODS = ("alg1", "alg2:plugin", "alg2:hoeffding", "alg2:wsr")


def _run_on_calib(corpus, calib_path, out, command, method, seed="0"):
    """Run ``command`` with ``calib_path`` as --calib; return each CSV it
    wrote, without the stamp line (which hashes the input paths)."""
    extra = (["--test", corpus["test"], "--gamma", "1.0,1.5,2.5"] if command == "predict"
             else ["--test", corpus["obstest"], "--gamma-grid", _SENS_GRID])
    assert main([command, "--train", corpus["train"], "--calib", str(calib_path), *extra,
                 "--method", method, "--alpha", "0.3", "--seed", seed,
                 "--out-dir", str(out)]) == 0
    return {name: (out / name).read_bytes().split(b"\n", 1)[1]
            for name in sorted(os.listdir(out)) if name.endswith(".csv")}


@pytest.mark.parametrize("command", ["predict", "sensitivity"])
def test_a_calib_file_sorted_by_outcome_gives_the_same_alg2_wsr_outputs(corpus, tmp_path,
                                                                       command):
    """alg2:wsr's certificate reads the calibration units in order, and it
    used to take a --calib file's row order: the corpus file sorted by y, or
    by -y, moved its thresholds. The fold is now sorted canonically and then
    permuted with --seed, so all three files give the same bytes."""
    calib = read_dataset(corpus["calib"])
    paths = [corpus["calib"]]
    for name, order in (("up", np.argsort(calib.y)), ("down", np.argsort(-calib.y))):
        paths.append(tmp_path / f"calib_{name}.csv")
        write_units(str(paths[-1]), calib.subset(order))
    got = [_run_on_calib(corpus, p, tmp_path / f"run{i}", command, "alg2:wsr")
           for i, p in enumerate(paths)]
    assert got[0] == got[1] == got[2]


def test_the_seed_orders_a_calib_file_for_alg2_wsr(corpus, tmp_path):
    """With --calib given, --seed picks the fold's order, so it moves the
    alg2:wsr threshold; alg1 does not read the order."""
    for method, moves in (("alg2:wsr", True), ("alg1", False)):
        runs = [_run_on_calib(corpus, corpus["calib"], tmp_path / f"{method}-{seed}", "predict",
                              method, seed) for seed in ("0", "1")]
        assert (runs[0] != runs[1]) == moves


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(8, 40), ties=st.booleans(),
       data=st.data())
def test_calib_row_order_never_changes_an_output(corpus, seed, n, ties, data):
    """Any permutation of a --calib file's rows leaves every CSV that
    predict and sensitivity write byte-identical below the stamp line, under
    every method. With ``ties`` the covariates and outcomes are rounded to
    one decimal, so rows tie on leading sort keys and some repeat whole."""
    calib = _toy_dataset(n, seed)
    if ties:
        calib = Dataset(np.round(calib.x, 1), calib.t, np.round(calib.y, 1))
    order = np.array(data.draw(st.permutations(range(n))))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_units(str(root / "a.csv"), calib)
        write_units(str(root / "b.csv"), calib.subset(order))
        for command in ("predict", "sensitivity"):
            for method in _ALL_METHODS:
                runs = [_run_on_calib(corpus, root / f"{name}.csv",
                                      root / f"{command}-{method}-{name}", command, method)
                        for name in ("a", "b")]
                assert runs[0] == runs[1], (command, method)


@pytest.mark.parametrize("flags,message", [
    (["--arm", "2"], "arm must be 0 or 1, got 2"),
    (["--gamma", "0.5"], "gamma must be finite and >= 1, got 0.5"),
    (["--train-fraction", "1.5"], "train_fraction must be in (0, 1), got 1.5"),
])
def test_predict_library_checks_exit_3(corpus, tmp_path, capsys, flags, message):
    out = tmp_path / "o"
    assert main(["predict", "--train", corpus["train"], "--test", corpus["test"],
                 *flags, "--out-dir", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not (out / "intervals.csv").exists()


@pytest.mark.parametrize("command,flags", [
    ("predict", ["--gamma", "1,0.5"]),
    ("predict", ["--arm", "2"]),
    ("sensitivity", ["--gamma-grid", "2,3"]),
    ("simulate", ["--arm", "2"]),
    ("predict", ["--seed", "-1"]),
    ("sensitivity", ["--seed", "-1"]),
    ("simulate", ["--seed", "-1"]),
    ("predict", ["--alpha", "1.5", "--delta", "0", "--k", "0"]),
    ("predict", ["--delta", "9"]),
    ("predict", ["--delta", "9", "--method", "alg2:plugin"]),
    ("predict", ["--k", "0"]),
    ("sensitivity", ["--alpha", "0"]),
    ("simulate", ["--n-eval-gap", "-5"]),
    ("simulate", ["--n-reps", "0"]),
    ("simulate", ["--alphas", "0.2,1.5"]),
    ("simulate", ["--delta", "9"]),
    ("simulate", ["--grid", "2,3"]),
    ("predict", ["--train-fraction", "1.5"]),
    ("simulate", ["--alphas", "0.2,0.2"]),
    ("predict", ["--gamma", "1.5,1.5"]),
    # One over each count cap: refused by the parser, never run.
    *[("simulate", [flag, str(cap + 1)]) for flag, cap in (
        ("--n-train", cli._MAX_UNITS), ("--n-calib", cli._MAX_UNITS),
        ("--n-test", cli._MAX_UNITS), ("--n-eval-gap", cli._MAX_UNITS),
        ("--p", cli._MAX_P), ("--n-reps", cli._MAX_REPS))],
    ("predict", ["--k", str(cli._MAX_UNITS + 1)]),
    ("sensitivity", ["--k", str(cli._MAX_UNITS + 1)]),
])
def test_option_values_are_checked_before_any_file_is_read(tmp_path, capsys, command, flags):
    # A malformed data file would exit 2 if it were read first.
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,t,y\n0.1,1,oops\n", encoding="utf-8")
    files = [] if command == "simulate" else ["--train", str(bad), "--test", str(bad)]
    out = tmp_path / "o"
    assert main([command, *files, *flags, "--out-dir", str(out)]) == 3
    assert f"bad value for {flags[0][2:].replace('-', '_')}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flags,key", [
    ("predict", ["--delta", "0.1"], "delta"),
    ("predict", ["--delta", "0.1", "--method", "alg2:plugin"], "delta"),
    ("sensitivity", ["--delta", "0.1", "--method", "alg1"], "delta"),
    ("predict", ["--calib", "bad", "--train-fraction", "0.3"], "train_fraction"),
    ("sensitivity", ["--calib", "bad", "--train-fraction", "0.3"], "train_fraction"),
])
def test_unread_fold_settings_exit_3_before_any_file_is_read(tmp_path, capsys, command,
                                                             flags, key):
    # A malformed data file would exit 2 if it were read first.
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,t,y\n0.1,1,oops\n", encoding="utf-8")
    flags = [str(bad) if f == "bad" else f for f in flags]
    out = tmp_path / "o"
    assert main([command, "--train", str(bad), "--test", str(bad), *flags,
                 "--out-dir", str(out)]) == 3
    assert f"{key} is not read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--delta", "0.05"],
    ["--train-fraction", "0.5"],
])
def test_unread_fold_settings_at_their_default_are_accepted(corpus, tmp_path, flags):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    folds = ["--train", corpus["train"], "--calib", corpus["calib"], "--test", corpus["test"]]
    assert main(["predict", *folds, "--out-dir", str(out_a)]) == 0
    assert main(["predict", *folds, *flags, "--out-dir", str(out_b)]) == 0
    assert (out_a / "intervals.csv").read_bytes() == (out_b / "intervals.csv").read_bytes()
    assert _manifest(out_a)["config_hash"] == _manifest(out_b)["config_hash"]


# ---------------------------------------------------------------------------
# configuration file handling
# ---------------------------------------------------------------------------


def test_config_file_flags_take_precedence(corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.5\nseed = 9\n# a comment\ngamma = 1.0,2.0\n",
                   encoding="utf-8")
    out = tmp_path / "run"
    rc = _run_predict(corpus, out, "--config", str(cfg), "--alpha", "0.2")
    assert rc == 0
    config = _manifest(out)["config"]
    assert config["alpha"] == "0.2"   # flag wins over file
    assert config["seed"] == "9"      # file wins over default
    assert config["gamma"] == "1.0,2.0"
    assert "config" not in config     # the file path itself is not config


def test_unknown_config_key_is_rejected(corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus=1\n", encoding="utf-8")
    assert _run_predict(corpus, tmp_path / "o", "--config", str(cfg)) == 3
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_config_values_exit_3(corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha=oops\n", encoding="utf-8")
    assert _run_predict(corpus, tmp_path / "o", "--config", str(cfg)) == 3
    assert "bad value for alpha" in capsys.readouterr().err

    cfg.write_text("just a line\n", encoding="utf-8")
    assert _run_predict(corpus, tmp_path / "o2", "--config", str(cfg)) == 3
    assert "expected key=value" in capsys.readouterr().err


def test_missing_required_and_missing_file_exit_3(corpus, tmp_path, capsys):
    assert main(["predict", "--test", corpus["test"],
                 "--out-dir", str(tmp_path)]) == 3
    assert "missing required key: train" in capsys.readouterr().err

    assert main(["predict", "--train", str(tmp_path / "nope.csv"),
                 "--test", corpus["test"], "--out-dir", str(tmp_path)]) == 3
    assert "train file does not exist" in capsys.readouterr().err


def test_bad_method_and_usage_errors_exit_3(corpus, tmp_path, capsys):
    assert _run_predict(corpus, tmp_path / "o", "--method", "alg3") == 3
    assert "bad value for method" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--no-such-flag", "1"])
    assert exc.value.code == 3


@pytest.mark.parametrize("command,option,value", [
    ("predict", "--gamma", "nan"),
    ("predict", "--alpha", "nan"),
    ("sensitivity", "--gamma-grid", "1,nan"),
    ("sensitivity", "--null-a", "nan"),
    ("worstcase", "--at", "nan"),
    ("worstcase", "--at", "inf"),
    ("simulate", "--gamma-bounds", "nan"),
    ("simulate", "--gamma-true", "nan"),
    ("simulate", "--gamma-true", "inf"),
])
def test_nonfinite_config_value_exits_3(corpus, tmp_path, capsys, command, option, value):
    args = {
        "predict": ["predict", "--train", corpus["train"], "--calib", corpus["calib"],
                    "--test", corpus["test"]],
        "sensitivity": ["sensitivity", "--train", corpus["train"], "--calib",
                        corpus["calib"], "--test", corpus["obstest"]],
        "worstcase": ["worstcase", "--instance", corpus["instance"]],
        "simulate": ["simulate", "--kind", "coverage", "--n-train", "60", "--n-calib", "40",
                     "--n-test", "5", "--n-reps", "1", "--threads", "1"],
    }[command]
    out = tmp_path / "o"
    assert main([*args, option, value, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"bad value for {option[2:].replace('-', '_')}" in err
    assert "not a finite number" in err
    assert not out.exists() or not os.listdir(out)


def test_bad_data_exits_2(corpus, tmp_path, capsys):
    bad = tmp_path / "bad_train.csv"
    bad.write_text("x1,x2,t,y\n0.1,0.2,1,oops\n0.3,0.1,0,1.0\n",
                   encoding="utf-8")
    rc = main(["predict", "--train", str(bad), "--test", corpus["test"],
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err

    wide = tmp_path / "wide_test.csv"
    wide.write_text("x1,x2,x3\n0.1,0.2,0.3\n", encoding="utf-8")
    rc = main(["predict", "--train", corpus["train"], "--calib",
               corpus["calib"], "--test", str(wide),
               "--out-dir", str(tmp_path / "o2")])
    assert rc == 2
    assert "covariates" in capsys.readouterr().err

    wide_calib = tmp_path / "wide_calib.csv"
    wide_calib.write_text("x1,x2,x3,t,y\n0.1,0.2,0.3,0,1.0\n0.3,0.1,0.2,1,0.5\n",
                          encoding="utf-8")
    rc = main(["predict", "--train", corpus["train"], "--calib", str(wide_calib),
               "--test", corpus["test"], "--out-dir", str(tmp_path / "o3")])
    assert rc == 2
    assert "calibration has 3 covariates, training has 2" in capsys.readouterr().err


def test_single_arm_calibration_exits_2(corpus, tmp_path, capsys):
    ds = _toy_dataset(40, seed=9)
    treated = ds.arm(1)
    path = tmp_path / "treated_only.csv"
    write_units(str(path), treated)
    rc = main(["predict", "--train", corpus["train"], "--calib", str(path),
               "--test", corpus["test"], "--arm", "0",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "calibration data has no units with t=0" in capsys.readouterr().err
    # A one-arm training file is refused before the propensity fit.
    for command, test in (("predict", "test"), ("sensitivity", "obstest")):
        rc = main([command, "--train", str(path), "--calib", corpus["calib"],
                   "--test", corpus[test], "--out-dir", str(tmp_path / "o2")])
        assert rc == 2
        assert "training data has no units with t=0" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["alg1", "alg2:wsr"])
def test_nonfinite_dataset_cell_exits_2(corpus, tmp_path, capsys, method):
    calib = tmp_path / "calib_nan.csv"
    lines = open(corpus["calib"], encoding="utf-8").read().splitlines()
    treated = next(i for i, line in enumerate(lines) if line.split(",")[2] == "1")
    cells = lines[treated].split(",")
    lines[treated] = ",".join(cells[:3] + ["nan"])
    calib.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["predict", "--train", corpus["train"], "--calib", str(calib),
               "--test", corpus["test"], "--method", method,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert f"calib_nan.csv row {treated + 1}: column 'y' is not a finite number" \
        in capsys.readouterr().err


def test_nonfinite_test_covariate_exits_2(corpus, tmp_path, capsys):
    test = tmp_path / "test_inf.csv"
    test.write_text("x1,x2\n0.1,0.2\n0.3,inf\n", encoding="utf-8")
    rc = main(["predict", "--train", corpus["train"], "--calib", corpus["calib"],
               "--test", str(test), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "test_inf.csv row 3: column 'x2' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o" / "intervals.csv").exists()


def test_nonfinite_instance_atom_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst_nan.csv"
    inst.write_text("v,lo,hi,m\n1.0,0.5,2.0,0.5\nnan,0.5,2.0,0.5\n", encoding="utf-8")
    assert main(["worstcase", "--instance", str(inst),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "inst_nan.csv row 3: column 'v' is not a finite number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# units-file column rule, the same for train and test files
# ---------------------------------------------------------------------------


def _rewrite_units(src, dst, header=None, edit=None) -> None:
    """Copy a units CSV with its columns in ``header`` order (new ones filled
    with 0), after ``edit(i, record)`` has changed the records it wants."""
    with open(src, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    records = [dict(zip(rows[0], r)) for r in rows[1:]]
    if edit is not None:
        for i, record in enumerate(records):
            edit(i, record)
    header = header or rows[0]
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([r.get(c, "0") for c in header] for r in records)


def _units_file(corpus, role):
    return corpus["train"] if role == "train" else corpus["obstest"]


def _predict_with(corpus, out, role, path):
    files = {"train": corpus["train"], "calib": corpus["calib"], "test": corpus["test"],
             role: str(path)}
    return main(["predict", "--train", files["train"], "--calib", files["calib"],
                 "--test", files["test"], "--out-dir", str(out)])


@pytest.mark.parametrize("role", ["train", "test"])
def test_units_covariates_in_any_order_and_float_t(corpus, tmp_path, role):
    """Permuted columns and t written as 1.0/0.0 give the same intervals."""
    moved = tmp_path / "moved.csv"
    _rewrite_units(_units_file(corpus, role), moved, header=["y", "x2", "t", "x1"],
                   edit=lambda i, r: r.update(t=r["t"] + ".0"))
    assert _predict_with(corpus, tmp_path / "a", role, _units_file(corpus, role)) == 0
    assert _predict_with(corpus, tmp_path / "b", role, moved) == 0
    a, b = ((tmp_path / d / "intervals.csv").read_bytes().split(b"\n", 1)[1] for d in "ab")
    assert a == b


@pytest.mark.parametrize("role", ["train", "test"])
def test_units_unknown_column_exits_2(corpus, tmp_path, capsys, role):
    bad = tmp_path / "extra.csv"
    _rewrite_units(_units_file(corpus, role), bad, header=["x1", "x2", "z", "t", "y"])
    assert _predict_with(corpus, tmp_path / "o", role, bad) == 2
    assert "extra.csv: unknown column 'z'" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["train", "test"])
@pytest.mark.parametrize("value", ["2", "nan"])
def test_units_bad_treatment_exits_2(corpus, tmp_path, capsys, role, value):
    bad = tmp_path / "bad_t.csv"
    _rewrite_units(_units_file(corpus, role), bad,
                   edit=lambda i, r: r.update(t=value) if i == 3 else None)
    assert _predict_with(corpus, tmp_path / "o", role, bad) == 2
    assert "bad_t.csv row 5: column 't'" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["train", "test"])
def test_covariate_norm_overflow_exits_2(corpus, tmp_path, capsys, role):
    # A covariate at 1e200 used to pass with exit 0: as a test row it got the
    # all-points quantile, since every squared distance overflowed to +inf
    # and the whole row tied.
    big = tmp_path / "big.csv"
    _rewrite_units(_units_file(corpus, role), big,
                   edit=lambda i, r: r.update(x1="1e200") if i == 3 else None)
    assert _predict_with(corpus, tmp_path / "o", role, big) == 2
    assert "big.csv row 5: covariates have squared norm inf" in capsys.readouterr().err
    assert not (tmp_path / "o" / "intervals.csv").exists()


@pytest.mark.parametrize("command,test", [("predict", "test"), ("sensitivity", "obstest")])
@pytest.mark.parametrize("role", ["train", "calib", "test"])
@pytest.mark.parametrize("extra", [["y1"], ["y0"], ["y1", "y0"]])
def test_a_units_file_with_y1_or_y0_exits_2(corpus, tmp_path, capsys, command, test, role,
                                             extra):
    """A units file carries x1..xp, t and y only: the counterfactual pair
    y1, y0 is an unknown column in every role, like any other."""
    files = {"train": corpus["train"], "calib": corpus["calib"], "test": corpus[test]}
    bad = tmp_path / "cf.csv"
    _rewrite_units(files[role], bad, header=read_table(files[role]).header + extra)
    files[role] = str(bad)
    assert main([command, "--train", files["train"], "--calib", files["calib"],
                 "--test", files["test"], "--out-dir", str(tmp_path / "o")]) == 2
    assert f"cf.csv: unknown column {extra[0]!r}" in capsys.readouterr().err


def test_every_sim_config_field_has_a_simulate_option():
    assert {f.name for f in dataclasses.fields(SimConfig)} <= set(_TABLES["simulate"])


def test_simulate_defaults_agree_with_the_unread_setting_rule():
    """``simulate._reject_unread`` refuses a field a campaign never reads
    when it is off SimConfig's default; the CLI fills every field from its
    own defaults, so the two must agree on each field the rule compares."""
    defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    for name in {*itertools.chain(*_UNREAD.values()), "envelope", "delta"}:
        assert _TABLES["simulate"][name].default == defaults[name], name


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


def test_sensitivity_outputs(corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["sensitivity", "--train", corpus["train"], "--calib",
               corpus["calib"], "--test", corpus["obstest"],
               "--gamma-grid", "1.0,1.3,1.6", "--alpha", "0.25",
               "--out-dir", str(out)])
    assert rc == 0

    stamp, header, rows = _read_csv(out / "gammas.csv")
    assert header == ["row", "t", "y", "gamma_hat", "censored"]
    assert len(rows) == 10
    for r in rows:
        assert r[1] in ("0", "1")
        censored = r[4] == "1"
        assert (r[3] == "") == censored
        if not censored:
            assert float(r[3]) in (1.0, 1.3, 1.6)

    _, sheader, srows = _read_csv(out / "survival.csv")
    assert sheader == ["gamma", "survival"]
    assert [float(r[0]) for r in srows] == [1.0, 1.3, 1.6]
    surv = [float(r[1]) for r in srows]
    assert all(0.0 <= s <= 1.0 for s in surv)
    assert all(a >= b for a, b in zip(surv, surv[1:]))

    manifest = _manifest(out)
    assert manifest["command"] == "sensitivity"
    assert stamp == f"# confshift config_hash={manifest['config_hash']} seed=0"

    # reruns reproduce the same bytes
    out2 = tmp_path / "run2"
    assert main(["sensitivity", "--train", corpus["train"], "--calib",
                 corpus["calib"], "--test", corpus["obstest"],
                 "--gamma-grid", "1.0,1.3,1.6", "--alpha", "0.25",
                 "--out-dir", str(out2)]) == 0
    assert (out / "gammas.csv").read_bytes() == (out2 / "gammas.csv").read_bytes()


def test_sensitivity_pac_variant_runs(corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["sensitivity", "--train", corpus["train"], "--calib",
               corpus["calib"], "--test", corpus["obstest"],
               "--gamma-grid", "1.0,1.4", "--method", "alg2:plugin",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "gammas.csv").exists() and (out / "survival.csv").exists()


@pytest.mark.parametrize("argv,sides,test_rows", [
    (["predict", "--calib", "calib", "--test", "test", "--gamma", "1,2",
      "--method", "alg2:plugin"], 1, 12),
    (["sensitivity", "--calib", "calib", "--test", "obstest"], 2, 10),
    # A scan replication has one side; two replications run in process.
    (["simulate", "--kind", "sensitivity", "--n-train", "40", "--n-calib", "40",
      "--n-test", "5", "--n-reps", "2", "--threads", "1", "--grid", "1,1.5"], 2, 10),
])
def test_each_calibration_side_queries_the_knn_model_twice(corpus, tmp_path, monkeypatch,
                                                          argv, sides, test_rows):
    # One query for the calibration units, then one for the side's test rows;
    # the intervals and the scan read the test query's columns.
    rows = []

    def counting_quantile(self, x, beta):
        rows.append(np.atleast_2d(x).shape[0])
        return real_quantile(self, x, beta)

    real_quantile = KNNQuantileModel.quantile
    monkeypatch.setattr(KNNQuantileModel, "quantile", counting_quantile)
    folds = [] if argv[0] == "simulate" else ["--train", corpus["train"]]
    argv = [corpus.get(a, a) for a in argv]
    assert main([*argv, *folds, "--out-dir", str(tmp_path / "run")]) == 0
    assert len(rows) == 2 * sides
    assert sum(rows[1::2]) == test_rows


# ---------------------------------------------------------------------------
# worstcase
# ---------------------------------------------------------------------------


def test_worstcase_cdf_and_witness(corpus, tmp_path):
    out = tmp_path / "run"
    rc = main(["worstcase", "--instance", corpus["instance"],
               "--at", "2.0,0.5,1.0", "--witness", "true",
               "--out-dir", str(out)])
    assert rc == 0

    _, header, rows = _read_csv(out / "cdf.csv")
    assert header == ["t", "worst_cdf"]
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 2.0]  # sorted query grid
    got = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(got, [0.0, 0.25, 1.0], atol=1e-12)

    _, wheader, wrows = _read_csv(out / "witness.csv")
    assert wheader == ["v", "m", "lo", "hi", "w_star"]
    np.testing.assert_allclose([float(r[4]) for r in wrows], [0.5, 1.5],
                               atol=1e-12)

    results = _manifest(out)["results"]
    assert results["t_star"] == 2.0
    np.testing.assert_allclose(results["gamma_mix"], 2.0 / 3.0, atol=1e-12)


def test_worstcase_repeated_query_point_exits_3(corpus, tmp_path, capsys):
    # Every list option refuses a repeat: here it would only change the hash.
    out = tmp_path / "o"
    assert main(["worstcase", "--instance", corpus["instance"], "--at", "1.0,2.0,1.0",
                 "--out-dir", str(out)]) == 3
    assert "bad value for at: values must not repeat" in capsys.readouterr().err
    assert not out.exists()


def test_worstcase_default_grid_matches_library(corpus, tmp_path):
    out = tmp_path / "run"
    assert main(["worstcase", "--instance", corpus["instance"],
                 "--out-dir", str(out)]) == 0
    _, _, rows = _read_csv(out / "cdf.csv")
    joint = DiscreteJoint(v=[1.0, 2.0], m=[0.5, 0.5],
                          lo=[0.5, 0.5], hi=[2.0, 2.0])
    expected = [worst_cdf_marginal(joint, t) for t in (1.0, 2.0)]
    assert [float(r[0]) for r in rows] == [1.0, 2.0]
    np.testing.assert_allclose([float(r[1]) for r in rows], expected,
                               atol=1e-12)


def test_worstcase_default_grid_on_a_few_hundred_atoms(tmp_path):
    """Generated instance with tied scores: every default-grid CDF value
    matches the LP oracle and the written witness attains it."""
    r = np.random.default_rng(17)
    n = 300
    v = np.round(r.normal(size=n), 1)
    m = r.dirichlet(np.ones(n))
    w = r.uniform(0.3, 2.0, size=n)
    w /= float(m @ w)
    g = r.uniform(1.0, 3.0, size=n)
    inst = tmp_path / "inst.csv"
    with open(inst, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v", "lo", "hi", "m"])
        writer.writerows([repr(float(a)) for a in row] for row in zip(v, w / g, w * g, m))
    out = tmp_path / "run"
    assert main(["worstcase", "--instance", str(inst), "--witness", "true",
                 "--out-dir", str(out)]) == 0
    _, _, rows = _read_csv(out / "cdf.csv")
    t = np.array([float(row[0]) for row in rows])
    cdf = np.array([float(row[1]) for row in rows])
    np.testing.assert_array_equal(t, np.unique(v))
    d = DiscreteJoint(v=v, m=m, lo=w / g, hi=w * g)
    lp = np.array([lp_oracle_marginal(d, x) for x in t])
    assert np.abs(cdf - lp).max() <= 1e-12
    _, _, wrows = _read_csv(out / "witness.csv")
    w_star = np.array([float(row[4]) for row in wrows])
    attained = (v[None, :] <= t[:, None]) @ (m * w_star)
    assert np.abs(attained - cdf).max() <= 1e-12


def test_worstcase_bad_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "inst.csv"
    bad.write_text("v,lo\n1.0,0.5\n", encoding="utf-8")
    assert main(["worstcase", "--instance", str(bad),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "data error" in capsys.readouterr().err


def test_instance_repeated_column_exits_2(tmp_path, capsys):
    twice = tmp_path / "inst.csv"
    twice.write_text("v,lo,hi,v\n1.0,0.5,2.0,1.0\n2.0,0.5,2.0,2.0\n", encoding="utf-8")
    assert main(["worstcase", "--instance", str(twice), "--out-dir", str(tmp_path / "o")]) == 2
    assert "inst.csv: duplicate column 'v'" in capsys.readouterr().err


def test_witness_file_reads_back_as_an_instance(corpus, tmp_path):
    """An extra column (here w_star) is no error in an instance file."""
    assert main(["worstcase", "--instance", corpus["instance"], "--witness", "true",
                 "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["worstcase", "--instance", str(tmp_path / "a" / "witness.csv"),
                 "--out-dir", str(tmp_path / "b")]) == 0
    cdf = [(tmp_path / d / "cdf.csv").read_bytes().split(b"\n", 1)[1] for d in "ab"]
    assert cdf[0] == cdf[1]


# ---------------------------------------------------------------------------
# input that is not text, or too long for the csv module
# ---------------------------------------------------------------------------


def test_undecodable_units_file_exits_2(corpus, tmp_path, capsys):
    bad = tmp_path / "train_ff.csv"
    bad.write_bytes(open(corpus["train"], "rb").read().replace(b"\n", b"\n\xff2,", 1))
    assert _predict_with(corpus, tmp_path / "o", "train", bad) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "train_ff.csv: not UTF-8 text" in err


def test_undecodable_instance_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "inst_ff.csv"
    bad.write_bytes(b"v,lo,hi\n1.0,0.5,2.0\n\xff2,0.5,2.0\n")
    assert main(["worstcase", "--instance", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert "inst_ff.csv: not UTF-8 text: invalid start byte at byte 20" \
        in capsys.readouterr().err


def test_undecodable_config_file_exits_3(corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"alpha=0.2\n# caf\xe9\n")
    assert _run_predict(corpus, tmp_path / "o", "--config", str(cfg)) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "bad.cfg: not UTF-8 text" in err


@pytest.mark.parametrize("out, config, path", [
    ("file", None, "file"),               # --out-dir names a file
    ("dir", None, "dir/cdf.csv"),         # an output name is a directory
    ("file/sub", None, "file/sub"),       # --out-dir lies under a file
    ("o", "dir", "dir"),                  # --config names a directory
    ("o", "nope.cfg", "nope.cfg"),        # --config is missing
])
def test_a_path_the_run_cannot_use_exits_3(corpus, tmp_path, capsys, out, config, path):
    """One config-error line naming the path: an output or --config path
    that cannot be opened or made is a bad configuration."""
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    (tmp_path / "dir" / "cdf.csv").mkdir(parents=True)
    flags = ["--out-dir", str(tmp_path / out)]
    flags += [] if config is None else ["--config", str(tmp_path / config)]
    assert main(["worstcase", "--instance", corpus["instance"], *flags]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"confshift: config error: cannot use {tmp_path / path}: ")


def test_field_over_the_csv_limit_exits_2(corpus, tmp_path, capsys):
    """A non-numeric field past the csv module's 131,072 characters: numpy's
    reader refuses the cell, and the cell reader's csv.Error names the file."""
    long = tmp_path / "long.csv"
    long.write_text("x1,x2\n0.1,0.2\n0.3," + "a" * 200000 + "\n", encoding="utf-8")
    assert _predict_with(corpus, tmp_path / "o", "test", long) == 2
    err = capsys.readouterr().err
    assert "data error: " + str(long) + " line 3: field larger than field limit" in err


# ---------------------------------------------------------------------------
# one argument parser per process
# ---------------------------------------------------------------------------


def test_parser_is_built_once_and_reused(corpus, tmp_path):
    """A usage error, a predict and a sensitivity run through one parser
    write what fresh processes write, and the parser is built once."""
    cli._parser.cache_clear()
    runs = {
        "predict": ["predict", "--train", corpus["train"], "--calib", corpus["calib"],
                    "--test", corpus["test"], "--gamma", "1.0,2.0", "--score", "abs_residual",
                    "--arm", "0"],
        "sensitivity": ["sensitivity", "--train", corpus["train"], "--test", corpus["obstest"],
                        "--gamma-grid", _SENS_GRID, "--null-kind", "ge", "--seed", "4"],
    }
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--no-such-flag", "1"])
    assert exc.value.code == 3
    for name, argv in runs.items():
        assert main([*argv, "--out-dir", str(tmp_path / "in" / name)]) == 0
    assert cli._parser.cache_info().misses == 1

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    for name, argv in runs.items():
        subprocess.run([sys.executable, "-m", "confshift.cli", *argv,
                        "--out-dir", str(tmp_path / "fresh" / name)], env=env, check=True)
        a, b = tmp_path / "in" / name, tmp_path / "fresh" / name
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for f in os.listdir(a):
            if f == "manifest.json":  # it records the output directory
                got, want = _manifest(a), _manifest(b)
                got["config"].pop("out_dir")
                want["config"].pop("out_dir")
                assert got == want
            else:
                assert (a / f).read_bytes() == (b / f).read_bytes(), f


_CLAMPED = "k=20 exceeds training size n=10 of arm {}"


@pytest.mark.parametrize("command, argv, arms", [
    ("predict", ["--test", "test", "--k", "20"], (1,)),
    ("sensitivity", ["--test", "obstest", "--k", "20"], (0, 1)),
    # Default k = 20 on 10 arm units, in two worker processes.
    ("simulate", ["--kind", "coverage", "--n-reps", "2", "--n-train", "10", "--n-calib", "50",
                  "--n-test", "20", "--threads", "2"], (1,)),
])
def test_a_k_above_the_training_size_is_one_warning_line(corpus, tmp_path, command, argv, arms):
    """A k above an arm's training units is clamped to them; a fresh process
    says so in one ``confshift: warning:`` line, from the parent alone, and
    exits 0 with the outputs of k = n."""
    train = tmp_path / "train.csv"
    x = np.random.default_rng(3).uniform(size=(20, 2))
    write_units(str(train), Dataset(x, np.arange(20) % 2, x.sum(axis=1)))
    folds = ["--train", str(train), "--calib", corpus["calib"]]
    argv = [corpus.get(a, a) for a in argv] + (folds if command != "simulate" else [])
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    run = subprocess.run([sys.executable, "-m", "confshift.cli", command, *argv,
                          "--out-dir", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stderr == ("confshift: warning: "
                          + "; ".join(_CLAMPED.format(arm) for arm in arms)
                          + "; clamping to n\n")
    if command != "simulate":
        assert main([command, *[a if a != "20" else "10" for a in argv],
                     "--out-dir", str(tmp_path / "k10")]) == 0
        for name in os.listdir(tmp_path / "k10"):
            if name.endswith(".csv"):  # past the stamp line, which hashes k
                got, want = (_read_csv(tmp_path / d / name)[1:] for d in ("out", "k10"))
                assert got == want


def test_a_clamped_k_then_a_failure_prints_the_error_alone(corpus, tmp_path, capsys):
    """The clamp is decided before the fit, but its warning line is printed
    only once the run has succeeded."""
    train = tmp_path / "train.csv"
    x = np.random.default_rng(3).uniform(size=(20, 2))
    write_units(str(train), Dataset(x, np.arange(20) % 2, x.sum(axis=1)))
    assert main(["predict", "--train", str(train), "--calib", corpus["calib"],
                 "--test", corpus["test"], "--k", "20", "--gamma", "1,1e308",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("confshift: config error: bad value for gamma: ")


def test_a_cli_start_loads_no_scipy_and_no_process_pool(tmp_path):
    """Importing the CLI and one single-process simulate run load no scipy
    module and no process pool; pytest itself imports scipy, so a fresh
    interpreter checks."""
    argv = ["simulate", "--kind", "coverage", "--n-reps", "1", "--n-train", "60",
            "--n-calib", "40", "--n-test", "20", "--threads", "1",
            "--out-dir", str(tmp_path / "out")]
    code = ("import sys\n"
            "def loaded(*names):\n"
            "    return sorted(m for m in sys.modules if m.startswith(names))\n"
            "import confshift.cli\n"
            "print(loaded('scipy', 'concurrent.futures'))\n"
            f"assert confshift.cli.main({argv!r}) == 0\n"
            "print(loaded('scipy', 'concurrent.futures.process'))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["[]", "[]"]


def test_a_worstcase_run_loads_no_masked_arrays(corpus, tmp_path):
    """``worstcase`` sorts its query points without ``np.unique``, which
    imports ``numpy.ma`` on every call; a fresh interpreter checks."""
    argv = ["worstcase", "--instance", corpus["instance"], "--witness", "true",
            "--out-dir", str(tmp_path / "out")]
    code = ("import sys\n"
            "import confshift.cli\n"
            f"assert confshift.cli.main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["False"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_coverage_smoke(tmp_path):
    out = tmp_path / "run"
    args = ["simulate", "--kind", "coverage", "--n-train", "60",
            "--n-calib", "50", "--n-test", "20", "--p", "2",
            "--gamma-true", "1.5", "--alphas", "0.2,0.5", "--n-reps", "2",
            "--bounds", "oracle", "--seed", "3", "--threads", "1",
            "--out-dir", str(out)]
    assert main(args) == 0

    stamp, header, rows = _read_csv(out / "coverage.csv")
    assert header[:3] == ["alpha", "coverage_mean", "coverage_q05"]
    assert [r[0] for r in rows] == ["0.2", "0.5"]
    for r in rows:
        assert 0.0 <= float(r[1]) <= 1.0

    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    manifest = _manifest(out)
    assert report["kind"] == "coverage"
    assert report["config_hash"] == manifest["config_hash"]
    assert stamp == f"# confshift config_hash={manifest['config_hash']} seed=3"

    out2 = tmp_path / "run2"
    assert main(args[:-1] + [str(out2)]) == 0
    assert (out / "coverage.csv").read_bytes() == (out2 / "coverage.csv").read_bytes()


def test_simulate_sensitivity_smoke(tmp_path):
    out = tmp_path / "run"
    rc = main(["simulate", "--kind", "sensitivity", "--n-train", "60",
               "--n-calib", "40", "--n-test", "12", "--p", "2",
               "--gamma-true", "1.3", "--grid", "1.0,1.2", "--n-reps", "2",
               "--envelope", "plugin", "--bounds", "oracle", "--threads", "1",
               "--out-dir", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out / "curves.csv")
    assert header == ["gamma", "survival_alg1", "survival_alg2",
                      "fdp_alg1", "fdp_alg2"]
    assert [float(r[0]) for r in rows] == [1.0, 1.2]


@pytest.mark.parametrize("source,value", [("flag", "0"), ("flag", "-1"),
                                          ("config", "0"), ("config", "-2")])
def test_simulate_nonpositive_threads_exit_3(tmp_path, capsys, source, value):
    # --threads, as a flag or a config key, is the one route to the worker cap.
    if source == "flag":
        extra = ["--threads", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"threads={value}\n", encoding="utf-8")
        extra = ["--config", str(cfg)]
    rc = main(["simulate", "--kind", "coverage", "--n-train", "60",
               "--n-calib", "40", "--n-test", "5", "--n-reps", "1", *extra,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    assert f"bad value for threads: must be >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind,flag,value", [
    ("sensitivity", "--score", "abs_residual"),
    ("sensitivity", "--procedure", "alg2"),
    ("sensitivity", "--gamma-bounds", "1.5"),
    ("sensitivity", "--n-eval-gap", "10"),
    ("sensitivity", "--alphas", "0.1,0.2"),
    ("coverage", "--grid", "1,2"),
])
def test_simulate_rejects_a_setting_its_campaign_never_reads(tmp_path, capsys, kind, flag, value):
    err = _simulate_exits_3(tmp_path, capsys, kind, [flag, value])
    assert f"the {kind} campaign" in err
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("kind,flags,key", [
    ("coverage", ["--delta", "0.3"], "delta"),
    ("coverage", ["--envelope", "plugin"], "envelope"),
    ("coverage", ["--procedure", "alg2", "--envelope", "plugin", "--delta", "0.3"], "delta"),
    ("sensitivity", ["--envelope", "plugin", "--delta", "0.3"], "delta"),
])
def test_simulate_rejects_a_setting_its_procedure_never_reads(tmp_path, capsys, kind, flags,
                                                               key):
    # alg1 coverage reads no alg2 envelope, and the plugin envelope no delta.
    err = _simulate_exits_3(tmp_path, capsys, kind, flags)
    assert f"the {kind} campaign does not read {key}" in err


def _simulate_exits_3(tmp_path, capsys, kind, flags) -> str:
    """Standard error of a small ``simulate`` run that must exit 3 unwritten."""
    out = tmp_path / "o"
    rc = main(["simulate", "--kind", kind, "--n-train", "60", "--n-calib", "40",
               "--n-test", "5", "--n-reps", "1", "--threads", "1", *flags,
               "--out-dir", str(out)])
    assert rc == 3
    assert not (out / "report.json").exists()
    return capsys.readouterr().err


def test_simulate_accepts_an_unread_setting_left_at_its_default(tmp_path):
    # "Set" means off the SimConfig default: spelling the default out is the
    # same resolved configuration, with the same hash.
    args = ["simulate", "--kind", "sensitivity", "--n-train", "60", "--n-calib", "40",
            "--n-test", "5", "--grid", "1.0,1.2", "--n-reps", "1", "--threads", "1"]
    assert main([*args, "--out-dir", str(tmp_path / "a")]) == 0
    assert main([*args, "--procedure", "alg1", "--score", "cqr", "--n-eval-gap", "0",
                 "--alphas", "0.2", "--out-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_threads_is_a_simulate_only_option(corpus, tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run_predict(corpus, tmp_path / "o", "--threads", "1")
    assert exc.value.code == 3
    assert [c for c in _TABLES if "threads" in _TABLES[c]] == ["simulate"]
    assert _run_predict(corpus, tmp_path / "run") == 0
    assert "threads" not in _manifest(tmp_path / "run")["config"]


# ---------------------------------------------------------------------------
# the exit-code contract
# ---------------------------------------------------------------------------

_TINY_SIM = ["--n-reps", "1", "--n-train", "200", "--n-calib", "200", "--threads", "1"]


@pytest.mark.parametrize("argv,key", [
    (["predict", "--test", "test", "--method", "alg1", "--gamma", "1,1e308"], "gamma"),
    (["predict", "--test", "test", "--method", "alg2", "--gamma", "1,1e308"], "gamma"),
    (["sensitivity", "--test", "obstest", "--method", "alg2", "--gamma-grid", "1,1e307"],
     "gamma_grid"),
    (["simulate", "--kind", "sensitivity", "--grid", "1,1e307", *_TINY_SIM], "grid"),
    (["simulate", "--kind", "coverage", "--gamma-bounds", "1e308", *_TINY_SIM], "gamma_bounds"),
    (["simulate", "--kind", "coverage", "--gamma-true", "1e308", *_TINY_SIM], "gamma_true"),
])
def test_a_strength_that_overflows_the_envelope_exits_3(corpus, tmp_path, capsys, argv, key):
    """At 1e308 an upper bound overflows; at 1e307 the bounds are finite and
    their sum over the calibration units is not. Either way the run writes
    nothing and names the option that holds the strength."""
    if argv[0] != "simulate":
        argv = [argv[0], "--train", corpus["train"], "--calib", corpus["calib"],
                *[corpus.get(a, a) for a in argv[1:]]]
    out = tmp_path / "o"
    assert main([*argv, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"confshift: config error: bad value for {key}: strength 1e+30")
    assert "overflows the ratio envelope" in err
    assert not out.exists() or not os.listdir(out)


def _csv_of(item, max_size=3):
    return st.lists(item, min_size=1, max_size=max_size).map(
        lambda vals: ",".join(repr(float(v)) for v in vals))


_STRENGTH = st.one_of(st.sampled_from((1.0, 1.5, 2.0, 1e300, 1e307, 1e308)),
                      st.floats(0.5, 1e308))
_LEVEL = st.one_of(st.sampled_from((1e-300, 1e-12, 0.1, 0.5, 0.9)),
                   st.floats(1e-300, 1.0, exclude_max=True))
# One value strategy per option the property draws. Counts stay small:
# the caps are tested by the parser's refusal alone, never run.
_VALUES = {
    "gamma": _csv_of(_STRENGTH), "gamma_grid": _csv_of(_STRENGTH), "grid": _csv_of(_STRENGTH),
    "gamma_true": _STRENGTH, "gamma_bounds": _STRENGTH,
    "alpha": _LEVEL, "delta": _LEVEL, "alphas": _csv_of(_LEVEL, 2),
    "train_fraction": st.floats(0.05, 0.95),
    "method": st.sampled_from(("alg1", "alg2", "alg2:plugin", "alg2:hoeffding", "alg2:wsr")),
    "k": st.integers(1, 40), "arm": st.integers(0, 1),
    "population": st.sampled_from(("ate", "att", "atc")),
    "score": st.sampled_from(("cqr", "cqr_one_sided", "abs_residual")),
    "null_kind": st.sampled_from(("point", "le", "ge")),
    "null_a": st.one_of(st.just(0.0), st.floats(-1e308, 1e308)),
    "at": _csv_of(st.floats(-1e308, 1e308)), "witness": st.booleans(),
    "seed": st.integers(0, 3),
    "kind": st.sampled_from(("coverage", "sensitivity")),
    "n_train": st.integers(1, 30), "n_calib": st.integers(1, 30), "n_test": st.integers(1, 5),
    "p": st.integers(1, 3), "n_reps": st.integers(1, 2), "n_eval_gap": st.integers(0, 10),
    "procedure": st.sampled_from(("alg1", "alg2")),
    "envelope": st.sampled_from(("plugin", "hoeffding", "wsr")),
    "bounds": st.sampled_from(("oracle", "estimated")),
    "effect_kind": st.sampled_from(("fixed", "random")),
    "effect_a": st.floats(-10.0, 10.0),
}
_FILE_KEYS = ("train", "calib", "test", "instance")
# A campaign at its default sizes runs for seconds; these keep it small.
_BASE = {"simulate": ["--n-reps", "1", "--n-train", "20", "--n-calib", "20", "--n-test", "2",
                      "--threads", "1"]}


def _units(path, r, n, p, scale, decimals, treatment) -> None:
    x = np.round(r.uniform(size=(n, p)), decimals) * scale
    t = {"random": r.uniform(size=n) < 0.5, "treated": np.ones(n, dtype=bool),
         "separable": x[:, 0] > np.median(x[:, 0])}[treatment]
    _write_xmatrix(path, x, t, x.sum(axis=1) / scale + r.normal(size=n))


@st.composite
def _files(draw, root):
    """Small units files (train, calib, test) and a worst-case instance:
    one covariate count, or a test file with one more; covariates at scale
    1 or 1e150, rounded to few decimals so rows repeat; one-arm or
    separable treatment."""
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 3))
    scale = draw(st.sampled_from((1.0, 1e150)))
    decimals = draw(st.sampled_from((0, 1, 6)))
    treatment = draw(st.sampled_from(("random", "random", "treated", "separable")))
    paths = {key: os.path.join(root, f"{key}.csv") for key in _FILE_KEYS}
    for key, n, q in (("train", draw(st.integers(4, 40)), p),
                      ("calib", draw(st.integers(1, 20)), p),
                      ("test", draw(st.integers(1, 6)), p + draw(st.sampled_from((0, 0, 0, 1))))):
        _units(paths[key], r, n, q, scale, decimals, treatment if key == "train" else "random")
    atoms = draw(st.integers(1, 6))
    lo = r.uniform(0.1, 1.0, size=atoms)
    with open(paths["instance"], "w", encoding="utf-8") as fh:
        fh.write("v,lo,hi\n")
        for row in zip(np.round(r.normal(size=atoms), decimals), lo,
                       lo * r.uniform(0.5, 3.0, size=atoms)):
            fh.write(",".join(repr(float(c)) for c in row) + "\n")
    return paths


def test_the_property_draws_every_option():
    drawn = {key for table in _TABLES.values() for key in table}
    assert drawn - {"config", "out_dir", "threads", *_FILE_KEYS} == set(_VALUES)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_run_exits_0_2_or_3_with_a_matching_message(data):
    """argv drawn from the option tables on small generated files, with
    strengths up to 1e308 and levels down to 1e-300: every run exits 0, 2
    or 3 without a traceback, and stderr says what the code says."""
    command = data.draw(st.sampled_from(sorted(_TABLES)))
    table = _TABLES[command]
    keys = data.draw(st.lists(st.sampled_from(sorted(set(table) & set(_VALUES))),
                              max_size=4, unique=True))
    with tempfile.TemporaryDirectory() as root:
        files = data.draw(_files(root))
        argv = [command, *_BASE.get(command, [])]
        for key in _FILE_KEYS:
            if key in table and (table[key].default is not None or data.draw(st.booleans())):
                argv += ["--" + key, files[key]]
        for key in keys:
            argv += ["--" + key.replace("_", "-"), str(data.draw(_VALUES[key]))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--out-dir", os.path.join(root, "out")])
            except SystemExit as exc:  # a usage error
                code = exc.code
        err = err.getvalue()
    note(f"argv={argv}\ncode={code}\nstderr={err}")
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        # Nothing, or the one warning line of a clamped k.
        assert all(line.startswith("confshift: warning: ") for line in err.splitlines())
        assert err.count("\n") <= 1
    elif code == 2:
        assert err.startswith("confshift: data error: ")
    else:
        assert err.startswith(("confshift: config error: ", "usage: confshift"))


# ---------------------------------------------------------------------------
# byte identity against recorded outputs
# ---------------------------------------------------------------------------

_SENS_GRID = "1.0,1.1,1.2,1.35,1.5,2.0"
_SIM_ARGS = ["--kind", "sensitivity", "--n-train", "80", "--n-calib", "150",
             "--n-test", "20", "--p", "2", "--gamma-true", "1.3",
             "--grid", "1.0,1.1,1.2,1.5,2.0", "--alphas", "0.7", "--n-reps", "2",
             "--bounds", "estimated", "--effect-kind", "random", "--effect-a", "1.0",
             "--seed", "11", "--threads", "1"]
_COV_ARGS = ["--kind", "coverage", "--n-train", "120", "--n-test", "60", "--p", "2",
             "--gamma-true", "1.3", "--n-reps", "2", "--bounds", "estimated",
             "--seed", "11", "--threads", "1"]


def _recorded_cases():
    cases = {}
    for method in ("alg1", "alg2:wsr", "alg2:hoeffding"):
        for score in ("cqr", "abs_residual"):
            cases[f"predict-{method}-{score}"] = (
                "predict", ["--test", "test", "--method", method, "--score", score,
                            "--alpha", "0.3", "--gamma", "1.0,1.5,2.5"])
    for method in ("alg1", "alg2:wsr"):
        for null in ("le", "ge", "point"):
            cases[f"sensitivity-{method}-{null}"] = (
                "sensitivity", ["--test", "obstest", "--method", method,
                                "--score", "cqr", "--alpha", "0.5", "--null-kind", null,
                                "--null-a", "0.5", "--gamma-grid", _SENS_GRID])
    cases["simulate-sensitivity-estimated"] = ("simulate", _SIM_ARGS)
    cases["simulate-coverage-alg1-estimated"] = (
        "simulate", [*_COV_ARGS, "--n-calib", "150", "--alphas", "0.2", "--procedure", "alg1"])
    cases["simulate-coverage-alg2:wsr-gap"] = (
        "simulate", [*_COV_ARGS, "--n-calib", "400", "--alphas", "0.5,0.2",
                     "--procedure", "alg2", "--envelope", "wsr", "--n-eval-gap", "200"])
    cases["worstcase-witness"] = (
        "worstcase", ["--instance", "instance", "--at", "0.5,1.0,1.25,2.0,3.0",
                      "--witness", "true"])
    return cases


_CASES = _recorded_cases()

# SHA-256 of every output file, recorded before the CLI and the simulation
# campaigns were moved onto one threshold-and-scan pipeline. CSV stamp lines
# are left out: they hash the configuration, which holds the input paths.
_DIGESTS = {
    "predict-alg1-abs_residual": {
        "intervals.csv":
            "5bf209ea5d8abdb58cbd8f8445f6316c898f182396daf1dc4a27054c6c4c939e",
    },
    "predict-alg1-cqr": {
        "intervals.csv":
            "afa4798a0523f502b332b785b3715487a491fb683a148e5bb936385d36e08058",
    },
    "predict-alg2:hoeffding-abs_residual": {
        "intervals.csv":
            "17b652941904757beca6a7a2c55dbf9d4c4615a350bdcc0b9d62fea16c021ab5",
    },
    "predict-alg2:hoeffding-cqr": {
        "intervals.csv":
            "a2f715277d430ae7245962a432f9054475c5a80431b24bbeb7ee4a0f1c30bf62",
    },
    "predict-alg2:wsr-abs_residual": {
        "intervals.csv":
            "f5fa2b92f54ff8023cfd5c09e032bd137b9dd11b37894d5990965f1ee4466c50",
    },
    "predict-alg2:wsr-cqr": {
        "intervals.csv":
            "e8b6ef63eac14290ac9ef6754baa90be0646cc3ea1935655be926817d73493bd",
    },
    "sensitivity-alg1-ge": {
        "gammas.csv":
            "fbcd727568ca08087400dc4a2fc9e9b897f09ed2f71ae791738d833ae059abc4",
        "survival.csv":
            "07bd9a91e3a35ee971265cced2d92aa83f40d9ea86ee4bb306b2af13c77eaa8f",
    },
    "sensitivity-alg1-le": {
        "gammas.csv":
            "cd9c8b339b2f49956d1b3ef1888580aa1e560388415f07f1b8ac7f899a25f759",
        "survival.csv":
            "1989cd8ffbd1c25a7fc64e8711ac891dca3f2ba1d3c9e0d8edee0b0c4d9764d7",
    },
    "sensitivity-alg1-point": {
        "gammas.csv":
            "ccabb44c426d96683f15b74758a71a50936b46138e6ac1ebfe1d3c2295b9f413",
        "survival.csv":
            "975213f4442c5aead4baab4c90e0c51e25e5fc108dfcaaa83fef2464afcb59b4",
    },
    "sensitivity-alg2:wsr-ge": {
        "gammas.csv":
            "146d3bba67b831d6ffe0b5c5a209f3a6a4a4c4599a708c810ccecad9d8ed0400",
        "survival.csv":
            "7bb7091f654858d9d8cd17ae18bf7d4130ea7d8f78e784d8cf688de6a2fea32d",
    },
    "sensitivity-alg2:wsr-le": {
        "gammas.csv":
            "d4423d981d518913fcc49dc943470d242b2c820473c64fa547be2a25ed89953f",
        "survival.csv":
            "b80ce2e2b5d0734f65c351f1305f888d24a488c98f81b3cbd4447b3f0cd17360",
    },
    "sensitivity-alg2:wsr-point": {
        "gammas.csv":
            "146d3bba67b831d6ffe0b5c5a209f3a6a4a4c4599a708c810ccecad9d8ed0400",
        "survival.csv":
            "7bb7091f654858d9d8cd17ae18bf7d4130ea7d8f78e784d8cf688de6a2fea32d",
    },
    "simulate-sensitivity-estimated": {
        "curves.csv":
            "3340b272e013d9115b79c44888bfdf838e146b4999d1b1c322df6959e70e0a7c",
        "report.json":
            "97b472d94087783136b2193480d217a0153d632c9537410cba83e3de5ef1126e",
    },
    # The coverage campaign, recorded before its replications made one kNN
    # query per query array for all alphas together.
    "simulate-coverage-alg1-estimated": {
        "coverage.csv":
            "1d8506b9ea3fc0b52c60579d3cef4ffdea5f77607c8349d4081c17f09d14a084",
        "report.json":
            "306ba4a10086371e1aea6c27254869ec04b14944d51e2b3e7da1553c7d56f6c1",
    },
    "simulate-coverage-alg2:wsr-gap": {
        "coverage.csv":
            "9326df72c1700b0c2ebd202219dee959de36a86b166dbba9e687a2b7814914cf",
        "report.json":
            "d8e771089d68d76f1fb70f49a5a1f8c11d88705b679d7822e7d139181b171572",
    },
    # Recorded with the csv.writer version of write_table, before it joined
    # each row from per-column strings.
    "worstcase-witness": {
        "cdf.csv":
            "9ce417f78a888b643c78979e63dfe782d4f2f52170ce8165eeee71dc01e56f23",
        "witness.csv":
            "c13629bca3341cd5988c021e713d71c1b73fda3abec3bc0f2419d76817009c05",
    },
}


def _output_digests(out_dir) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        data = (out_dir / name).read_bytes()
        if name.endswith(".csv"):
            data = data.split(b"\n", 1)[1]
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(_CASES))
def test_outputs_match_recorded_digests(corpus, tmp_path, case):
    command, args = _CASES[case]
    args = [corpus.get(a, a) for a in args]
    folds = [] if command in ("simulate", "worstcase") else [
        "--train", corpus["train"], "--calib", corpus["calib"]]
    out = tmp_path / "run"
    assert main([command, *folds, *args, "--out-dir", str(out)]) == 0
    assert _output_digests(out) == _DIGESTS[case]
