"""End-to-end tests for the command-line interface.

Each test drives ``confshift.cli.main`` in process with a scratch directory,
then inspects the CSV/JSON artifacts. Exit-code contract: 0 success, 2 bad
data, 3 bad configuration.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from confshift.cli import main
from confshift.core import Dataset, write_dataset
from confshift.worstcase import DiscreteJoint, worst_cdf_marginal


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
    write_dataset(str(root / "train.csv"), train)
    write_dataset(str(root / "calib.csv"), calib)
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


def test_single_arm_calibration_exits_2(corpus, tmp_path, capsys):
    ds = _toy_dataset(40, seed=9)
    treated = ds.arm(1)
    path = tmp_path / "treated_only.csv"
    write_dataset(str(path), treated)
    rc = main(["predict", "--train", corpus["train"], "--calib", str(path),
               "--test", corpus["test"], "--arm", "0",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "no units with t=0" in capsys.readouterr().err


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


def test_worstcase_bad_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "inst.csv"
    bad.write_text("v,lo\n1.0,0.5\n", encoding="utf-8")
    assert main(["worstcase", "--instance", str(bad),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "data error" in capsys.readouterr().err


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


def test_simulate_bad_threads_env_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CONFSHIFT_THREADS", "lots")
    rc = main(["simulate", "--kind", "coverage", "--n-train", "60",
               "--n-calib", "40", "--n-test", "5", "--n-reps", "1",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    assert "CONFSHIFT_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("source,value", [("flag", "0"), ("flag", "-1"),
                                          ("env", "0"), ("env", "-2")])
def test_simulate_nonpositive_threads_exit_3(tmp_path, monkeypatch, capsys, source, value):
    flag = ["--threads", value] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("CONFSHIFT_THREADS", value)
    rc = main(["simulate", "--kind", "coverage", "--n-train", "60",
               "--n-calib", "40", "--n-test", "5", "--n-reps", "1", *flag,
               "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"must be >= 1, got {value}" in err
    assert ("CONFSHIFT_THREADS" in err) == (source == "env")


# ---------------------------------------------------------------------------
# byte identity against recorded outputs
# ---------------------------------------------------------------------------

_SENS_GRID = "1.0,1.1,1.2,1.35,1.5,2.0"
_SIM_ARGS = ["--kind", "sensitivity", "--n-train", "80", "--n-calib", "150",
             "--n-test", "20", "--p", "2", "--gamma-true", "1.3",
             "--grid", "1.0,1.1,1.2,1.5,2.0", "--alphas", "0.7", "--n-reps", "2",
             "--bounds", "estimated", "--effect-kind", "random", "--effect-a", "1.0",
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
            "61174da1e8c828b5e9b99f556936b501e815d9bed37f28bc96739a36f30abba8",
    },
    "predict-alg2:wsr-cqr": {
        "intervals.csv":
            "ee0289e5c1151c5b3eee0b622c7ef844532b7e3282492ed31ebb3a238b3b1240",
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
            "377a19b2ac48155490f37c590900d730544c4e7253340a70a42d286a12c89a4a",
        "survival.csv":
            "2f1ad9e0085c9124b82bee1ff598fb7983ce8d0804b522ee47db61b322dd6d6b",
    },
    "sensitivity-alg2:wsr-le": {
        "gammas.csv":
            "d4423d981d518913fcc49dc943470d242b2c820473c64fa547be2a25ed89953f",
        "survival.csv":
            "b80ce2e2b5d0734f65c351f1305f888d24a488c98f81b3cbd4447b3f0cd17360",
    },
    "sensitivity-alg2:wsr-point": {
        "gammas.csv":
            "377a19b2ac48155490f37c590900d730544c4e7253340a70a42d286a12c89a4a",
        "survival.csv":
            "2f1ad9e0085c9124b82bee1ff598fb7983ce8d0804b522ee47db61b322dd6d6b",
    },
    "simulate-sensitivity-estimated": {
        "curves.csv":
            "3340b272e013d9115b79c44888bfdf838e146b4999d1b1c322df6959e70e0a7c",
        "report.json":
            "97b472d94087783136b2193480d217a0153d632c9537410cba83e3de5ef1126e",
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
    folds = [] if command == "simulate" else [
        "--train", corpus["train"], "--calib", corpus["calib"]]
    out = tmp_path / "run"
    assert main([command, *folds, *args, "--out-dir", str(out)]) == 0
    assert _output_digests(out) == _DIGESTS[case]
