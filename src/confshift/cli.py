"""Command-line surface.

Subcommands:

* ``predict``      counterfactual outcome intervals for test rows from CSVs
* ``sensitivity``  per-unit sensitivity values plus a survival curve
* ``worstcase``    worst-case CDF queries on a discrete instance
* ``simulate``     replicated synthetic experiments (coverage / sensitivity)

Configuration is a flat ``key=value`` text file (``--config``); command-line
flags override file keys, which override built-in defaults. Every output file
carries a hash of the resolved statistical configuration and the seed, and
reruns of the same configuration are byte-identical. Infinite interval
endpoints are serialized as empty cells next to boolean ``unbounded_lo`` /
``unbounded_hi`` columns.

Exit codes: 0 success, 2 malformed or insufficient input data, 3 bad
configuration (including missing files and unknown keys).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConfigError,
    DataError,
    Dataset,
    SplitSpec,
    ValidationError,
    read_dataset,
    read_table,
    split,
)
from .nuisance import TargetSpec, bound_functions, fit_propensity
from .pac import METHODS
from .scores import ScoreFn, fit_quantile_model
from .sensitivity import GammaGrid, NullSpec, survival_curve
from .simulate import (SimConfig, run_coverage_experiment, run_sensitivity_experiment,
                       scan_gamma_values, threshold_path)
from .worstcase import DiscreteJoint, worst_cdf_marginal, worst_witness_marginal

# Called through .simulate; still bound here because the benchmark's tracer
# (perfbench/tracing.py) patches the threshold callables by this module's names.
from .marginal import robust_threshold_many  # noqa: F401
from .pac import pac_threshold, pac_threshold_path  # noqa: F401
from .sensitivity import gamma_values_from_rejections  # noqa: F401

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argparse with usage errors mapped to the config exit code."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(3)


# ---------------------------------------------------------------------------
# Option tables and value parsers
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _pint(s: str) -> int:
    return int(s)


def _pfloat(s: str) -> float:
    return float(s)


def _pbool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _pfloats(s: str) -> tuple[float, ...]:
    vals = tuple(float(part) for part in s.split(",") if part.strip() != "")
    if not vals:
        raise ValueError("empty list")
    return vals


def _pchoice(*choices: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        if s not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}; got {s!r}")
        return s

    return parse


def _pmethod(s: str) -> tuple[str, str | None]:
    if s == "alg1":
        return ("alg1", None)
    if s == "alg2":
        return ("alg2", "wsr")
    if s.startswith("alg2:") and s[5:] in METHODS:
        return ("alg2", s[5:])
    raise ValueError(f"must be alg1 or alg2:{{{'|'.join(METHODS)}}}; got {s!r}")


@dataclass(frozen=True)
class _Opt:
    parse: Callable[[str], object]
    default: object
    help: str


_COMMON = {
    "config": _Opt(str, None, "flat key=value configuration file"),
    "out_dir": _Opt(str, ".", "directory for output files"),
    "seed": _Opt(_pint, 0, "base RNG seed"),
    "threads": _Opt(_pint, None, "worker cap (default: CONFSHIFT_THREADS or all cores)"),
}

_SCORE = _pchoice(*ScoreFn.KINDS)
_POP = _pchoice("ate", "att", "atc")

_TABLES: dict[str, dict[str, _Opt]] = {
    "predict": {
        **_COMMON,
        "train": _Opt(str, _REQUIRED, "training CSV (x1..xp,t,y)"),
        "calib": _Opt(str, None, "calibration CSV; default: split off train"),
        "test": _Opt(str, _REQUIRED, "test CSV (x1..xp[,t,y])"),
        "train_fraction": _Opt(_pfloat, 0.5, "train share when splitting"),
        "alpha": _Opt(_pfloat, 0.1, "miscoverage level"),
        "delta": _Opt(_pfloat, 0.05, "PAC failure level (alg2)"),
        "gamma": _Opt(_pfloats, (1.0,), "selection strengths, comma separated"),
        "arm": _Opt(_pint, 1, "counterfactual arm (0 or 1)"),
        "population": _Opt(_POP, "ate", "target population"),
        "score": _Opt(_SCORE, "cqr", "nonconformity score kind"),
        "method": _Opt(_pmethod, ("alg1", None), "alg1 or alg2:plugin|hoeffding|wsr"),
        "k": _Opt(_pint, None, "neighbor count for the quantile model"),
    },
    "sensitivity": {
        **_COMMON,
        "train": _Opt(str, _REQUIRED, "training CSV (x1..xp,t,y)"),
        "calib": _Opt(str, None, "calibration CSV; default: split off train"),
        "test": _Opt(str, _REQUIRED, "test CSV with observed t,y"),
        "train_fraction": _Opt(_pfloat, 0.5, "train share when splitting"),
        "alpha": _Opt(_pfloat, 0.1, "miscoverage level"),
        "delta": _Opt(_pfloat, 0.05, "PAC failure level (alg2)"),
        "gamma_grid": _Opt(_pfloats, None, "grid of strengths; default 1..26"),
        "score": _Opt(_SCORE, "cqr_one_sided", "nonconformity score kind"),
        "method": _Opt(_pmethod, ("alg1", None), "alg1 or alg2:plugin|hoeffding|wsr"),
        "null_kind": _Opt(_pchoice("point", "le", "ge"), "le", "shape of the effect null set C"),
        "null_a": _Opt(_pfloat, 0.0, "boundary of C"),
        "k": _Opt(_pint, None, "neighbor count for the quantile model"),
    },
    "worstcase": {
        **_COMMON,
        "instance": _Opt(str, _REQUIRED, "instance CSV (v,lo,hi[,m])"),
        "at": _Opt(_pfloats, None, "query points; default: the atom grid"),
        "witness": _Opt(_pbool, False, "also write the attaining weights"),
    },
    "simulate": {
        **_COMMON,
        "kind": _Opt(_pchoice("coverage", "sensitivity"), "coverage", "experiment family"),
        "n_train": _Opt(_pint, 1000, "target-arm units in the training fold"),
        "n_calib": _Opt(_pint, 500, "target-arm units in the calibration fold"),
        "n_test": _Opt(_pint, 1, "test units per replication"),
        "p": _Opt(_pint, 4, "covariate dimension"),
        "gamma_true": _Opt(_pfloat, 1.0, "latent confounding strength"),
        "arm": _Opt(_pint, 1, "counterfactual arm"),
        "population": _Opt(_POP, "ate", "target population"),
        "score": _Opt(_SCORE, "cqr", "nonconformity score kind"),
        "alphas": _Opt(_pfloats, (0.2,), "miscoverage levels"),
        "delta": _Opt(_pfloat, 0.05, "PAC failure level"),
        "procedure": _Opt(_pchoice("alg1", "alg2"), "alg1", "threshold procedure"),
        "envelope": _Opt(_pchoice(*METHODS), "wsr", "alg2 envelope"),
        "bounds": _Opt(_pchoice("oracle", "estimated"), "oracle", "bound construction"),
        "gamma_bounds": _Opt(_pfloat, None, "strength used for bounds; default gamma_true"),
        "effect_kind": _Opt(_pchoice("fixed", "random"), "fixed", "treatment effect form"),
        "effect_a": _Opt(_pfloat, 0.0, "effect size a"),
        "n_reps": _Opt(_pint, 20, "replications"),
        "n_eval_gap": _Opt(_pint, 0, "evaluation draws for gap certificates"),
        "grid": _Opt(_pfloats, None, "sensitivity grid; default 1..26"),
    },
}

_HASH_EXCLUDE = ("config", "out_dir", "threads")
_PATH_KEYS = ("train", "calib", "test", "instance")


def _parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _resolve(command: str, ns: argparse.Namespace) -> dict:
    table = _TABLES[command]
    file_vals = _parse_config_file(ns.config) if ns.config else {}
    unknown = sorted(set(file_vals) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    resolved: dict = {}
    for key, opt in table.items():
        raw = getattr(ns, key, None)
        if raw is None:
            raw = file_vals.get(key)
        if raw is None:
            if opt.default is _REQUIRED:
                raise ConfigError(f"missing required key: {key}")
            resolved[key] = opt.default
            continue
        try:
            resolved[key] = opt.parse(raw) if isinstance(raw, str) else raw
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    for key in _PATH_KEYS:
        path = resolved.get(key)
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"{key} file does not exist: {path}")
    return resolved


def _canon(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_canon(v) for v in value)
    return str(value)


def _config_hash(command: str, resolved: dict) -> str:
    lines = [command]
    lines += [f"{k}={_canon(v)}" for k, v in sorted(resolved.items()) if k not in _HASH_EXCLUDE]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _n_threads(resolved: dict) -> int:
    """Worker cap: --threads, else CONFSHIFT_THREADS, else all cores."""
    if resolved.get("threads") is not None:
        threads, source = int(resolved["threads"]), "threads"
    else:
        env = os.environ.get("CONFSHIFT_THREADS")
        if env is None:
            return os.cpu_count() or 1
        try:
            threads, source = int(env), "CONFSHIFT_THREADS"
        except ValueError:
            raise ConfigError(f"CONFSHIFT_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise ConfigError(f"{source} must be >= 1, got {threads}")
    return threads


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _stamp(resolved: dict, h: str) -> str:
    return f"# confshift config_hash={h} seed={resolved['seed']}"


def _cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _write_csv(path: str, stamp: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(stamp + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(resolved: dict, h: str, command: str, outputs: list[str],
                    results: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": {k: _canon(v) for k, v in sorted(resolved.items()) if k != "config"},
        "config_hash": h,
        "outputs": sorted(outputs),
        "seed": resolved["seed"],
    }
    if results:
        manifest["results"] = results
    path = os.path.join(resolved["out_dir"], "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_xmatrix(path: str, p_train: int) -> tuple:
    """Test rows as (x, t, y): contiguous x1..xp columns as in training, then
    optional t and y columns (None when absent)."""
    tab = read_table(path)
    names = tab.header
    p = sum(1 for h in names if h.startswith("x"))
    if p == 0 or names[:p] != [f"x{j}" for j in range(1, p + 1)]:
        raise DataError(f"{path}: covariate columns must be contiguous x1..xp")
    if p != p_train:
        raise DataError(f"test has {p} covariates, training has {p_train}")
    extras = names[p:]
    if any(c not in ("t", "y") for c in extras):
        raise DataError(f"{path}: unexpected columns {extras}")
    x = np.column_stack([tab.floats(c) for c in names[:p]])
    t = tab.floats("t") if "t" in extras else None
    if t is not None:
        bad = ~np.isin(t, (0.0, 1.0))
        if bad.any():
            raise DataError(f"{path} row {tab.lines[int(np.argmax(bad))]}: t must be 0 or 1")
        t = t.astype(int)
    return x, t, (tab.floats("y") if "y" in extras else None)


def _load_folds(resolved: dict) -> tuple[Dataset, Dataset]:
    train = read_dataset(resolved["train"])
    if resolved["calib"] is not None:
        return train, read_dataset(resolved["calib"])
    if not 0.0 < resolved["train_fraction"] < 1.0:
        raise ConfigError("train_fraction must be in (0, 1)")
    return split(train, SplitSpec(resolved["train_fraction"], resolved["seed"]))


def _need_arm(ds: Dataset, arm: int, role: str) -> Dataset:
    if int((ds.t == arm).sum()) == 0:
        raise DataError(f"{role} data has no units with t={arm}")
    return ds.arm(arm)


def _fit_nuisance(train: Dataset) -> tuple:
    for a in (0, 1):
        _need_arm(train, a, "training")
    prop = fit_propensity(train.x, train.t)
    return prop, float(np.mean(train.t == 1))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_predict(resolved: dict, h: str) -> None:
    train, calib = _load_folds(resolved)
    arm, alpha = resolved["arm"], resolved["alpha"]
    if arm not in (0, 1):
        raise ConfigError(f"arm must be 0 or 1, got {arm}")
    x_test, _, _ = _read_xmatrix(resolved["test"], train.p)
    target = TargetSpec(arm=arm, population=resolved["population"])
    prop, p1 = _fit_nuisance(train)
    train_arm = train.arm(arm)
    calib_arm = _need_arm(calib, arm, "calibration")
    model = fit_quantile_model(train_arm.x, train_arm.y, k=resolved["k"])
    fn = ScoreFn(kind=resolved["score"], model=model, alpha=alpha)
    v_cal = fn.score(calib_arm.x, calib_arm.y)

    gammas = sorted(resolved["gamma"])
    if gammas[0] < 1.0:
        raise ConfigError(f"gamma values must be >= 1, got {gammas[0]}")
    kind, envelope = resolved["method"]
    # One single-strength path per gamma: each gamma keeps its own alg2 scale M.
    thr = np.vstack([
        threshold_path(v_cal, [b(calib_arm.x) + (b.upper(x_test),)], alpha,
                       kind, envelope, resolved["delta"])
        for b in (bound_functions(target, g, prop, p1) for g in gammas)])
    set_lo, set_hi = fn.interval(x_test, thr)
    rows = [[i + 1, _cell(float(g)), _cell(float(thr[j, i])),
             _cell(float(set_lo[j, i])), _cell(float(set_hi[j, i])),
             int(math.isinf(set_lo[j, i])), int(math.isinf(set_hi[j, i]))]
            for j, g in enumerate(gammas) for i in range(x_test.shape[0])]
    out = os.path.join(resolved["out_dir"], "intervals.csv")
    _write_csv(out, _stamp(resolved, h),
               ["row", "gamma", "v_hat", "lo", "hi", "unbounded_lo", "unbounded_hi"],
               rows)
    _write_manifest(resolved, h, "predict", ["intervals.csv", "manifest.json"])


def cmd_sensitivity(resolved: dict, h: str) -> None:
    train, calib = _load_folds(resolved)
    test_x, test_t, test_y = _read_xmatrix(resolved["test"], train.p)
    if test_t is None or test_y is None:
        raise DataError(f"{resolved['test']}: sensitivity test rows need t and y columns")
    grid = (GammaGrid(resolved["gamma_grid"]) if resolved["gamma_grid"] is not None
            else GammaGrid.default())
    alpha = resolved["alpha"]
    kind, envelope = resolved["method"]
    null = NullSpec(resolved["null_kind"], resolved["null_a"])
    prop, p1 = _fit_nuisance(train)

    n = test_x.shape[0]
    gamma_hat = np.ones(n)
    # Counterfactual arm 0 for treated rows (target att), arm 1 for control
    # rows (target atc); each side walks the grid with nested intervals.
    for cf_arm, population, t_obs in ((0, "att", 1), (1, "atc", 0)):
        mask = test_t == t_obs
        if not mask.any():
            continue
        train_arm = _need_arm(train, cf_arm, "training")
        calib_arm = _need_arm(calib, cf_arm, "calibration")
        model = fit_quantile_model(train_arm.x, train_arm.y, k=resolved["k"])
        fn = ScoreFn(kind=resolved["score"], model=model, alpha=alpha)
        v_cal = fn.score(calib_arm.x, calib_arm.y)
        target = TargetSpec(arm=cf_arm, population=population)
        x_side = test_x[mask]
        pairs = (bound_functions(target, g, prop, p1) for g in grid.values)
        thr = threshold_path(v_cal, [b(calib_arm.x) + (b.upper(x_side),) for b in pairs],
                             alpha, kind, envelope, resolved["delta"])
        gamma_hat[mask] = scan_gamma_values(fn, x_side, t_obs, test_y[mask], thr, grid, null)

    censored = np.isinf(gamma_hat)
    rows = [[i + 1, int(test_t[i]), _cell(float(test_y[i])),
             _cell(float(gamma_hat[i])), int(censored[i])] for i in range(n)]
    out_dir = resolved["out_dir"]
    _write_csv(os.path.join(out_dir, "gammas.csv"), _stamp(resolved, h),
               ["row", "t", "y", "gamma_hat", "censored"], rows)
    surv = [[_cell(float(g)), _cell(float(s))]
            for g, s in zip(grid.values, survival_curve(gamma_hat, grid))]
    _write_csv(os.path.join(out_dir, "survival.csv"), _stamp(resolved, h),
               ["gamma", "survival"], surv)
    _write_manifest(resolved, h, "sensitivity",
                    ["gammas.csv", "manifest.json", "survival.csv"])


def _read_instance(path: str) -> DiscreteJoint:
    """Worst-case instance reader: columns v, lo, hi, and optional masses m."""
    tab = read_table(path)
    for c in ("v", "lo", "hi"):
        if c not in tab.header:
            raise DataError(f"{path}: missing column {c!r}")
    n = len(tab.rows)
    m = tab.floats("m") if "m" in tab.header else np.full(n, 1.0 / n)
    try:
        return DiscreteJoint(tab.floats("v"), m, tab.floats("lo"), tab.floats("hi"))
    except ValidationError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_worstcase(resolved: dict, h: str) -> None:
    d = _read_instance(resolved["instance"])
    queries = (sorted(set(resolved["at"])) if resolved["at"] is not None
               else [float(v) for v in np.unique(d.v)])
    rows = [[_cell(float(t)), _cell(float(worst_cdf_marginal(d, t)))] for t in queries]
    out_dir = resolved["out_dir"]
    outputs = ["cdf.csv", "manifest.json"]
    _write_csv(os.path.join(out_dir, "cdf.csv"), _stamp(resolved, h),
               ["t", "worst_cdf"], rows)
    results = None
    if resolved["witness"]:
        wit = worst_witness_marginal(d)
        wrows = [[_cell(float(d.v[i])), _cell(float(d.m[i])),
                  _cell(float(d.lo[i])), _cell(float(d.hi[i])),
                  _cell(float(wit.w_star[i]))] for i in range(d.v.shape[0])]
        _write_csv(os.path.join(out_dir, "witness.csv"), _stamp(resolved, h),
                   ["v", "m", "lo", "hi", "w_star"], wrows)
        outputs.append("witness.csv")
        results = {"gamma_mix": wit.gamma_mix,
                   "t_star": None if math.isinf(wit.t_star) else wit.t_star}
    _write_manifest(resolved, h, "worstcase", outputs, results)


def cmd_simulate(resolved: dict, h: str) -> None:
    cfg = SimConfig(
        n_train=resolved["n_train"], n_calib=resolved["n_calib"],
        n_test=resolved["n_test"], p=resolved["p"],
        gamma_true=resolved["gamma_true"], arm=resolved["arm"],
        population=resolved["population"], score=resolved["score"],
        alphas=resolved["alphas"], delta=resolved["delta"],
        procedure=resolved["procedure"], envelope=resolved["envelope"],
        bounds=resolved["bounds"], gamma_bounds=resolved["gamma_bounds"],
        effect_kind=resolved["effect_kind"], effect_a=resolved["effect_a"],
        n_reps=resolved["n_reps"], seed=resolved["seed"],
        n_eval_gap=resolved["n_eval_gap"], grid=resolved["grid"],
    )
    threads = _n_threads(resolved)
    out_dir = resolved["out_dir"]
    if resolved["kind"] == "coverage":
        report = run_coverage_experiment(cfg, threads=threads)
        rows = []
        extras = [k for k in ("marginal_gap_mean", "pac_gap_mean", "lower_bound_l1_mean")
                  if k in next(iter(report["per_alpha"].values()))]
        for key in sorted(report["per_alpha"], key=float):
            entry = report["per_alpha"][key]
            rows.append([key, _cell(entry["coverage_mean"]), _cell(entry["coverage_q05"])]
                        + [_cell(entry[k]) for k in extras])
        _write_csv(os.path.join(out_dir, "coverage.csv"), _stamp(resolved, h),
                   ["alpha", "coverage_mean", "coverage_q05"] + extras, rows)
        curve = "coverage.csv"
    else:
        report = run_sensitivity_experiment(cfg, threads=threads)
        rows = [[_cell(g),
                 _cell(report["alg1"]["survival_mean"][j]),
                 _cell(report["alg2"]["survival_mean"][j]),
                 _cell(report["alg1"]["fdp_max"][j]),
                 _cell(report["alg2"]["fdp_max"][j])]
                for j, g in enumerate(report["gamma_grid"])]
        _write_csv(os.path.join(out_dir, "curves.csv"), _stamp(resolved, h),
                   ["gamma", "survival_alg1", "survival_alg2", "fdp_alg1", "fdp_alg2"],
                   rows)
        curve = "curves.csv"
    report["config_hash"] = h
    report["kind"] = resolved["kind"]
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(resolved, h, "simulate", [curve, "manifest.json", "report.json"])


_COMMANDS = {
    "predict": cmd_predict,
    "sensitivity": cmd_sensitivity,
    "worstcase": cmd_worstcase,
    "simulate": cmd_simulate,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="confshift",
                     description="Prediction sets under bounded likelihood-ratio shift.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, table in _TABLES.items():
        p = sub.add_parser(command, help=f"run the {command} pipeline")
        for key, opt in table.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None, metavar="V", help=opt.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        resolved = _resolve(ns.command, ns)
        h = _config_hash(ns.command, resolved)
        os.makedirs(resolved["out_dir"], exist_ok=True)
        _COMMANDS[ns.command](resolved, h)
        return 0
    except DataError as exc:
        print(f"confshift: data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"confshift: config error: missing file: {exc.filename}", file=sys.stderr)
        return 3
    except (ConfigError, ValidationError) as exc:
        print(f"confshift: config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
