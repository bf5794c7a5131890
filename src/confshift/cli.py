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

Exit codes: 0 success (with at most one ``confshift: warning:`` line, for
a k above the training size), 2 malformed or insufficient input data, 3 bad
configuration (including missing files and unknown keys).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields
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
    read_units,
    split,
    write_table,
)
from .nuisance import TargetSpec, _EnvelopeOverflow, fit_propensity
from .pac import METHODS
from .scores import MAX_SQ_NORM, ScoreFn, _sq_norms, clamp_k
from .sensitivity import GammaGrid, NullSpec, survival_curve
from .simulate import (SimConfig, _calibrated_thresholds, run_coverage_experiment,
                       run_sensitivity_experiment, scan_gamma_values, training_arm)
from .worstcase import DiscreteJoint, worst_cdf_marginal, worst_witness_marginal

# Called through .simulate or not at all; still bound here because the
# benchmark's tracer (perfbench/tracing.py) patches these callables by this
# module's names.
from .marginal import robust_threshold_many  # noqa: F401
from .nuisance import bound_functions  # noqa: F401
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


# Caps on the count options, far above every size the campaigns and the
# benchmark use. At the caps one fold's draw still fits a few hundred MB at
# p = 4, while a count far beyond them would end in an uncaught MemoryError.
_MAX_UNITS = 10 ** 6  # n_train, n_calib, n_test, n_eval_gap, and k
_MAX_P = 1_000
_MAX_REPS = 100_000


def _pinteger(low: int, high: float = math.inf) -> Callable[[str], int]:
    def parse(s: str) -> int:
        value = int(s)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        if value > high:
            raise ValueError(f"must be <= {high}, got {value}")
        return value

    return parse


def _pfloat(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return value


def _plevel(s: str) -> float:
    value = _pfloat(s)
    if not 0.0 < value < 1.0:
        raise ValueError(f"must be in (0, 1), got {value}")
    return value


def _pfraction(s: str) -> float:
    """A train share, checked by the split's own rule."""
    try:
        return SplitSpec(_pfloat(s), 0).train_fraction
    except ValidationError as exc:
        raise ValueError(str(exc)) from None


def _pbool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _pfloats(s: str, item: Callable[[str], float] = _pfloat) -> tuple[float, ...]:
    vals = tuple(item(part) for part in s.split(",") if part.strip() != "")
    if not vals:
        raise ValueError("empty list")
    if len(set(vals)) < len(vals):
        # A repeat would change the config hash and not the result, or
        # (predict) write its rows twice.
        raise ValueError(f"values must not repeat, got {s!r}")
    return vals


def _plevels(s: str) -> tuple[float, ...]:
    return _pfloats(s, _plevel)


def _parm(s: str) -> int:
    arm = int(s)
    if arm not in (0, 1):
        raise ValueError(f"arm must be 0 or 1, got {arm}")
    return arm


def _pgammas(s: str) -> tuple[float, ...]:
    vals = _pfloats(s)
    if min(vals) < 1.0:
        raise ValueError(f"gamma must be finite and >= 1, got {min(vals)}")
    return vals


def _pgrid(s: str) -> tuple[float, ...]:
    return GammaGrid(_pfloats(s)).values


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
    "seed": _Opt(_pinteger(0), 0, "base RNG seed"),
}

# Folds, levels and quantile model shared by predict and sensitivity.
_FOLDS = {
    "train": _Opt(str, _REQUIRED, "training CSV (x1..xp,t,y)"),
    "calib": _Opt(str, None, "calibration CSV; default: split off train"),
    "train_fraction": _Opt(_pfraction, 0.5, "train share when splitting"),
    "alpha": _Opt(_plevel, 0.1, "miscoverage level"),
    "delta": _Opt(_plevel, 0.05, "PAC failure level (alg2)"),
    "method": _Opt(_pmethod, ("alg1", None),
                   "alg1 or alg2:plugin|hoeffding|wsr; plugin carries no guarantee"),
    "k": _Opt(_pinteger(1, _MAX_UNITS), None, "neighbor count for the quantile model"),
}

_SCORE = _pchoice(*ScoreFn.KINDS)
_POP = _pchoice("ate", "att", "atc")

_TABLES: dict[str, dict[str, _Opt]] = {
    "predict": {
        **_COMMON,
        **_FOLDS,
        "test": _Opt(str, _REQUIRED, "test CSV (x1..xp[,t,y])"),
        "gamma": _Opt(_pgammas, (1.0,), "selection strengths, comma separated"),
        "arm": _Opt(_parm, 1, "counterfactual arm (0 or 1)"),
        "population": _Opt(_POP, "ate", "target population"),
        "score": _Opt(_SCORE, "cqr", "nonconformity score kind"),
    },
    "sensitivity": {
        **_COMMON,
        **_FOLDS,
        "test": _Opt(str, _REQUIRED, "test CSV with observed t,y"),
        "gamma_grid": _Opt(_pgrid, None, "grid of strengths; default 1..26"),
        "score": _Opt(_SCORE, "cqr_one_sided", "nonconformity score kind"),
        "null_kind": _Opt(_pchoice("point", "le", "ge"), "le", "shape of the effect null set C"),
        "null_a": _Opt(_pfloat, 0.0, "boundary of C"),
    },
    "worstcase": {
        **_COMMON,
        "instance": _Opt(str, _REQUIRED, "instance CSV (v,lo,hi[,m])"),
        "at": _Opt(_pfloats, None, "query points; default: the atom grid"),
        "witness": _Opt(_pbool, False, "also write the attaining weights"),
    },
    "simulate": {
        **_COMMON,
        "threads": _Opt(_pinteger(1), None, "worker process cap; default: every usable CPU"),
        "kind": _Opt(_pchoice("coverage", "sensitivity"), "coverage", "experiment family"),
        "n_train": _Opt(_pinteger(1, _MAX_UNITS), 1000, "target-arm units in the training fold"),
        "n_calib": _Opt(_pinteger(1, _MAX_UNITS), 500, "target-arm units in the calibration fold"),
        "n_test": _Opt(_pinteger(1, _MAX_UNITS), 1, "test units per replication"),
        "p": _Opt(_pinteger(1, _MAX_P), 4, "covariate dimension"),
        "gamma_true": _Opt(_pfloat, 1.0, "latent confounding strength"),
        "arm": _Opt(_parm, 1, "counterfactual arm (0 or 1)"),
        "population": _Opt(_POP, "ate", "target population"),
        "score": _Opt(_SCORE, "cqr", "nonconformity score kind"),
        "alphas": _Opt(_plevels, (0.2,), "miscoverage levels"),
        "delta": _Opt(_plevel, 0.05, "PAC failure level"),
        "procedure": _Opt(_pchoice("alg1", "alg2"), "alg1", "threshold procedure"),
        "envelope": _Opt(_pchoice(*METHODS), "wsr", "alg2 envelope"),
        "bounds": _Opt(_pchoice("oracle", "estimated"), "oracle", "bound construction"),
        "gamma_bounds": _Opt(_pfloat, None, "strength used for bounds; default gamma_true"),
        "effect_kind": _Opt(_pchoice("fixed", "random"), "fixed", "treatment effect form"),
        "effect_a": _Opt(_pfloat, 0.0, "effect size a"),
        "n_reps": _Opt(_pinteger(1, _MAX_REPS), 20, "replications"),
        "n_eval_gap": _Opt(_pinteger(0, _MAX_UNITS), 0, "evaluation draws for gap certificates"),
        "grid": _Opt(_pgrid, None, "sensitivity grid; default 1..26"),
    },
}

_HASH_EXCLUDE = ("config", "out_dir", "threads")
_PATH_KEYS = ("train", "calib", "test", "instance")


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
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
    if "method" in resolved:  # the _FOLDS block of predict and sensitivity
        _reject_unread(resolved)
    for key in _PATH_KEYS:
        path = resolved.get(key)
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"{key} file does not exist: {path}")
    return resolved


def _reject_unread(resolved: dict) -> None:
    """Refuse a fold setting the run never reads unless it is left at its
    default, as ``simulate`` does for its campaigns."""
    for key, unread, when in (
            ("delta", resolved["method"][1] in (None, "plugin"), "under alg1 or alg2:plugin"),
            ("train_fraction", resolved["calib"] is not None, "when --calib is given")):
        if unread and resolved[key] != _FOLDS[key].default:
            raise ConfigError(f"{key} is not read {when}; leave it at its default")


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


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _stamp(resolved: dict, h: str) -> str:
    return f"confshift config_hash={h} seed={resolved['seed']}"


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


def _read_test(path: str, p_train: int, need_outcome: bool) -> dict[str, np.ndarray]:
    """Test units file, with as many covariates as the training file."""
    cols = read_units(path, need_outcome)
    p = cols["x"].shape[1]
    if p != p_train:
        raise DataError(f"test has {p} covariates, training has {p_train}")
    _check_covariates(path, cols["x"])
    return cols


def _load_folds(resolved: dict) -> tuple[Dataset, Dataset]:
    train = read_dataset(resolved["train"])
    _check_covariates(resolved["train"], train.x)
    if resolved["calib"] is not None:
        calib = read_dataset(resolved["calib"])
        if calib.p != train.p:
            raise DataError(f"calibration has {calib.p} covariates, training has {train.p}")
        _check_covariates(resolved["calib"], calib.x)
        return train, calib
    return split(train, SplitSpec(resolved["train_fraction"], resolved["seed"]))


def _check_covariates(path: str, x: np.ndarray) -> None:
    """A data error naming the first row of ``path`` whose covariates are so
    large that the kNN distances would overflow (``scores.MAX_SQ_NORM``)."""
    sq, i = _sq_norms(x)
    if i >= 0:
        line, _ = read_table(path).cell(i, "x1")
        raise DataError(f"{path} row {line}: covariates have squared norm {float(sq[i])!r}, "
                        f"over {MAX_SQ_NORM!r}: their distances would overflow")


def _need_arm(ds: Dataset, arm: int, role: str) -> Dataset:
    try:
        return ds.arm(arm)
    except ValidationError:
        raise DataError(f"{role} data has no units with t={arm}") from None


def _k_clamp_warning(k: int | None, sizes: dict[int, int]) -> str | None:
    """The warning line for the arms in ``sizes`` (arm: training units)
    whose fits clamp ``k`` (:func:`clamp_k`) to their size, or None. The
    command returns it and :func:`main` prints it once the run succeeded."""
    over = []
    for arm, n in sorted(sizes.items()):
        want, used = clamp_k(k, n)
        if used < want:
            over.append(f"k={want} exceeds training size n={n} of arm {arm}")
    return f"confshift: warning: {'; '.join(over)}; clamping to n" if over else None


def _fit_nuisance(train: Dataset) -> tuple:
    p1 = float(np.mean(train.t == 1))
    if p1 in (0.0, 1.0):
        raise DataError(f"training data has no units with t={int(p1 == 0.0)}")
    return fit_propensity(train.x, train.t), p1


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_predict(resolved: dict, h: str) -> str | None:
    train, calib = _load_folds(resolved)
    arm = resolved["arm"]
    x_test = _read_test(resolved["test"], train.p, need_outcome=False)["x"]
    prop, p1 = _fit_nuisance(train)
    train_arm = train.arm(arm)
    calib_arm = _need_arm(calib, arm, "calibration")
    warning = _k_clamp_warning(resolved["k"], {arm: train_arm.n})
    gammas = sorted(resolved["gamma"])
    # Not nested: a row's interval at one gamma never depends on the other gammas.
    (fn,), q_test, thr = _calibrated_thresholds(
        TargetSpec(arm=arm, population=resolved["population"]), gammas, prop, p1,
        (train_arm.x, train_arm.y), (calib_arm.x, calib_arm.y), x_test, resolved["score"],
        (resolved["alpha"],), (resolved["method"],), resolved["delta"], resolved["k"],
        nested=False)
    set_lo, set_hi = fn.interval_at(q_test[:, 0], thr)
    n = x_test.shape[0]
    write_table(os.path.join(resolved["out_dir"], "intervals.csv"), {
        "row": np.tile(np.arange(1, n + 1), len(gammas)),
        "gamma": np.repeat(gammas, n), "v_hat": thr.ravel(),
        "lo": set_lo.ravel(), "hi": set_hi.ravel(),
        "unbounded_lo": np.isinf(set_lo).ravel(), "unbounded_hi": np.isinf(set_hi).ravel(),
    }, _stamp(resolved, h))
    _write_manifest(resolved, h, "predict", ["intervals.csv", "manifest.json"])
    return warning


def cmd_sensitivity(resolved: dict, h: str) -> str | None:
    train, calib = _load_folds(resolved)
    test = _read_test(resolved["test"], train.p, need_outcome=True)
    test_x, test_t, test_y = test["x"], test["t"], test["y"]
    grid = (GammaGrid(resolved["gamma_grid"]) if resolved["gamma_grid"] is not None
            else GammaGrid.default())
    null = NullSpec(resolved["null_kind"], resolved["null_a"])
    prop, p1 = _fit_nuisance(train)

    n = test_x.shape[0]
    gamma_hat = np.ones(n)
    # Counterfactual arm 0 for treated rows (target att), arm 1 for control
    # rows (target atc); each side walks the grid with nested intervals.
    sides = [side for side in ((0, "att", 1), (1, "atc", 0)) if (test_t == side[2]).any()]
    warning = _k_clamp_warning(resolved["k"], {cf_arm: int(np.sum(train.t == cf_arm))
                                               for cf_arm, _, _ in sides})
    for cf_arm, population, t_obs in sides:
        mask = test_t == t_obs
        train_arm = train.arm(cf_arm)
        calib_arm = _need_arm(calib, cf_arm, "calibration")
        (fn,), q_side, thr = _calibrated_thresholds(
            TargetSpec(arm=cf_arm, population=population), grid.values, prop, p1,
            (train_arm.x, train_arm.y), (calib_arm.x, calib_arm.y), test_x[mask],
            resolved["score"], (resolved["alpha"],), (resolved["method"],),
            resolved["delta"], resolved["k"])
        gamma_hat[mask] = scan_gamma_values(fn, q_side[:, 0], t_obs, test_y[mask], thr[0, 0],
                                            grid, null)

    out_dir, stamp = resolved["out_dir"], _stamp(resolved, h)
    write_table(os.path.join(out_dir, "gammas.csv"), {
        "row": np.arange(1, n + 1), "t": test_t, "y": test_y,
        "gamma_hat": gamma_hat, "censored": np.isinf(gamma_hat),
    }, stamp)
    write_table(os.path.join(out_dir, "survival.csv"), {
        "gamma": grid.values, "survival": survival_curve(gamma_hat, grid),
    }, stamp)
    _write_manifest(resolved, h, "sensitivity",
                    ["gammas.csv", "manifest.json", "survival.csv"])
    return warning


def _read_instance(path: str) -> DiscreteJoint:
    """Worst-case instance reader: columns v, lo, hi, and optional masses m."""
    tab = read_table(path)
    for c in ("v", "lo", "hi"):
        if c not in tab.header:
            raise DataError(f"{path}: missing column {c!r}")
    n = len(tab)
    m = tab.floats("m") if "m" in tab.header else np.full(n, 1.0 / n)
    try:
        return DiscreteJoint(tab.floats("v"), m, tab.floats("lo"), tab.floats("hi"))
    except ValidationError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_worstcase(resolved: dict, h: str) -> None:
    d = _read_instance(resolved["instance"])
    queries = np.unique(resolved["at"] if resolved["at"] is not None else d.v)
    cdf = worst_cdf_marginal(d, queries)
    out_dir, stamp = resolved["out_dir"], _stamp(resolved, h)
    outputs = ["cdf.csv", "manifest.json"]
    write_table(os.path.join(out_dir, "cdf.csv"), {"t": queries, "worst_cdf": cdf}, stamp)
    results = None
    if resolved["witness"]:
        wit = worst_witness_marginal(d)
        write_table(os.path.join(out_dir, "witness.csv"), {
            "v": d.v, "m": d.m, "lo": d.lo, "hi": d.hi, "w_star": wit.w_star}, stamp)
        outputs.append("witness.csv")
        results = {"gamma_mix": wit.gamma_mix,
                   "t_star": None if math.isinf(wit.t_star) else wit.t_star}
    _write_manifest(resolved, h, "worstcase", outputs, results)


def cmd_simulate(resolved: dict, h: str) -> str | None:
    cfg = SimConfig(**{f.name: resolved[f.name] for f in fields(SimConfig)})
    out_dir = resolved["out_dir"]
    # Both campaigns fit on exactly n_train units of one arm, at the default k.
    warning = _k_clamp_warning(None, {training_arm(cfg, resolved["kind"]): cfg.n_train})
    if resolved["kind"] == "coverage":
        report = run_coverage_experiment(cfg, threads=resolved["threads"])
        per_alpha = report["per_alpha"]
        alphas = sorted(per_alpha, key=float)
        names = ["coverage_mean", "coverage_q05"] + [
            k for k in ("marginal_gap_mean", "pac_gap_mean", "lower_bound_l1_mean")
            if k in per_alpha[alphas[0]]]
        columns = {"alpha": alphas, **{k: [per_alpha[a][k] for a in alphas] for k in names}}
        curve = "coverage.csv"
    else:
        report = run_sensitivity_experiment(cfg, threads=resolved["threads"])
        alg1, alg2 = report["alg1"], report["alg2"]
        columns = {"gamma": report["gamma_grid"],
                   "survival_alg1": alg1["survival_mean"], "survival_alg2": alg2["survival_mean"],
                   "fdp_alg1": alg1["fdp_max"], "fdp_alg2": alg2["fdp_max"]}
        curve = "curves.csv"
    write_table(os.path.join(out_dir, curve), columns, _stamp(resolved, h))
    report["config_hash"] = h
    report["kind"] = resolved["kind"]
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _write_manifest(resolved, h, "simulate", [curve, "manifest.json", "report.json"])
    return warning


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


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as
    it was, and a build costs about as much as reading a units file."""
    return _build_parser()


def _strength_key(command: str, resolved: dict) -> str:
    """The option holding the strengths a command builds its envelopes at."""
    if command == "simulate" and resolved["kind"] == "coverage":
        return "gamma_true" if resolved["gamma_bounds"] is None else "gamma_bounds"
    return {"predict": "gamma", "sensitivity": "gamma_grid", "simulate": "grid"}[command]


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
    try:
        resolved = _resolve(ns.command, ns)
        h = _config_hash(ns.command, resolved)
        os.makedirs(resolved["out_dir"], exist_ok=True)
        warning = _COMMANDS[ns.command](resolved, h)
    except DataError as exc:
        print(f"confshift: data error: {exc}", file=sys.stderr)
        return 2
    except _EnvelopeOverflow as exc:
        print(f"confshift: config error: bad value for {_strength_key(ns.command, resolved)}: "
              f"{exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"confshift: config error: missing file: {exc.filename}", file=sys.stderr)
        return 3
    except (ConfigError, ValidationError) as exc:
        print(f"confshift: config error: {exc}", file=sys.stderr)
        return 3
    if warning is not None:
        print(warning, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
