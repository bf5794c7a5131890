"""Shared data structures and deterministic primitives.

Everything downstream (scores, calibration, experiments, CLI) builds on the
pieces here: the array-backed :class:`Dataset`, deterministic splitting, the
lower-quantile convention, seeded random generators, and CSV ingestion with
row-level error reporting.

Conventions
-----------
* Quantiles are always the left-continuous generalized inverse
  ``Quantile(q, Z) = inf{z : P(Z <= z) >= q}``.
* Randomness always flows through :func:`rng` (PCG64 with explicit seeding);
  no module touches global random state.
* Cumulative-probability comparisons carry a ``1e-12`` slack so exact
  rational boundary hits (e.g. 9/10 vs ``1 - 0.1``) behave as in exact
  arithmetic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import ndtri

__all__ = [
    "ConfigError",
    "DataError",
    "Dataset",
    "Level",
    "PredictionSet",
    "Sample",
    "SplitSpec",
    "ValidationError",
    "normal_inv_cdf",
    "quantile_inf",
    "read_dataset",
    "rng",
    "split",
    "write_dataset",
]

# Absolute slack for cumulative-probability threshold comparisons.
PROB_SLACK = 1e-12


class ValidationError(ValueError):
    """Structurally invalid inputs (empty folds, degenerate treatment, ...)."""


class DataError(ValueError):
    """Malformed input data (CSV schema or value problems); carries row info."""


class ConfigError(ValueError):
    """Invalid configuration values (CLI / config-file layer)."""


def rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Seeded PCG64 generator; the only random source used by the package."""
    return np.random.Generator(np.random.PCG64(seed))


def normal_inv_cdf(q):
    """Standard normal inverse CDF (scipy's ndtri, machine precision)."""
    return ndtri(q)


def quantile_inf(values: np.ndarray, q: float, weights: np.ndarray | None = None) -> float:
    """Lower quantile inf{z : P(Z <= z) >= q} of a discrete distribution.

    With ``weights`` the distribution puts mass ``weights/weights.sum()`` on
    ``values``; without, equal mass. Returns ``+inf`` when the target level is
    never reached (possible only for q > 1 up to slack).
    """
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"quantile level must be in (0, 1], got {q}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValidationError("quantile of an empty sample")
    order = np.argsort(values, kind="stable")
    if weights is None:
        k = math.ceil(q * values.size - PROB_SLACK)
        return float(values[order[max(k, 1) - 1]])
    weights = np.asarray(weights, dtype=float)
    if weights.shape != values.shape or np.any(weights < 0):
        raise ValidationError("weights must be nonnegative and match values")
    total = float(weights.sum())
    if total <= 0:
        raise ValidationError("weights must have positive total mass")
    cum = np.cumsum(weights[order]) / total
    idx = int(np.searchsorted(cum, q - PROB_SLACK, side="left"))
    if idx >= values.size:
        return math.inf
    return float(values[order[idx]])


@dataclass(frozen=True)
class Level:
    """Nominal error levels: miscoverage ``alpha``, calibration failure ``delta``."""

    alpha: float
    delta: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValidationError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class Sample:
    """One observational unit. ``y`` is the realized outcome of arm ``t``."""

    x: tuple[float, ...]
    t: int
    y: float
    y1: float | None = None
    y0: float | None = None


class Dataset:
    """Array-backed collection of units (x, t, y[, y1, y0]).

    ``x`` is (n, p) float, ``t`` is 0/1, ``y`` the realized outcome. The
    counterfactual columns are optional and, when present, must be consistent
    with the realized outcome: y == y1 where t == 1 and y == y0 where t == 0.
    """

    def __init__(self, x, t, y, y1=None, y0=None):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.t = np.asarray(t, dtype=int)
        self.y = np.asarray(y, dtype=float)
        self.y1 = None if y1 is None else np.asarray(y1, dtype=float)
        self.y0 = None if y0 is None else np.asarray(y0, dtype=float)
        n = self.x.shape[0]
        if n == 0:
            raise ValidationError("empty-dataset")
        for name, arr in (("t", self.t), ("y", self.y), ("y1", self.y1), ("y0", self.y0)):
            if arr is not None and arr.shape != (n,):
                raise ValidationError(f"column {name} has shape {arr.shape}, expected ({n},)")
        if not np.isin(self.t, (0, 1)).all():
            raise ValidationError("treatment indicator must be 0 or 1")
        if self.y1 is not None:
            m = self.t == 1
            if not np.array_equal(self.y[m], self.y1[m]):
                raise ValidationError("y must equal y1 on treated units")
        if self.y0 is not None:
            m = self.t == 0
            if not np.array_equal(self.y[m], self.y0[m]):
                raise ValidationError("y must equal y0 on control units")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Sample:
        return Sample(
            x=tuple(self.x[i]),
            t=int(self.t[i]),
            y=float(self.y[i]),
            y1=None if self.y1 is None else float(self.y1[i]),
            y0=None if self.y0 is None else float(self.y0[i]),
        )

    def __iter__(self) -> Iterator[Sample]:
        return (self[i] for i in range(self.n))

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            self.x[idx],
            self.t[idx],
            self.y[idx],
            None if self.y1 is None else self.y1[idx],
            None if self.y0 is None else self.y0[idx],
        )

    def arm(self, t: int) -> "Dataset":
        """Units with treatment indicator ``t`` (errors when none exist)."""
        mask = self.t == t
        if not mask.any():
            raise ValidationError("degenerate-treatment: no units with t=%d" % t)
        return self.subset(np.nonzero(mask)[0])


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/calibration split: sizes floor(n*f) / remainder."""

    train_fraction: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Random partition of ``ds`` into (train, calibration) folds.

    The permutation is a pure function of ``spec.seed``; identical seeds give
    identical folds. Either fold coming out empty is an error ("empty-fold").
    """
    n_train = int(math.floor(ds.n * spec.train_fraction))
    if n_train == 0 or n_train == ds.n:
        raise ValidationError(
            f"empty-fold: n={ds.n}, train_fraction={spec.train_fraction}"
        )
    perm = rng(spec.seed).permutation(ds.n)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


@dataclass(frozen=True)
class PredictionSet:
    """Score-sublevel prediction set {y : V(x, y) <= threshold}.

    ``threshold`` may be ``+inf`` (the whole outcome space, for one- and
    two-sided scores alike). Realized outcome intervals live with the score
    functions; membership here is on the score scale.
    """

    threshold: float
    score_id: str

    def covers(self, score_value) -> np.ndarray | bool:
        return np.asarray(score_value, dtype=float) <= self.threshold


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------
# Schema: header row with columns x1..xp (floats), t (0/1), y (float) and the
# optional counterfactual pair y1, y0. Column order is free; '#'-prefixed
# lines are skipped (output files carry a provenance comment up top).


@dataclass(frozen=True)
class CsvTable:
    """Header and data rows of a CSV file, each row as long as the header."""

    path: str
    header: list[str]
    rows: list[list[str]]
    lines: list[int]  # 1-based file line of each data row

    def floats(self, col: str) -> np.ndarray:
        """Column ``col`` as floats; a cell that is not a finite number
        (nan and inf included) raises, naming the file, row and column."""
        j = self.header.index(col)
        out = np.empty(len(self.rows))
        for i, row in enumerate(self.rows):
            try:
                out[i] = float(row[j])
            except ValueError:
                out[i] = math.nan
            if not math.isfinite(out[i]):
                raise DataError(f"{self.path} row {self.lines[i]}: column {col!r} "
                                f"is not a finite number: {row[j]!r}")
        return out


def read_table(path: str) -> CsvTable:
    """Read a CSV file with a header row and at least one data row.

    Blank and '#'-prefixed lines are skipped; header names are stripped. The
    callers apply their own column rules.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        records = [(no, rec) for no, rec in enumerate(csv.reader(fh), start=1)
                   if rec and not rec[0].lstrip().startswith("#")]
    if not records:
        raise DataError(f"{path}: no header row")
    header = [c.strip() for c in records[0][1]]
    for no, rec in records[1:]:
        if len(rec) != len(header):
            raise DataError(f"{path} row {no}: expected {len(header)} fields, got {len(rec)}")
    if len(records) == 1:
        raise DataError(f"{path}: no data rows")
    return CsvTable(path, header, [rec for _, rec in records[1:]],
                    [no for no, _ in records[1:]])


def read_dataset(path: str) -> Dataset:
    """Read a dataset CSV, reporting the 1-based file line of any bad row."""
    tab = read_table(path)
    header = tab.header
    x_cols = sorted(
        (c for c in header if c.startswith("x") and c[1:].isdigit()),
        key=lambda c: int(c[1:]),
    )
    p = len(x_cols)
    if p == 0 or [int(c[1:]) for c in x_cols] != list(range(1, p + 1)):
        raise DataError(f"{path}: covariate columns must be x1..xp, got {x_cols}")
    for required in ("t", "y"):
        if required not in header:
            raise DataError(f"{path}: missing required column {required!r}")
    if ("y1" in header) != ("y0" in header):
        raise DataError(f"{path}: y1 and y0 must both be present or both absent")
    j = header.index("t")
    for record, ln in zip(tab.rows, tab.lines):
        if record[j].strip() not in ("0", "1"):
            raise DataError(f"{path} row {ln}: column 't' must be 0 or 1, "
                            f"got {record[j].strip()!r}")
    t = np.array([int(record[j]) for record in tab.rows])
    x = np.column_stack([tab.floats(c) for c in x_cols])
    cf = [tab.floats("y1"), tab.floats("y0")] if "y1" in header else [None, None]
    try:
        return Dataset(x, t, tab.floats("y"), *cf)
    except ValidationError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_dataset(path: str, ds: Dataset, comment: str | None = None) -> None:
    """Write a dataset CSV (floats via repr, so reading back is bit-exact)."""
    header = [f"x{j + 1}" for j in range(ds.p)] + ["t", "y"]
    if ds.y1 is not None and ds.y0 is not None:
        header += ["y1", "y0"]
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.x[i]] + [str(int(ds.t[i])), repr(float(ds.y[i]))]
            if ds.y1 is not None and ds.y0 is not None:
                row += [repr(float(ds.y1[i])), repr(float(ds.y0[i]))]
            writer.writerow(row)
