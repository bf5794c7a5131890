"""Shared data structures and deterministic primitives.

Everything downstream (scores, calibration, experiments, CLI) builds on the
pieces here: the array-backed :class:`Dataset`, deterministic splitting,
seeded random generators, the cumulative-sum kernel behind every envelope,
two special functions, and CSV ingestion with row-level error reporting.

The special functions keep scipy off the import path; importing
``scipy.special`` was about half of every CLI start:

* :func:`expit`, the logistic sigmoid, takes ``exp`` from the C library,
  as scipy's ``expit`` does, so every output bit matches it. numpy's own
  float64 ``exp`` is a SIMD kernel that differs from libm's in the last bit
  on about 2 % of inputs, which would move simulated treatments.
* :func:`ndtri`, the inverse normal CDF, is Wichura's AS241, the standard
  library's algorithm, vectorized; it is within 8 ulps of scipy's.

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
import io
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "DataError",
    "Dataset",
    "ValidationError",
    "read_dataset",
    "rng",
    "split",
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


def _envelope_sums(v, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted scores and the two cumulative sums behind every envelope.

    Returns ``(vs, cum_lo, tail_hi)``: the scores in stable sorted order,
    ``cum_lo[..., j]`` the sum of ``lo`` over the first j sorted scores and
    ``tail_hi[..., j]`` the sum of ``hi`` over the rest (both n + 1 long on
    the last axis). With ``j = searchsorted(vs, t, "right")`` they give
    sum(lo 1{V <= t}) and sum(hi 1{V > t}) at any t, ties included.

    ``lo`` and ``hi`` may be (strengths x n): one sort of ``v`` serves every
    row, and each row's sums equal those of the 1-d call, because a
    cumulative sum along an axis adds in sequence.
    """
    v = np.asarray(v, dtype=float)
    order = np.argsort(v, kind="stable")
    lo = np.asarray(lo, dtype=float)[..., order]
    hi = np.asarray(hi, dtype=float)[..., order]
    zero = np.zeros(lo.shape[:-1] + (1,))
    cum_lo = np.concatenate([zero, np.cumsum(lo, axis=-1)], axis=-1)
    tail_hi = np.concatenate([np.cumsum(hi[..., ::-1], axis=-1)[..., ::-1], zero], axis=-1)
    return v[order], cum_lo, tail_hi


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

# Entries per pass through expit's complex buffer (256 KiB of complex128).
_EXPIT_CHUNK = 1 << 14


def expit(x, out=None) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))`` elementwise, with libm's ``exp``.

    The exponential comes from numpy's complex ``exp`` at a zero imaginary
    part, which calls the C library's ``cexp``; its real part is ``exp``.
    Beyond |x| > 709.08 ``cexp`` rescales and can move the last bit, so the
    few entries in (-710, -709) take ``math.exp`` (overflow giving inf).
    The work runs through one complex buffer of at most ``_EXPIT_CHUNK``
    entries. ``out`` (C-contiguous float64, the shape of ``x``; ``x`` itself
    is allowed) receives the result.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(x, order="C")
    elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array shaped like x")
    src, dst = x.reshape(-1), out.reshape(-1)
    buf = np.empty(min(src.size, _EXPIT_CHUNK), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, src.size, _EXPIT_CHUNK):
            xs, d = src[start:start + _EXPIT_CHUNK], dst[start:start + _EXPIT_CHUNK]
            edge = []
            if np.fmin.reduce(xs) < -709.0:
                at = np.flatnonzero((xs < -709.0) & (xs > -710.0))
                edge = list(zip(at.tolist(), xs[at].tolist()))  # d may be xs
            part = buf[:xs.size]
            np.negative(xs, out=part)
            np.exp(part, out=part)
            np.add(part.real, 1.0, out=d)
            np.divide(1.0, d, out=d)
            for i, v in edge:
                try:
                    d[i] = 1.0 / (1.0 + math.exp(-v))
                except OverflowError:
                    d[i] = 0.0
    return out if out.ndim else out[()]


# Wichura's AS241 rational approximations (Applied Statistics 37, 1988),
# highest power first, as (numerator, denominator) coefficient pairs.
# The central branch serves |p - 0.5| <= 0.425, the two tails r = sqrt(-log
# min(p, 1 - p)) below and above 5.
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 5.2264952788528545610e+3),
    (3.3430575583588128105e+4, 2.8729085735721942674e+4),
    (6.7265770927008700853e+4, 3.9307895800092710610e+4),
    (4.5921953931549871457e+4, 2.1213794301586595867e+4),
    (1.3731693765509461125e+4, 5.3941960214247511077e+3),
    (1.9715909503065514427e+3, 6.8718700749205790830e+2),
    (1.3314166789178437745e+2, 4.2313330701600911252e+1),
    (3.3871328727963666080e+0, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 1.05075007164441684324e-9),
    (2.2723844989269184583e-2, 5.4759380849953449460e-4),
    (2.4178072517745061177e-1, 1.5198666563616457197e-2),
    (1.2704582524523683826e+0, 1.4810397642748007459e-1),
    (3.6478483247632045505e+0, 6.8976733498510000455e-1),
    (5.7694972214606914055e+0, 1.6763848301838038494e+0),
    (4.6303378461565452959e+0, 2.0531916266377588219e+0),
    (1.4234371107496835773e+0, 1.0))
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.04426310338993978564e-15),
    (2.71155556874348757815e-5, 1.42151175831644588870e-7),
    (1.24266094738807843860e-3, 1.84631831751005468180e-5),
    (2.65321895265761230930e-2, 7.86869131145613259100e-4),
    (2.96560571828504891230e-1, 1.48753612908506148525e-2),
    (1.78482653991729133580e+0, 1.36929880922735805310e-1),
    (5.46378491116411436990e+0, 5.99832206555887937690e-1),
    (6.65790464350110377720e+0, 1.0))


def _rational(coef, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of one AS241 branch at ``r``, by one Horner
    pass over the coefficient pairs. Python-float coefficients take numpy's
    scalar loops, faster here than a stacked (2, n) pass with broadcast adds."""
    (a, b), *rest = coef
    num, den = a * r, b * r
    for a, b in rest[:-1]:
        num += a
        num *= r
        den += b
        den *= r
    num += rest[-1][0]
    den += rest[-1][1]
    return num, den


def _central_ndtri(q: np.ndarray) -> np.ndarray:
    num, den = _rational(_AS241_CENTRAL, 0.180625 - q * q)
    num *= q
    return np.divide(num, den, out=num)


def ndtri(p):
    """Inverse of the standard normal CDF elementwise (Wichura's AS241).

    Vectorized from the standard library's pure-Python
    ``statistics._normal_dist_inv_cdf`` (the tails take numpy's ``log``);
    within 8 ulps of Cephes' ``ndtri``. Each branch runs on its own entries
    only. ``ndtri(0) = -inf``, ``ndtri(1) = inf``, nan outside [0, 1].
    """
    p = np.asarray(p, dtype=float)
    shape = p.shape
    p = p.reshape(-1)
    q = p - 0.5
    central = np.abs(q) <= 0.425
    if central.all():
        return _central_ndtri(q).reshape(shape)[()]
    x = np.empty_like(q)
    x[central] = _central_ndtri(q[central])
    tail = ~central
    pt, lower = p[tail], q[tail] < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.where(lower, pt, 1.0 - pt)))
        xt = np.empty_like(r)
        near = r <= 5.0
        for coef, shift, rows in ((_AS241_NEAR, 1.6, near), (_AS241_FAR, 5.0, ~near)):
            num, den = _rational(coef, r[rows] - shift)
            xt[rows] = num / den
    xt[r == np.inf] = np.inf  # p = 0 or 1
    x[tail] = np.where(lower, -xt, xt)
    return x.reshape(shape)[()]


class Dataset:
    """Array-backed collection of observed units (x, t, y).

    ``x`` is (n, p) float, ``t`` is 0/1, ``y`` the realized outcome.
    """

    def __init__(self, x, t, y):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.t = np.asarray(t, dtype=int)
        self.y = np.asarray(y, dtype=float)
        n = self.x.shape[0]
        if n == 0:
            raise ValidationError("empty-dataset")
        for name, arr in (("t", self.t), ("y", self.y)):
            if arr.shape != (n,):
                raise ValidationError(f"column {name} has shape {arr.shape}, expected ({n},)")
        if not np.isin(self.t, (0, 1)).all():
            raise ValidationError("treatment indicator must be 0 or 1")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.n

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.x[idx], self.t[idx], self.y[idx])

    def arm(self, t: int) -> "Dataset":
        """Units with treatment indicator ``t`` (errors when none exist)."""
        mask = self.t == t
        if not mask.any():
            raise ValidationError("degenerate-treatment: no units with t=%d" % t)
        return self.subset(np.nonzero(mask)[0])


def _train_share(train_fraction: float) -> float:
    """``train_fraction``, after checking that it lies in (0, 1)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    return train_fraction


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random partition of ``ds`` into (train, calibration) folds of sizes
    floor(n * train_fraction) and the remainder.

    The permutation is a pure function of ``seed``; identical seeds give
    identical folds. Either fold coming out empty is an error ("empty-fold").
    """
    n_train = int(math.floor(ds.n * _train_share(train_fraction)))
    if n_train == 0 or n_train == ds.n:
        raise ValidationError(f"empty-fold: n={ds.n}, train_fraction={train_fraction}")
    perm = rng(seed).permutation(ds.n)
    return ds.subset(perm[:n_train]), ds.subset(perm[n_train:])


# ---------------------------------------------------------------------------
# CSV ingestion / serialization
# ---------------------------------------------------------------------------
# Units files (train, calib, test) have one rule: a header row naming the
# covariates x1..xp in any order, the treatment t (0 or 1) and the outcome y;
# any other column is an error. Train and calib files need t and y, test files
# may leave them out. Every cell must parse as a finite float. No column may
# repeat, in any CSV input.
#
# Reading: the file must be UTF-8 text. Lines end at \n, \r\n or a lone \r,
# as in the csv module. An empty line, and a line whose first field,
# left-stripped, starts with '#', are skipped (output files carry a
# provenance comment up top); the first remaining line is the header, whose
# names are stripped.
# * Fast path: the data lines go whole to numpy's C reader, np.loadtxt. It
#   converts each cell with PyOS_string_to_double, the routine behind
#   float(), so the values are bit-identical. Its float matrix is kept only
#   when every data line parses into exactly header-width finite floats.
#   comments=None, because comments="#" would strip a trailing '# note'
#   that the line rule leaves in a data line.
# * Cell reader, for any other file: csv.reader records and float() per cell,
#   the one place that words a DataError with row, column and cell text. It
#   takes, among others, a cell numpy refuses, a ragged row, a whitespace-only
#   line (numpy would skip it), a non-finite cell, a spelling float() takes
#   and numpy does not ("1_0", non-ASCII digits), a file with a \x1c-\x1f
#   separator (numpy strips them as spaces, float() refuses them) and a
#   file holding '"': only the csv module parses quoted fields.
#   The fast path also reads a numeric field longer than the csv module's
#   field limit, which the cell reader refuses.
#
# Output cells: floats via repr (bit-exact on reading back), an empty cell for
# a non-finite float, ints and bools as ints, strings as given, quoted with
# each '"' doubled when they hold a comma, a quote, \r or \n (the csv
# module's QUOTE_MINIMAL rule). A table is UTF-8: the optional comment line
# ends in \n, the header and every data row in \r\n, and a one-column row
# whose cell is empty is written '""', so that no data line is empty.

_OUTCOMES = ("t", "y")

# Separators that numpy's converter strips as whitespace and float() refuses.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


@dataclass(frozen=True)
class CsvTable:
    """Header and data rows of a CSV file, each row as long as the header.

    The fast path fills ``values`` (columns x rows, all finite); the cell
    reader fills ``rows`` and ``lines`` instead.
    """

    path: str
    header: list[str]
    values: np.ndarray | None
    rows: list[list[str]]
    lines: list[int]  # 1-based file line of each data row

    def __len__(self) -> int:
        return len(self.rows) if self.values is None else self.values.shape[1]

    def floats(self, col: str) -> np.ndarray:
        """Column ``col`` as floats; a cell that is not a finite number
        (nan and inf included) raises, naming the file, row and column."""
        j = self.header.index(col)
        if self.values is not None:
            return self.values[j]
        cells = [row[j] for row in self.rows]
        out = np.fromiter(map(_float_or_nan, cells), float, len(cells))
        bad = ~np.isfinite(out)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"{self.path} row {self.lines[i]}: column {col!r} "
                            f"is not a finite number: {cells[i]!r}")
        return out

    def cell(self, i: int, col: str) -> tuple[int, str]:
        """File line and text of data row ``i`` in column ``col``, from the
        cell reader (re-reading the file after the fast path)."""
        tab = self if self.values is None else _cell_table(self.path, _read_text(self.path))
        return tab.lines[i], tab.rows[i][tab.header.index(col)]


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _cell_table(path: str, text: str) -> CsvTable:
    """The cell reader: csv records under the line rule, width-checked."""
    reader = csv.reader(io.StringIO(text, newline=""))
    # Number each record by the file line it starts on: a quoted field can
    # run over several lines, so records and lines part.
    records, start = [], 1
    try:
        for rec in reader:
            if rec and not rec[0].lstrip().startswith("#"):
                records.append((start, rec))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    if not records:
        raise DataError(f"{path}: no header row")
    header = [c.strip() for c in records[0][1]]
    for no, rec in records[1:]:
        if len(rec) != len(header):
            raise DataError(f"{path} row {no}: expected {len(header)} fields, got {len(rec)}")
    if len(records) == 1:
        raise DataError(f"{path}: no data rows")
    return CsvTable(path, header, None, [rec for _, rec in records[1:]],
                    [no for no, _ in records[1:]])


def _fast_table(path: str, text: str) -> CsvTable | None:
    """The fast path's table, or None when the cell reader must decide."""
    if '"' in text or any(c in text for c in _NOT_FLOAT_SPACE):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = list(filter(None, text.split("\n")))
    if "#" in text:
        lines = [s for s in lines if not s.lstrip().startswith("#")]
    if len(lines) < 2:
        return None
    try:
        header = [c.strip() for c in next(csv.reader(lines[:1]))]
        values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except (ValueError, csv.Error):
        return None
    if values.shape != (len(lines) - 1, len(header)) or not np.isfinite(values).all():
        return None
    return CsvTable(path, header, values.T.copy(), [], [])


def read_table(path: str) -> CsvTable:
    """Read a CSV file with a header row and at least one data row.

    Lines follow the reading rule above; no header name may repeat. The
    callers apply their own column rules.
    """
    text = _read_text(path)
    tab = _fast_table(path, text)
    if tab is None:
        tab = _cell_table(path, text)
    for c in tab.header:
        if tab.header.count(c) > 1:
            raise DataError(f"{path}: duplicate column {c!r}")
    return tab


def read_units(path: str, need_outcome: bool) -> dict[str, np.ndarray]:
    """Columns of a units file, keyed like the :class:`Dataset` arguments.

    ``x`` is (n, p) in covariate order; ``t`` (ints) and ``y`` are present
    when the file has them. With ``need_outcome`` the file must carry both.
    """
    tab = read_table(path)
    header = tab.header
    xs = [c for c in header if c[:1] == "x" and c[1:].isdigit()]
    covariates = [f"x{j}" for j in range(1, len(xs) + 1)]
    if not xs or set(xs) != set(covariates):
        raise DataError(f"{path}: covariate columns must be x1..xp, got {xs}")
    for c in header:
        if c not in xs and c not in _OUTCOMES:
            raise DataError(f"{path}: unknown column {c!r}")
    for c in _OUTCOMES if need_outcome else ():
        if c not in header:
            raise DataError(f"{path}: missing required column {c!r}")
    cols = {"x": np.column_stack([tab.floats(c) for c in covariates])}
    cols.update((c, tab.floats(c)) for c in _OUTCOMES if c in header)
    if "t" in cols:
        bad = (cols["t"] != 0) & (cols["t"] != 1)
        if bad.any():
            line, cell = tab.cell(int(np.argmax(bad)), "t")
            raise DataError(f"{path} row {line}: column 't' must be 0 or 1, "
                            f"got {cell.strip()!r}")
        cols["t"] = cols["t"].astype(int)
    return cols


def read_dataset(path: str) -> Dataset:
    """Read a train or calib units file, which must carry t and y."""
    try:
        return Dataset(**read_units(path, need_outcome=True))
    except ValidationError as exc:
        raise DataError(f"{path}: {exc}") from None


def _text_cell(value) -> str:
    """``str(value)``, quoted under the output rule above."""
    cell = str(value)
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _column_cells(col: np.ndarray) -> list[str]:
    """The cells of one column under the output rule above."""
    if col.dtype.kind == "f":
        cells = list(map(repr, col.tolist()))
        for i in np.flatnonzero(~np.isfinite(col)).tolist():
            cells[i] = ""
        return cells
    if col.dtype.kind in "biu":
        return list(map(str, col.astype(int).tolist()))
    return list(map(_text_cell, col.tolist()))


def write_table(path: str, columns: dict[str, np.ndarray], comment: str | None) -> None:
    """Write equal-length 1-D columns as a CSV, after a '# comment' line.

    The bytes are those the csv module's default writer gives: UTF-8, the
    comment line (when given) ending in \n, then the header and one row per
    entry, each ending in \r\n. Cells follow the output rule above: each
    column is formatted once, and each row is its cells joined by ",".
    Columns of unequal length raise ValueError, and nothing is written.
    """
    cells = [_column_cells(np.asarray(col)) for col in columns.values()]
    lines = [",".join(map(_text_cell, columns)), *map(",".join, zip(*cells, strict=True))]
    if len(cells) == 1:
        lines = [line or '""' for line in lines]
    text = "\r\n".join(lines) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n{text}" if comment else text)
