"""Primitives: seeding, datasets, splits, CSV round trips, special functions."""

import csv
import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit
from scipy.special import ndtri as scipy_ndtri

from confshift import (
    DataError,
    Dataset,
    ValidationError,
    read_dataset,
    rng,
    split,
)
from confshift.cli import _read_instance
from confshift.core import _fast_table, expit, ndtri, read_table, read_units, write_table
from confshift.worstcase import DiscreteJoint
from conftest import write_units


def test_rng_reproducible():
    assert rng(123).normal(size=4).tolist() == rng(123).normal(size=4).tolist()


# ---------------------------------------------------------------------------
# Dataset / split
# ---------------------------------------------------------------------------


def _toy_dataset(n=10, p=3, seed=0):
    r = rng(seed)
    x = r.normal(size=(n, p))
    t = r.integers(0, 2, size=n)
    return Dataset(x, t, r.normal(size=n))


def test_dataset_shapes_and_access():
    ds = _toy_dataset(n=7, p=2)
    assert (ds.n, ds.p, len(ds)) == (7, 2, 7)
    treated = ds.arm(1)
    assert treated.n == int(ds.t.sum()) and (treated.t == 1).all()


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 1)), [0, 2], [0.0, 0.0])
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 1)), [0, 1], [0.0])
    with pytest.raises(ValidationError):
        Dataset(np.zeros((0, 1)), [], [])


def test_dataset_arm_filter():
    ds = Dataset(np.zeros((3, 1)), [1, 0, 1], [1.0, 2.0, 3.0])
    assert ds.arm(1).n == 2
    assert ds.arm(0).y.tolist() == [2.0]
    only_treated = Dataset(np.zeros((2, 1)), [1, 1], [1.0, 2.0])
    with pytest.raises(ValidationError):
        only_treated.arm(0)


def test_split_deterministic_and_sized():
    ds = _toy_dataset(n=25)
    tr1, ca1 = split(ds, train_fraction=0.6, seed=11)
    tr2, ca2 = split(ds, train_fraction=0.6, seed=11)
    assert tr1.n == 15 and ca1.n == 10
    np.testing.assert_array_equal(tr1.x, tr2.x)
    np.testing.assert_array_equal(ca1.y, ca2.y)
    # folds partition the data
    pool = np.concatenate([tr1.y, ca1.y])
    np.testing.assert_array_equal(np.sort(pool), np.sort(ds.y))


def test_split_rejects_empty_fold():
    ds = _toy_dataset(n=3)
    with pytest.raises(ValidationError):
        split(ds, train_fraction=0.01, seed=0)
    with pytest.raises(ValidationError):
        split(ds, train_fraction=1.5, seed=0)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    ds = _toy_dataset(n=12, p=4, seed=5)
    path = str(tmp_path / "ds.csv")
    write_units(path, ds, comment="round trip")
    back = read_dataset(path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.t, ds.t)
    np.testing.assert_array_equal(back.y, ds.y)


def test_csv_bad_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,t,y\n0.5,1,1.0\n0.7,1,oops\n")
    with pytest.raises(DataError, match="row 3.*'y'"):
        read_dataset(str(path))


def test_csv_row_numbers_are_file_lines_after_a_multiline_field(tmp_path):
    # The quoted field of the first data record runs over two file lines, so
    # the bad cell sits on file line 4, in the third record.
    path = tmp_path / "multi.csv"
    path.write_text('x1,t,y\n"0.5\n",1,2\n0.7,1,oops\n')
    with pytest.raises(DataError, match=r"multi\.csv row 4: column 'y' is not a finite "
                                        r"number: 'oops'"):
        read_dataset(str(path))
    path.write_text('x1,t,y\n"0.5\n",1,2\n0.7,1\n')
    with pytest.raises(DataError, match=r"multi\.csv row 4: expected 3 fields, got 2"):
        read_dataset(str(path))


def test_csv_bad_treatment_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,t,y\n0.5,2,1.0\n")
    with pytest.raises(DataError, match="row 2.*'t'"):
        read_dataset(str(path))


def test_csv_schema_errors(tmp_path):
    missing_y = tmp_path / "a.csv"
    missing_y.write_text("x1,t\n0.5,1\n")
    with pytest.raises(DataError, match="missing required column 'y'"):
        read_dataset(str(missing_y))

    gap = tmp_path / "b.csv"
    gap.write_text("x1,x3,t,y\n0.5,0.5,1,1.0\n")
    with pytest.raises(DataError, match="x1..xp"):
        read_dataset(str(gap))

    twice = tmp_path / "d.csv"
    twice.write_text("x1,t,y,t\n0.5,1,1.0,0\n")
    with pytest.raises(DataError, match="duplicate column 't'"):
        read_dataset(str(twice))

    with pytest.raises(DataError, match="cannot read"):
        read_dataset(str(tmp_path / "nope.csv"))


# Signed zeros, subnormals, the extremes and 17-significant-digit values.
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
    1.7976931348623157e308, 0.30000000000000004, -1.2345678901234567e-5,
])
_FLOATS = _EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), p=st.integers(1, 3), data=st.data())
def test_written_units_read_back_bit_exact(n, p, data):
    """A units file written with a stamp, and one with its columns in any
    order, both read back through read_dataset to the same float64 bits."""
    x = np.array(data.draw(st.lists(_FLOATS, min_size=n * p, max_size=n * p))).reshape(n, p)
    t = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    ds = Dataset(x, t, np.array(data.draw(st.lists(_FLOATS, min_size=n, max_size=n))))
    columns = {f"x{j + 1}": x[:, j] for j in range(p)}
    columns.update(t=t, y=ds.y)
    order = data.draw(st.permutations(list(columns)))
    with tempfile.TemporaryDirectory() as d:
        a, b = os.path.join(d, "a.csv"), os.path.join(d, "b.csv")
        write_units(a, ds, comment="round trip")
        write_table(b, {c: columns[c] for c in order}, None)
        backs = [read_dataset(a), read_dataset(b)]
    for back in backs:
        np.testing.assert_array_equal(back.t, ds.t)
        for got, want in ((back.x, ds.x), (back.y, ds.y)):
            assert _bits(got) == _bits(want)


def test_write_table_cell_format(tmp_path):
    path = tmp_path / "out.csv"
    write_table(str(path), {
        "i": np.array([1, 2, 3]),
        "b": np.array([True, False, True]),
        "f": np.array([np.inf, -np.inf, np.nan]),
        "g": np.array([0.1, -0.0, 5e-324]),
        "s": ["a", "b,c", "d"],
    }, "stamp")
    assert path.read_bytes() == (b"# stamp\ni,b,f,g,s\r\n1,1,,0.1,a\r\n"
                                 b'2,0,,-0.0,"b,c"\r\n3,1,,5e-324,d\r\n')


def _csv_writer_table(path, columns, comment):
    """The csv.writer version of write_table, verbatim: the oracle for the
    bytes the package writes."""
    cells = []
    for col in map(np.asarray, columns.values()):
        if col.dtype.kind == "f":
            out = col.tolist()
            for i in np.flatnonzero(~np.isfinite(col)).tolist():
                out[i] = ""
        elif col.dtype.kind in "biu":
            out = col.astype(int).tolist()
        else:
            out = col.tolist()
        cells.append(out)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308,
                                1e308, -1.7976931348623157e308, 0.1, 1 / 3, 123456789.0])
_CELL_TEXT = st.text(st.sampled_from('ab ,"\r\n#'), max_size=4)


def _written_column(n):
    return st.one_of(
        st.lists(_EDGE_FLOATS | st.floats(), min_size=n, max_size=n).map(np.array),
        st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), min_size=n, max_size=n).map(lambda v: np.array(v, dtype=bool)),
        st.lists(_CELL_TEXT, min_size=n, max_size=n),
    )


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 6), width=st.integers(0, 4), comment=st.sampled_from([None, "", "stamp"]),
       data=st.data())
def test_write_table_bytes_equal_the_csv_writer(n, width, comment, data):
    """Floats (nan, +-inf, -0.0, subnormal, huge), int, bool and text columns
    (commas, quotes, CR, LF, empty cells), tables with no rows and one-column
    tables with empty cells: write_table's bytes are the csv writer's."""
    names = data.draw(st.lists(_CELL_TEXT | st.sampled_from(["x1", "gamma"]),
                               min_size=width, max_size=width, unique=True))
    columns = {name: data.draw(_written_column(n)) for name in names}
    with tempfile.TemporaryDirectory() as d:
        got, want = os.path.join(d, "got.csv"), os.path.join(d, "want.csv")
        write_table(got, columns, comment)
        _csv_writer_table(want, columns, comment)
        with open(got, "rb") as fg, open(want, "rb") as fw:
            assert fg.read() == fw.read()


@pytest.mark.parametrize("columns, body", [
    ({"s": ["", "a", ""]}, b's\r\n""\r\na\r\n""\r\n'),
    ({"f": np.array([np.nan, 1.5])}, b'f\r\n""\r\n1.5\r\n'),
    ({"": np.array([1.0])}, b'""\r\n1.0\r\n'),
    ({"x1": np.array([], dtype=float), "t": np.array([], dtype=int)}, b"x1,t\r\n"),
])
def test_write_table_edge_tables_equal_the_csv_writer(tmp_path, columns, body):
    """A one-column table with an empty cell (or an empty header name), which
    the csv writer quotes as '""' so that no line is empty, and a table with
    no rows."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_table(str(got), columns, "stamp")
    _csv_writer_table(str(want), columns, "stamp")
    assert got.read_bytes() == want.read_bytes() == b"# stamp\n" + body


def test_write_table_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_table(str(tmp_path / "out.csv"), {"a": np.arange(3.0), "b": np.arange(2)}, None)


def test_write_table_writes_nonfinite_values_as_empty_cells(tmp_path):
    path = tmp_path / "ds.csv"
    write_table(str(path), {"x1": np.array([np.inf, -np.inf]), "t": np.array([1, 0]),
                            "y": np.array([np.nan, 2.5])}, None)
    assert path.read_text().splitlines() == ["x1,t,y", ",1,", ",0,2.5"]
    with pytest.raises(DataError, match="row 2: column 'x1' is not a finite number: ''"):
        read_dataset(str(path))


def test_csv_skips_comment_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# provenance stamp\nx1,t,y\n# mid comment\n0.5,1,1.0\n")
    ds = read_dataset(str(path))
    assert ds.n == 1 and ds.y[0] == 1.0


# ---------------------------------------------------------------------------
# The fast reader against the cell-by-cell reader it replaced
# ---------------------------------------------------------------------------
# The oracle is the csv.reader + float() reader as it stood before numpy's
# reader took over, kept verbatim save for its row numbers, which are now the
# file line a record starts on; _oracle_units and _oracle_instance are the
# column rules of read_units and cli._read_instance on top of it.


def _oracle_float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


@dataclass(frozen=True)
class _OracleTable:
    """Header and data rows of a CSV file, each row as long as the header."""

    path: str
    header: list[str]
    rows: list[list[str]]
    lines: list[int]  # 1-based file line of each data row

    def floats(self, col: str) -> np.ndarray:
        """Column ``col`` as floats; a cell that is not a finite number
        (nan and inf included) raises, naming the file, row and column."""
        j = self.header.index(col)
        cells = [row[j] for row in self.rows]
        out = np.fromiter(map(_oracle_float_or_nan, cells), float, len(cells))
        bad = ~np.isfinite(out)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"{self.path} row {self.lines[i]}: column {col!r} "
                            f"is not a finite number: {cells[i]!r}")
        return out


def _oracle_read_table(path: str) -> _OracleTable:
    """Read a CSV file with a header row and at least one data row.

    Blank and '#'-prefixed lines are skipped; header names are stripped. The
    callers apply their own column rules.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        # Each record with the file line it starts on.
        reader, records, start = csv.reader(fh), [], 1
        for rec in reader:
            if rec and not rec[0].lstrip().startswith("#"):
                records.append((start, rec))
            start = reader.line_num + 1
    if not records:
        raise DataError(f"{path}: no header row")
    header = [c.strip() for c in records[0][1]]
    for no, rec in records[1:]:
        if len(rec) != len(header):
            raise DataError(f"{path} row {no}: expected {len(header)} fields, got {len(rec)}")
    if len(records) == 1:
        raise DataError(f"{path}: no data rows")
    return _OracleTable(path, header, [rec for _, rec in records[1:]],
                        [no for no, _ in records[1:]])


def _oracle_units(path: str, need_outcome: bool) -> dict[str, np.ndarray]:
    tab = _oracle_read_table(path)
    header = tab.header
    for c in header:
        if header.count(c) > 1:
            raise DataError(f"{path}: duplicate column {c!r}")
    xs = [c for c in header if c[:1] == "x" and c[1:].isdigit()]
    covariates = [f"x{j}" for j in range(1, len(xs) + 1)]
    if not xs or set(xs) != set(covariates):
        raise DataError(f"{path}: covariate columns must be x1..xp, got {xs}")
    for c in header:
        if c not in xs and c not in ("t", "y"):
            raise DataError(f"{path}: unknown column {c!r}")
    for c in ("t", "y") if need_outcome else ():
        if c not in header:
            raise DataError(f"{path}: missing required column {c!r}")
    cols = {"x": np.column_stack([tab.floats(c) for c in covariates])}
    cols.update((c, tab.floats(c)) for c in ("t", "y") if c in header)
    if "t" in cols:
        bad = (cols["t"] != 0) & (cols["t"] != 1)
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(f"{path} row {tab.lines[i]}: column 't' must be 0 or 1, "
                            f"got {tab.rows[i][header.index('t')].strip()!r}")
        cols["t"] = cols["t"].astype(int)
    return cols


def _oracle_instance(path: str) -> DiscreteJoint:
    tab = _oracle_read_table(path)
    for c in ("v", "lo", "hi"):
        if c not in tab.header:
            raise DataError(f"{path}: missing column {c!r}")
    n = len(tab.rows)
    m = tab.floats("m") if "m" in tab.header else np.full(n, 1.0 / n)
    try:
        return DiscreteJoint(tab.floats("v"), m, tab.floats("lo"), tab.floats("hi"))
    except ValidationError as exc:
        raise DataError(f"{path}: {exc}") from None


# Cells: mostly numbers the way a writer spells them (each column in its own
# valid range), padded or quoted now and then, mixed with strings over an
# alphabet that reaches every way the two readers could part: spellings,
# whitespace, quotes, '#', separators.
_NUMBERS = st.one_of(st.sampled_from(["0.5", "2", "-0.0", "1e5", "5e-324", "1"]),
                     st.floats(-1e6, 1e6).map(repr))
_COLUMN_NUMBERS = {
    "t": st.sampled_from(["0", "1", "1.0", "0.0"]),
    "lo": st.sampled_from(["0", "0.5", "1"]) | st.floats(0.0, 1.0).map(repr),
    "hi": st.sampled_from(["1", "2.0", "1e3"]) | st.floats(1.0, 10.0).map(repr),
    "m": st.sampled_from(["1", "1.0", "0.5"]),
}
_PADS = st.sampled_from(["", "", " ", "\t", "  "])
_ODD_CELLS = st.one_of(
    st.lists(st.sampled_from(list('0123456789.e_-+ \t,"#\x1c١') + ["nan", "inf"]),
             max_size=5).map("".join),
    st.sampled_from(["", " ", "nan", "-inf", "1_0", "١", '"1"', '"1', '1"', '""', '" 1"',
                     "1 # note", "2#", "#3", '"#4"', "1\x1c", "0x1", "1,5"]))


@st.composite
def _cell(draw, name):
    if draw(st.integers(0, 19)) == 0:
        return draw(_ODD_CELLS)
    cell = draw(_PADS) + draw(_COLUMN_NUMBERS.get(name, _NUMBERS)) + draw(_PADS)
    return f'"{cell}"' if draw(st.integers(0, 29)) == 0 else cell


@st.composite
def _csv_text(draw, names):
    names = draw(st.permutations(names))
    header = [draw(_PADS) + c + draw(_PADS) for c in names]
    if draw(st.integers(0, 7)) == 0:
        header = [f'"{c}"' for c in header]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "# note", " # note", '"# q",1',
                                               "#,a", ',"#"', '# a,"b', '#"', '"#x', '# "'])))
        elif kind == 1:
            width = len(names) + draw(st.sampled_from([-1, 1]))
            lines.append(",".join(draw(_cell("")) for _ in range(width)))
        else:
            lines.append(",".join(draw(_cell(c)) for c in names))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["# confshift stamp", "", "  #x", " "])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def _assert_same(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
        return
    for key in want:
        a, b = got[key], want[key]
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), key


_UNITS_NAMES = st.sampled_from([["x1", "t", "y"], ["x1", "x2", "t", "y"], ["x2", "x1"]])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_reader_matches_the_cell_reader(data):
    """read_units and the instance reader give the oracle's arrays bit for
    bit, or the oracle's DataError message word for word."""
    units = data.draw(_csv_text(data.draw(_UNITS_NAMES)))
    instance = data.draw(_csv_text(data.draw(st.sampled_from([["v", "lo", "hi"],
                                                              ["v", "lo", "hi", "m"]]))))
    with tempfile.TemporaryDirectory() as d:
        a, b = os.path.join(d, "units.csv"), os.path.join(d, "inst.csv")
        with open(a, "w", encoding="utf-8", newline="") as fh:
            fh.write(units)
        with open(b, "w", encoding="utf-8", newline="") as fh:
            fh.write(instance)
        for need_outcome in (False, True):
            _assert_same(_outcome(lambda p: read_units(p, need_outcome), a),
                         _outcome(lambda p: _oracle_units(p, need_outcome), a))
        joint = (lambda p: vars(_read_instance(p))), (lambda p: vars(_oracle_instance(p)))
        _assert_same(*(_outcome(read, b) for read in joint))


def test_fast_path_reads_written_files(tmp_path):
    """What write_table writes goes through numpy's reader."""
    path = str(tmp_path / "ds.csv")
    write_units(path, _toy_dataset(n=50, p=3, seed=1), comment="stamp")
    tab = read_table(path)
    assert tab.values is not None and tab.values.shape == (5, 50) and not tab.rows
    for text in ("x1,y\n1,2\n  \n3,4\n", "x1,y\n1,2 # note\n", "x1,y\n1_0,2\n",
                 "x1,y\n1,2\x1c\n", 'x1,y\n1,"2\n3",4\n', 'x1,y\n# a,"b\n1,2\n',
                 'x1,y\n1,2\n 3 ,"4"\n', "x1,y\n1,nan\n", "x1,y\n1,2,3\n"):
        assert _fast_table(path, text) is None, text


# ---------------------------------------------------------------------------
# Special functions against scipy.special
# ---------------------------------------------------------------------------


def test_expit_matches_scipy_bit_for_bit():
    """libm's exp, as scipy uses it: a dense grid, the band where glibc's
    cexp rescales, draws at several scales and the signed extremes."""
    r = rng(0)
    x = np.concatenate([
        np.linspace(-760.0, 760.0, 1_000_001),
        np.linspace(-709.8, -709.0, 200_001),
        *(s * r.standard_normal(50_000) for s in (1.0, 10.0, 40.0, 400.0)),
        [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
        assert np.isnan(expit(np.nan)) and np.isnan(expit([np.nan, 1.0])[0])
    assert _bits(got) == _bits(scipy_expit(x))
    assert expit(0.25) == scipy_expit(0.25) and np.ndim(expit(0.25)) == 0


def test_expit_in_place_on_a_quadrature_sized_array():
    z = 30.0 * rng(1).standard_normal((24,) * 4)
    z[0, 0, 0, :3] = (-709.5, -709.9, 709.5)
    want = scipy_expit(z)
    assert expit(z, out=z) is z
    assert _bits(z) == _bits(want)
    with pytest.raises(ValueError, match="C-contiguous"):
        expit(z[:, 0], out=np.empty((24, 24, 24)).T)


def _ordered(a) -> np.ndarray:
    """Float bits as integers in the order of the floats, so that a
    difference counts ulps across zero too."""
    i = np.asarray(a, dtype=float).view(np.int64)
    return np.where(i < 0, np.iinfo(np.int64).min - i, i)


def _assert_within_8_ulps(p):
    got, want = ndtri(p), scipy_ndtri(p)
    assert np.abs(_ordered(got) - _ordered(want)).max() <= 8, p


def test_ndtri_is_within_8_ulps_of_scipy():
    r = rng(2)
    _assert_within_8_ulps(np.concatenate([
        r.uniform(size=200_000),
        np.linspace(0.0, 1.0, 100_001)[1:-1],
        10.0 ** -r.uniform(0.0, 307.0, 20_000),      # lower tail
        1.0 - 10.0 ** -r.uniform(0.0, 16.0, 20_000),  # upper tail
        [5e-324, 1e-300, 1e-11, 0.075, 0.925, 0.5 + 2.0 ** -53]]))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_ndtri_property_within_8_ulps(p):
    _assert_within_8_ulps(np.array([p]))


def test_ndtri_endpoints_and_shapes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ndtri(0.5) == 0.0 and np.ndim(ndtri(0.5)) == 0
        assert ndtri(1.0) == np.inf and ndtri(0.0) == -np.inf
        assert np.isnan(ndtri(np.array([-0.1, 1.1, np.nan]))).all()
        grid = np.array([[0.0, 0.02], [0.5, 0.97], [1.0, 0.3]])
        assert ndtri(grid).shape == (3, 2)
        _assert_within_8_ulps(grid)
