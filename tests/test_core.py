"""Primitives: seeding, datasets, splits, CSV round trips."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confshift import (
    DataError,
    Dataset,
    SplitSpec,
    ValidationError,
    read_dataset,
    rng,
    split,
    write_dataset,
)
from confshift.core import write_table


def test_rng_reproducible():
    assert rng(123).normal(size=4).tolist() == rng(123).normal(size=4).tolist()


# ---------------------------------------------------------------------------
# Dataset / split
# ---------------------------------------------------------------------------


def _toy_dataset(n=10, p=3, seed=0, counterfactuals=False):
    r = rng(seed)
    x = r.normal(size=(n, p))
    t = r.integers(0, 2, size=n)
    y1 = r.normal(size=n)
    y0 = r.normal(size=n)
    y = np.where(t == 1, y1, y0)
    if counterfactuals:
        return Dataset(x, t, y, y1, y0)
    return Dataset(x, t, y)


def test_dataset_shapes_and_access():
    ds = _toy_dataset(n=7, p=2, counterfactuals=True)
    assert (ds.n, ds.p, len(ds)) == (7, 2, 7)
    np.testing.assert_array_equal(ds.y, np.where(ds.t == 1, ds.y1, ds.y0))
    treated = ds.arm(1)
    assert treated.n == int(ds.t.sum()) and (treated.t == 1).all()


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 1)), [0, 2], [0.0, 0.0])
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 1)), [0, 1], [0.0])
    with pytest.raises(ValidationError):
        # realized outcome must match the stated arm
        Dataset(np.zeros((1, 1)), [1], [5.0], y1=[4.0], y0=[0.0])
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
    tr1, ca1 = split(ds, SplitSpec(train_fraction=0.6, seed=11))
    tr2, ca2 = split(ds, SplitSpec(train_fraction=0.6, seed=11))
    assert tr1.n == 15 and ca1.n == 10
    np.testing.assert_array_equal(tr1.x, tr2.x)
    np.testing.assert_array_equal(ca1.y, ca2.y)
    # folds partition the data
    pool = np.concatenate([tr1.y, ca1.y])
    np.testing.assert_array_equal(np.sort(pool), np.sort(ds.y))


def test_split_rejects_empty_fold():
    ds = _toy_dataset(n=3)
    with pytest.raises(ValidationError):
        split(ds, SplitSpec(train_fraction=0.01, seed=0))
    with pytest.raises(ValidationError):
        SplitSpec(train_fraction=1.5, seed=0)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    ds = _toy_dataset(n=12, p=4, seed=5, counterfactuals=True)
    path = str(tmp_path / "ds.csv")
    write_dataset(path, ds, comment="round trip")
    back = read_dataset(path)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.t, ds.t)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.y1, ds.y1)
    np.testing.assert_array_equal(back.y0, ds.y0)


def test_csv_bad_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,t,y\n0.5,1,1.0\n0.7,1,oops\n")
    with pytest.raises(DataError, match="row 3.*'y'"):
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

    lonely_cf = tmp_path / "c.csv"
    lonely_cf.write_text("x1,t,y,y1\n0.5,1,1.0,1.0\n")
    with pytest.raises(DataError, match="y1 and y0"):
        read_dataset(str(lonely_cf))

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
    """write_dataset and a write_table in any column order both read back
    through read_dataset to the same float64 bits."""
    x = np.array(data.draw(st.lists(_FLOATS, min_size=n * p, max_size=n * p))).reshape(n, p)
    t = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y1, y0 = (np.array(data.draw(st.lists(_FLOATS, min_size=n, max_size=n)))
              for _ in range(2))
    ds = Dataset(x, t, np.where(t == 1, y1, y0), y1, y0)
    columns = {f"x{j + 1}": x[:, j] for j in range(p)}
    columns.update(t=t, y=ds.y, y1=y1, y0=y0)
    order = data.draw(st.permutations(list(columns)))
    with tempfile.TemporaryDirectory() as d:
        a, b = os.path.join(d, "a.csv"), os.path.join(d, "b.csv")
        write_dataset(a, ds, comment="round trip")
        write_table(b, {c: columns[c] for c in order}, None)
        backs = [read_dataset(a), read_dataset(b)]
    for back in backs:
        np.testing.assert_array_equal(back.t, ds.t)
        for got, want in ((back.x, ds.x), (back.y, ds.y), (back.y1, y1), (back.y0, y0)):
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


def test_write_dataset_writes_nonfinite_values_as_empty_cells(tmp_path):
    path = tmp_path / "ds.csv"
    write_dataset(str(path), Dataset([[np.inf], [-np.inf]], [1, 0], [np.nan, 2.5]))
    assert path.read_text().splitlines() == ["x1,t,y", ",1,", ",0,2.5"]
    with pytest.raises(DataError, match="row 2: column 'x1' is not a finite number: ''"):
        read_dataset(str(path))


def test_csv_skips_comment_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# provenance stamp\nx1,t,y\n# mid comment\n0.5,1,1.0\n")
    ds = read_dataset(str(path))
    assert ds.n == 1 and ds.y[0] == 1.0
