"""Score functions and the kNN conditional-quantile baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confshift import (
    KNNQuantileModel,
    ScoreFn,
    ValidationError,
    default_k,
    fit_quantile_model,
    rng,
)


def test_default_k_rule():
    assert default_k(10) == 20
    assert default_k(400) == 20
    assert default_k(401) == 21
    assert default_k(2000) == 100


def test_fit_validation_and_clipping():
    x = np.zeros((5, 1))
    y = np.arange(5.0)
    with pytest.raises(ValidationError):
        fit_quantile_model(x, y[:3])
    with pytest.raises(ValidationError):
        fit_quantile_model(x, y, k=0)
    with pytest.warns(UserWarning, match="clamping"):
        model = fit_quantile_model(x, y, k=99)
    assert model.k == 5 and model.clipped


def test_knn_quantile_exact_small_case():
    # Query sits next to three known outcomes; lower-quantile convention.
    x = np.array([[0.0], [1.0], [2.0], [10.0]])
    y = np.array([5.0, 7.0, 6.0, 100.0])
    model = fit_quantile_model(x, y, k=3)
    q = model.quantile(np.array([[1.0]]), [1.0 / 3.0, 0.5, 1.0])
    assert q.tolist() == [[5.0, 6.0, 7.0]]


def test_knn_distance_tie_includes_all_tied_points():
    # Two training points at distance 1 on either side; k=1 must keep both.
    x = np.array([[0.0], [2.0], [9.0]])
    y = np.array([1.0, 3.0, 50.0])
    model = fit_quantile_model(x, y, k=1)
    assert model.quantile(np.array([[1.0]]), 0.5).tolist() == [1.0]
    assert model.quantile(np.array([[1.0]]), 1.0).tolist() == [3.0]


def test_knn_duplicated_training_points_count_individually():
    x = np.array([[0.0], [0.0], [0.0], [5.0]])
    y = np.array([1.0, 2.0, 3.0, 99.0])
    model = fit_quantile_model(x, y, k=2)
    # All three zero-distance points tie for the 2-nearest cut.
    assert model.quantile(np.array([[0.0]]), 1.0 / 3.0).tolist() == [1.0]
    assert model.quantile(np.array([[0.0]]), 1.0).tolist() == [3.0]


def test_knn_multilevel_matches_scalar_calls():
    r = rng(3)
    x = r.normal(size=(60, 2))
    y = r.normal(size=60)
    model = fit_quantile_model(x, y, k=7)
    xq = r.normal(size=(25, 2))
    betas = [0.1, 0.35, 0.5, 0.9, 1.0]
    joint = model.quantile(xq, betas)
    assert joint.shape == (25, 5)
    for j, b in enumerate(betas):
        np.testing.assert_array_equal(joint[:, j], model.quantile(xq, b))


def test_knn_monotone_in_level():
    r = rng(9)
    x = r.normal(size=(80, 3))
    y = r.normal(size=80)
    model = fit_quantile_model(x, y, k=11)
    q = model.quantile(r.normal(size=(30, 3)), np.linspace(0.05, 1.0, 8))
    assert (np.diff(q, axis=1) >= 0).all()


def test_knn_query_validation():
    model = fit_quantile_model(np.zeros((3, 2)), np.arange(3.0), k=2)
    with pytest.raises(ValidationError):
        model.quantile(np.zeros((2, 5)), 0.5)
    with pytest.raises(ValidationError):
        model.quantile(np.zeros((2, 2)), 0.0)


def test_knn_chunking_consistent():
    # Force multiple chunks and compare against one-row-at-a-time answers.
    r = rng(4)
    n = 500
    x = r.normal(size=(n, 2))
    y = r.normal(size=n)
    model = fit_quantile_model(x, y, k=9)
    xq = r.normal(size=(4001, 2))
    got = model.quantile(xq, 0.5)
    sample = r.integers(0, xq.shape[0], size=40)
    for i in sample:
        assert got[i] == model.quantile(xq[i : i + 1], 0.5)[0]


def _knn_quantile_oracle(x, y, k, xq, betas):
    """Brute force per query row: every training point at or within the k-th
    smallest distance, then the lower-quantile index ceil(beta * count) - 1."""
    out = np.empty((xq.shape[0], len(betas)))
    for i, row in enumerate(xq):
        d = ((x - row) ** 2).sum(axis=1)
        kth = np.sort(d)[min(k, len(d)) - 1]
        ys = np.sort(y[d <= kth])
        for j, b in enumerate(betas):
            out[i, j] = ys[max(math.ceil(b * ys.size - 1e-12) - 1, 0)]
    return out


_BETAS = st.lists(st.sampled_from((0.05, 0.1, 0.25, 1 / 3, 0.5, 0.8, 0.9, 0.95, 1.0)),
                  min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(("all", "untied", "tied")), betas=_BETAS, data=st.data())
def test_knn_quantile_matches_brute_force(case, betas, data):
    """Integer covariates make every distance exact, so ties are real ties.

    ``all``: k >= n (every point is a neighbour); ``untied``: distinct
    training points on a line, queried from one side, so no row has a tie
    at the k-th distance; ``tied``: few distinct covariate values, so most
    rows have one.
    """
    n = data.draw(st.integers(2, 25))
    y = data.draw(hnp.arrays(float, n, elements=st.integers(-20, 20).map(float)))
    if case == "untied":
        x = np.array(data.draw(st.lists(st.integers(10, 60), min_size=n, max_size=n,
                                        unique=True)), dtype=float)[:, None]
        xq = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 6)), 1),
                                  elements=st.integers(0, 9).map(float)))
    else:
        p = data.draw(st.integers(1, 3))
        cells = st.integers(0, 2 if case == "tied" else 6).map(float)
        x = data.draw(hnp.arrays(float, (n, p), elements=cells))
        xq = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 6)), p), elements=cells))
    k = data.draw(st.integers(n, n + 3) if case == "all" else st.integers(1, n - 1))
    model = KNNQuantileModel(x=x, y=y, k=k)
    want = _knn_quantile_oracle(x, y, k, xq, betas)
    np.testing.assert_array_equal(model.quantile(xq, betas), want)
    for j, b in enumerate(betas):
        np.testing.assert_array_equal(model.quantile(xq, b), want[:, j])


# ---------------------------------------------------------------------------
# ScoreFn
# ---------------------------------------------------------------------------


class _FlatModel:
    """Constant conditional quantiles, handy for closed-form checks."""

    def __init__(self, lo=-1.0, hi=1.0):
        self.lo, self.hi = lo, hi

    def quantile(self, x, beta):
        x = np.atleast_2d(x)
        betas = np.atleast_1d(np.asarray(beta, dtype=float))
        vals = np.where(betas <= 0.5, self.lo, self.hi)
        out = np.broadcast_to(vals, (x.shape[0], betas.size)).copy()
        return out[:, 0] if np.ndim(beta) == 0 else out


def test_score_kinds_closed_form():
    x = np.zeros((3, 1))
    y = np.array([-2.0, 0.0, 1.5])
    two = ScoreFn(kind="cqr", model=_FlatModel(), alpha=0.2)
    np.testing.assert_allclose(two.score(x, y), [1.0, -1.0, 0.5])
    upper = ScoreFn(kind="cqr_one_sided", model=_FlatModel(), alpha=0.2)
    np.testing.assert_allclose(upper.score(x, y), y - 1.0)
    absres = ScoreFn(kind="abs_residual", model=_FlatModel(), alpha=0.2)
    np.testing.assert_allclose(absres.score(x, y), np.abs(y + 1.0))


def test_score_validation():
    with pytest.raises(ValidationError):
        ScoreFn(kind="mystery", model=_FlatModel(), alpha=0.2)
    with pytest.raises(ValidationError):
        ScoreFn(kind="cqr", model=_FlatModel(), alpha=1.2)


def test_betas_per_kind():
    m = _FlatModel()
    assert ScoreFn("cqr", m, 0.2).betas == (0.1, 0.9)
    assert ScoreFn("cqr_one_sided", m, 0.2).betas == (0.8,)
    assert ScoreFn("abs_residual", m, 0.2).betas == (0.5,)


@pytest.mark.parametrize("kind", ScoreFn.KINDS)
def test_interval_inverts_score(kind):
    """y lands in interval(x, thr) exactly when score(x, y) <= thr."""
    r = rng(17)
    x = r.normal(size=(200, 2))
    y_train = x.sum(axis=1) + r.normal(scale=0.5, size=200)
    model = fit_quantile_model(x, y_train, k=15)
    fn = ScoreFn(kind=kind, model=model, alpha=0.3)
    xq = r.normal(size=(50, 2))
    yq = r.normal(size=50) * 2.0
    for thr in (-0.3, 0.0, 0.7, np.inf):
        lo, hi = fn.interval(xq, thr)
        inside = (lo <= yq) & (yq <= hi)
        np.testing.assert_array_equal(inside, fn.score(xq, yq) <= thr)


def test_interval_per_row_thresholds_and_inf():
    fn = ScoreFn(kind="cqr", model=_FlatModel(), alpha=0.2)
    x = np.zeros((3, 1))
    lo, hi = fn.interval(x, np.array([0.5, np.inf, -2.0]))
    assert (lo[0], hi[0]) == (-1.5, 1.5)
    assert lo[1] == -np.inf and hi[1] == np.inf
    assert lo[2] > hi[2]  # empty two-sided set
    one = ScoreFn(kind="cqr_one_sided", model=_FlatModel(), alpha=0.2)
    lo, hi = one.interval(x, 0.25)
    assert (lo == -np.inf).all() and (hi == 1.25).all()


class _RowModel:
    """Quantiles q(x, beta) = x1 + x2 * (beta - 1/2), monotone in beta."""

    def quantile(self, x, beta):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        b = np.asarray(beta, dtype=float)
        if b.ndim == 0:
            return x[:, 0] + x[:, 1] * (b - 0.5)
        return x[:, :1] + x[:, 1:2] * (b - 0.5)


def _score_reference(fn, x, y):
    """Per-kind score formulas, written out separately."""
    if fn.kind == "cqr":
        q = fn.model.quantile(x, (fn.alpha / 2.0, 1.0 - fn.alpha / 2.0))
        return np.maximum(q[:, 0] - y, y - q[:, 1])
    if fn.kind == "cqr_one_sided":
        return y - fn.model.quantile(x, 1.0 - fn.alpha)
    return np.abs(y - fn.model.quantile(x, 0.5))


def _interval_reference(fn, x, thr):
    """Per-kind interval formulas, written out separately."""
    shape = np.broadcast_shapes(np.shape(thr), (x.shape[0],))
    if fn.kind == "cqr":
        q = fn.model.quantile(x, (fn.alpha / 2.0, 1.0 - fn.alpha / 2.0))
        return q[:, 0] - thr, q[:, 1] + thr
    if fn.kind == "cqr_one_sided":
        return np.full(shape, -np.inf), fn.model.quantile(x, 1.0 - fn.alpha) + thr
    med = fn.model.quantile(x, 0.5)
    return med - thr, med + thr


_REAL = st.floats(-50.0, 50.0)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(ScoreFn.KINDS), alpha=st.floats(0.01, 0.99), data=st.data())
def test_score_and_interval_equal_per_kind_formulas(kind, alpha, data):
    """Bit for bit, for strengths stacked on a leading axis. One exception:
    max(m - y, y - m) and |y - m| may differ in the sign of a zero score
    (y = -0.0 at m = +0.0), which no comparison or sort can tell apart."""
    n = data.draw(st.integers(1, 8))
    x = data.draw(hnp.arrays(float, (n, 2), elements=_REAL))
    y = data.draw(hnp.arrays(float, n, elements=_REAL))
    thr = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 3)), n),
                               elements=st.one_of(_REAL, st.just(math.inf))))
    fn = ScoreFn(kind=kind, model=_RowModel(), alpha=alpha)
    got, want = fn.score(x, y), _score_reference(fn, x, y)
    if kind == "abs_residual":
        got = got + 0.0  # -0.0 + 0.0 = +0.0; every other value is unchanged
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for t in (thr, thr[0], float(thr[0, 0])):
        for got, want in zip(fn.interval(x, t), _interval_reference(fn, x, t)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
