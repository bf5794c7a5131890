"""Score functions and the kNN conditional-quantile baseline."""

import math
from unittest import mock

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
    scores,
)
from confshift.scores import MAX_SQ_NORM


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
    assert model.k == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_fit_rejects_nonfinite_training_data(bad, where):
    # A NaN training row used to be kept and never became a neighbour.
    x = np.arange(10.0).reshape(5, 2)
    y = np.arange(5.0)
    if where == "x":
        x[2, 0] = bad
    else:
        y[2] = bad
    with pytest.raises(ValidationError, match="finite"):
        fit_quantile_model(x, y, k=2)


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
    for bad in (np.nan, np.inf, -np.inf):
        # A NaN query row used to come back as a +inf quantile.
        xq = np.zeros((3, 2))
        xq[1, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            model.quantile(xq, 0.5)


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


def test_knn_quantile_matches_brute_force_across_tied_and_untied_chunks():
    """A query spanning three blocks of the model's distance-entry budget:
    the first block has no tie at the k-th distance, the second ties on every
    row, the third mixes both."""
    n, k = 2000, 7
    x = np.arange(10.0, 10.0 + n)[:, None]
    y = rng(5).integers(-50, 50, size=n).astype(float)
    step = scores._BLOCK_ENTRIES // n  # query rows per block
    # Left of every training point: distinct distances. Half-way between two
    # training points: pairs at equal distance, and k odd splits a pair.
    untied = np.arange(step) % 10.0
    tied = 20.5 + np.arange(step) % (n - 30)
    mixed = np.where(np.arange(step // 2) % 2 == 0, untied[: step // 2], tied[: step // 2])
    xq = np.concatenate([untied, tied, mixed])[:, None]
    d = np.sort((xq - x.T) ** 2, axis=1)
    ties = d[:, k] == d[:, k - 1]
    assert not ties[:step].any() and ties[step: 2 * step].all()
    assert ties[2 * step:].any() and not ties[2 * step:].all()
    betas = [0.05, 0.5, 0.9, 1.0]
    model = fit_quantile_model(x, y, k=k)
    np.testing.assert_array_equal(model.quantile(xq, betas),
                                  _knn_quantile_oracle(x, y, k, xq, betas))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 4), data=st.data())
def test_knn_blocks_answer_each_row_on_its_own(rows, data):
    """Blocks of a few rows: one integer-covariate query spans tied, untied
    and mixed blocks, and each row gets the brute-force answer and the answer
    it gets when queried alone."""
    n = data.draw(st.integers(3, 25))
    p = data.draw(st.integers(1, 2))
    cells = st.integers(0, data.draw(st.integers(1, 8))).map(float)
    x = data.draw(hnp.arrays(float, (n, p), elements=cells))
    y = data.draw(hnp.arrays(float, n, elements=st.integers(-20, 20).map(float)))
    xq = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 12)), p), elements=cells))
    k = data.draw(st.integers(1, n - 1))
    betas = data.draw(_BETAS)
    model = KNNQuantileModel(x=x, y=y, k=k)
    with mock.patch.object(scores, "_BLOCK_ENTRIES", rows * n):
        got = model.quantile(xq, betas)
    np.testing.assert_array_equal(got, _knn_quantile_oracle(x, y, k, xq, betas))
    alone = np.concatenate([model.quantile(row[None, :], betas) for row in xq])
    np.testing.assert_array_equal(got, alone)


def _counting_exact_rows(monkeypatch):
    """A list that collects the number of rows each exact-path call takes."""
    sent = []
    real = scores._tied_neighbours

    def counting(d2, kth, y):
        sent.append(d2.shape[0])
        return real(d2, kth, y)

    monkeypatch.setattr(scores, "_tied_neighbours", counting)
    return sent


def test_knn_tie_path_takes_only_the_tied_rows(monkeypatch):
    """A block with exactly one row tied at the k-th distance sends that row,
    and no other, down the padded tie path."""
    x = np.arange(10.0, 40.0)[:, None]
    y = rng(6).integers(-9, 9, size=x.shape[0]).astype(float)
    # Left of every training point: distinct distances. 20.5 sits half-way
    # between two training points, and k = 3 splits the second pair.
    xq = np.array([[0.0], [1.0], [20.5], [2.0], [3.0]])
    sent = _counting_exact_rows(monkeypatch)
    model = fit_quantile_model(x, y, k=3)
    betas = [0.25, 0.5, 1.0]
    got = model.quantile(xq, betas)
    assert sent == [1]
    np.testing.assert_array_equal(got, _knn_quantile_oracle(x, y, 3, xq, betas))


def _ulp_moves(x, moves):
    """x with each entry moved by ``moves`` (same shape, -2..2) ulps."""
    for step in (1, 2):
        for sign in (1, -1):
            at = moves * sign >= step
            x = np.where(at, np.nextafter(x, sign * np.inf), x)
    return x


def _assert_rows_answer_alone(model, xq, betas, got):
    """got equals the brute-force oracle and each row's single-row query, bit
    for bit."""
    want = _knn_quantile_oracle(model.x, model.y, model.k, xq, betas)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    alone = np.concatenate([model.quantile(row[None, :], betas) for row in xq])
    assert got.tobytes() == alone.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_knn_wide_scale_rows_match_the_oracle_and_their_single_row_query(data):
    """Float covariates over a wide scale (products that underflow at 1e-160,
    points 1e9 from the origin that spread over one part in 10^6), with
    duplicated and 1-ulp-shifted training points and queries at training
    points: every row gets the brute-force answer under direct-difference
    distances and the answer it gets alone, on any block size."""
    p = data.draw(st.integers(1, 3))
    scale = 10.0 ** data.draw(st.sampled_from([-160, -150, -40, -3, 0, 2, 40, 150]))
    shift = data.draw(st.sampled_from([0.0, 0.0, 1e9])) if scale < 1e100 else 0.0
    cells = st.floats(-1000.0, 1000.0, allow_subnormal=False)
    base = (data.draw(hnp.arrays(float, (data.draw(st.integers(1, 12)), p), elements=cells))
            + shift) * scale
    n = data.draw(st.integers(2, 40))
    moves = hnp.arrays(np.int64, st.tuples(st.just(n), st.just(p)),
                       elements=st.sampled_from([0, 0, 0, 1, -1, 2, -2]))
    pick = hnp.arrays(np.int64, n, elements=st.integers(0, base.shape[0] - 1))
    x = _ulp_moves(base[data.draw(pick)], data.draw(moves))
    rows = data.draw(st.integers(1, 30))
    at = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, n - 1)))
    xq = np.where(data.draw(hnp.arrays(bool, (rows, 1))), x[at],
                  (data.draw(hnp.arrays(float, (rows, p), elements=cells)) + shift) * scale)
    xq = _ulp_moves(xq, data.draw(hnp.arrays(np.int64, (rows, p),
                                             elements=st.sampled_from([0, 0, 0, 1, -1]))))
    y = data.draw(hnp.arrays(float, n, elements=st.integers(-3, 3).map(float)
                             | st.floats(-1e3, 1e3)))
    model = fit_quantile_model(x, y, k=data.draw(st.integers(1, n - 1)))
    betas = data.draw(_BETAS)
    block = data.draw(st.sampled_from([None, 1, 2, 3, 7]))
    entries = scores._BLOCK_ENTRIES if block is None else block * n
    with mock.patch.object(scores, "_BLOCK_ENTRIES", entries):
        _assert_rows_answer_alone(model, xq, betas, model.quantile(xq, betas))


def test_knn_low_bit_neighbours_take_the_exact_path(monkeypatch):
    """A row whose k-th and (k+1)-th distances differ only in the low b bits
    of the key, with no tie, cannot be certified: it takes the exact path,
    which keeps just its k nearest points, and no other row does."""
    one_up = np.nextafter(1.0, 2.0)
    x = np.array([[1.0], [one_up], [5.0], [7.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    # From 0, the distances are 1 and 1 + 2^-51 (two ulps): b = 2 low bits
    # hold the column, so both keys fall in one truncated class.
    b = (x.shape[0] - 1).bit_length()
    d2 = (x[:2, 0] ** 2).view(np.int64)
    assert b == 2 and d2[0] != d2[1] and d2[0] >> b == d2[1] >> b
    sent = _counting_exact_rows(monkeypatch)
    model = fit_quantile_model(x, y, k=1)
    xq = np.array([[0.0], [6.2]])
    betas = [0.5, 1.0]
    got = model.quantile(xq, betas)
    assert sent == [1]
    assert got.tolist() == [[1.0, 1.0], [4.0, 4.0]]
    assert got.tobytes() == _knn_quantile_oracle(x, y, 1, xq, betas).tobytes()


# Near-duplicate training points whose product distances cancel to a few ulps
# of |x|^2: with scipy-openblas 0.3.31 and the distance identity alone, the
# first and second points queried one at a time got 2.0 and 1.0, and all three
# as one batch got 3.0, 2.0, 1.0, in place of their own outcomes 1, 2, 3.
_NEAR_DUPLICATES = np.array([[-323.242255680942, -323.2422556809422],
                             [-323.24225568094204, -323.2422556809422],
                             [-323.2422556809421, -323.2422556809422]])


def test_knn_near_duplicates_answer_alone_as_in_a_batch():
    """Each near-duplicate point is its own nearest neighbour, queried alone,
    in a batch of three, in any order, and by the oracle."""
    model = fit_quantile_model(_NEAR_DUPLICATES, np.array([1.0, 2.0, 3.0]), k=1)
    for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
        xq = _NEAR_DUPLICATES[order]
        got = model.quantile(xq, [0.5, 1.0])
        assert got.tolist() == [[o + 1.0] * 2 for o in order]
        _assert_rows_answer_alone(model, xq, [0.5, 1.0], got)


def test_knn_negative_product_distances_match_the_oracle():
    """Next to the query, rounding in the product can leave distances below
    0: with scipy-openblas 0.3.31 the first row's come out as -2^-35, -2^-34
    and 0 (the other two rows make the product a matrix one). Negative
    floats' int64 bits sort in reverse order, so such a row takes the exact
    path and gets the oracle's answer."""
    model = fit_quantile_model(_NEAR_DUPLICATES, np.array([1.0, 2.0, 3.0]), k=1)
    xq = _NEAR_DUPLICATES[1:2]
    xq = np.vstack([xq, xq + 1.0, xq - 1.0])
    betas = [0.5, 1.0]
    _assert_rows_answer_alone(model, xq, betas, model.quantile(xq, betas))


@pytest.mark.parametrize("p", [2, 9])
def test_knn_offset_covariates_take_the_exact_path(p, monkeypatch):
    """Covariates 1e6 + U[0, 1]^p: the rounding bound scales with |x|^2, about
    1e12 p, so the margin is wider than most gaps between neighbours' squared
    distances and most rows take the exact path. p = 9 sums each distance's
    squares pairwise (numpy does for 8 or more), as the oracle does."""
    r = rng(11)
    x = 1e6 + r.uniform(size=(300, p))
    model = fit_quantile_model(x, r.normal(size=300), k=15)
    xq = 1e6 + r.uniform(size=(40, p))
    sent = _counting_exact_rows(monkeypatch)
    betas = [0.1, 0.5, 1.0]
    got = model.quantile(xq, betas)
    assert sum(sent) > xq.shape[0] // 2
    _assert_rows_answer_alone(model, xq, betas, got)


def test_knn_underflowing_products_match_the_oracle():
    """At 1e-160 every square is below the smallest normal float, so the
    products and the direct differences round to a handful of subnormal
    steps; the absolute term of the rounding bound keeps every row exact."""
    r = rng(12)
    x = r.normal(size=(200, 3)) * 1e-160
    model = fit_quantile_model(x, r.normal(size=200), k=9)
    xq = np.vstack([r.normal(size=(30, 3)) * 1e-160, x[:10]])
    betas = [0.25, 0.5, 1.0]
    got = model.quantile(xq, betas)
    assert (np.abs(x) ** 2 < np.finfo(float).tiny).all()
    _assert_rows_answer_alone(model, xq, betas, got)


def test_knn_certifies_a_row_only_past_twice_the_rounding_bound(monkeypatch):
    """From the origin with p = 1 the product distances are exactly the
    squares, so the gap between the nearest and the next point is known: 1.5
    times the row's rounding bound takes the exact path, 2.5 times does not."""
    tol = float(scores._rounding_bound(np.zeros(1), 16.0, 1)[0])
    sent = _counting_exact_rows(monkeypatch)
    for gap, exact in ((1.5, [1]), (2.5, [])):
        x = np.array([[1.0], [math.sqrt(1.0 + gap * tol)], [4.0]])
        model = fit_quantile_model(x, np.array([1.0, 2.0, 3.0]), k=1)
        sent.clear()
        assert model.quantile(np.zeros((1, 1)), 1.0).tolist() == [1.0]
        assert sent == exact


def test_knn_a_negative_kth_key_certifies_nothing():
    """Negative floats' bits sort in reverse, so a k-th key below 0 bounds
    nothing, however wide its gap to the next key."""
    d = np.array([[-2.0 ** -40, -2.0 ** -41, 1.0, 9.0],
                  [2.0 ** -41, 2.0 ** -40, 1.0, 9.0]])
    b = 2
    key = (d.view(np.int64) & ~3) | np.arange(4)
    key.partition(2, axis=1)
    assert scores._uncertified(key, 2, b, np.full(2, 1e-20)).tolist() == [True, False]


def test_knn_tied_rows_measure_only_their_candidates(monkeypatch):
    """Integer covariates on 0..99 with p = 4, 1,000 training points and the
    default k: a few percent of rows tie at the k-th distance, and each gets
    the oracle's answer from direct distances to its candidates alone, far
    fewer than n per tied row."""
    r = rng(23)
    n = 1000
    x = r.integers(0, 100, size=(n, 4)).astype(float)
    y = r.normal(size=n)
    xq = r.integers(0, 100, size=(300, 4)).astype(float)
    measured = []
    real = scores._tied_neighbours

    def counting(d2, kth, y):
        measured.append((d2.shape[0], int(np.isfinite(d2).sum())))
        return real(d2, kth, y)

    monkeypatch.setattr(scores, "_tied_neighbours", counting)
    model = fit_quantile_model(x, y)
    assert model.k == 50
    betas = [0.1, 0.5, 0.9, 1.0]
    got = model.quantile(xq, betas)
    tied = sum(rows for rows, _ in measured)
    direct = sum(count for _, count in measured)
    assert 0 < tied < xq.shape[0]
    assert tied * model.k <= direct < tied * n
    np.testing.assert_array_equal(got, _knn_quantile_oracle(x, y, model.k, xq, betas))


def test_knn_a_negative_kth_key_measures_every_column():
    """A row whose k-th key is negative bounds nothing, so it gets a direct
    distance to every training point; a row with a non-negative k-th key
    only to the points within its window."""
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    xq = np.array([[0.5], [0.5]])
    d = np.array([[-2.0 ** -40, -2.0 ** -41, 1.0, 9.0],
                  [2.0 ** -41, 2.0 ** -40, 1.0, 9.0]])
    b = 2
    key = (d.view(np.int64) & ~3) | np.arange(4)
    key.partition(2, axis=1)
    got = scores._candidate_sq_dists(xq, x, key, 2, b, np.full(2, 1e-20), np.empty((2, 4)))
    assert got[0].tolist() == [0.25, 0.25, 2.25, 6.25]
    assert got[1].tolist() == [0.25, 0.25, np.inf, np.inf]


def test_fit_turns_negative_zero_outcomes_positive():
    # With -0.0 and +0.0 among a row's neighbours the sign of a zero
    # quantile would rest on the selection's internal order.
    x = np.arange(6.0)[:, None]
    y = np.array([-0.0, 0.0, -0.0, 1.0, -0.0, 2.0])
    model = fit_quantile_model(x, y, k=3)
    assert not np.signbit(model.y).any()
    q = model.quantile(np.array([[1.0], [4.0]]), [0.5, 1.0])
    assert not np.signbit(q).any()
    assert np.signbit(y[[0, 2, 4]]).all()  # the caller's array is left as it was


def test_knn_rejects_covariates_whose_distances_overflow():
    # A query row at 1e200 used to get the all-points quantile: its squared
    # norm overflows, every distance was +inf and the whole row tied.
    x = np.arange(10.0).reshape(5, 2)
    y = np.arange(5.0)
    model = fit_quantile_model(x, y, k=2)
    with pytest.raises(ValidationError, match="query covariate row 1 has squared norm inf"):
        model.quantile(np.array([[0.0, 1.0], [1e200, 0.0]]), 0.5)
    with pytest.raises(ValidationError, match="training covariate row 3 .*would overflow"):
        fit_quantile_model(np.vstack([x[:3], [[0.0, 1e160]], x[3:]]), np.arange(6.0), k=2)
    # Just under the cap the distance identity stays finite: the farthest
    # pair is about 4 * MAX_SQ_NORM = max / 2 apart.
    edge = math.sqrt(MAX_SQ_NORM) * (1 - 1e-15)
    far = fit_quantile_model(np.array([[edge], [0.0]]), np.array([5.0, 6.0]), k=1)
    with np.errstate(all="raise"):
        assert far.quantile(np.array([[-edge], [edge]]), 1.0).tolist() == [6.0, 5.0]


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
        # The same interval from columns already queried.
        np.testing.assert_array_equal(fn.interval_at(model.quantile(xq, fn.betas), thr),
                                      (lo, hi))


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
