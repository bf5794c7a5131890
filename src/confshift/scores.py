"""Nonconformity scores and the baseline conditional-quantile model.

Three score families are supported, all monotone transports of the outcome:

* ``cqr``            two-sided conformalized quantile regression,
                     V(x, y) = max{q(x, a/2) - y, y - q(x, 1 - a/2)}
* ``cqr_one_sided``  upper-tail variant, V(x, y) = y - q(x, 1 - a)
* ``abs_residual``   V(x, y) = |y - q(x, 1/2)|

The baseline quantile model is a k-nearest-neighbor empirical quantile:
Euclidean distances, k = max(20, ceil(n/20)) by default (a k at or above
n takes every training point), distance ties all included, lower-quantile
convention throughout. It is deliberately simple. A score
asks its model for one thing, ``quantile(x, betas)``: an (n, len(betas))
array of conditional quantiles per row of x, nondecreasing in beta. Any
object with that method can stand in for the kNN model.

A score reads its value in two steps: the query, ``model.quantile(x,
score.betas)``, and a band rule on the returned columns (``ScoreFn.bands``).
Several scores on one model may share a query: ask once for the
concatenation of their ``betas`` and hand each score its own columns
(``ScoreFn.score_at``, ``interval_at``). Every column is computed on its
own, so the values are those of separate queries, bit for bit.

Distances are direct differences: from a query row a to a training point
x, d(a, x) = ((a - x) ** 2).sum() in float64. That is elementwise, so every
answer is the kNN quantile under d, ties included, and does not depend on
the rows queried with it or on the block size.

A query gets there without computing d for most rows. It runs in blocks of
query rows, about ``_BLOCK_ENTRIES`` distances each, in one buffer that every
block reuses. One matrix product, [a, 1, s_a] @ [-2x; s_x; 1] with s the
float |.|^2 of a row, gives the block's product distances
e(a, x) = s_a - 2 <a, x> + s_x. Each is packed in place with its column into
an int64 key (its bits with the low b cleared, the column in them), and one
in-place partition of the keys at k picks every row's k candidates.

The rounding bound. Let u = 2^-53, eta = 2^-1074 (the most an underflowing
product or square loses is eta / 2), S = s_a + max_x s_x and D = |a - x|^2
exactly. To first order in u:

* e: the product adds p + 2 terms (only the p products a_l (-2 x_l) round)
  whose sizes sum to s_a + s_x + 2 sum |a_l x_l| <= 2S, in whatever order the
  BLAS picks, so it is within 2 (p + 2) u S of s_a + s_x - 2 <a, x>; s_a and
  s_x, p roundings each, are within p u S of |a|^2 + |x|^2. So
  |e - D| <= (3p + 4) u S + 2p eta.
* d: a difference, a square and p - 1 additions of non-negative terms give
  |d - D| <= (p + 2) u D + p eta, and D <= 2 (|a|^2 + |x|^2), about 2S.

So |e - d| <= (5p + 8) u S + 3p eta. ``_rounding_bound`` takes
tol = 8 (p + 2) (u S + eta), at least 1.6 times that for every p, which also
covers the second-order terms and the rounding of the window limit below.

The window. After the partition, a row's k-th key kk (the largest of the
first k) bounds the product distances of the k picked points by c, kk's
class ceiling (kk with its low b set): a non-negative key at most kk has e
at most c, a negative one e < 0. The row's window limit is c + 2 tol, or
+inf when kk < 0 (negative floats' bits sort in reverse, so a negative kk
bounds nothing), and its candidates are the points whose key's class floor
(the key with its low b cleared) is at most the limit. The k picked points
are candidates, and so is every neighbour under d:

* d <= c + tol at the k picked points, so the k-th smallest d, D_k, is at
  most c + tol;
* a neighbour has d <= D_k, so e <= d + tol <= c + 2 tol, and its class
  floor is at most its e.

A row is certified when its next key's class floor (entry k) lies above its
limit: every later key's floor is at least as large, so the window holds
the k picked points alone, and they are the row's neighbours under d, with
no tie at the k-th. Every other row (ties, near ties, negative product
distances) takes the tie path, with d computed only to its candidates and
+inf in every other point's place, which moves neither the k-th distance
nor the set at or within it.

The limit is a rounded sum. With B = (5p + 8) u S + 3p eta, tol >= 1.6 B
gives 2 tol - 2B >= 0.75 tol >= 18 u S, while fl(c + 2 tol) lies below
c + 2 tol by at most u (c + 2 tol), about u D_k <= 2 u S. So the rounded
limit is at least c + 2B, and the argument holds for it.

No overflow. With every |.|^2 at most ``MAX_SQ_NORM`` = max / 8, each
product |a_l 2 x_l| <= 2 |a| |x| <= max / 4 and every partial sum of the
product is at most s_a + s_x + 2 |a| |x| <= max / 2 in size, and d is at
most 2 (|a|^2 + |x|^2) <= max / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PROB_SLACK, ValidationError

__all__ = [
    "KNNQuantileModel",
    "ScoreFn",
    "default_k",
    "fit_quantile_model",
]


# Query rows per block: about this many distance entries, so one block's one
# buffer (its distances, then their packed int64 keys in place; 1 MiB) fits a
# 2 MiB L2 cache. On the coverage campaign's query pair (12,000 rows, 1,000
# training points) 2^17 ran at least as fast as 2^16 and 2^18.
_BLOCK_ENTRIES = 2 ** 17

# Largest squared norm of a covariate row. With |a|^2 and |b|^2 at most this,
# Cauchy-Schwarz gives |<a, b>| <= |a| |b| <= max / 8, so the augmented
# product's terms, and every partial sum of them, stay at most max / 2 in size
# (see the module docstring): no rounding error of a few ulps can overflow it.
MAX_SQ_NORM = float(np.finfo(float).max) / 8

# Unit roundoff and the smallest subnormal of float64, the relative and the
# absolute term of one rounding.
_U = 2.0 ** -53
_ETA = float(np.finfo(float).smallest_subnormal)


def default_k(n: int) -> int:
    return max(20, math.ceil(n / 20))


@dataclass(frozen=True)
class KNNQuantileModel:
    """Empirical conditional quantiles over the k nearest training points.

    :func:`fit_quantile_model` stores the outcomes as ``y + 0.0``, which
    turns each -0.0 into +0.0: with both zeros among a row's neighbours, the
    sign of a zero quantile would depend on the selection's internal order.
    """

    x: np.ndarray
    y: np.ndarray
    k: int

    def quantile(self, x: np.ndarray, beta) -> np.ndarray:
        """Conditional beta-quantile per row of x; beta may be a scalar
        (returns shape (n,)) or a sequence of levels (returns (n, len))."""
        betas = np.atleast_1d(np.asarray(beta, dtype=float))
        scalar = betas.shape == (1,) and np.ndim(beta) == 0
        if not ((betas > 0.0) & (betas <= 1.0)).all():
            raise ValidationError(f"quantile levels must be in (0, 1], got {beta}")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.x.shape[1]:
            raise ValidationError(
                f"query has {x.shape[1]} covariates, model was fit with {self.x.shape[1]}"
            )
        if not np.isfinite(x).all():
            raise ValidationError("query covariates must be finite")
        xq_sq = _checked_sq_norms(x, "query")
        (n, p), m = self.x.shape, x.shape[0]
        out = np.empty((m, betas.size))
        if self.k >= n:
            # Every training point is a neighbour of every row.
            out[:] = _lower_quantiles(np.sort(self.y)[None, :], np.array([n]), betas)
        else:
            # [xq, 1, |xq|^2] @ [-2 x^T; |x|^2; 1] is |xq|^2 - 2 <xq, x> + |x|^2
            # in one product, into one buffer that every block reuses (fresh
            # arrays per block would be faulted in again).
            x_sq = _checked_sq_norms(self.x, "training")
            aq = np.empty((m, p + 2))
            aq[:, :p], aq[:, p], aq[:, p + 1] = x, 1.0, xq_sq
            ax = np.empty((p + 2, n))
            np.multiply(self.x.T, -2.0, out=ax[:p])
            ax[p], ax[p + 1] = x_sq, 1.0
            tol = _rounding_bound(xq_sq, float(x_sq.max()), p)
            step = max(1, _BLOCK_ENTRIES // n)
            buf = np.empty((min(step, m), n))
            for lo in range(0, m, step):
                sl = slice(lo, lo + step)
                out[sl] = self._quantile_block(x[sl], aq[sl], ax, tol[sl], betas, buf)
        return out[:, 0] if scalar else out

    def _quantile_block(self, xq: np.ndarray, aq: np.ndarray, ax: np.ndarray, tol: np.ndarray,
                        betas: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """Lower quantiles of the neighbour outcomes of each row of xq: ``aq``
        holds its rows augmented, ``ax`` the augmented training points, ``tol``
        each row's rounding bound, and ``buf`` the product distances, then
        their keys, then the exact rows' direct distances."""
        rows, n, k = xq.shape[0], self.x.shape[0], self.k
        d2 = np.matmul(aq, ax, out=buf[:rows])
        # Key, in place: the distance's int64 bits with ``low`` cleared, the
        # column in them. On non-negative floats the bits order as the values,
        # and every negative float's bits sort below them.
        low = (1 << (n - 1).bit_length()) - 1
        key = d2.view(np.int64)
        key &= ~low
        key |= np.arange(n)
        # One pivot at k: the first k keys are the k smallest, entry k the next.
        key.partition(k, axis=1)
        limit = _window_limit(key, k, low, tol)
        # Certified unless the next key is a candidate too.
        exact = (key[:, k] & ~low).view(float) <= limit
        q = _lower_quantiles(np.sort(self.y[key[:, :k] & low], axis=1), np.full(rows, k), betas)
        if exact.any():
            # The exact rows' keys are copied out: the buffer takes their distances.
            d = _candidate_sq_dists(xq[exact], self.x, key[exact], limit[exact], low, buf)
            kth = np.partition(d, k - 1, axis=1)[:, k - 1]
            q[exact] = _lower_quantiles(*_tied_neighbours(d, kth, self.y), betas)
        return q


def _window_limit(key: np.ndarray, k: int, low: int, tol: np.ndarray) -> np.ndarray:
    """Per row of the keys partitioned at k (``low`` masks their column
    bits), the window limit: the k-th key's class ceiling plus 2 tol, or +inf
    when that key is negative (module docstring)."""
    kk = key[:, :k].max(axis=1)
    return np.where(kk < 0, np.inf, (kk | low).view(float) + 2.0 * tol)


def _rounding_bound(xq_sq: np.ndarray, x_sq_max: float, p: int) -> np.ndarray:
    """Per query row, tol >= |e - d| for every training point (the module
    docstring derives it); ``xq_sq`` holds the rows' s_a, ``x_sq_max`` the
    largest s_x."""
    return (8 * (p + 2) * _U) * (xq_sq + x_sq_max) + (8 * (p + 2) * _ETA)


def _candidate_sq_dists(xq: np.ndarray, x: np.ndarray, key: np.ndarray, limit: np.ndarray,
                        low: int, out: np.ndarray) -> np.ndarray:
    """Direct distances ((xq_i - x_j) ** 2).sum() from each row of xq to its
    candidates (a ``key`` whose class floor is at most the row's ``limit``;
    ``low`` masks the column bits), +inf to every other training point, into
    the first rows of out, about ``_BLOCK_ENTRIES`` differences at a time.
    Elementwise, so a row's distances do not depend on the rows computed
    with it."""
    rows, at = np.nonzero((key & ~low).view(float) <= limit[:, None])
    cols = key[rows, at] & low
    d = out[: xq.shape[0]]
    d.fill(np.inf)
    step = max(1, _BLOCK_ENTRIES // x.shape[1])
    for lo in range(0, rows.size, step):
        r, c = rows[lo : lo + step], cols[lo : lo + step]
        d[r, c] = ((xq[r] - x[c]) ** 2).sum(-1)
    return d


def _tied_neighbours(d2: np.ndarray, kth: np.ndarray, y: np.ndarray):
    """Sorted outcomes of every training point at or within the k-th distance
    (tie rule), one row per row of d2, padded with +inf to the largest count,
    and the count per row."""
    neighbour = d2 <= kth[:, None]
    counts = neighbour.sum(axis=1)
    width = int(counts.max())
    # The width smallest entries hold each row's neighbours, +inf after them.
    ys = np.partition(np.where(neighbour, y[None, :], np.inf), width - 1, axis=1)[:, :width]
    ys.sort(axis=1)
    return ys, counts


def _sq_norms(x: np.ndarray) -> tuple[np.ndarray, int]:
    """|x_i|^2 per row of the (n, p) array x, and the first row over
    ``MAX_SQ_NORM`` (an overflow to +inf included), -1 when none is."""
    with np.errstate(over="ignore"):
        sq = (x ** 2).sum(axis=1)
    over = ~(sq <= MAX_SQ_NORM)
    return sq, int(np.argmax(over)) if over.any() else -1


def _checked_sq_norms(x: np.ndarray, what: str) -> np.ndarray:
    """|x_i|^2 per row of x; a ValidationError when a row's distances could
    overflow."""
    sq, i = _sq_norms(x)
    if i >= 0:
        raise ValidationError(f"{what} covariate row {i} has squared norm {float(sq[i])!r}, "
                              f"over {MAX_SQ_NORM!r}: its distances would overflow")
    return sq


def _lower_quantiles(ys: np.ndarray, counts: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Entry ceil(beta * count) - 1 of each sorted row of ys, for every level."""
    idx = np.ceil(betas[None, :] * counts[:, None] - PROB_SLACK).astype(int) - 1
    return ys[np.arange(ys.shape[0])[:, None], np.maximum(idx, 0)]


def fit_quantile_model(x, y, k: int | None = None) -> KNNQuantileModel:
    """The kNN quantile model on training rows ``x`` and outcomes ``y``, with
    ``k`` neighbours (default :func:`default_k` of the row count). A k at or
    above the row count is kept: every query row then takes every training
    point as its neighbours (``KNNQuantileModel.quantile``)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float) + 0.0
    if x.shape[0] == 0:
        raise ValidationError("empty-dataset")
    if y.shape != (x.shape[0],):
        raise ValidationError("x and y lengths differ")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("training covariates and outcomes must be finite")
    _checked_sq_norms(x, "training")
    k = default_k(x.shape[0]) if k is None else int(k)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return KNNQuantileModel(x=x, y=y, k=k)


@dataclass(frozen=True)
class ScoreFn:
    """A nonconformity score bound to a fitted quantile model and level alpha.

    ``score`` and ``interval`` query the model for ``betas`` themselves;
    ``score_at`` and ``interval_at`` read the same from columns already
    queried, such as one slice of a query shared by several alphas.
    """

    kind: str
    model: KNNQuantileModel
    alpha: float

    KINDS = ("cqr", "cqr_one_sided", "abs_residual")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown score kind {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def betas(self) -> tuple[float, ...]:
        if self.kind == "cqr":
            return (self.alpha / 2.0, 1.0 - self.alpha / 2.0)
        if self.kind == "cqr_one_sided":
            return (1.0 - self.alpha,)
        return (0.5,)

    def bands(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Quantile bands (a, b) with V(x, y) = max(a - y, y - b) per row,
        from this score's quantile columns ``q = model.quantile(x, betas)``.

        cqr: q(alpha/2) and q(1 - alpha/2); abs_residual: the median twice
        (fl(m - y) = -fl(y - m), so the max is |y - m|, save that a zero
        score may carry a minus sign); cqr_one_sided: no lower band, a = -inf,
        which stays -inf after subtracting any finite or +inf threshold.
        """
        if self.kind == "cqr_one_sided":
            return np.full(q.shape[0], -np.inf), q[:, 0]
        return q[:, 0], q[:, -1]

    def score(self, x, y) -> np.ndarray:
        """V(x, y), vectorized over rows of x / entries of y."""
        return self.score_at(self.model.quantile(x, self.betas), y)

    def score_at(self, q, y) -> np.ndarray:
        """V(x, y) from this score's quantile columns q at the rows of x, as
        :meth:`bands` takes them; no query of its own."""
        a, b = self.bands(q)
        y = np.asarray(y, dtype=float)
        return np.maximum(a - y, y - b)

    def interval(self, x, threshold) -> tuple[np.ndarray, np.ndarray]:
        """Realized outcome interval {y : V(x, y) <= threshold} per row of x.

        threshold broadcasts against rows: a scalar, a per-row array, or a
        (... x strengths x rows) array, which gives endpoints of that shape
        from one quantile query. +inf yields the whole line for every score
        kind, while a two-sided set may come out empty (lo > hi) for negative
        thresholds.
        """
        return self.interval_at(self.model.quantile(x, self.betas), threshold)

    def interval_at(self, q, threshold) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`interval` from quantile columns q, as :meth:`score_at` reads them."""
        a, b = self.bands(q)
        thr = np.asarray(threshold, dtype=float)
        return a - thr, b + thr
