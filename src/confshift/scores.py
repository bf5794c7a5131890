"""Nonconformity scores and the baseline conditional-quantile model.

Three score families are supported, all monotone transports of the outcome:

* ``cqr``            two-sided conformalized quantile regression,
                     V(x, y) = max{q(x, a/2) - y, y - q(x, 1 - a/2)}
* ``cqr_one_sided``  upper-tail variant, V(x, y) = y - q(x, 1 - a)
* ``abs_residual``   V(x, y) = |y - q(x, 1/2)|

The baseline quantile model is a k-nearest-neighbor empirical quantile:
Euclidean distances, k = max(20, ceil(n/20)), distance ties all included,
lower-quantile convention throughout. It is deliberately simple. A score
asks its model for one thing, ``quantile(x, betas)``: an (n, len(betas))
array of conditional quantiles per row of x, nondecreasing in beta. Any
object with that method can stand in for the kNN model.

A score reads its value in two steps: the query, ``model.quantile(x,
score.betas)``, and a band rule on the returned columns (``ScoreFn.bands``).
Several scores on one model may share a query: ask once for the
concatenation of their ``betas`` and hand each score its own columns
(``ScoreFn.score_at``). Every column is computed on its own, so the values
are those of separate queries, bit for bit.

A query runs in blocks of query rows, about ``_BLOCK_ENTRIES`` distances
each, built in one buffer that every block reuses. Each distance is packed
with its column into an int64 key (the distance's bits above the low b, the
column in them), and one in-place partition of the keys at k selects every
row's neighbours. A row whose k-th key sits in a lower b-truncated class
than the next key is certified: its k keys are the k nearest points, with no
tie at the k-th distance. The other rows (ties, and the rare rows whose k-th
and next distance differ only in the low bits or lie below 0) take the exact
float64 tie path. Each row's selection is its own, but its distances come
from its block's matrix product, which the BLAS may round differently for
blocks of other sizes; where the distances are exact (integer covariates,
say) no output depends on the block rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ValidationError

__all__ = [
    "KNNQuantileModel",
    "ScoreFn",
    "default_k",
    "fit_quantile_model",
]


# Query rows per block: about this many distance entries, so one block's
# distances and packed int64 keys (1 MiB each) fit a 2 MiB L2 cache; 2^17
# ran faster than 2^18 on the benchmark's coverage and cli workloads.
_BLOCK_ENTRIES = 2 ** 17

# Largest squared norm of a covariate row. With |a|^2 and |b|^2 at most this,
# Cauchy-Schwarz gives |<a, b>| <= |a| |b| <= max / 8 (every partial sum of
# the inner product too), so the three terms of the distance identity
# |a|^2 - 2 <a, b> + |b|^2 sum to at most max / 2 in size: no rounding error
# of a few ulps can overflow it.
MAX_SQ_NORM = float(np.finfo(float).max) / 8


def default_k(n: int) -> int:
    return max(20, math.ceil(n / 20))


@dataclass(frozen=True)
class KNNQuantileModel:
    """Empirical conditional quantiles over the k nearest training points.

    ``clipped`` records that the requested k exceeded the training size and
    was clamped to n (a warning is emitted at fit time).

    :func:`fit_quantile_model` stores the outcomes as ``y + 0.0``, which
    turns each -0.0 into +0.0: with both zeros among a row's neighbours, the
    sign of a zero quantile would depend on the selection's internal order.
    """

    x: np.ndarray
    y: np.ndarray
    k: int
    clipped: bool = False

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
        n = self.x.shape[0]
        out = np.empty((x.shape[0], betas.size))
        if self.k >= n:
            # Every training point is a neighbour of every row.
            out[:] = _lower_quantiles(np.sort(self.y)[None, :], np.array([n]), betas)
        else:
            # One distance buffer and one key buffer for every block: fresh
            # (rows x n) arrays per block would be handed back to the kernel
            # and faulted in again.
            step = max(1, _BLOCK_ENTRIES // n)
            rows = min(step, x.shape[0])
            buf = np.empty((rows, n))
            keys = np.empty((rows, n), dtype=np.int64)
            x_sq = _checked_sq_norms(self.x, "training")
            for lo in range(0, x.shape[0], step):
                out[lo : lo + step] = self._quantile_block(
                    x[lo : lo + step], xq_sq[lo : lo + step], betas, buf, keys, x_sq)
        return out[:, 0] if scalar else out

    def _quantile_block(self, xq: np.ndarray, xq_sq: np.ndarray, betas: np.ndarray,
                        buf: np.ndarray, keys: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
        """Lower quantiles of the neighbour outcomes of each row of xq, with
        distances built in ``buf`` and packed keys in ``keys``; ``xq_sq`` and
        ``x_sq`` hold the query and training |x|^2."""
        rows, n, k = xq.shape[0], self.x.shape[0], self.k
        # Squared Euclidean distances via the inner-product identity, built in
        # place (-2m + |xq|^2 is the same float as |xq|^2 - 2m); sqrt is
        # monotone so neighbour sets are unchanged.
        d2 = np.matmul(xq, self.x.T, out=buf[:rows])
        d2 *= -2.0
        d2 += xq_sq[:, None]
        d2 += x_sq[None, :]
        # Key: the distance's int64 bits with the low b cleared, the column
        # in them. On non-negative floats the bits order as the values, and
        # every negative float's bits sort below them.
        b = (n - 1).bit_length()
        low = (1 << b) - 1
        key = np.bitwise_and(d2.view(np.int64), ~low, out=keys[:rows])
        key |= np.arange(n)
        # One pivot at k: the first k keys are the k smallest, entry k the next.
        key.partition(k, axis=1)
        kk, nk = key[:, :k].max(axis=1), key[:, k]
        # A row is certified when its k-th key is a non-negative distance in
        # a lower truncated class than the next key: every other distance is
        # then beyond the k-th, so the row has exactly these k neighbours.
        # The other rows take the exact path.
        exact = (kk < 0) | (kk >> b >= nk >> b)
        q = _lower_quantiles(np.sort(self.y[key[:, :k] & low], axis=1), np.full(rows, k), betas)
        if exact.any():
            d2x = d2[exact]
            kth = np.partition(d2x, k - 1, axis=1)[:, k - 1]
            q[exact] = _lower_quantiles(*_tied_neighbours(d2x, kth, self.y), betas)
        return q


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
    idx = np.ceil(betas[None, :] * counts[:, None] - 1e-12).astype(int) - 1
    return ys[np.arange(ys.shape[0])[:, None], np.maximum(idx, 0)]


def fit_quantile_model(x, y, k: int | None = None) -> KNNQuantileModel:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float) + 0.0
    if x.shape[0] == 0:
        raise ValidationError("empty-dataset")
    if y.shape != (x.shape[0],):
        raise ValidationError("x and y lengths differ")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("training covariates and outcomes must be finite")
    _checked_sq_norms(x, "training")
    if k is None:
        k = default_k(x.shape[0])
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    clipped = False
    if k > x.shape[0]:
        warnings.warn(
            f"k={k} exceeds training size n={x.shape[0]}; clamping to n",
            stacklevel=2,
        )
        k, clipped = x.shape[0], True
    return KNNQuantileModel(x=x, y=y, k=int(k), clipped=clipped)


@dataclass(frozen=True)
class ScoreFn:
    """A nonconformity score bound to a fitted quantile model and level alpha.

    ``score`` and ``interval`` query the model for ``betas`` themselves;
    ``score_at`` reads the same value from quantile columns the caller has
    already queried, such as one slice of a query shared by several alphas.
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
        a, b = self.bands(self.model.quantile(np.atleast_2d(np.asarray(x, dtype=float)),
                                              self.betas))
        thr = np.asarray(threshold, dtype=float)
        return a - thr, b + thr
