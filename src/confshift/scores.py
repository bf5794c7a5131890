"""Nonconformity scores and the baseline conditional-quantile model.

Three score families are supported, all monotone transports of the outcome:

* ``cqr``            two-sided conformalized quantile regression,
                     V(x, y) = max{q(x, a/2) - y, y - q(x, 1 - a/2)}
* ``cqr_one_sided``  upper-tail variant, V(x, y) = y - q(x, 1 - a)
* ``abs_residual``   V(x, y) = |y - q(x, 1/2)|

The baseline quantile model is a k-nearest-neighbor empirical quantile:
Euclidean distances, k = max(20, ceil(n/20)), distance ties all included,
lower-quantile convention throughout. It is deliberately simple; anything
exposing ``quantile(x, beta)`` that is monotone in beta can be swapped in.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .core import ValidationError

__all__ = [
    "KNNQuantileModel",
    "QuantileModel",
    "ScoreFn",
    "default_k",
    "fit_quantile_model",
]


class QuantileModel(Protocol):
    def quantile(self, x: np.ndarray, beta) -> np.ndarray:
        """Conditional beta-quantile per row of x; beta may be a scalar
        (returns shape (n,)) or a sequence of levels (returns (n, len))."""
        ...


def default_k(n: int) -> int:
    return max(20, math.ceil(n / 20))


@dataclass(frozen=True)
class KNNQuantileModel:
    """Empirical conditional quantiles over the k nearest training points.

    ``clipped`` records that the requested k exceeded the training size and
    was clamped to n (a warning is emitted at fit time).
    """

    x: np.ndarray
    y: np.ndarray
    k: int
    clipped: bool = False

    def quantile(self, x: np.ndarray, beta) -> np.ndarray:
        betas = np.atleast_1d(np.asarray(beta, dtype=float))
        scalar = betas.shape == (1,) and np.ndim(beta) == 0
        if not ((betas > 0.0) & (betas <= 1.0)).all():
            raise ValidationError(f"quantile levels must be in (0, 1], got {beta}")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.x.shape[1]:
            raise ValidationError(
                f"query has {x.shape[1]} covariates, model was fit with {self.x.shape[1]}"
            )
        out = np.empty((x.shape[0], betas.size))
        # Chunk queries to bound the distance-matrix footprint.
        step = max(1, int(2e6) // max(1, self.x.shape[0]))
        for lo in range(0, x.shape[0], step):
            out[lo : lo + step] = self._quantile_chunk(x[lo : lo + step], betas)
        return out[:, 0] if scalar else out

    def _quantile_chunk(self, xq: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Sorted neighbour outcomes and their count per row, then one gather
        of the lower-quantile index ceil(beta * count) - 1 for every level."""
        n = self.x.shape[0]
        if self.k >= n:
            ys = np.broadcast_to(np.sort(self.y), (xq.shape[0], n))
            counts = np.full(xq.shape[0], n)
        else:
            # Squared Euclidean distances via the inner-product identity;
            # sqrt is monotone so neighbor sets are unchanged.
            d2 = (xq ** 2).sum(axis=1)[:, None] - 2.0 * (xq @ self.x.T)
            d2 += (self.x ** 2).sum(axis=1)[None, :]
            part = np.argpartition(d2, (self.k - 1, self.k), axis=1)
            rows = np.arange(xq.shape[0])
            kth = d2[rows, part[:, self.k - 1]]
            if (d2[rows, part[:, self.k]] > kth).all():
                # No ties beyond the k-th distance: exactly k outcomes.
                ys = np.sort(self.y[part[:, : self.k]], axis=1)
                counts = np.full(xq.shape[0], self.k)
            else:
                # All points at the k-th distance count as neighbors (tie
                # rule); padding with +inf keeps them first after the sort.
                neighbor = d2 <= kth[:, None]
                counts = neighbor.sum(axis=1)
                ys = np.where(neighbor, self.y[None, :], np.inf)
                ys.sort(axis=1)
        idx = np.ceil(betas[None, :] * counts[:, None] - 1e-12).astype(int) - 1
        return ys[np.arange(xq.shape[0])[:, None], np.maximum(idx, 0)]


def fit_quantile_model(x, y, k: int | None = None) -> KNNQuantileModel:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] == 0:
        raise ValidationError("empty-dataset")
    if y.shape != (x.shape[0],):
        raise ValidationError("x and y lengths differ")
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
    """A nonconformity score bound to a fitted quantile model and level alpha."""

    kind: str
    model: QuantileModel
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

    def _bands(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Quantile bands (a, b) with V(x, y) = max(a - y, y - b) per row.

        cqr: q(alpha/2) and q(1 - alpha/2); abs_residual: the median twice
        (fl(m - y) = -fl(y - m), so the max is |y - m|, save that a zero
        score may carry a minus sign); cqr_one_sided: no lower band, a = -inf,
        which stays -inf after subtracting any finite or +inf threshold.
        """
        q = self.model.quantile(x, self.betas)
        if self.kind == "cqr_one_sided":
            return np.full(q.shape[0], -np.inf), q[:, 0]
        return q[:, 0], q[:, -1]

    def score(self, x, y) -> np.ndarray:
        """V(x, y), vectorized over rows of x / entries of y."""
        a, b = self._bands(x)
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
        a, b = self._bands(np.atleast_2d(np.asarray(x, dtype=float)))
        thr = np.asarray(threshold, dtype=float)
        return a - thr, b + thr
