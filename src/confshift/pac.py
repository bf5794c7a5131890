"""Training-conditional (PAC) procedure via lower confidence envelopes.

The worst-case target CDF of the scores admits the envelope representation

    G(t) = max{ E[1{V <= t} l(X)],  1 - E[1{V > t} u(X)] },

so a threshold v with G(v) >= 1 - alpha is valid simultaneously for every
ratio inside the envelope. Replacing the two expectations by lower confidence
bounds at level delta gives a threshold that covers with probability 1 - delta
over the calibration draw. Three constructions:

* ``plugin``     empirical means, no confidence correction;
* ``hoeffding``  means minus M sqrt(log(2/delta) / (2n));
* ``wsr``        predictable-plug-in betting martingale lower bound
                 (the within-sample confidence-sequence construction of
                 Waudby-Smith/Ramdas type), the recommended default.

The WSR bound for mean mu of summands f_j in [0, 1] is
inf{g >= 0 : max_i prod_{j<=i} (1 + nu_j (f_j - g)) <= 2/delta} with betting
fractions nu_j = min{1, sqrt(2 log(2/delta) / (n shat^2_{j-1}))} driven by the
running mean/variance started at 1/2 and 1/4. Products use the original
sample order; sorting would break the martingale property.

A threshold is the first sorted calibration score at which the envelope
reaches 1 - alpha; a running max repairs a curve into a monotone one without
moving its first crossing. The plugin and Hoeffding curves need no repair:
they are maxima of cumulative sums of positive terms (minus a constant), and
those never decrease, in floating point too. So along a path of calibration
sets the search may resume at the previous crossing and still returns the
running max of the per-set thresholds. The WSR curve is not monotone in t,
because its bets adapt to the running mean and variance: in one replication
of the sensitivity campaign (n = 1000, Gamma = 2.1) the u-side log-wealth
at the fixed bet is 3.742 at sorted index 958 and 3.624 at 959, against
log(40) = 3.689, so the crossing test turns from true to false as t rises.
Bisection over t is therefore unsound; the WSR search is an exact branch and
bound that skips only ranges whose log-wealth upper bound stays below the
threshold, and returns the linear scan's index (see _wsr_first_crossing).
Along a path a later set could cross below the previous crossing and dip
again above it. There the resumed search is itself the path's repair, so
every entry is at least the previous one, and a larger threshold only adds
coverage.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PROB_SLACK, ValidationError
from .marginal import CalibrationSet

__all__ = [
    "METHODS",
    "envelope_hoeffding",
    "envelope_wsr",
    "pac_gap",
    "pac_threshold",
    "pac_threshold_path",
]

METHODS = ("plugin", "hoeffding", "wsr")

_WSR_TOL = 1e-10
_LEAF = 16
_BOUND_MARGIN = 1e-9


def _default_m(calib: CalibrationSet) -> float:
    # Exact max of the envelope over calibration and test point; analytic
    # bound families (clipped propensities) keep this finite.
    return float(max(calib.lo.max(), calib.hi.max(), calib.u_test))


def _check_levels(method: str, delta: float, alpha: float | None = None) -> None:
    if method not in METHODS:
        raise ValidationError(f"unknown envelope method {method!r}")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    if method != "plugin" and not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")


def _check_m(calib: CalibrationSet, m: float | None) -> float:
    if m is None:
        return _default_m(calib)
    if m < max(calib.lo.max(), calib.hi.max()):
        raise ValidationError(f"M-too-small: M={m} below max bound")
    return float(m)


def _running_mean(f: np.ndarray) -> np.ndarray:
    """Running means mu_j of the summands up to and including j, started
    at 1/2, per row of the (R, n) matrix ``f``."""
    i = np.arange(1, f.shape[1] + 1)
    return (0.5 + np.cumsum(f, axis=1)) / (1.0 + i)


def _nu_from_squares(sq: np.ndarray, delta: float) -> np.ndarray:
    """Betting fractions nu_j from the squared deviations (f_j - mu_j)^2:
    each bet reads the running variance up to j - 1, started at 1/4."""
    n = sq.shape[1]
    i = np.arange(1, n + 1)
    sig2 = (0.25 + np.cumsum(sq, axis=1)) / (1.0 + i)
    sig2_prev = np.concatenate(
        [np.full((sq.shape[0], 1), 0.25), sig2[:, :-1]], axis=1
    )
    return np.minimum(1.0, np.sqrt(2.0 * math.log(2.0 / delta) / (n * sig2_prev)))


def _running_nu(f: np.ndarray, delta: float) -> np.ndarray:
    """Betting fractions nu_j per row of the (R, n) summand matrix ``f``."""
    return _nu_from_squares((f - _running_mean(f)) ** 2, delta)


def _log_wealth_max(f: np.ndarray, nu: np.ndarray, g: np.ndarray | float) -> np.ndarray:
    """max_i log prod_{j<=i} (1 + nu_j (f_j - g)) per row, g in [0, 1].

    Factors are in [0, 2] for g in [0, 1]; a zero factor kills the wealth,
    which the running max already accounts for through earlier prefixes.
    """
    if isinstance(g, np.ndarray):
        g = g[:, None]
    factors = np.maximum(1.0 + nu * (f - g), 0.0)
    with np.errstate(divide="ignore"):
        logs = np.log(factors)
    return np.max(np.cumsum(logs, axis=1), axis=1)


def _wsr_lcb_rows(f: np.ndarray, delta: float, tol: float = _WSR_TOL) -> np.ndarray:
    """Lower confidence bound rows: inf{g in [0,1] : max wealth <= 2/delta}.

    The max wealth is continuous and strictly decreasing in g and falls below
    2 at g = 1, so the root always lies in [0, 1]; bisection to ``tol``.
    """
    nu = _running_nu(f, delta)
    thresh = math.log(2.0 / delta)
    lo = np.zeros(f.shape[0])
    hi = np.ones(f.shape[0])
    feasible_at_zero = _log_wealth_max(f, nu, lo) <= thresh
    hi[feasible_at_zero] = 0.0
    for _ in range(int(math.ceil(math.log2(1.0 / tol)))):
        mid = 0.5 * (lo + hi)
        ok = _log_wealth_max(f, nu, mid) <= thresh
        hi[ok] = mid[ok]
        lo[~ok] = mid[~ok]
    return 0.5 * (lo + hi)


def _summands(calib: CalibrationSet, t: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """WSR summand rows at each threshold in ``t``, both (len(t), n):
    f = 1{V <= t} l / M and h = 1 - 1{V > t} u / M."""
    below = calib.v[None, :] <= t[:, None]
    f = np.where(below, calib.lo / m, 0.0)
    h = 1.0 - np.where(below, 0.0, calib.hi / m)
    return f, h


def _sum_envelope(calib: CalibrationSet, penalty: float) -> np.ndarray:
    """The plug-in envelope minus ``penalty``, floored at 0, on the set's
    sorted scores.

    Entry j of the curve (n + 1 entries) is the envelope with the first j
    sorted scores at or below t: max{sum(l 1{V<=t}), n - sum(u 1{V>t})} / n.
    """
    n = calib.n
    return np.maximum(np.maximum(calib.cum_lo / n, 1.0 - calib.tail_hi / n) - penalty, 0.0)


def _hoeffding_penalty(n: int, delta: float, m: float) -> float:
    return m * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def envelope_hoeffding(
    calib: CalibrationSet, t: float, delta: float, M: float | None = None
) -> float:
    """Plug-in value minus the Hoeffding penalty M sqrt(log(2/delta)/(2n)).

    The pre-max terms are left raw (the u-term may be negative); only the
    final value is floored at 0.
    """
    _check_levels("hoeffding", delta)
    curve = _sum_envelope(calib, _hoeffding_penalty(calib.n, delta, _check_m(calib, M)))
    return float(curve[np.searchsorted(calib.vs, t, side="right")])


def envelope_wsr(
    calib: CalibrationSet, t: float, delta: float, M: float | None = None
) -> float:
    """Betting-martingale envelope, clamped to [0, 1].

    Both one-sided bounds spend delta/2 (wealth threshold 2/delta); the
    u-side bound for 1 - E[1{V>t} u] is 1 - M + M * lcb of the complementary
    summands h_j = 1 - 1{V_j > t} u_j / M.
    """
    _check_levels("wsr", delta)
    m = _check_m(calib, M)
    f, h = _summands(calib, np.array([t], dtype=float), m)
    g_l = _wsr_lcb_rows(f, delta)[0]
    g_u = _wsr_lcb_rows(h, delta)[0]
    value = max(m * g_l, 1.0 - m + m * g_u)
    return min(max(value, 0.0), 1.0)


def _log_wealth_bound(lo: np.ndarray, hi: np.ndarray, g0: np.ndarray, delta: float) -> np.ndarray:
    """Upper bound on ``_log_wealth_max(r, _running_nu(r, delta), g0)`` over
    every summand row r whose entries each equal the entry of ``lo`` or of
    ``hi`` in the same row, where lo <= hi entrywise; one bound per row.

    Such rows are the summands at every t between two sorted scores, because
    each summand is a nondecreasing step function of t. The running means lie
    between the two corner rows' means; each squared deviation lies between
    ``sq_lo`` (the squared distance from the entry's two values to that mean
    interval) and ``sq_hi`` (the largest of the four corners); so nu lies
    between the fractions those squares give, and each factor is at most
    1 + nu* (hi - g0), with nu* the larger fraction where hi >= g0 and the
    smaller one elsewhere.
    """
    mu_lo, mu_hi = _running_mean(lo), _running_mean(hi)
    sq_hi = np.maximum.reduce([(x - mu) ** 2 for x in (lo, hi) for mu in (mu_lo, mu_hi)])
    sq_lo = np.minimum((lo - np.clip(lo, mu_lo, mu_hi)) ** 2,
                       (hi - np.clip(hi, mu_lo, mu_hi)) ** 2)
    nu = np.where(hi >= g0[:, None], _nu_from_squares(sq_lo, delta),
                  _nu_from_squares(sq_hi, delta))
    return _log_wealth_max(hi, nu, g0)


def _wsr_first_crossing(
    calib: CalibrationSet, alpha: float, delta: float, m: float, start: int = 0
) -> int:
    """Index of the first sorted score at or after ``start`` whose raw WSR
    envelope reaches 1-alpha; n when none does.

    Exact sublevel test: G^L >= 1-alpha iff the wealth at the fixed bet
    g0 = (1-alpha)/M still exceeds 2/delta (the bound is the inf over
    feasible g, and wealth is decreasing in g); likewise for the u side at
    g0 = (M-alpha)/M. No bisection, so no tolerance flicker at the boundary.

    The test is not monotone in t (see the module notes), so the search is
    an exact branch and bound. The candidates from ``start`` on are cut into
    ranges of doubling length (along a path the next crossing is usually a
    few candidates on) and visited left to right. A range of at most
    ``_LEAF`` candidates is tested row by row, and the first row that passes
    is the answer. A longer range is skipped when ``_log_wealth_bound`` of
    its two end rows stays below log(2/delta) on every live side, and is
    otherwise split, left half first. The bound is built from the kernel's
    own helpers in the same operation order, and IEEE add, multiply, divide,
    sqrt, a cumsum in fixed order and max are each monotone in every input,
    so it dominates every row's computed log-wealth, not only its exact
    value; ``_BOUND_MARGIN`` covers ``np.log``, which need not be correctly
    rounded. So a skipped range holds no passing row, and the result equals
    the index of a linear scan.
    """
    vs = calib.vs
    n = calib.n
    if start >= n:
        return n
    thresh = math.log(2.0 / delta)
    g0 = np.array([(1.0 - alpha) / m, (m - alpha) / m])
    if g0[1] <= 0.0:  # degenerate M <= alpha: u side trivially certifies
        return start
    live = g0 <= 1.0  # a side whose bet exceeds 1 never gains wealth
    g0 = g0[live]
    ranges, a = [], start
    while a < n:
        ranges.append((a, min(2 * a - start, n - 1)))
        a = ranges[-1][1] + 1
    ranges.reverse()
    while ranges:
        a, b = ranges.pop()
        if b - a >= _LEAF:
            x = np.stack(_summands(calib, vs[[a, b]], m))[live]
            if (_log_wealth_bound(x[:, 0], x[:, 1], g0, delta) >= thresh - _BOUND_MARGIN).any():
                mid = (a + b) // 2
                ranges += [(mid + 1, b), (a, mid)]
            continue
        x = np.stack(_summands(calib, vs[a : b + 1], m))[live].reshape(-1, n)
        g = np.repeat(g0, b - a + 1)
        hit = (_log_wealth_max(x, _running_nu(x, delta), g) >= thresh).reshape(len(g0), -1)
        if hit.any():
            return a + int(np.argmax(hit.any(axis=0)))
    return n


def _first_crossing(calib: CalibrationSet, alpha: float, delta: float, method: str,
                    m: float, start: int) -> int:
    """Index of the first sorted score at or after ``start`` whose raw
    envelope reaches 1 - alpha; n when none does."""
    if method == "wsr":
        return _wsr_first_crossing(calib, alpha, delta, m, start)
    penalty = 0.0 if method == "plugin" else _hoeffding_penalty(calib.n, delta, m)
    crossed = _sum_envelope(calib, penalty)[1 + start:] >= (1.0 - alpha) - PROB_SLACK
    return start + int(np.argmax(crossed)) if crossed.any() else calib.n


def pac_threshold(
    calib: CalibrationSet,
    alpha: float,
    delta: float,
    method: str = "wsr",
    M: float | None = None,
) -> float:
    """Smallest sorted score whose envelope clears 1 - alpha, else +inf.

    The envelope is evaluated at sorted calibration scores only and repaired
    to be monotone by a running max; the first raw crossing therefore equals
    the first repaired crossing, which is what the search returns.
    """
    return float(pac_threshold_path([calib], alpha, delta, method, M)[0])


def pac_threshold_path(
    calibs,
    alpha: float,
    delta: float,
    method: str = "wsr",
    M: float | None = None,
) -> np.ndarray:
    """Thresholds along a path of calibration sets sharing one score vector.

    Intended for a widening sequence of bound pairs (a strength grid): the
    result is nondecreasing, each entry certifying coverage for its own set
    (a larger threshold is always conservative). Each search resumes at the
    previous crossing, so a whole path costs little more than one search;
    for plugin and Hoeffding the path equals the running max of the per-set
    thresholds (see the module notes).

    M must dominate every set's bounds; default: the largest single-set M.
    """
    _check_levels(method, delta, alpha)
    calibs = list(calibs)
    if not calibs:
        raise ValidationError("empty calibration path")
    v0 = calibs[0].v
    for c in calibs[1:]:
        if not np.array_equal(c.v, v0):
            raise ValidationError("path members must share the score vector")
    m = max(_default_m(c) for c in calibs) if M is None else float(M)
    for c in calibs:
        _check_m(c, m)
    vs = calibs[0].vs
    n = calibs[0].n
    out = np.empty(len(calibs))
    cur = 0
    for i, c in enumerate(calibs):
        if cur < n:
            cur = _first_crossing(c, alpha, delta, method, m, cur)
        out[i] = float(vs[cur]) if cur < n else math.inf
    return out


def pac_gap(w_eval, lo, hi) -> float:
    """Envelope-misspecification penalty max{E(l-w)_+, E(u-w)_-}, plug-in,
    over evaluation points with true ratio ``w_eval`` and envelope ``lo``/``hi``."""
    w = np.asarray(w_eval, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("w_eval must be a nonempty 1-d array")
    under = np.maximum(np.asarray(lo, dtype=float) - w, 0.0)
    over = np.maximum(w - np.asarray(hi, dtype=float), 0.0)
    return float(max(under.mean(), over.mean()))
