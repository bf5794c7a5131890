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
bound that returns the linear scan's index (see _wsr_first_crossing). Each
candidate range carries its own mask of live sides (l and u). A range of
more than ``_BOUND_FIRST`` candidates first bounds each live side's
log-wealth from its two end rows, and a side whose bound stays below the
threshold is dead for the range and every range split from it; ranges of
more than ``_LEAF`` candidates are split, the rest tested row by row on the
sides still live. Each kernel row costs three sequential cumulative sums, so
the number of rows sets the cost. The constants were picked by replaying 32
captured sensitivity-campaign paths and 16 coverage-campaign searches
(n = 1000 and 2000) on one CPU of a shared 2-CPU Xeon: leaf 8 with the
bound first above 4 candidates was the fastest, and every other pair tried
with both constants between 4 and 16 was at most 15 % slower.
Along a path a later set could cross below the previous crossing and dip
again above it. There the resumed search is itself the path's repair, so
every entry is at least the previous one, and a larger threshold only adds
coverage.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PROB_SLACK, ValidationError, _envelope_sums
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
_LEAF = 8
_BOUND_FIRST = 4
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
    if not math.isfinite(m):
        raise ValidationError(f"M must be finite, got M={m}")
    if m < max(calib.lo.max(), calib.hi.max()):
        raise ValidationError(f"M-too-small: M={m} below max bound")
    return float(m)


class _Kernel:
    """The WSR log-wealth arithmetic at one sample size n and level delta.

    Built once per search (or per envelope value): ``den`` holds 1 + j for
    j = 1..n and ``c2`` is 2 log(2/delta). Each method writes its running
    means, squared deviations, betting fractions and log-wealth into scratch
    arrays of its own call, in place, with the operations of

        mu_j  = (1/2 + sum_{k<=j} f_k) / (1 + j)
        s_j   = (1/4 + sum_{k<=j} (f_k - mu_k)^2) / (1 + j),   s_0 = 1/4
        nu_j  = min{1, sqrt(2 log(2/delta) / (n s_{j-1}))}
        W(g)  = max_i sum_{j<=i} log max{1 + nu_j (f_j - g), 0}

    in this order (``x += c`` for ``c + x`` and ``a *= a`` for ``a ** 2`` give
    the same floats), so the dominance argument of ``_wsr_first_crossing``
    holds for every float the kernel returns.
    """

    def __init__(self, n: int, delta: float) -> None:
        self.den = 1.0 + np.arange(1, n + 1)
        self.thresh = math.log(2.0 / delta)
        self.c2 = 2.0 * self.thresh

    def _mean(self, x: np.ndarray, prior: float, out: np.ndarray) -> np.ndarray:
        """(prior + running sum of each row of ``x``) / (1 + j), into ``out``."""
        np.cumsum(x, axis=1, out=out)
        out += prior
        out /= self.den[: x.shape[1]]
        return out

    def nu_from_squares(self, sq: np.ndarray) -> np.ndarray:
        """Betting fractions nu_j from the squared deviations (f_j - mu_j)^2:
        each bet reads the running variance up to j - 1, started at 1/4."""
        nu = np.empty_like(sq)
        nu[:, 0] = 0.25
        self._mean(sq[:, :-1], 0.25, nu[:, 1:])
        nu *= sq.shape[1]
        np.divide(self.c2, nu, out=nu)
        np.sqrt(nu, out=nu)
        return np.minimum(nu, 1.0, out=nu)

    def running_nu(self, f: np.ndarray) -> np.ndarray:
        """Betting fractions nu_j per row of the (R, n) summand matrix ``f``."""
        sq = self._mean(f, 0.5, np.empty_like(f))
        np.subtract(f, sq, out=sq)
        sq *= sq
        return self.nu_from_squares(sq)

    def log_wealth_max(self, f: np.ndarray, nu: np.ndarray, g) -> np.ndarray:
        """max_i log prod_{j<=i} (1 + nu_j (f_j - g)) per row, g in [0, 1]
        (a scalar or one bet per row).

        Factors are in [0, 2] for g in [0, 1]; a zero factor kills the wealth,
        which the running max already accounts for through earlier prefixes.
        """
        g = np.asarray(g, dtype=float)
        w = np.subtract(f, g[:, None] if g.ndim else g)
        w *= nu
        w += 1.0
        np.maximum(w, 0.0, out=w)
        with np.errstate(divide="ignore"):
            np.log(w, out=w)
        np.cumsum(w, axis=1, out=w)
        return w.max(axis=1)

    def log_wealth_bound(self, lo: np.ndarray, hi: np.ndarray, g0: np.ndarray) -> np.ndarray:
        """Upper bound on ``log_wealth_max(r, running_nu(r), g0)`` over every
        summand row r whose entries each equal the entry of ``lo`` or of ``hi``
        in the same row, where lo <= hi entrywise; one bound per row.

        Such rows are the summands at every t between two sorted scores,
        because each summand is a nondecreasing step function of t. The
        running means lie between the two corner rows' means; each squared
        deviation lies between ``sq_lo`` (the squared distance from the
        entry's two values to that mean interval) and ``sq_hi`` (the largest
        of the four corners); so nu lies between the fractions those squares
        give, and each factor is at most 1 + nu* (hi - g0), with nu* the
        larger fraction where hi >= g0 and the smaller one elsewhere.
        """
        mu_lo = self._mean(lo, 0.5, np.empty_like(lo))
        mu_hi = self._mean(hi, 0.5, np.empty_like(hi))
        sq_hi, sq_lo, tmp = (np.empty_like(lo) for _ in range(3))
        np.subtract(lo, mu_lo, out=sq_hi)
        sq_hi *= sq_hi
        for x, mu in ((lo, mu_hi), (hi, mu_lo), (hi, mu_hi)):
            np.subtract(x, mu, out=tmp)
            tmp *= tmp
            np.maximum(sq_hi, tmp, out=sq_hi)
        for x, out in ((lo, sq_lo), (hi, tmp)):
            np.clip(x, mu_lo, mu_hi, out=out)
            np.subtract(x, out, out=out)
            out *= out
        np.minimum(sq_lo, tmp, out=sq_lo)
        nu = self.nu_from_squares(sq_hi)
        np.copyto(nu, self.nu_from_squares(sq_lo), where=hi >= g0[:, None])
        return self.log_wealth_max(hi, nu, g0)


def _wsr_lcb_rows(kernel: _Kernel, f: np.ndarray, tol: float = _WSR_TOL) -> np.ndarray:
    """Lower confidence bound rows: inf{g in [0,1] : max wealth <= 2/delta}.

    The max wealth is continuous and strictly decreasing in g and falls below
    2 at g = 1, so the root always lies in [0, 1]; bisection to ``tol``, each
    row on its own.
    """
    nu = kernel.running_nu(f)
    lo = np.zeros(f.shape[0])
    hi = np.ones(f.shape[0])
    feasible_at_zero = kernel.log_wealth_max(f, nu, lo) <= kernel.thresh
    hi[feasible_at_zero] = 0.0
    for _ in range(int(math.ceil(math.log2(1.0 / tol)))):
        mid = 0.5 * (lo + hi)
        ok = kernel.log_wealth_max(f, nu, mid) <= kernel.thresh
        hi[ok] = mid[ok]
        lo[~ok] = mid[~ok]
    return 0.5 * (lo + hi)


def _summands(v: np.ndarray, lo_m: np.ndarray, hi_m: np.ndarray, t: np.ndarray,
              sides) -> np.ndarray:
    """WSR summand rows at each threshold in ``t`` for each side in ``sides``,
    shape (len(sides), len(t), n), from the bounds already divided by M:
    side 0 is f = 1{V <= t} l / M and side 1 is h = 1 - 1{V > t} u / M."""
    below = v[None, :] <= t[:, None]
    out = np.empty((len(sides), len(t), v.shape[0]))
    for rows, side in zip(out, sides):
        if side == 0:
            np.multiply(below, lo_m, out=rows)
        else:
            np.multiply(~below, hi_m, out=rows)
            np.subtract(1.0, rows, out=rows)
    return out


def _sum_envelope(calib: CalibrationSet, penalty: float) -> tuple[np.ndarray, np.ndarray]:
    """The set's stably sorted scores, and the plug-in envelope minus
    ``penalty``, floored at 0, on them.

    Entry j of the curve (n + 1 entries) is the envelope with the first j
    sorted scores at or below t: max{sum(l 1{V<=t}), n - sum(u 1{V>t})} / n.
    """
    vs, cum_lo, tail_hi = _envelope_sums(calib.v, calib.lo, calib.hi)
    return vs, np.maximum(np.maximum(cum_lo / calib.n, 1.0 - tail_hi / calib.n) - penalty, 0.0)


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
    vs, curve = _sum_envelope(calib, _hoeffding_penalty(calib.n, delta, _check_m(calib, M)))
    return float(curve[np.searchsorted(vs, t, side="right")])


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
    rows = _summands(calib.v, calib.lo / m, calib.hi / m, np.array([t], dtype=float), (0, 1))
    g_l, g_u = _wsr_lcb_rows(_Kernel(calib.n, delta), rows[:, 0])
    value = max(m * g_l, 1.0 - m + m * g_u)
    return min(max(value, 0.0), 1.0)


def _wsr_first_crossing(calib: CalibrationSet, vs: np.ndarray, alpha: float, delta: float,
                        m: float, start: int = 0) -> int:
    """Index of the first of the sorted scores ``vs`` at or after ``start``
    whose raw WSR envelope reaches 1-alpha; n when none does.

    Exact sublevel test: G^L >= 1-alpha iff the wealth at the fixed bet
    g0 = (1-alpha)/M still exceeds 2/delta (the bound is the inf over
    feasible g, and wealth is decreasing in g); likewise for the u side at
    g0 = (M-alpha)/M. No bisection, so no tolerance flicker at the boundary.
    A candidate passes when either side does.

    The test is not monotone in t (see the module notes), so the search is
    an exact branch and bound, side by side. A side none of whose summands
    exceeds its bet never gains wealth and is dead from the start: the l
    side when max(l) / M <= g0, which holds at many scan sets. The
    candidates from ``start`` on are cut into ranges of doubling length
    (along a path the next crossing is usually a few candidates on) and
    visited left to right, each with its own mask of live sides. A range of
    more than ``_BOUND_FIRST`` candidates first takes
    ``_Kernel.log_wealth_bound`` of its two end rows on its live sides, and a
    side whose bound stays below log(2/delta) is dead for the range and for
    every range split from it. A range with no live side is skipped; one of
    more than ``_LEAF`` candidates is split, left half first; the rest are
    tested row by row on their live sides, and the first row that passes is
    the answer (the module notes say how the two sizes were chosen). The bound is built from the kernel's own steps in the same
    operation order, and IEEE add, multiply, divide, sqrt, a cumsum in fixed
    order and max are each monotone in every input, so it dominates every
    row's computed log-wealth, not only its exact value; ``_BOUND_MARGIN``
    covers ``np.log``, which need not be correctly rounded. So a dead side
    holds no passing row in its range, and the result equals the index of a
    linear scan.
    """
    n = calib.n
    if start >= n:
        return n
    g0 = np.array([(1.0 - alpha) / m, (m - alpha) / m])
    if g0[1] <= 0.0:  # degenerate M <= alpha: u side trivially certifies
        return start
    v, lo_m, hi_m = calib.v, calib.lo / m, calib.hi / m
    kernel = _Kernel(n, delta)
    # The largest summand is max(l) / M on the l side and 1 on the u side.
    live = np.array([lo_m.max() > g0[0], 1.0 > g0[1]])
    if not live.any():
        return n
    ranges, a = [], start
    while a < n:
        ranges.append((a, min(2 * a - start, n - 1), live))
        a = ranges[-1][1] + 1
    ranges.reverse()
    while ranges:
        a, b, live = ranges.pop()
        if b - a >= _BOUND_FIRST:
            ends = _summands(v, lo_m, hi_m, vs[[a, b]], np.flatnonzero(live))
            live = live.copy()
            live[live] = (kernel.log_wealth_bound(ends[:, 0], ends[:, 1], g0[live])
                          >= kernel.thresh - _BOUND_MARGIN)
            if not live.any():
                continue
            if b - a >= _LEAF:
                mid = (a + b) // 2
                ranges += [(mid + 1, b, live), (a, mid, live)]
                continue
        sides = np.flatnonzero(live)
        x = _summands(v, lo_m, hi_m, vs[a : b + 1], sides).reshape(-1, n)
        g = np.repeat(g0[sides], b - a + 1)
        hit = kernel.log_wealth_max(x, kernel.running_nu(x), g) >= kernel.thresh
        hit = hit.reshape(len(sides), -1).any(axis=0)
        if hit.any():
            return a + int(np.argmax(hit))
    return n


def _first_crossing(calib: CalibrationSet, vs: np.ndarray, alpha: float, delta: float,
                    method: str, m: float, start: int) -> int:
    """Index of the first of the sorted scores ``vs`` at or after ``start``
    whose raw envelope reaches 1 - alpha; n when none does."""
    if method == "wsr":
        return _wsr_first_crossing(calib, vs, alpha, delta, m, start)
    penalty = 0.0 if method == "plugin" else _hoeffding_penalty(calib.n, delta, m)
    crossed = _sum_envelope(calib, penalty)[1][1 + start:] >= (1.0 - alpha) - PROB_SLACK
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
    thresholds (see the module notes). The searches read one stable sort of
    the shared scores, taken here; plugin and Hoeffding sum each set's
    envelope with ``core._envelope_sums``.

    M must dominate every set's bounds; default: the largest single-set M.
    """
    _check_levels(method, delta, alpha)
    calibs = list(calibs)
    if not calibs:
        raise ValidationError("empty calibration path")
    m = max(_default_m(c) for c in calibs) if M is None else float(M)
    for c in calibs:
        if not np.array_equal(c.v, calibs[0].v):
            raise ValidationError("path members must share the score vector")
        _check_m(c, m)
    vs = np.sort(calibs[0].v, kind="stable")
    n = vs.shape[0]
    out = np.empty(len(calibs))
    cur = 0
    for i, c in enumerate(calibs):
        if cur < n:
            cur = _first_crossing(c, vs, alpha, delta, method, m, cur)
        out[i] = float(vs[cur]) if cur < n else math.inf
    return out


def pac_gap(w_eval, lo, hi) -> float:
    """Envelope-misspecification penalty max{E(l-w)_+, E(u-w)_-}, plug-in,
    over evaluation points with true ratio ``w_eval`` and envelope ``lo``/``hi``.

    The guarantee it certifies: when the true ratio w may leave the envelope
    [l, u], the alg2 threshold's coverage given the calibration data satisfies

        P(coverage >= 1 - alpha - gap) >= 1 - delta,

    where gap is the population value of the penalty: the mass by which w
    leaves the envelope on either side bounds how far the envelope's lower
    CDF bound can overstate the target CDF."""
    w = np.asarray(w_eval, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("w_eval must be a nonempty 1-d array")
    under = np.maximum(np.asarray(lo, dtype=float) - w, 0.0)
    over = np.maximum(w - np.asarray(hi, dtype=float), 0.0)
    return float(max(under.mean(), over.mean()))
