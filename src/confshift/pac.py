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
running mean/variance started at 1/2 and 1/4. Products use the sample order
of the calibration units as given; sorting them would break the martingale
property. The bound holds only when that order is fixed apart from the
units' values, so callers pass a random order drawn independently of the
data: ``core.split`` permutes with its seed, and the CLI sorts a --calib
file canonically and then permutes it with --seed.

A threshold is the first sorted calibration score at which the envelope
reaches 1 - alpha; a running max repairs a curve into a monotone one without
moving its first crossing. The plugin and Hoeffding curves need no repair:
they never decrease, in floating point too (``core._envelope_sums`` states
why). So ``pac_threshold_path`` builds every set's curve in one stacked
``_envelope_sums`` pass over one sort, and the path is the running max of
the sets' first crossings. The WSR curve is not monotone in t,
because its bets adapt to the running mean and variance: in one replication
of the sensitivity campaign (n = 1000, Gamma = 2.1) the u-side log-wealth
at the fixed bet is 3.742 at sorted index 958 and 3.624 at 959, against
log(40) = 3.689, so the crossing test turns from true to false as t rises.
Bisection over t is therefore unsound; the WSR search is an exact branch and
bound that returns the linear scan's index (see _wsr_first_crossing).

The search treats the two sides of the envelope apart. The u side goes
first, over every candidate from the start on, and gives its first passing
index x_u; the l side is then searched only below x_u, where a pass could
still move the answer. Each side's search splits candidate ranges: a range
of more than ``_BOUND_FIRST`` candidates first takes an upper bound on its
log-wealth from its one pair of end rows at the side's bet
(``_Kernel.log_wealth_bound``) and is dropped when that bound stays below
log(2/delta); a range of more than ``_LEAF`` candidates is split in
halves, left first, and the rest is tested row by row. A right half is
reached only when its left sibling held no pass: when the parent took a
bound of its own, that bound failed on both halves together, so the right
half splits at once; when the parent skipped its bound, the right half
takes one.

* A search from 0 splits [0, n) top down this way on the u side, then
  [0, x_u) on the l side.
* Along a path each later search resumes at the previous crossing. Its u
  side starts with a window of min(offset + 1, ``_WINDOW``) candidates,
  offset being how far the previous search moved, tested as one leaf;
  after a miss the next range is twice as long, a range of at most
  ``_WINDOW`` candidates is again one leaf, and a longer one goes through
  the split search. Its l side is split top down on [start, x_u).
* A static certificate drops the l side of a set at every t. Every l-side
  summand is l_j / M or 0 and nu_j <= 1, so a row's log factor is at most
  log(1 + (l_j / M - g0)) where l_j / M > g0 and at most 0 elsewhere. In
  floating point the kernel forms that factor as 1 + nu_j d from the very
  same d = l_j / M - g0, and nu_j d <= d after rounding; IEEE addition is
  monotone in each argument, so a float cumulative sum is monotone in each
  term, and every running sum of every row stays at most the certificate,
  the sum of log(1 + (l_j / M - g0)) over l_j / M > g0 in unit order.
  When that sum stays below log(2/delta) - ``_BOUND_MARGIN`` (the margin
  covers ``np.log``, which need not be correctly rounded), no row passes.

``pac_threshold_path`` builds one ``_Kernel`` per call; its scratch of
``_SCRATCH_ROWS`` rows holds the summand rows of one leaf, written as
np.where(v <= t, below, above) from per-set arrays (l / M and 0 on the l
side, 1 and 1 - u / M on the u side), and goes when the call returns. A
leaf then runs the float operations of ``running_nu`` and
``log_wealth_max`` on those rows, so each row keeps the bits of the linear
scan's. Each kernel row costs three sequential cumulative sums, so rows and
calls set the cost. The window rule and the two constants were checked by
replaying 64 captured sensitivity-campaign paths (n = 1000, 13 strengths)
and 32 coverage-campaign paths (n = 2000), counting leaf calls, leaf rows
and bounds, and weighting them by their cost on one CPU of a shared 2-CPU
Xeon (a leaf about 15 us plus 21 us a row, a bound about 80 us, at
n = 1000). Leaf 8 with the bound first above 4 candidates came within 2 %
of the best pair; every pair with a leaf of 4 to 12 and a bound first above
2 to 6 came within 3 %, and a leaf of 16 or a bound first above 8 cost 3 to
15 % more. Resumed searches there moved a median of 3 candidates (90 % at
most 7), and the first one after the search from 0 a mean of 22, hence the
window rule; a bound after a window's miss almost never held, hence the
leaf test of short ranges. A right half that always skipped its bound cost
4 % less on the sensitivity paths and 40 % more on the coverage paths. The
static certificate dropped the l side in 265 of the 583 sensitivity sets
whose largest l / M is above the bet.

Along a WSR path a later set could cross below the previous crossing and
dip again above it. There the resumed search is itself the path's repair,
so every entry is at least the previous one, and a larger threshold only
adds coverage.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import PROB_SLACK, ValidationError, _envelope_sums
from .marginal import CalibrationSet, _envelope_misses

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
_WINDOW = 16
_SCRATCH_ROWS = max(_LEAF, _WINDOW)  # the most candidates one leaf tests
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


def _check_m(calibs, m: float | None) -> float:
    """M for the sets ``calibs``: their largest :func:`_default_m`, which
    dominates each by construction, or ``m`` checked against every set."""
    if m is None:
        return max(_default_m(c) for c in calibs)
    if not math.isfinite(m):
        raise ValidationError(f"M must be finite, got M={m}")
    if m < max(max(c.lo.max(), c.hi.max()) for c in calibs):
        raise ValidationError(f"M-too-small: M={m} below max bound")
    return float(m)


class _Side(NamedTuple):
    """One side of the WSR envelope for one set: its summand at a unit is
    ``below`` when the unit's score is at or below t and ``above`` otherwise
    (arrays over the units, or one float for all), and ``g0`` is its bet."""

    below: np.ndarray | float
    above: np.ndarray | float
    g0: float


def _sides(calib: CalibrationSet, m: float, alpha: float = math.nan) -> tuple[_Side, _Side]:
    """The l side (f = 1{V <= t} l / M, bet (1 - alpha) / M) and the u side
    (h = 1 - 1{V > t} u / M, bet (M - alpha) / M) of ``calib``."""
    return (_Side(calib.lo / m, 0.0, (1.0 - alpha) / m),
            _Side(1.0, 1.0 - calib.hi / m, (m - alpha) / m))


class _Kernel:
    """The WSR log-wealth arithmetic at one sample size n and level delta.

    Built once per search path (or per envelope value): ``den`` holds 1 + j
    for j = 1..n and ``c2`` is 2 log(2/delta). Each method writes its running
    means, squared deviations, betting fractions and log-wealth in place,
    into arrays of its own call or into ``out``/``work``, with the
    operations of

        mu_j  = (1/2 + sum_{k<=j} f_k) / (1 + j)
        s_j   = (1/4 + sum_{k<=j} (f_k - mu_k)^2) / (1 + j),   s_0 = 1/4
        nu_j  = min{1, sqrt(2 log(2/delta) / (n s_{j-1}))}
        W(g)  = max_i sum_{j<=i} log max{1 + nu_j (f_j - g), 0}

    in this order (``x += c`` for ``c + x`` and ``a *= a`` for ``a ** 2`` give
    the same floats), so the dominance arguments of ``_wsr_first_crossing``
    hold for every float the kernel returns. A kernel built with ``rows``
    holds three (rows, n) scratch arrays that :meth:`passes` fills for up to
    ``rows`` candidates at a time, and :meth:`range_dead` for a range's two
    end rows; they go when the kernel does.
    """

    def __init__(self, n: int, delta: float, rows: int = 0) -> None:
        self.den = 1.0 + np.arange(1, n + 1)
        self.thresh = math.log(2.0 / delta)
        self.c2 = 2.0 * self.thresh
        self._f, self._w, self._nu = (np.empty((rows, n)) for _ in range(3))

    def _mean(self, x: np.ndarray, prior: float, out: np.ndarray) -> np.ndarray:
        """(prior + running sum of each row of ``x``) / (1 + j), into ``out``."""
        np.add.accumulate(x, axis=-1, out=out)
        out += prior
        out /= self.den[: x.shape[-1]]
        return out

    def nu_from_squares(self, sq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Betting fractions nu_j from the squared deviations (f_j - mu_j)^2:
        each bet reads the running variance up to j - 1, started at 1/4."""
        nu = np.empty_like(sq) if out is None else out
        nu[..., 0] = 0.25
        self._mean(sq[..., :-1], 0.25, nu[..., 1:])
        nu *= sq.shape[-1]
        np.divide(self.c2, nu, out=nu)
        np.sqrt(nu, out=nu)
        return np.minimum(nu, 1.0, out=nu)

    def running_nu(self, f: np.ndarray, out: np.ndarray | None = None,
                   work: np.ndarray | None = None) -> np.ndarray:
        """Betting fractions nu_j per row of the (R, n) summand matrix ``f``;
        ``work`` (shaped like ``f``) holds the squared deviations."""
        sq = self._mean(f, 0.5, np.empty_like(f) if work is None else work)
        np.subtract(f, sq, out=sq)
        sq *= sq
        return self.nu_from_squares(sq, out)

    def log_wealth_max(self, f: np.ndarray, nu: np.ndarray, g,
                       out: np.ndarray | None = None) -> np.ndarray:
        """max_i log prod_{j<=i} (1 + nu_j (f_j - g)) per row, g in [0, 1]
        (a scalar or one bet per row).

        Factors are in [0, 2] for g in [0, 1]; a zero factor kills the wealth,
        which the running max already accounts for through earlier prefixes.
        """
        g = np.asarray(g, dtype=float)
        w = np.subtract(f, g[:, None] if g.ndim else g, out=out)
        w *= nu
        w += 1.0
        np.maximum(w, 0.0, out=w)
        with np.errstate(divide="ignore"):
            np.log(w, out=w)
        np.add.accumulate(w, axis=1, out=w)
        return w.max(axis=1)

    def log_wealth_bound(self, ends: np.ndarray, g0: float) -> float:
        """Upper bound on ``log_wealth_max(r, running_nu(r), g0)`` at the one
        bet g0, over every summand row r whose entries each equal the entry
        of ``ends[0]`` or ``ends[1]`` in the same column, ends[0] <= ends[1].

        Such rows are the summands at every t between two sorted scores,
        because each summand is a nondecreasing step function of t. The
        running means lie between the two end rows' means; each squared
        deviation lies between ``sq[0]`` (the squared distance from the
        entry's two values to that mean interval) and ``sq[1]`` (the largest
        of the four corners); so nu lies between the fractions those squares
        give, and each factor is at most 1 + nu* (ends[1] - g0), with nu* the
        larger fraction where ends[1] >= g0 and the smaller one elsewhere.
        """
        mu = self._mean(ends, 0.5, np.empty_like(ends))
        sq = np.empty_like(ends)  # sq[0] the smallest squared deviation, sq[1] the largest
        corners = ends[:, None] - mu[None]
        corners *= corners
        np.max(corners, axis=(0, 1), out=sq[1])
        near = np.clip(ends, mu[0], mu[1])
        np.subtract(ends, near, out=near)
        near *= near
        np.minimum(near[0], near[1], out=sq[0])
        nu = self.nu_from_squares(sq)
        return float(self.log_wealth_max(ends[1:], np.where(ends[1] >= g0, nu[0], nu[1]), g0)[0])

    def side_rows(self, v: np.ndarray, t: np.ndarray, side: _Side) -> np.ndarray:
        """The summand rows of ``side`` at each threshold in ``t``,
        ``np.where(v <= t, below, above)``, written into the scratch."""
        f = self._f[: t.shape[0]]
        np.copyto(f, side.above)
        np.putmask(f, v <= t[:, None], side.below)  # ``below`` repeats along each row
        return f

    def passes(self, v: np.ndarray, t: np.ndarray, side: _Side) -> np.ndarray:
        """Crossing test of ``side`` at each threshold in ``t``: the
        log-wealth at its bet reaches log(2/delta). The rows live in the
        scratch, so ``t`` holds at most ``rows`` thresholds."""
        f = self.side_rows(v, t, side)
        w = self._w[: f.shape[0]]
        nu = self.running_nu(f, self._nu[: f.shape[0]], w)
        return self.log_wealth_max(f, nu, side.g0, w) >= self.thresh

    def leaf(self, v: np.ndarray, vs: np.ndarray, a: int, b: int, side: _Side) -> int:
        """Index of the first of the candidates ``vs[a..b]`` whose row on
        ``side`` passes, or -1, from one :meth:`passes` over all of them."""
        hit = self.passes(v, vs[a : b + 1], side)
        return a + int(np.argmax(hit)) if hit.any() else -1

    def range_dead(self, v: np.ndarray, vs: np.ndarray, a: int, b: int, side: _Side) -> bool:
        """Whether ``log_wealth_bound`` of the end rows of the candidates
        ``vs[a..b]`` proves that no row of ``side`` there passes."""
        ends = self.side_rows(v, vs[[a, b]], side)
        return self.log_wealth_bound(ends, side.g0) < self.thresh - _BOUND_MARGIN

    def side_dead(self, side: _Side) -> bool:
        """Whether the static certificate proves that no row of the l side
        passes at any t: the sum of log(1 + (l_j / M - g0)) over the units
        with l_j / M > g0, in unit order, stays below log(2/delta)."""
        d = side.below[side.below > side.g0] - side.g0
        if not d.size:
            return True
        d += 1.0
        return np.cumsum(np.log(d, out=d))[-1] < self.thresh - _BOUND_MARGIN


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


def _sum_envelope(v, lo, hi, penalty: float) -> tuple[np.ndarray, np.ndarray]:
    """The stably sorted scores ``v``, and the plug-in envelope of the bounds
    ``lo``/``hi`` (n, or sets x n) minus ``penalty``, floored at 0, on them.

    Entry j of a curve (n + 1 entries) is the envelope with the first j
    sorted scores at or below t: max{sum(l 1{V<=t}), n - sum(u 1{V>t})} / n.
    """
    vs, cum_lo, tail_hi = _envelope_sums(v, lo, hi)
    n = vs.shape[0]
    return vs, np.maximum(np.maximum(cum_lo / n, 1.0 - tail_hi / n) - penalty, 0.0)


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
    penalty = _hoeffding_penalty(calib.n, delta, _check_m([calib], M))
    vs, curve = _sum_envelope(calib.v, calib.lo, calib.hi, penalty)
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
    m = _check_m([calib], M)
    rows = np.array([np.where(calib.v <= t, s.below, s.above) for s in _sides(calib, m)])
    g_l, g_u = _wsr_lcb_rows(_Kernel(calib.n, delta), rows)
    value = max(m * g_l, 1.0 - m + m * g_u)
    return min(max(value, 0.0), 1.0)


def _first_pass(kernel: _Kernel, v: np.ndarray, vs: np.ndarray, side: _Side, a: int, b: int,
                bound: bool = True) -> int:
    """Index of the first of the candidates ``vs[a..b]`` whose row on ``side``
    passes, or -1: the range is bounded first when ``bound`` and it holds more
    than ``_BOUND_FIRST`` candidates, split in halves when it holds more than
    ``_LEAF``, and tested row by row otherwise. A right half is searched only
    when its left sibling holds no pass. When its parent took a bound of its
    own, that bound failed on the two halves together, so the right half
    skips its bound and splits at once; when the parent skipped its bound,
    the right half takes one."""
    if bound and b - a >= _BOUND_FIRST and kernel.range_dead(v, vs, a, b, side):
        return -1
    if b - a >= _LEAF:
        mid = (a + b) // 2
        k = _first_pass(kernel, v, vs, side, a, mid)
        return k if k >= 0 else _first_pass(kernel, v, vs, side, mid + 1, b, not bound)
    return kernel.leaf(v, vs, a, b, side)


def _side_search(kernel: _Kernel, v: np.ndarray, vs: np.ndarray, side: _Side, start: int,
                 stop: int, window: int) -> int:
    """Index of the first of the candidates ``vs[start:stop]`` whose row on
    ``side`` passes, else ``stop``. With no ``window`` the range is split top
    down (``_first_pass``). Otherwise the search takes ranges from ``start``
    on: the first holds ``window`` candidates and each after a miss twice as
    many. A range of at most ``_WINDOW`` candidates is tested as one leaf, a
    longer one goes through ``_first_pass``."""
    if not window:
        k = _first_pass(kernel, v, vs, side, start, stop - 1)
        return stop if k < 0 else k
    a, size = start, window
    while a < stop:
        b = min(a + size, stop) - 1
        k = (kernel.leaf(v, vs, a, b, side) if b - a < _WINDOW
             else _first_pass(kernel, v, vs, side, a, b))
        if k >= 0:
            return k
        a, size = b + 1, 2 * size
    return stop


def _wsr_first_crossing(calib: CalibrationSet, vs: np.ndarray, alpha: float, delta: float,
                        m: float, start: int = 0, window: int = 0,
                        kernel: _Kernel | None = None) -> int:
    """Index of the first of the sorted scores ``vs`` at or after ``start``
    whose raw WSR envelope reaches 1-alpha; n when none does.

    Exact sublevel test: G^L >= 1-alpha iff the wealth at the fixed bet
    g0 = (1-alpha)/M still exceeds 2/delta (the bound is the inf over
    feasible g, and wealth is decreasing in g); likewise for the u side at
    g0 = (M-alpha)/M. No bisection, so no tolerance flicker at the boundary.
    A candidate passes when either side does.

    The test is not monotone in t (see the module notes), so each side is
    searched by an exact branch and bound of its own (``_first_pass``): the
    u side on ``[start, n)`` first, top down, or from a first ``window`` of
    candidates when one is given (``_side_search``); then the l side only
    on ``[start, x_u)``, unless ``_Kernel.side_dead`` drops it for the whole
    set. The bound is built from the kernel's own steps in the same
    operation order, and IEEE add, multiply, divide, sqrt, a cumsum in fixed
    order and max are each monotone in every input, so it dominates every
    row's computed log-wealth, not only its exact value; ``_BOUND_MARGIN``
    covers ``np.log``, which need not be correctly rounded. So a dropped
    range holds no passing row, and the result equals the index of a linear
    scan. Bounds and leaves read the rows the kernel builds in its scratch;
    ``kernel`` must have been built for this n and delta with
    ``_SCRATCH_ROWS`` rows, and a fresh one is built when it is None.
    """
    n = calib.n
    if start >= n:
        return n
    l_side, u_side = _sides(calib, m, alpha)
    if u_side.g0 <= 0.0:  # degenerate M <= alpha: u side trivially certifies
        return start
    if kernel is None:
        kernel = _Kernel(n, delta, _SCRATCH_ROWS)
    x = _side_search(kernel, calib.v, vs, u_side, start, n, window)
    if x > start and not kernel.side_dead(l_side):
        x = _side_search(kernel, calib.v, vs, l_side, start, x, 0)
    return x


def pac_threshold(
    calib: CalibrationSet,
    alpha: float,
    delta: float,
    method: str = "wsr",
    M: float | None = None,
) -> float:
    """Smallest sorted score whose envelope clears 1 - alpha, else +inf.

    The envelope is evaluated at sorted calibration scores only; its first
    raw crossing is also the first crossing of its running-max repair.
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
    (a larger threshold is always conservative). The scores are sorted once
    per call, stably. Plugin and Hoeffding build every set's curve in one
    stacked ``core._envelope_sums`` pass on that sort; the curves never
    decrease, so the path is the running max of the sets' first crossings
    (module notes).

    For wsr each search resumes at the previous crossing, so a whole path
    costs little more than one search. The units must come in an order
    fixed apart from their values (a seeded random permutation, say): the
    betting martingale reads them in the order given, and an order that
    depends on the data voids the certificate. One kernel serves the whole
    path. The first search splits the candidates top down; each later one
    tries the u side on a window of min(offset + 1, 16) candidates past the
    previous crossing, offset being how far the previous search moved, and
    doubles the range after a miss; the l side is searched only below the
    u side's crossing, and not at all when its static certificate holds
    (module notes).

    M must dominate every set's bounds; default: the largest single-set M.
    """
    _check_levels(method, delta, alpha)
    calibs = list(calibs)
    if not calibs:
        raise ValidationError("empty calibration path")
    v = calibs[0].v
    if not all(np.array_equal(c.v, v) for c in calibs):
        raise ValidationError("path members must share the score vector")
    m = _check_m(calibs, M)
    n = v.shape[0]
    if method == "wsr":
        vs = np.sort(v, kind="stable")
        kernel = _Kernel(n, delta, _SCRATCH_ROWS)
        idx = np.empty(len(calibs), dtype=int)
        cur = window = 0
        for i, c in enumerate(calibs):
            nxt = _wsr_first_crossing(c, vs, alpha, delta, m, cur, window, kernel)
            window = min(nxt - cur + 1, _WINDOW)
            idx[i] = cur = nxt
    else:
        penalty = 0.0 if method == "plugin" else _hoeffding_penalty(n, delta, m)
        vs, curve = _sum_envelope(v, np.array([c.lo for c in calibs]),
                                  np.array([c.hi for c in calibs]), penalty)
        crossed = curve[:, 1:] >= (1.0 - alpha) - PROB_SLACK
        idx = np.maximum.accumulate(np.where(crossed.any(axis=1), crossed.argmax(axis=1), n))
    return np.where(idx < n, vs[np.minimum(idx, n - 1)], math.inf)


def pac_gap(w_eval, lo, hi) -> float:
    """Envelope-misspecification penalty max{E(l-w)_+, E(u-w)_-}, plug-in,
    over evaluation points with true ratio ``w_eval`` and envelope ``lo``/``hi``.

    The guarantee it certifies: when the true ratio w may leave the envelope
    [l, u], the alg2 threshold's coverage given the calibration data satisfies

        P(coverage >= 1 - alpha - gap) >= 1 - delta,

    where gap is the population value of the penalty: the mass by which w
    leaves the envelope on either side bounds how far the envelope's lower
    CDF bound can overstate the target CDF."""
    _, _, under, over = _envelope_misses(w_eval, lo, hi)
    return float(max(under.mean(), over.mean()))
