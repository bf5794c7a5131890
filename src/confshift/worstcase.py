"""Exact worst-case score CDFs over bounded likelihood-ratio classes.

For a finite score distribution and an envelope l <= w <= u with E[w] = 1,
the minimal attainable CDF has the closed form

    F*(t) = max{ E[l 1{V <= t}],  1 - E[u 1{V > t}] },

attained by a witness ratio that switches from l to u at a single pivot
score (mixing at the pivot atom when needed). The x-conditional (causal)
variant constrains the ratio envelope per covariate value and tightens F*:
within each x the least-favorable ratio switches at the conditional
tau-quantile of the scores, tau(x) = (u0 - 1) / (u0 - l0).

An independent greedy fractional-knapsack LP oracle is kept alongside the
closed forms; the equivalence on random instances is part of the acceptance
gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ValidationError, _envelope_sums

__all__ = [
    "CausalDiscreteJoint",
    "CausalWitness",
    "DiscreteJoint",
    "MarginalWitness",
    "causal_witness",
    "lp_oracle_marginal",
    "worst_cdf_causal",
    "worst_cdf_marginal",
    "worst_witness_marginal",
]

_MASS_TOL = 1e-9


@dataclass
class DiscreteJoint:
    """Finite score distribution with a per-atom likelihood-ratio envelope."""

    v: np.ndarray
    m: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        self.v = np.asarray(self.v, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        n = self.v.shape[0]
        if n == 0:
            raise ValidationError("empty-dataset: no atoms")
        for name, arr in (("m", self.m), ("lo", self.lo), ("hi", self.hi)):
            if arr.shape != (n,):
                raise ValidationError(f"field {name} must match the atom count")
        if np.any(self.m <= 0):
            raise ValidationError("atom masses must be positive")
        if abs(float(self.m.sum()) - 1.0) > _MASS_TOL:
            raise ValidationError("atom masses must sum to 1")
        if np.any(self.lo < 0) or np.any(self.hi < self.lo):
            raise ValidationError("bounds must satisfy 0 <= lo <= hi")

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Envelope kernel on the mass-weighted bounds, built on first use."""
        return _envelope_sums(self.v, self.m * self.lo, self.m * self.hi)

    def _require_feasible(self) -> None:
        e_lo = float(self.m @ self.lo)
        e_hi = float(self.m @ self.hi)
        if e_lo > 1.0 + _MASS_TOL or e_hi < 1.0 - _MASS_TOL:
            raise ValidationError(
                f"empty-identification-set: E[lo]={e_lo:.6g}, E[hi]={e_hi:.6g}"
            )


def worst_cdf_marginal(d: DiscreteJoint, t):
    """Minimal CDF value at t over all ratios inside the envelope.

    ``t`` may be a scalar (returns a float) or an array of query points.
    """
    d._require_feasible()
    vs, cum_lo, tail_hi = d._sums
    j = np.searchsorted(vs, t, side="right")
    out = np.maximum(cum_lo[j], 1.0 - tail_hi[j])
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class MarginalWitness:
    """Least-favorable ratio: l below the pivot, u above, mixed at the pivot."""

    w_star: np.ndarray
    t_star: float
    gamma_mix: float


def worst_witness_marginal(d: DiscreteJoint) -> MarginalWitness:
    """Ratio attaining F*(t) simultaneously at every t.

    Pivot t* = inf{t : H(t) <= 1} for H(t) = E[l 1{V<=t} + u 1{V>t}], with the
    left limit H-(t*) fixing the mixing weight; degenerate envelopes
    (E[u] = 1 or E[l] = 1) collapse to w* = u or w* = l automatically.
    """
    d._require_feasible()
    if float(d.m @ d.hi) <= 1.0 + _MASS_TOL:
        # H stays <= 1 everywhere: the upper bound itself has unit mass.
        return MarginalWitness(w_star=d.hi.copy(), t_star=-math.inf, gamma_mix=0.0)
    # H at each distinct score (the last sorted position of each tie group);
    # H is nonincreasing, so the pivot is its first drop below 1. When none
    # drops, the feasibility tolerance left H(max v) = E[l] a hair above 1.
    vs, cum_lo, tail_hi = d._sums
    ends = np.flatnonzero(np.append(vs[1:] != vs[:-1], True)) + 1
    hit = cum_lo[ends] + tail_hi[ends] <= 1.0 + 1e-12
    t_star = float(vs[ends[np.argmax(hit)] - 1] if hit.any() else vs[-1])
    h_at = float(d.m @ np.where(d.v <= t_star, d.lo, d.hi))
    strictly_below = d.v < t_star
    h_minus = float(d.m @ np.where(strictly_below, d.lo, d.hi))
    gamma = 0.0 if h_minus <= 1.0 else (1.0 - h_at) / (h_minus - h_at)
    at_pivot = d.v == t_star
    w_star = np.where(
        strictly_below,
        d.lo,
        np.where(at_pivot, gamma * d.hi + (1.0 - gamma) * d.lo, d.hi),
    )
    return MarginalWitness(w_star=w_star, t_star=t_star, gamma_mix=float(gamma))


def lp_oracle_marginal(d: DiscreteJoint, t: float) -> float:
    """Greedy fractional-knapsack solution of min E[1{V<=t} w].

    Constraints l <= w <= u and E[w] = 1. Start from w = l on {V <= t} and
    w = u on {V > t}, then walk the active region in ascending-score order,
    adjusting atoms up to their slack until the mass constraint holds. Exact
    for this separable LP; pivot order fixed for determinism.
    """
    below = d.v <= t
    w = np.where(below, d.lo, d.hi).astype(float)
    total = float(d.m @ w)
    order = np.argsort(d.v, kind="stable")
    if total < 1.0:
        # Raise atoms at or below t toward u (each unit of mass costs 1).
        deficit = 1.0 - total
        for i in order:
            if not below[i]:
                continue
            room = d.m[i] * (d.hi[i] - d.lo[i])
            take = min(room, deficit)
            if take > 0:
                w[i] += take / d.m[i]
                deficit -= take
            if deficit <= 1e-15:
                break
        if deficit > _MASS_TOL:
            raise ValidationError("infeasible: total upper mass below 1")
    elif total > 1.0:
        # Lower atoms above t toward l (free: they sit outside the objective).
        surplus = total - 1.0
        for i in order:
            if below[i]:
                continue
            room = d.m[i] * (d.hi[i] - d.lo[i])
            take = min(room, surplus)
            if take > 0:
                w[i] -= take / d.m[i]
                surplus -= take
            if surplus <= 1e-15:
                break
        if surplus > _MASS_TOL:
            raise ValidationError("infeasible: total lower mass above 1")
    return float(d.m @ np.where(below, w, 0.0))


@dataclass
class CausalDiscreteJoint:
    """Per-x ratio envelope: atoms carry an x index, bounds live on x.

    ``xm`` is the marginal mass of each x value, ``f`` the x-level density
    ratio (mean 1 under xm), ``l0``/``u0`` the conditional envelope. Atom
    arrays are flat: ``atom_x`` indexes into the x-level arrays and
    ``atom_cm`` are conditional masses summing to 1 within each x.
    """

    xm: np.ndarray
    f: np.ndarray
    l0: np.ndarray
    u0: np.ndarray
    atom_x: np.ndarray
    atom_v: np.ndarray
    atom_cm: np.ndarray

    def __post_init__(self) -> None:
        self.xm = np.asarray(self.xm, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.l0 = np.asarray(self.l0, dtype=float)
        self.u0 = np.asarray(self.u0, dtype=float)
        self.atom_x = np.asarray(self.atom_x, dtype=int)
        self.atom_v = np.asarray(self.atom_v, dtype=float)
        self.atom_cm = np.asarray(self.atom_cm, dtype=float)
        k = self.xm.shape[0]
        if k == 0 or self.atom_v.shape[0] == 0:
            raise ValidationError("empty-dataset: no atoms")
        for name, arr in (("f", self.f), ("l0", self.l0), ("u0", self.u0)):
            if arr.shape != (k,):
                raise ValidationError(f"field {name} must match the x count")
        if np.any(self.xm <= 0) or abs(float(self.xm.sum()) - 1.0) > _MASS_TOL:
            raise ValidationError("x masses must be positive and sum to 1")
        if np.any(self.f <= 0):
            raise ValidationError("covariate ratio f must be positive")
        if abs(float(self.xm @ self.f) - 1.0) > _MASS_TOL:
            raise ValidationError("covariate ratio f must have mean 1")
        if np.any(self.atom_cm <= 0):
            raise ValidationError("conditional masses must be positive")
        if self.atom_x.min() < 0 or self.atom_x.max() >= k:
            raise ValidationError("atom_x indexes out of range")
        sums = np.zeros(k)
        np.add.at(sums, self.atom_x, self.atom_cm)
        if np.any(np.abs(sums - 1.0) > _MASS_TOL):
            raise ValidationError("conditional masses must sum to 1 within each x")

    @cached_property
    def _sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Envelope kernel on the mass-weighted bounds, built on first use."""
        return _envelope_sums(self.v, self.m * self.lo, self.m * self.hi)

    def _require_feasible(self) -> None:
        if np.any(self.l0 > 1.0 + _MASS_TOL) or np.any(self.u0 < 1.0 - _MASS_TOL):
            raise ValidationError(
                "empty-identification-set: need l0 <= 1 <= u0 for every x"
            )
        if np.any(self.u0 < self.l0):
            raise ValidationError("bounds must satisfy l0 <= u0")


@dataclass(frozen=True)
class CausalWitness:
    """Per-atom least-favorable ratio plus the per-x pivot diagnostics."""

    w_star: np.ndarray
    q: np.ndarray
    gamma0: np.ndarray


def causal_witness(d: CausalDiscreteJoint) -> CausalWitness:
    """Least-favorable conditional ratio for the x-wise envelope.

    Within each x the ratio is f(x) (l0 below the conditional tau-quantile,
    u0 above, gamma0 at the quantile atom), tau = (u0 - 1)/(u0 - l0); gamma0
    solves the unit conditional mean and must land in [l0, u0] on feasible
    inputs (violations indicate a bug, not bad data). Zero-mass quantile
    atoms cannot occur discretely except for tau = 0, where the quantile is
    -inf and every atom sits above it.
    """
    d._require_feasible()
    k = d.xm.shape[0]
    q = np.empty(k)
    gamma0 = np.empty(k)
    w_star = np.empty_like(d.atom_v)
    for g in range(k):
        sel = d.atom_x == g
        v = d.atom_v[sel]
        cm = d.atom_cm[sel]
        l0, u0 = float(d.l0[g]), float(d.u0[g])
        if u0 - l0 <= 1e-14:
            # Degenerate envelope: feasibility forces l0 = u0 = 1.
            q[g] = -math.inf
            gamma0[g] = 0.5 * (l0 + u0)
            w_star[sel] = d.f[g] * u0
            continue
        tau = (u0 - 1.0) / (u0 - l0)
        if tau <= 1e-14:
            q[g] = -math.inf  # u0 = 1: everything above the pivot
            gamma0[g] = 0.5 * (l0 + u0)
            w_star[sel] = d.f[g] * u0
            continue
        order = np.argsort(v, kind="stable")
        cum = np.cumsum(cm[order])
        idx = int(np.searchsorted(cum, tau - 1e-12, side="left"))
        qg = float(v[order[min(idx, v.size - 1)]])
        p_below = float(cm[v < qg].sum())
        p_above = float(cm[v > qg].sum())
        p_at = float(cm[v == qg].sum())
        g0 = (1.0 - l0 * p_below - u0 * p_above) / p_at
        if not (l0 - 1e-9 <= g0 <= u0 + 1e-9):
            raise AssertionError(
                f"internal: gamma0={g0:.6g} escaped [{l0:.6g}, {u0:.6g}]"
            )
        q[g] = qg
        gamma0[g] = g0
        w_star[sel] = d.f[g] * np.where(v < qg, l0, np.where(v == qg, g0, u0))
    return CausalWitness(w_star=w_star, q=q, gamma0=gamma0)


def worst_cdf_causal(d: CausalDiscreteJoint, t: float) -> float:
    """Minimal CDF value at t over the x-conditional envelope class."""
    wit = causal_witness(d)
    joint_mass = d.xm[d.atom_x] * d.atom_cm
    return float(joint_mass @ (wit.w_star * (d.atom_v <= t)))
