"""Synthetic data generator with confounded treatment, plus experiment runners.

Super-population draw (p covariates):

    X ~ Unif[0,1]^p,   U | X ~ N(0, sigma(x)^2),  sigma(x)^2 = 1 + (2.5 x1)^2 / 2
    Y(0) = beta'X + U,   Y(1) = Y(0) + a  (fixed)  or  Y(0) + a U  (random)
    beta = (-0.531, 0.126, -0.312, 0.018, 0, ..., 0)

Treatment depends on the confounder U through a two-regime propensity that
averages back to the marginal e(x) = expit(beta'x):

    e(x, u) = a(x) 1{|u| > t(x)} + b(x) 1{|u| <= t(x)},
    a(x) = e/(e + Gamma(1-e)),  b(x) = e/(e + (1-e)/Gamma),
    t(x) = sigma(x) * PhiInv((1 + rho)/2),  rho = (e - a)/(b - a),

so E[e(X,U) | X] = e(X) while the latent selection odds are exactly Gamma.
The construction is adversarial: the true calibration likelihood ratio lands
exactly on the envelope endpoints (e.g. for the arm-1 marginal target,
w = p1 / e(x, u) in {l(x), u(x)}).

Runners cover the two validation campaigns: marginal / training-conditional
coverage of counterfactual intervals, and the downstream sensitivity
analysis (FWER, FDP, survival curves). Both are deterministic functions of
the config seed; replicates parallelize over processes when asked.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import expit, ndtri

from .core import ValidationError, rng
from .marginal import CalibrationSet, marginal_gap, robust_threshold_many
from .nuisance import BoundPair, TargetSpec, bound_functions, fit_propensity, ratio_bounds
# pac_threshold is not called here; it stays bound because the benchmark's
# tracer (perfbench/tracing.py) patches threshold callables at this module.
from .pac import pac_gap, pac_threshold, pac_threshold_path  # noqa: F401
from .scores import ScoreFn, clamp_k, fit_quantile_model
from .sensitivity import (GammaGrid, Interval, NullSpec, fdp_curve, fwer_estimate,
                          gamma_values_from_rejections, ite_set_one_missing,
                          survival_curve)

__all__ = [
    "SimConfig",
    "SuperPopDraw",
    "TruePropensity",
    "beta_vector",
    "gen_superpop",
    "oracle_bound_pair",
    "run_coverage_experiment",
    "run_sensitivity_experiment",
    "true_likelihood_ratio",
    "true_treated_fraction",
]

_BETA_HEAD = (-0.531, 0.126, -0.312, 0.018)


def beta_vector(p: int) -> np.ndarray:
    if p < 1:
        raise ValidationError(f"p must be >= 1, got {p}")
    beta = np.zeros(p)
    head = np.asarray(_BETA_HEAD)[: min(p, 4)]
    beta[: head.size] = head
    return beta


def _sigma(x: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 + 0.5 * (2.5 * x[:, 0]) ** 2)


def _two_regime(e: np.ndarray, gamma: float, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regime propensities a(x), b(x) and the cut on |u| ~ |N(0, scale^2)|
    at which the mix a 1{|u| > cut} + b 1{|u| <= cut} averages to e."""
    low = e / (e + gamma * (1.0 - e))
    high = e / (e + (1.0 - e) / gamma)
    span = high - low
    rho = np.where(span > 0, (e - low) / np.where(span > 0, span, 1.0), 0.5)
    return low, high, scale * ndtri((1.0 + rho) / 2.0)


@dataclass(frozen=True)
class SuperPopDraw:
    """Full latent draw; the confounder and both regimes stay observable."""

    x: np.ndarray
    u: np.ndarray
    t: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    e_x: np.ndarray
    e_xu: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def take(self, idx) -> "SuperPopDraw":
        return SuperPopDraw(
            x=self.x[idx], u=self.u[idx], t=self.t[idx], y0=self.y0[idx],
            y1=self.y1[idx], e_x=self.e_x[idx], e_xu=self.e_xu[idx],
        )

    def outcome(self, arm: int) -> np.ndarray:
        return self.y1 if arm == 1 else self.y0


def _concat(draws: list[SuperPopDraw]) -> SuperPopDraw:
    if len(draws) == 1:
        return draws[0]
    return SuperPopDraw(*(np.concatenate([getattr(d, f) for d in draws])
                          for f in ("x", "u", "t", "y0", "y1", "e_x", "e_xu")))


def gen_superpop(
    n: int,
    p: int,
    gamma_true: float,
    r: np.random.Generator,
    effect_kind: str = "fixed",
    effect_a: float = 0.0,
) -> SuperPopDraw:
    """Draw n units; RNG order is x, then u, then the treatment uniforms."""
    if not 1.0 <= gamma_true < math.inf:
        raise ValidationError(f"gamma_true must be finite and >= 1, got {gamma_true}")
    if effect_kind not in ("fixed", "random"):
        raise ValidationError(f"unknown effect kind {effect_kind!r}")
    beta = beta_vector(p)
    x = r.uniform(size=(n, p))
    sig = _sigma(x)
    u = r.standard_normal(n) * sig
    e = expit(x @ beta)
    low, high, cut = _two_regime(e, gamma_true, sig)
    e_xu = np.where(np.abs(u) > cut, low, high)
    t = (r.uniform(size=n) < e_xu).astype(int)
    y0 = x @ beta + u
    y1 = y0 + (effect_a if effect_kind == "fixed" else effect_a * u)
    return SuperPopDraw(x=x, u=u, t=t, y0=y0, y1=np.asarray(y1, dtype=float),
                        e_x=e, e_xu=e_xu)


@lru_cache(maxsize=None)
def true_treated_fraction(p: int) -> float:
    """P(T = 1) = E[e(X)] by tensor Gauss-Legendre quadrature (exact ~1e-13).

    The 24 nodes and weights enter as broadcast axes (``np.ix_``), so only
    two 24^a arrays exist at once (a <= 4 active coefficients): the node
    sums, turned into the integrand in place, and the weight product. The
    call peaks at about 5.3 MiB (tracemalloc) at p >= 4. Each cell sees the
    operations of full meshgrid copies in the same order, and the sum runs
    over one C-ordered 24^a array, so the float is theirs bit for bit.
    """
    beta = beta_vector(p)
    active = np.nonzero(beta)[0]
    if active.size == 0:
        return 0.5
    nodes, weights = np.polynomial.legendre.leggauss(24)
    xs = np.ix_(*([0.5 * (nodes + 1.0)] * active.size))
    ws = np.ix_(*([0.5 * weights] * active.size))
    z = sum(beta[d] * g for d, g in zip(active, xs))
    w = ws[0]
    for g in ws[1:]:
        w = w * g
    expit(z, out=z)
    z *= w
    return float(z.sum())


@dataclass(frozen=True)
class TruePropensity:
    """Oracle e(x) = expit(beta'x); satisfies the predict() protocol."""

    p: int

    def predict(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return expit(x @ beta_vector(self.p))


def oracle_bound_pair(target: TargetSpec, gamma: float, p: int) -> BoundPair:
    return bound_functions(target, gamma, TruePropensity(p), true_treated_fraction(p))


def true_likelihood_ratio(draw: SuperPopDraw, target: TargetSpec) -> np.ndarray:
    """Exact target/training density ratio at every unit of ``draw``.

    Derived from Bayes' rule on the latent propensity: conditioning the
    outcome law on T = t tilts it by e(x,u)/e(x) (or the complement), so all
    six (arm, population) combinations reduce to functions of e(x, u).
    """
    p1 = true_treated_fraction(draw.x.shape[1])
    p0 = 1.0 - p1
    exu = draw.e_xu
    arm, pop = target.arm, target.population
    if (arm, pop) in ((1, "att"), (0, "atc")):
        return np.ones(draw.n)
    if arm == 1:
        return (p1 / p0) * (1.0 - exu) / exu if pop == "atc" else p1 / exu
    return (p0 / p1) * exu / (1.0 - exu) if pop == "att" else p0 / (1.0 - exu)


# ---------------------------------------------------------------------------
# Experiment configuration and fold construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """One experiment campaign. Replications are seeded from ``seed`` and
    ``n_reps``; a campaign rejects a field it never reads (see ``_UNREAD``)."""

    n_train: int
    n_calib: int
    n_test: int = 1
    p: int = 4
    gamma_true: float = 1.0
    arm: int = 1
    population: str = "ate"
    score: str = "cqr"
    alphas: tuple[float, ...] = (0.2,)
    delta: float = 0.05
    procedure: str = "alg1"            # alg1 | alg2
    envelope: str = "wsr"              # alg2 envelope method
    bounds: str = "oracle"             # oracle | estimated
    gamma_bounds: float | None = None  # None: bounds at gamma_true
    effect_kind: str = "fixed"
    effect_a: float = 0.0
    n_reps: int = 1
    seed: int = 0
    n_eval_gap: int = 0                # >0: evaluate gap certificates
    grid: tuple[float, ...] | None = None  # sensitivity runs

    def __post_init__(self) -> None:
        if min(self.n_train, self.n_calib, self.n_test, self.n_reps) < 1:
            raise ValidationError("sizes and replication counts must be >= 1")
        if min(self.seed, self.n_eval_gap) < 0:
            raise ValidationError("seed and n_eval_gap must be >= 0")
        if self.procedure not in ("alg1", "alg2"):
            raise ValidationError(f"unknown procedure {self.procedure!r}")
        if self.bounds not in ("oracle", "estimated"):
            raise ValidationError(f"unknown bounds mode {self.bounds!r}")
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise ValidationError("alphas must lie in (0, 1)")
        if len(set(self.alphas)) < len(self.alphas):
            # A repeat would run twice under one report key and change the hash.
            raise ValidationError(f"alphas must not repeat, got {self.alphas}")
        for name in ("gamma_true", "gamma_bounds"):
            gamma = getattr(self, name)
            if gamma is not None and not 1.0 <= gamma < math.inf:
                raise ValidationError(f"{name} must be finite and >= 1, got {gamma}")
        # An arm outside {0, 1} would leave the arm-unit pool drawing forever.
        self.target()

    def target(self) -> TargetSpec:
        return TargetSpec(arm=self.arm, population=self.population)


def _pool_until(cfg: SimConfig, r: np.random.Generator, arm: int, count: int) -> SuperPopDraw:
    """IID prefix of the super-population ending at the count-th arm unit."""
    rate = true_treated_fraction(cfg.p)
    rate = rate if arm == 1 else 1.0 - rate
    chunks: list[SuperPopDraw] = []
    have = 0
    while have < count:
        need = count - have
        n_chunk = int(need / rate * 1.25) + 16
        d = gen_superpop(n_chunk, cfg.p, cfg.gamma_true, r,
                         cfg.effect_kind, cfg.effect_a)
        chunks.append(d)
        have += int((d.t == arm).sum())
    pool = _concat(chunks)
    stop = np.nonzero(pool.t == arm)[0][count - 1]
    return pool.take(slice(0, int(stop) + 1))


def _draw_target_units(cfg: SimConfig, r: np.random.Generator, n: int) -> SuperPopDraw:
    """Fresh units from the target population (arm-conditioned for att/atc)."""
    if cfg.population == "ate":
        return gen_superpop(n, cfg.p, cfg.gamma_true, r, cfg.effect_kind, cfg.effect_a)
    want = 1 if cfg.population == "att" else 0
    pool = _pool_until(cfg, r, want, n)
    return pool.take(np.nonzero(pool.t == want)[0])


def _propensity(cfg: SimConfig, train: SuperPopDraw) -> tuple:
    """Propensity model and treated fraction behind the bounds: the oracle
    pair, or one propensity fit on the training fold."""
    if cfg.bounds == "oracle":
        return TruePropensity(cfg.p), true_treated_fraction(cfg.p)
    return fit_propensity(train.x, train.t), float(np.mean(train.t == 1))


def _rep_seeds(cfg: SimConfig) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(cfg.seed).spawn(cfg.n_reps)


def _worker_count(threads: int | None, n_reps: int) -> int:
    """Worker processes for a campaign: at most one per replication and per
    usable CPU; ``threads`` None means every usable CPU."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1
    return max(1, min(cpus if threads is None else threads, n_reps, cpus))


# Fields each campaign never reads. Setting one off its default is an error,
# so one run answers to one config hash; the scan also reads one alpha only.
# alg1 coverage reads no alg2 envelope, and the plugin envelope no delta.
_UNREAD = {"coverage": ("grid",),
           "sensitivity": ("score", "procedure", "gamma_bounds", "n_eval_gap")}


def _reject_unread(cfg: SimConfig, campaign: str) -> None:
    unread = list(_UNREAD[campaign])
    if campaign == "coverage" and cfg.procedure == "alg1":
        unread += ["envelope", "delta"]
    if cfg.envelope == "plugin":
        unread.append("delta")
    for f in fields(SimConfig):
        if f.name in unread and getattr(cfg, f.name) != f.default:
            raise ValidationError(f"the {campaign} campaign does not read {f.name}")
    if campaign == "sensitivity" and len(cfg.alphas) > 1:
        raise ValidationError("the sensitivity campaign reads one level of alphas")


def _run_reps(worker: Callable, cfg: SimConfig, threads: int | None) -> list[dict]:
    jobs = [(cfg, s) for s in _rep_seeds(cfg)]
    workers = _worker_count(threads, cfg.n_reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, jobs))
    return [worker(j) for j in jobs]


# ---------------------------------------------------------------------------
# Thresholds along a strength grid, and the unit-level scan
# ---------------------------------------------------------------------------


def threshold_path(v_cal: np.ndarray, lo: np.ndarray, hi: np.ndarray, hi_test: np.ndarray,
                   alpha: float, procedure: str, envelope: str = "wsr",
                   delta: float = 0.05, nested: bool = True) -> np.ndarray:
    """Score thresholds along ascending strengths, shape (strengths, test units).

    ``lo`` and ``hi`` (strengths x calibration units) and ``hi_test``
    (strengths x test units) are the envelopes of :func:`ratio_bounds`.
    alg1 gives every test unit its own robust marginal threshold; alg2 gives
    all units the one PAC threshold of :func:`pac_threshold_path`, with its
    default envelope scale M (the largest bound over all strengths), or with
    ``nested=False`` one path and M per strength: no strength sees another.

    Nestedness is repaired in one place, the scan:
    :func:`gamma_values_from_rejections` stops each unit at its first
    non-rejection. Disjointness from C only weakens as a threshold grows, so
    a running max of these thresholds along the strengths would give the same
    sensitivity values. The built-in bound families widen with the strength
    anyway, and the alg2 path is nondecreasing by construction.
    """
    if procedure == "alg1":
        return robust_threshold_many(v_cal, lo, hi, alpha, hi_test)
    calibs = [CalibrationSet(v_cal, *row)
              for row in zip(lo, hi, hi_test.max(axis=1), strict=True)]
    paths = [calibs] if nested else [[c] for c in calibs]
    path = np.concatenate([pac_threshold_path(p, alpha, delta, envelope) for p in paths])
    return np.repeat(path[:, None], hi_test.shape[1], axis=1)


def _calibrated_thresholds(target: TargetSpec, gammas, propensity, p1: float, train, calib,
                           x_test: np.ndarray, score: str, alphas, methods, delta: float,
                           k: int | None = None, nested: bool = True) -> tuple:
    """Fit on ``train = (x, y)``, score ``calib = (x, y)``, bound, threshold.

    One kNN query per query array asks for every alpha's levels (one score
    kind, so each alpha owns as many columns). Returns the score per alpha,
    the test rows' quantile columns (rows x alphas x levels) and the
    thresholds (alphas x (procedure, envelope) methods x strengths x rows).
    A ``k`` above the training size is clamped to it (:func:`clamp_k`)
    without a warning: the CLI reports it once per run, from the parent
    process.
    """
    model = fit_quantile_model(*train, k=clamp_k(k, len(train[1]))[1])
    fns = [ScoreFn(kind=score, model=model, alpha=alpha) for alpha in alphas]
    betas = [b for fn in fns for b in fn.betas]
    x_cal, y_cal = calib
    q_cal, q_test = (model.quantile(x, betas).reshape(len(x), len(fns), -1)
                     for x in (x_cal, x_test))
    lo, hi = ratio_bounds(target, gammas, propensity, p1, x_cal)
    hi_test = ratio_bounds(target, gammas, propensity, p1, x_test)[1]
    thr = np.array([[threshold_path(fn.score_at(q_cal[:, i], y_cal), lo, hi, hi_test,
                                    fn.alpha, procedure, envelope, delta, nested)
                     for procedure, envelope in methods] for i, fn in enumerate(fns)])
    return fns, q_test, thr


def scan_gamma_values(fn: ScoreFn, q: np.ndarray, t_obs: int, y: np.ndarray,
                      thresholds: np.ndarray, grid: GammaGrid, null: NullSpec) -> np.ndarray:
    """Sensitivity values of units observed in arm ``t_obs`` with outcomes ``y``.

    ``thresholds`` (strengths x units, from :func:`threshold_path`, or
    several such paths stacked on leading axes) and the units' quantile
    columns ``q`` give the counterfactual intervals (``fn.interval_at``); the
    effect intervals come from :func:`ite_set_one_missing`, and a strength
    rejects when ``null.disjoint`` holds. Returns one value per unit and path.
    """
    cf = Interval(*fn.interval_at(q, thresholds))
    reject = null.disjoint(ite_set_one_missing(t_obs, y, cf))
    return gamma_values_from_rejections(np.swapaxes(reject, -1, -2), grid)


# ---------------------------------------------------------------------------
# Coverage campaign
# ---------------------------------------------------------------------------


def training_arm(cfg: SimConfig, kind: str) -> int:
    """The arm whose first ``cfg.n_train`` units a replication of the
    ``kind`` campaign ("coverage" or "sensitivity") fits its kNN model on:
    the target arm, or the counterfactual arm 0 of the sensitivity scan."""
    return cfg.arm if kind == "coverage" else 0


def _coverage_rep(job: tuple[SimConfig, np.random.SeedSequence]) -> dict:
    cfg, seed = job
    r = rng(seed)
    arm = training_arm(cfg, "coverage")
    train = _pool_until(cfg, r, arm, cfg.n_train)
    calib = _pool_until(cfg, r, arm, cfg.n_calib)
    test = _draw_target_units(cfg, r, cfg.n_test)

    train_arm = train.take(np.nonzero(train.t == arm)[0])
    calib_arm = calib.take(np.nonzero(calib.t == arm)[0])
    target = cfg.target()
    gammas = (cfg.gamma_true if cfg.gamma_bounds is None else cfg.gamma_bounds,)
    prop, p1 = _propensity(cfg, train)
    fns, q_test, thr = _calibrated_thresholds(
        target, gammas, prop, p1, (train_arm.x, train_arm.outcome(arm)),
        (calib_arm.x, calib_arm.outcome(arm)), test.x, cfg.score, cfg.alphas,
        ((cfg.procedure, cfg.envelope),), cfg.delta)

    # The gap certificates depend on the bounds, not on alpha.
    gaps: dict = {}
    if cfg.n_eval_gap > 0:
        ev = _pool_until(cfg, r, arm, cfg.n_eval_gap)
        ev = ev.take(np.nonzero(ev.t == arm)[0])
        w = true_likelihood_ratio(ev, target)
        lo_true = oracle_bound_pair(target, gammas[0], cfg.p).lower(ev.x)
        (lo_est,), (hi_est,) = ratio_bounds(target, gammas, prop, p1, ev.x)
        gaps = {"marginal_gap": marginal_gap(w, lo_est, hi_est, n_calib=cfg.n_calib),
                "pac_gap": pac_gap(w, lo_est, hi_est),
                "lower_bound_l1": float(np.abs(lo_est - lo_true).mean())}

    out: dict = {}
    for i, fn in enumerate(fns):
        v_test = fn.score_at(q_test[:, i], test.outcome(arm))
        out[_akey(fn.alpha)] = {"coverage": float(np.mean(v_test <= thr[i, 0, 0])), **gaps}
    return out


def _akey(alpha: float) -> str:
    return repr(float(alpha))


def run_coverage_experiment(cfg: SimConfig, threads: int | None = 1) -> dict:
    """Replicated counterfactual-coverage experiment; returns a JSON-able report.

    Per alpha: per-rep empirical coverage (one indicator when n_test = 1),
    the mean, the 0.05 replication quantile, and when requested the averaged
    gap certificates, which are the same for every alpha: each replication
    draws its evaluation units once.
    """
    _reject_unread(cfg, "coverage")
    reps = _run_reps(_coverage_rep, cfg, threads)
    report: dict = {"n_reps": cfg.n_reps, "seed": cfg.seed, "per_alpha": {}}
    for alpha in cfg.alphas:
        key = _akey(alpha)
        cov = np.array([rep[key]["coverage"] for rep in reps])
        entry = {
            "coverage_per_rep": [float(c) for c in cov],
            "coverage_mean": float(cov.mean()),
            "coverage_q05": float(np.quantile(cov, 0.05)),
        }
        for extra in ("marginal_gap", "pac_gap", "lower_bound_l1"):
            if extra in reps[0][key]:
                vals = np.array([rep[key][extra] for rep in reps])
                entry[extra + "_mean"] = float(vals.mean())
                entry[extra + "_max"] = float(vals.max())
        report["per_alpha"][key] = entry
    return report


# ---------------------------------------------------------------------------
# Sensitivity campaign
# ---------------------------------------------------------------------------


def _sensitivity_rep(job: tuple[SimConfig, np.random.SeedSequence]) -> dict:
    """One replication of the effect-direction sensitivity pipeline.

    Test units are scanned as treated, with counterfactual arm 0, one-sided
    upper intervals and the null C = (-inf, 0]. Both procedures share one
    :func:`_calibrated_thresholds` step, and one :func:`scan_gamma_values`
    call on the stacked paths gives both sets of sensitivity values.
    """
    cfg, seed = job
    r = rng(seed)
    grid = GammaGrid(cfg.grid) if cfg.grid is not None else GammaGrid.default()
    arm = training_arm(cfg, "sensitivity")
    train = _pool_until(cfg, r, arm, cfg.n_train)
    calib = _pool_until(cfg, r, arm, cfg.n_calib)
    test = _draw_target_units(cfg, r, cfg.n_test)

    train_c = train.take(np.nonzero(train.t == arm)[0])
    calib_c = calib.take(np.nonzero(calib.t == arm)[0])
    (fn,), q_test, thr = _calibrated_thresholds(
        cfg.target(), grid.values, *_propensity(cfg, train),
        (train_c.x, train_c.outcome(arm)), (calib_c.x, calib_c.outcome(arm)), test.x, "cqr_one_sided", cfg.alphas,
        (("alg1", cfg.envelope), ("alg2", cfg.envelope)), cfg.delta)
    alg1, alg2 = scan_gamma_values(fn, q_test[:, 0], 1, test.y1, thr[0], grid, NullSpec("le", 0.0))
    return {"ite": test.y1 - test.y0, "alg1": alg1, "alg2": alg2}


def run_sensitivity_experiment(cfg: SimConfig, threads: int | None = 1) -> dict:
    """Replicated sensitivity campaign; FWER, FDP and survival summaries.

    True-null labels come from the realized effects: a unit is null when
    Y(1) - Y(0) <= 0. FWER is the per-rep fraction of null units whose
    sensitivity value exceeds gamma_true; FDP and survival curves are
    evaluated on the same grid used for the scan.
    """
    _reject_unread(cfg, "sensitivity")
    grid = GammaGrid(cfg.grid) if cfg.grid is not None else GammaGrid.default()
    reps = _run_reps(_sensitivity_rep, cfg, threads)
    report: dict = {
        "n_reps": cfg.n_reps,
        "seed": cfg.seed,
        "gamma_grid": [float(g) for g in grid.values],
    }
    for key in ("alg1", "alg2"):
        fwer, fdp_max, surv = [], np.zeros(len(grid)), np.zeros(len(grid))
        for rep in reps:
            fwer.append(fwer_estimate(rep[key], rep["ite"] <= 0.0, cfg.gamma_true))
            fdp_max = np.maximum(fdp_max, fdp_curve(rep[key], rep["ite"], grid))
            surv += survival_curve(rep[key], grid)
        report[key] = {
            "fwer_per_rep": [float(v) for v in fwer],
            "fwer_mean": float(np.mean(fwer)),
            "fwer_q95": float(np.quantile(fwer, 0.95)),
            "fdp_max": [float(v) for v in fdp_max],
            "survival_mean": [float(v / cfg.n_reps) for v in surv],
        }
    return report
