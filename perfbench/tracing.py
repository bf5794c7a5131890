"""Span tracing by wrapping the package's public callables from outside.

No package source is edited. :func:`installed` swaps a wrapper in at the
name each caller looks a callable up by (``confshift.cli.read_dataset``,
``confshift.simulate.pac_threshold_path``, class attributes such as
``KNNQuantileModel.quantile``) and restores the originals on exit. Each
wrapper records a span (layer name, start, end, parent span, op id) in
memory; optional probes attach counts taken from the arguments and the
result. Spans are aggregated per layer when the run ends.

A layer's self time is its span's duration minus the durations of its direct
child spans. Calls are single-threaded and properly nested, so the self times
of all spans of an op add up exactly to the duration of its root spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one process; one op is open at a time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._seen_queries: set = set()

    def begin_op(self, op: int) -> None:
        """Tag the following spans with ``op``; query repeats are counted
        from here on, so call it once per CLI call."""
        self.op = op
        self._seen_queries = set()

    def seen_before(self, key) -> bool:
        """True when ``key`` was already queried within the current op."""
        if key in self._seen_queries:
            return True
        self._seen_queries.add(key)
        return False

    def wrap(self, name: str, fn: Callable, probe: Callable | None = None) -> Callable:
        """Wrapper recording a ``name`` span around each call of ``fn``.

        A call nested directly inside a span of the same name (a bound pair
        calling its own bound functions) joins that span instead of opening
        a new one. ``probe(args, kwargs, result)`` returns counts to attach.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = stack[-1] if stack else None
            span = Span(name, tracer.clock(), math.nan, parent, tracer.op)
            tracer.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


# ---------------------------------------------------------------------------
# Probes: counts taken from a call's arguments and result
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _digest(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(a, dtype=float)
    return hashlib.blake2b(a.tobytes(), digest_size=16).digest() + bytes(str(a.shape), "ascii")


def crossing_rank(v: np.ndarray, threshold: float) -> float:
    """Position of ``threshold`` among the sorted scores ``v``, as a share of n.

    +inf counts as 1: the scan walked every calibration score.
    """
    if math.isinf(threshold):
        return 1.0
    return float(np.count_nonzero(np.asarray(v) <= threshold)) / len(v)


def _quantile_probe(tracer: Tracer):
    def probe(args, kwargs, result):
        model, x = args[0], np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "x"), dtype=float))
        key = (_digest(model.x), _digest(x))
        return {"query_rows": x.shape[0],
                "distance_entries": x.shape[0] * model.x.shape[0],
                "repeat_share": int(tracer.seen_before(key))}
    return probe


def _pac_probe(args, kwargs, result):
    calib = _arg(args, kwargs, 0, "calib")
    return {"crossing_rank": crossing_rank(calib.v, float(result))}


def _path_probe(args, kwargs, result):
    calibs = list(_arg(args, kwargs, 0, "calibs"))
    # The resume walk ends at the last grid point's crossing.
    return {"grid_points": len(calibs),
            "crossing_rank": crossing_rank(calibs[-1].v, float(result[-1]))}


def _rows_probe(args, kwargs, result):
    return {"rows": result.n}


def _n_iter_probe(args, kwargs, result):
    return {"n_iter": result.n_iter}


def _units_probe(args, kwargs, result):
    return {"units": int(np.size(result))}


def _superpop_probe(args, kwargs, result):
    return {"units": result.n}


def _traced_bounds(tracer: Tracer, bound_functions: Callable) -> Callable:
    """``bound_functions`` whose pairs also trace direct ``lower``/``upper`` calls."""
    def build(*args, **kwargs):
        pair = bound_functions(*args, **kwargs)
        return dataclasses.replace(pair,
                                   lower=tracer.wrap("nuisance.bounds", pair.lower),
                                   upper=tracer.wrap("nuisance.bounds", pair.upper))
    return build


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap traced wrappers in for the package's public callables."""
    from confshift import cli, nuisance, scores, simulate

    w = tracer.wrap
    patches = [
        (cli, "main", lambda f: w("cli.main", f)),
        (cli, "read_dataset", lambda f: w("core.read_dataset", f, _rows_probe)),
        (scores.KNNQuantileModel, "quantile",
         lambda f: w("scores.quantile", f, _quantile_probe(tracer))),
        (scores.ScoreFn, "score", lambda f: w("scores.score", f)),
        (scores.ScoreFn, "interval", lambda f: w("scores.interval", f)),
        (nuisance.BoundPair, "__call__", lambda f: w("nuisance.bounds", f)),
        (cli, "worst_cdf_marginal", lambda f: w("worstcase.worst_cdf_marginal", f)),
        (cli, "worst_witness_marginal", lambda f: w("worstcase.worst_witness_marginal", f)),
        (cli, "run_coverage_experiment", lambda f: w("simulate.run_coverage_experiment", f)),
        (cli, "run_sensitivity_experiment",
         lambda f: w("simulate.run_sensitivity_experiment", f)),
        (simulate, "gen_superpop", lambda f: w("simulate.gen_superpop", f, _superpop_probe)),
    ]
    for mod in (cli, simulate):
        patches += [
            (mod, "pac_threshold", lambda f: w("pac.pac_threshold", f, _pac_probe)),
            (mod, "pac_threshold_path", lambda f: w("pac.pac_threshold_path", f, _path_probe)),
            (mod, "fit_propensity", lambda f: w("nuisance.fit_propensity", f, _n_iter_probe)),
            (mod, "bound_functions", lambda f: _traced_bounds(tracer, f)),
            (mod, "robust_threshold_many",
             lambda f: w("marginal.robust_threshold_many", f, _units_probe)),
            (mod, "gamma_values_from_rejections",
             lambda f: w("sensitivity.gamma_values_from_rejections", f)),
        ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, make in patches:
            setattr(owner, attr, make(owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------

# Layer -> (counts summed per op, reported as per-op means; values averaged
# per call). Every layer also reports its self time per op.
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "cli.main": ((), ()),
    "core.read_dataset": (("calls", "rows"), ()),
    "scores.quantile": (("calls", "query_rows", "distance_entries"), ("repeat_share",)),
    "scores.score": ((), ()),
    "scores.interval": ((), ()),
    "nuisance.fit_propensity": (("calls",), ("n_iter",)),
    "nuisance.bounds": (("calls",), ()),
    "marginal.robust_threshold_many": (("calls", "units"), ()),
    "pac.pac_threshold": (("calls",), ("crossing_rank",)),
    "pac.pac_threshold_path": (("calls", "grid_points"), ("crossing_rank",)),
    "sensitivity.gamma_values_from_rejections": (("calls",), ()),
    "worstcase.worst_cdf_marginal": (("calls",), ()),
    "worstcase.worst_witness_marginal": (("calls",), ()),
    "simulate.gen_superpop": (("calls", "units"), ()),
    "simulate.run_coverage_experiment": ((), ()),
    "simulate.run_sensitivity_experiment": ((), ()),
}


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics: per-op means of self time and counts, per-call means."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for layer, (per_op, per_call) in LAYERS.items():
        idx = [i for i, s in enumerate(spans) if s.name == layer]
        out[f"{layer}.self_s"] = sum(selfs[i] for i in idx) / n_ops
        for stat in per_op:
            total = len(idx) if stat == "calls" else sum(spans[i].attrs[stat] for i in idx)
            out[f"{layer}.{stat}"] = total / n_ops
        for stat in per_call:
            out[f"{layer}.{stat}"] = (
                sum(spans[i].attrs[stat] for i in idx) / len(idx) if idx else 0.0)
    return out


def op_balance(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """Per op: (sum of all self times, sum of root span durations)."""
    selfs = self_times(spans)
    out: dict[int, list[float]] = {}
    for s, st in zip(spans, selfs):
        acc = out.setdefault(s.op, [0.0, 0.0])
        acc[0] += st
        if s.parent is None:
            acc[1] += s.end - s.start
    return {op: (a, b) for op, (a, b) in out.items()}
