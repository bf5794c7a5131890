"""Output checks: parse what an operation wrote, compare with references.

Values are compared, not bytes, because every output carries a stamp line
that hashes the input paths. Each check returns a list of problems; an empty
list means the operation's outputs are correct.

* :func:`parse_outputs` reads the named result values of one CLI call.
* :func:`compare` checks them against a recorded reference: exact equality,
  except the worst-case CDF and witness floats (``TOLERANT``), which may
  differ by up to 1e-12 absolute.
* :func:`invariants` checks properties every correct output has, for any
  seed, including an independent closed-form oracle for the worst-case CDF.

References store exact fields as a SHA-256 digest of their float64 values
and tolerant fields as full value lists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

TOLERANT = frozenset({"cdf", "w_star", "gamma_mix", "t_star"})
ABS_TOL = 1e-12


def _rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _num(cell: str, empty: float) -> float:
    return empty if cell == "" else float(cell)


def _col(rows, name: str, empty: float = math.inf) -> np.ndarray:
    return np.array([_num(r[name], empty) for r in rows], dtype=float)


def parse_outputs(command: str, out_dir: str) -> dict[str, np.ndarray]:
    """Result values of one call, by name, as float arrays (+-inf kept)."""
    path = lambda name: os.path.join(out_dir, name)  # noqa: E731
    if command == "predict":
        rows = _rows(path("intervals.csv"))
        return {"gamma": _col(rows, "gamma"), "v_hat": _col(rows, "v_hat"),
                "lo": _col(rows, "lo", -math.inf), "hi": _col(rows, "hi")}
    if command == "sensitivity":
        surv = _rows(path("survival.csv"))
        return {"gamma_hat": _col(_rows(path("gammas.csv")), "gamma_hat"),
                "grid": _col(surv, "gamma"), "survival": _col(surv, "survival")}
    if command == "worstcase":
        cdf, wit = _rows(path("cdf.csv")), _rows(path("witness.csv"))
        with open(path("manifest.json"), encoding="utf-8") as fh:
            res = json.load(fh)["results"]
        t_star = -math.inf if res["t_star"] is None else res["t_star"]
        return {"t": _col(cdf, "t"), "cdf": _col(cdf, "worst_cdf"),
                "w_star": _col(wit, "w_star"),
                "gamma_mix": np.array([res["gamma_mix"]], dtype=float),
                "t_star": np.array([t_star], dtype=float)}
    if command == "simulate":
        with open(path("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if report["kind"] == "coverage":
            return {f"coverage@{a}": np.array(e["coverage_per_rep"], dtype=float)
                    for a, e in report["per_alpha"].items()}
        out = {}
        for alg in ("alg1", "alg2"):
            out[f"{alg}.fwer"] = np.array(report[alg]["fwer_per_rep"], dtype=float)
            out[f"{alg}.fdp_max"] = np.array(report[alg]["fdp_max"], dtype=float)
            out[f"{alg}.survival"] = np.array(report[alg]["survival_mean"], dtype=float)
        return out
    raise ValueError(f"unknown command {command!r}")


def digest(values: np.ndarray) -> str:
    """First 96 bits of the SHA-256 of the float64 values."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:24]


def to_reference(values: dict[str, np.ndarray]) -> dict:
    return {name: ({"values": [float(v) for v in arr]} if name in TOLERANT
                   else {"n": int(arr.size), "sha256_96": digest(arr)})
            for name, arr in sorted(values.items())}


def compare(values: dict[str, np.ndarray], ref: dict) -> list[str]:
    """Problems found comparing parsed values with one reference entry."""
    problems = []
    if sorted(values) != sorted(ref):
        return [f"fields {sorted(values)} differ from reference fields {sorted(ref)}"]
    for name, arr in sorted(values.items()):
        entry = ref[name]
        if name in TOLERANT:
            want = np.array(entry["values"], dtype=float)
            if want.shape != arr.shape:
                problems.append(f"{name}: {arr.size} values, reference has {want.size}")
                continue
            same_inf = np.isinf(want) == np.isinf(arr)
            finite = ~np.isinf(want)
            if not same_inf.all() or (np.abs(arr[finite] - want[finite]) > ABS_TOL).any() \
                    or (np.isinf(want) & (arr != want)).any():
                err = np.max(np.abs(arr[finite & same_inf] - want[finite & same_inf]),
                             initial=0.0)
                problems.append(f"{name}: differs from reference (max abs error {err:.3g})")
        elif arr.size != entry["n"] or digest(arr) != entry["sha256_96"]:
            problems.append(f"{name}: values differ from reference")
    return problems


def _rise(a: np.ndarray, axis: int = -1) -> bool:
    return bool((np.diff(a, axis=axis) >= 0).all())


def worst_cdf_oracle(v, m, lo, hi, t) -> np.ndarray:
    """min over envelope ratios of P_w(V <= t), by the closed form
    max(E[lo 1{V<=t}], 1 - E[hi 1{V>t}]) at every query point ``t``."""
    order = np.argsort(v, kind="stable")
    vs = v[order]
    cum_lo = np.concatenate([[0.0], np.cumsum((m * lo)[order])])
    cum_hi = np.concatenate([[0.0], np.cumsum((m * hi)[order])])
    k = np.searchsorted(vs, t, side="right")
    return np.maximum(cum_lo[k], 1.0 - (cum_hi[-1] - cum_hi[k]))


def invariants(command: str, values: dict[str, np.ndarray], context: dict) -> list[str]:
    """Properties every correct output has, whatever the seed.

    ``context`` carries what the benchmark knows about the call: ``n_test``
    and ``n_gamma`` for predict, the worst-case ``instance`` arrays,
    ``n_test`` for simulate.
    """
    p = []
    if command == "predict":
        n, g = context["n_test"], context["n_gamma"]
        if values["v_hat"].size != n * g:
            return [f"predict wrote {values['v_hat'].size} rows, expected {n * g}"]
        v_hat = values["v_hat"].reshape(g, n)
        if not _rise(v_hat, axis=0):
            p.append("v_hat decreases as gamma grows")
        # cqr intervals are [q_lo - v_hat, q_hi + v_hat]: the width minus
        # 2 v_hat is the gamma-free quantile spread q_hi - q_lo >= 0.
        lo, hi = values["lo"].reshape(g, n), values["hi"].reshape(g, n)
        unbounded = np.isinf(v_hat)
        if not (np.array_equal(unbounded, np.isinf(lo)) and np.array_equal(unbounded, np.isinf(hi))):
            p.append("interval finiteness disagrees with v_hat")
            return p
        spread = np.where(unbounded, np.nan, hi - lo - 2.0 * np.where(unbounded, 0.0, v_hat))
        has = ~unbounded.all(axis=0)
        s_min, s_max = np.nanmin(spread[:, has], axis=0), np.nanmax(spread[:, has], axis=0)
        if (s_min < -1e-9).any() or (s_max - s_min > 1e-9 * (1.0 + np.abs(s_min))).any():
            p.append("interval width minus 2 v_hat varies with gamma")
    elif command == "sensitivity":
        gh, grid, surv = values["gamma_hat"], values["grid"], values["survival"]
        allowed = np.concatenate([grid, [1.0, math.inf]])
        if not np.isin(gh, allowed).all():
            p.append("gamma_hat off the grid")
        if not np.array_equal(surv, (gh[None, :] > grid[:, None]).mean(axis=1)):
            p.append("survival does not match gamma_hat")
        if not _rise(-surv):
            p.append("survival increases with gamma")
    elif command == "worstcase":
        inst = context["instance"]
        want = worst_cdf_oracle(inst["v"], inst["m"], inst["lo"], inst["hi"], values["t"])
        if values["cdf"].shape != want.shape or (np.abs(values["cdf"] - want) > ABS_TOL).any():
            p.append("worst-case CDF differs from the closed-form oracle")
        w = values["w_star"]
        if w.shape != inst["v"].shape:
            return p + ["witness has the wrong length"]
        if (w < inst["lo"] - ABS_TOL).any() or (w > inst["hi"] + ABS_TOL).any():
            p.append("witness leaves the envelope")
        if abs(float(inst["m"] @ w) - 1.0) > 1e-9:
            p.append("witness does not have unit mass")
        below = inst["v"][None, :] <= values["t"][:, None]
        if (np.abs(below @ (inst["m"] * w) - values["cdf"]) > 1e-9).any():
            p.append("witness does not attain the worst-case CDF")
    elif command == "simulate":
        n = context["n_test"]
        for name, arr in values.items():
            if not ((arr >= 0.0) & (arr <= 1.0)).all():
                p.append(f"{name} outside [0, 1]")
            if name.startswith("coverage") or name.endswith("survival"):
                if (np.abs(arr * n - np.rint(arr * n)) > 1e-6).any():
                    p.append(f"{name} is not a multiple of 1/{n}")
            if name.endswith("survival") and not _rise(-arr):
                p.append(f"{name} increases with gamma")
    return p


def same_values(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    """Exact equality of two parsed outputs (inf and all)."""
    return sorted(a) == sorted(b) and all(np.array_equal(a[k], b[k]) for k in a)


def write_reference(path: str, workload: str, seed: int, ops: dict) -> None:
    """One op per line, so a re-recording diffs op by op."""
    lines = [f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
             for key, entry in ops.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"workload": {json.dumps(workload)}, "seed": {seed}, "ops": {{\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")


def load_reference(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
