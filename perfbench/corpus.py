"""Inputs for the ``cli`` workload, generated by the benchmark's own code.

The corpus deliberately does not use ``confshift.simulate``: a change to the
package's generator must not change what the benchmark feeds the CLI. Every
array comes from ``numpy.random.default_rng`` keyed by the workload seed, so
the same seed writes byte-identical files.

Design of the corpus (p = 4):

* covariates uniform on the integer grid 0..99, written with two decimals
  ("37.00"). A few percent of query rows then tie at the k-th neighbour
  distance, so the kNN tie rule runs; integer coordinates keep squared
  distances exact in floating point, so the package sees exactly these ties;
* with z = x / 100, a latent confounder U = sigma(z) * eps with
  sigma(z) = 0.5 + 1.5 z1 (heteroscedastic outcome);
* treatment T ~ Bernoulli(expit(0.9 (z1 - .5) - 0.7 (z2 - .5) + 0.8 eps)),
  so selection depends on U (confounded);
* Y = z1 - 0.6 z2 + 0.4 z3 + T (0.5 + z3) + U, written with ``repr``.

The worst-case instance has 2000 atoms: scores on a 1e-3 grid (so some atoms
share a value), Dirichlet masses and a ratio envelope with E[lo] < 1 < E[hi].
"""

from __future__ import annotations

import math
import os

import numpy as np

N_TRAIN, N_CALIB, N_TEST, P = 2000, 2000, 300, 4
N_ATOMS = 2000
_HEADER = [f"x{j}" for j in range(1, P + 1)] + ["t", "y"]


def _fold(r: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = r.integers(0, 100, size=(n, P)).astype(float)
    z = x / 100.0
    eps = r.standard_normal(n)
    u = (0.5 + 1.5 * z[:, 0]) * eps
    logit = 0.9 * (z[:, 0] - 0.5) - 0.7 * (z[:, 1] - 0.5) + 0.8 * eps
    t = (r.uniform(size=n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    y = z[:, 0] - 0.6 * z[:, 1] + 0.4 * z[:, 2] + t * (0.5 + z[:, 2]) + u
    return x, t, y


def make_folds(seed: int) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    r = np.random.default_rng([seed, 0xC5])
    return {"train": _fold(r, N_TRAIN), "calib": _fold(r, N_CALIB), "test": _fold(r, N_TEST)}


def make_instance(seed: int) -> dict[str, np.ndarray]:
    r = np.random.default_rng([seed, 0x1A])
    v = np.round(r.standard_normal(N_ATOMS), 3)
    m = r.dirichlet(np.full(N_ATOMS, 2.0))
    lo = r.uniform(0.2, 0.95, N_ATOMS)
    hi = lo + r.uniform(0.1, 3.0, N_ATOMS)
    return {"v": v, "m": m, "lo": lo, "hi": hi}


def write_corpus(seed: int, out_dir: str) -> dict[str, str]:
    """Write train/calib/test CSVs and the instance; return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, (x, t, y) in make_folds(seed).items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(_HEADER) + "\n")
            for i in range(x.shape[0]):
                cells = [f"{v:.2f}" for v in x[i]] + [str(int(t[i])), repr(float(y[i]))]
                fh.write(",".join(cells) + "\n")
        paths[name] = path
    inst = make_instance(seed)
    path = os.path.join(out_dir, "instance.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v,m,lo,hi\n")
        for i in range(N_ATOMS):
            fh.write(",".join(repr(float(inst[c][i])) for c in ("v", "m", "lo", "hi")) + "\n")
    paths["instance"] = path
    return paths


def kth_tie_share(x_train: np.ndarray, x_query: np.ndarray, k: int) -> float:
    """Share of query rows whose k-th and (k+1)-th nearest distances are equal.

    Covariates are integers, so squared distances are computed exactly.
    """
    a, b = x_query.astype(np.int64), x_train.astype(np.int64)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    part = np.partition(d2, (k - 1, k), axis=1)
    return float(np.mean(part[:, k - 1] == part[:, k]))


def default_k(n: int) -> int:
    """Neighbour count the CLI uses when ``--k`` is not given."""
    return max(20, math.ceil(n / 20))


def tie_shares(seed: int) -> dict[str, float]:
    """k-th distance tie share of each set of test rows the CLI queries.

    ``predict`` queries all test rows against the arm-1 training rows;
    ``sensitivity`` queries treated test rows against arm 0 and control
    test rows against arm 1.
    """
    folds = make_folds(seed)
    x_tr, t_tr, _ = folds["train"]
    x_te, t_te, _ = folds["test"]

    def share(query: np.ndarray, arm: int) -> float:
        xa = x_tr[t_tr == arm]
        return kth_tie_share(xa, query, default_k(xa.shape[0]))

    return {"predict": share(x_te, 1),
            "sensitivity_treated": share(x_te[t_te == 1], 0),
            "sensitivity_control": share(x_te[t_te == 0], 1)}
