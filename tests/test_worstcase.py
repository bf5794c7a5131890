"""Worst-case CDF closed forms, LP oracle, and attaining witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confshift import (
    CausalDiscreteJoint,
    DiscreteJoint,
    ValidationError,
    causal_witness,
    lp_oracle_marginal,
    rng,
    worst_cdf_causal,
    worst_cdf_marginal,
    worst_witness_marginal,
)

TOL = 1e-12


def _random_marginal(r, max_support=20):
    n = int(r.integers(1, max_support + 1))
    v = np.round(r.normal(size=n), 1)  # ties on purpose
    m = r.uniform(0.2, 1.0, size=n)
    m /= m.sum()
    w = r.uniform(0.2, 2.0, size=n)
    w /= float(m @ w)  # unit-mean ratio inside the envelope
    g = r.uniform(1.0, 3.0, size=n)
    return DiscreteJoint(v=v, m=m, lo=w / g, hi=w * g)


def _random_causal(r, max_x=5, max_atoms=6):
    k = int(r.integers(1, max_x + 1))
    xm = r.uniform(0.2, 1.0, size=k)
    xm /= xm.sum()
    f = r.uniform(0.3, 2.0, size=k)
    f /= float(xm @ f)
    l0 = r.uniform(0.05, 1.0, size=k)
    u0 = 1.0 + r.uniform(0.0, 2.0, size=k)
    atom_x, atom_v, atom_cm = [], [], []
    for g in range(k):
        n = int(r.integers(1, max_atoms + 1))
        cm = r.uniform(0.2, 1.0, size=n)
        cm /= cm.sum()
        atom_x += [g] * n
        atom_v += list(np.round(r.normal(size=n), 1))
        atom_cm += list(cm)
    return CausalDiscreteJoint(
        xm=xm, f=f, l0=l0, u0=u0,
        atom_x=np.array(atom_x), atom_v=np.array(atom_v), atom_cm=np.array(atom_cm),
    )


# ---------------------------------------------------------------------------
# marginal: hand instance
# ---------------------------------------------------------------------------

TWO_ATOM = dict(
    v=np.array([1.0, 2.0]),
    m=np.array([0.5, 0.5]),
    lo=np.array([0.5, 0.5]),
    hi=np.array([2.0, 2.0]),
)


def test_marginal_hand_instance_cdf():
    d = DiscreteJoint(**TWO_ATOM)
    assert worst_cdf_marginal(d, 0.5) == 0.0
    assert worst_cdf_marginal(d, 1.0) == 0.25
    assert worst_cdf_marginal(d, 2.0) == 1.0
    assert lp_oracle_marginal(d, 1.0) == 0.25


def test_marginal_hand_instance_witness():
    d = DiscreteJoint(**TWO_ATOM)
    wit = worst_witness_marginal(d)
    np.testing.assert_allclose(wit.w_star, [0.5, 1.5], rtol=0, atol=TOL)
    assert wit.t_star == 2.0
    np.testing.assert_allclose(wit.gamma_mix, 2.0 / 3.0, rtol=0, atol=TOL)


def test_marginal_degenerate_upper_is_witness():
    # E[hi] = 1: the envelope top already integrates to one.
    w = np.array([0.8, 1.2])
    d = DiscreteJoint(v=np.array([1.0, 2.0]), m=np.array([0.5, 0.5]), lo=0.5 * w, hi=w)
    wit = worst_witness_marginal(d)
    np.testing.assert_array_equal(wit.w_star, w)
    assert wit.t_star == -math.inf and wit.gamma_mix == 0.0


# ---------------------------------------------------------------------------
# marginal: random instances
# ---------------------------------------------------------------------------


def test_closed_form_equals_lp_oracle():
    r = rng(41)
    for _ in range(300):
        d = _random_marginal(r)
        for t in np.unique(d.v):
            assert abs(worst_cdf_marginal(d, float(t)) - lp_oracle_marginal(d, float(t))) <= TOL


def test_witness_membership_and_attainment():
    r = rng(42)
    for _ in range(200):
        d = _random_marginal(r)
        wit = worst_witness_marginal(d)
        assert abs(float(d.m @ wit.w_star) - 1.0) <= TOL
        assert (wit.w_star >= d.lo - TOL).all()
        assert (wit.w_star <= d.hi + TOL).all()
        for t in np.unique(d.v):
            attained = float(d.m @ (wit.w_star * (d.v <= t)))
            assert abs(attained - worst_cdf_marginal(d, float(t))) <= TOL


def test_worst_cdf_is_a_cdf():
    r = rng(43)
    for _ in range(50):
        d = _random_marginal(r)
        ts = np.unique(d.v)
        vals = [worst_cdf_marginal(d, float(t)) for t in ts]
        assert all(0.0 - TOL <= x <= 1.0 + TOL for x in vals)
        assert all(a <= b + TOL for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) <= TOL  # all mass at the top score
        assert worst_cdf_marginal(d, float(ts[0]) - 1.0) <= TOL + max(
            0.0, 1.0 - float(d.m @ d.hi)
        )


def _scalar_worst_cdf(d, t):
    """Reference closed form at one t, by masks over the atoms."""
    below = d.v <= t
    term1 = float(d.m @ np.where(below, d.lo, 0.0))
    term2 = 1.0 - float(d.m @ np.where(below, 0.0, d.hi))
    return max(term1, term2)


def _loop_witness(d):
    """Reference witness: scan the distinct scores for the first H(t) <= 1,
    with H(t) = E[l 1{V<=t} + u 1{V>t}] as a dot product at each score."""
    if float(d.m @ d.hi) <= 1.0 + 1e-9:
        return d.hi.copy(), -math.inf, 0.0
    distinct = np.unique(d.v)
    t_star = h_at = math.nan
    for t in distinct:
        h = float(d.m @ np.where(d.v <= t, d.lo, d.hi))
        if h <= 1.0 + 1e-12:
            t_star, h_at = float(t), h
            break
    if math.isnan(t_star):
        t_star, h_at = float(distinct[-1]), float(d.m @ d.lo)
    strictly_below = d.v < t_star
    h_minus = float(d.m @ np.where(strictly_below, d.lo, d.hi))
    gamma = 0.0 if h_minus <= 1.0 else (1.0 - h_at) / (h_minus - h_at)
    w = np.where(strictly_below, d.lo,
                 np.where(d.v == t_star, gamma * d.hi + (1.0 - gamma) * d.lo, d.hi))
    return w, t_star, float(gamma)


# Atoms (score on a coarse grid so ties are common, mass, ratio, spread);
# the ratios are rescaled to unit mean, which keeps the envelope feasible.
_ATOMS = st.lists(
    st.tuples(st.integers(-4, 4).map(lambda k: k / 2.0), st.floats(0.05, 1.0),
              st.floats(0.2, 2.0), st.floats(1.0, 3.0)),
    min_size=1, max_size=25)


def _joint(atoms, flat_hi=False):
    v, m, w, g = (np.array(col) for col in zip(*atoms))
    m = m / m.sum()
    w = w / float(m @ w)
    return DiscreteJoint(v=v, m=m, lo=w / g, hi=w if flat_hi else w * g)


@settings(max_examples=300, deadline=None)
@given(atoms=_ATOMS, extra=st.lists(st.floats(-6.0, 6.0), max_size=5))
def test_array_worst_cdf_matches_scalar_references(atoms, extra):
    d = _joint(atoms)
    atoms_t = np.unique(d.v)
    between = 0.5 * (atoms_t[1:] + atoms_t[:-1])
    t = np.concatenate([[atoms_t[0] - 1.0], atoms_t, between, [atoms_t[-1] + 1.0], extra])
    got = worst_cdf_marginal(d, t)
    assert got.shape == t.shape
    want = np.array([_scalar_worst_cdf(d, x) for x in t])
    lp = np.array([lp_oracle_marginal(d, float(x)) for x in t])
    assert np.abs(got - want).max() <= TOL
    assert np.abs(got - lp).max() <= TOL
    assert isinstance(worst_cdf_marginal(d, float(t[0])), float)


@settings(max_examples=300, deadline=None)
@given(atoms=_ATOMS, flat_hi=st.booleans())
def test_witness_equals_distinct_score_loop(atoms, flat_hi):
    d = _joint(atoms, flat_hi)  # flat_hi: E[hi] = 1, the degenerate witness w* = u
    wit = worst_witness_marginal(d)
    w, t_star, gamma = _loop_witness(d)
    np.testing.assert_array_equal(wit.w_star, w)
    assert (wit.t_star, wit.gamma_mix) == (t_star, gamma)


def test_marginal_validation():
    ok = TWO_ATOM.copy()
    with pytest.raises(ValidationError):
        DiscreteJoint(v=ok["v"], m=np.array([0.5, 0.6]), lo=ok["lo"], hi=ok["hi"])
    with pytest.raises(ValidationError):
        DiscreteJoint(v=ok["v"], m=ok["m"], lo=ok["hi"], hi=ok["lo"])
    with pytest.raises(ValidationError):
        DiscreteJoint(v=ok["v"], m=ok["m"], lo=-ok["lo"], hi=ok["hi"])
    with pytest.raises(ValidationError):
        DiscreteJoint(v=np.array([]), m=np.array([]), lo=np.array([]), hi=np.array([]))
    # identification set empty: E[hi] < 1
    small = DiscreteJoint(
        v=ok["v"], m=ok["m"], lo=np.array([0.1, 0.1]), hi=np.array([0.2, 0.2])
    )
    with pytest.raises(ValidationError):
        worst_cdf_marginal(small, 1.0)
    with pytest.raises(ValidationError):
        lp_oracle_marginal(small, 5.0)


# ---------------------------------------------------------------------------
# causal: hand instance
# ---------------------------------------------------------------------------


def _hand_causal():
    return CausalDiscreteJoint(
        xm=np.array([1.0]),
        f=np.array([1.0]),
        l0=np.array([0.5]),
        u0=np.array([2.0]),
        atom_x=np.zeros(3, dtype=int),
        atom_v=np.array([1.0, 2.0, 3.0]),
        atom_cm=np.full(3, 1.0 / 3.0),
    )


def test_causal_hand_instance():
    d = _hand_causal()
    wit = causal_witness(d)
    assert wit.q.tolist() == [2.0]
    np.testing.assert_allclose(wit.gamma0, [0.5], rtol=0, atol=TOL)
    np.testing.assert_allclose(wit.w_star, [0.5, 0.5, 2.0], rtol=0, atol=TOL)
    np.testing.assert_allclose(worst_cdf_causal(d, 1.0), 1.0 / 6.0, rtol=0, atol=TOL)
    np.testing.assert_allclose(worst_cdf_causal(d, 2.0), 1.0 / 3.0, rtol=0, atol=TOL)
    np.testing.assert_allclose(worst_cdf_causal(d, 3.0), 1.0, rtol=0, atol=TOL)


def test_causal_degenerate_cells():
    # l0 = u0 = 1 and u0 = 1 with slack below both put every atom above the pivot.
    d = CausalDiscreteJoint(
        xm=np.array([0.5, 0.5]),
        f=np.array([1.0, 1.0]),
        l0=np.array([1.0, 0.4]),
        u0=np.array([1.0, 1.0]),
        atom_x=np.array([0, 0, 1, 1]),
        atom_v=np.array([1.0, 2.0, 1.0, 2.0]),
        atom_cm=np.array([0.5, 0.5, 0.5, 0.5]),
    )
    wit = causal_witness(d)
    assert wit.q.tolist() == [-math.inf, -math.inf]
    np.testing.assert_allclose(wit.w_star, np.ones(4), rtol=0, atol=TOL)


# ---------------------------------------------------------------------------
# causal: random instances
# ---------------------------------------------------------------------------


def test_causal_witness_properties():
    r = rng(44)
    for _ in range(150):
        d = _random_causal(r)
        wit = causal_witness(d)
        assert ((wit.gamma0 >= d.l0 - 1e-9) & (wit.gamma0 <= d.u0 + 1e-9)).all()
        for g in range(d.xm.shape[0]):
            sel = d.atom_x == g
            cond_mean = float(d.atom_cm[sel] @ wit.w_star[sel]) / d.f[g]
            assert abs(cond_mean - 1.0) <= 1e-9
            # conditional envelope membership
            assert (wit.w_star[sel] >= d.f[g] * d.l0[g] - 1e-9).all()
            assert (wit.w_star[sel] <= d.f[g] * d.u0[g] + 1e-9).all()


def test_causal_dominates_marginal_pointwise():
    # Conditioning on x shrinks the feasible set, so its worst CDF is larger.
    r = rng(45)
    for _ in range(100):
        d = _random_causal(r)
        flat = DiscreteJoint(
            v=d.atom_v,
            m=d.xm[d.atom_x] * d.atom_cm,
            lo=(d.f * d.l0)[d.atom_x],
            hi=(d.f * d.u0)[d.atom_x],
        )
        for t in np.unique(d.atom_v):
            assert worst_cdf_causal(d, float(t)) >= worst_cdf_marginal(flat, float(t)) - 1e-9


def test_causal_cdf_is_a_cdf():
    r = rng(46)
    for _ in range(50):
        d = _random_causal(r)
        ts = np.unique(d.atom_v)
        vals = [worst_cdf_causal(d, float(t)) for t in ts]
        assert all(-1e-12 <= x <= 1.0 + 1e-9 for x in vals)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) <= 1e-9


def test_causal_cdf_matches_per_cell_lp_oracle():
    # Independent check of the causal path: the x-wise class is a product of
    # per-cell classes, so its worst CDF is the f-weighted sum of each cell's
    # greedy LP optimum under the constant envelope [l0, u0].
    r = rng(47)
    for _ in range(100):
        d = _random_causal(r)
        cells = []
        for g in range(d.xm.shape[0]):
            sel = d.atom_x == g
            ones = np.ones(int(sel.sum()))
            cells.append((d.xm[g] * d.f[g], DiscreteJoint(
                d.atom_v[sel], d.atom_cm[sel], d.l0[g] * ones, d.u0[g] * ones)))
        vs = np.unique(d.atom_v)
        for t in np.concatenate([vs, vs - 0.05, [vs[-1] + 1.0]]):
            want = sum(scale * lp_oracle_marginal(cell, float(t)) for scale, cell in cells)
            assert abs(worst_cdf_causal(d, float(t)) - want) <= TOL


def test_causal_validation():
    base = _hand_causal()
    with pytest.raises(ValidationError):
        causal_witness(CausalDiscreteJoint(
            xm=base.xm, f=base.f, l0=np.array([1.5]), u0=np.array([1.2]),
            atom_x=base.atom_x, atom_v=base.atom_v, atom_cm=base.atom_cm,
        ))
    with pytest.raises(ValidationError):
        # l0 > 1 empties the conditional identification set
        causal_witness(CausalDiscreteJoint(
            xm=base.xm, f=base.f, l0=np.array([1.2]), u0=np.array([2.0]),
            atom_x=base.atom_x, atom_v=base.atom_v, atom_cm=base.atom_cm,
        ))
    with pytest.raises(ValidationError):
        CausalDiscreteJoint(
            xm=base.xm, f=np.array([2.0]), l0=base.l0, u0=base.u0,
            atom_x=base.atom_x, atom_v=base.atom_v, atom_cm=base.atom_cm,
        )
    with pytest.raises(ValidationError):
        CausalDiscreteJoint(
            xm=base.xm, f=base.f, l0=base.l0, u0=base.u0,
            atom_x=base.atom_x, atom_v=base.atom_v, atom_cm=np.full(3, 0.5),
        )
    with pytest.raises(ValidationError):
        # u0 < 1 empties the conditional identification set
        worst_cdf_causal(
            CausalDiscreteJoint(
                xm=base.xm, f=base.f, l0=np.array([0.5]), u0=np.array([0.9]),
                atom_x=base.atom_x, atom_v=base.atom_v, atom_cm=base.atom_cm,
            ),
            1.0,
        )
