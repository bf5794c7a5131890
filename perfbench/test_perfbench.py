"""Self-tests of the benchmark's own logic (no timing, a few seconds in all).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402


# ---------------------------------------------------------------------------
# Tail percentile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,q,idx", [(100, 90, 89), (24, 58, 13), (11, 9, 0), (200, 95, 189)])
def test_tail_picks_highest_percentile_with_ten_beyond(n, q, idx):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    assert harness.tail(samples) == (q, float(idx))


def test_tail_leaves_exactly_enough_samples_beyond():
    for n in range(11, 400):
        q, value = harness.tail([float(i) for i in range(n)])
        assert n - 1 - value >= 10
        # One percentile higher would leave fewer than ten beyond.
        if q < 99:
            assert n - math.ceil((q + 1) * n / 100) < 10


def test_tail_falls_back_to_max_when_too_few_samples():
    assert harness.tail([3.0, 1.0, 2.0]) == (100, 3.0)


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def _span(name, start, end, parent, op=0):
    return tracing.Span(name, start, end, parent, op)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.op_balance(spans) == {0: (10.0, 10.0)}


def test_wrapped_calls_nest_and_balance():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    same = tracer.wrap("outer", lambda: inner())
    outer = tracer.wrap("outer", lambda: (inner(), same()))
    tracer.begin_op(7)
    outer()
    # The same-name call joins its parent span instead of opening a new one.
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    selfs = tracing.self_times(tracer.spans)
    assert selfs == [3.0, 1.0, 1.0]
    total, roots = tracing.op_balance(tracer.spans)[7]
    assert total == roots == 5.0


def test_installed_restores_the_package():
    from confshift import cli, scores

    before = (cli.main, cli.read_dataset, scores.KNNQuantileModel.__dict__["quantile"])
    with tracing.installed(tracing.Tracer()):
        assert cli.main is not before[0]
    assert (cli.main, cli.read_dataset, scores.KNNQuantileModel.__dict__["quantile"]) == before


def test_reported_metrics_are_the_declared_ones():
    steps = [harness.StepResult(1.0, True, {}), harness.StepResult(1.0, False, {})]
    metrics, balance = harness.traced_metrics(tracing.Tracer(), steps)
    assert set(metrics) == set(harness.declared_metrics("per_layer"))
    assert balance == 0.0
    assert set(harness.declared_metrics("end_to_end")) == {
        "setup_s", "step_p50_s", "step_tail_s", "steps_per_s", "peak_rss_mb"}


def test_crossing_rank():
    v = np.array([3.0, 1.0, 2.0, 4.0])
    assert tracing.crossing_rank(v, 2.0) == 0.5
    assert tracing.crossing_rank(v, math.inf) == 1.0


# ---------------------------------------------------------------------------
# Inputs owned by the benchmark
# ---------------------------------------------------------------------------


def _corpus_bytes(seed, out_dir):
    paths = corpus.write_corpus(seed, str(out_dir))
    return {k: Path(p).read_bytes() for k, p in paths.items()}


def test_corpus_is_a_function_of_the_seed(tmp_path):
    first = _corpus_bytes(harness.DEFAULT_SEED, tmp_path / "a")
    again = _corpus_bytes(harness.DEFAULT_SEED, tmp_path / "b")
    other = _corpus_bytes(harness.HELDOUT_SEED, tmp_path / "c")
    assert first == again
    assert all(first[k] != other[k] for k in first)


@pytest.mark.parametrize("seed", [harness.DEFAULT_SEED, harness.HELDOUT_SEED])
def test_test_rows_tie_at_the_kth_distance(seed):
    shares = corpus.tie_shares(seed)
    assert all(0.0 < s < 0.2 for s in shares.values())
    folds = corpus.make_folds(seed)
    assert all((x == np.rint(x)).all() for x, _, _ in folds.values())


def test_kth_tie_share_counts_exact_ties():
    train = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [50.0, 50.0]])
    query = np.array([[0.0, 0.0], [30.0, 20.0]])
    # Squared distances. Row 0: 0, 100, 100, 5000, so the 2nd and 3rd tie;
    # row 1: 800, 1000, 1300, 1300, no tie at k = 2.
    assert corpus.kth_tie_share(train, query, 2) == 0.5


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def _predict_values():
    q_lo, q_hi = np.array([-1.0, 0.0, 0.5]), np.array([1.0, 2.0, 0.75])
    v_hat = np.array([[0.1, 0.2, -0.1], [0.3, math.inf, 0.0]])
    lo = np.where(np.isinf(v_hat), -math.inf, q_lo - v_hat)
    hi = np.where(np.isinf(v_hat), math.inf, q_hi + v_hat)
    return {"gamma": np.repeat([1.0, 2.0], 3), "v_hat": v_hat.ravel(),
            "lo": lo.ravel(), "hi": hi.ravel()}


def test_output_check_flags_a_perturbed_threshold():
    context = {"n_test": 3, "n_gamma": 2}
    values = _predict_values()
    ref = verify.to_reference(values)
    assert verify.compare(values, ref) == []
    assert verify.invariants("predict", values, context) == []

    # One ulp: caught by the reference and by the repeat comparison.
    ulp = dict(values, v_hat=values["v_hat"].copy())
    ulp["v_hat"][0] = np.nextafter(ulp["v_hat"][0], 1.0)
    assert verify.compare(ulp, ref) == ["v_hat: values differ from reference"]
    assert not verify.same_values(values, ulp)
    # Beyond float dust the invariants catch it too, whatever the seed.
    far = dict(values, v_hat=values["v_hat"] + np.array([1e-6, 0, 0, 0, 0, 0]))
    assert verify.invariants("predict", far, context) == [
        "interval width minus 2 v_hat varies with gamma"]


def test_tolerant_fields_allow_1e12():
    values = {"cdf": np.array([0.25, 0.5]), "w_star": np.array([1.0, 1.0]),
              "t": np.array([0.0, 1.0])}
    ref = verify.to_reference(values)
    near = dict(values, cdf=values["cdf"] + 5e-13)
    far = dict(values, cdf=values["cdf"] + 5e-12)
    assert verify.compare(near, ref) == []
    assert verify.compare(far, ref) == ["cdf: differs from reference (max abs error 5e-12)"]


def test_worst_cdf_oracle_matches_the_package():
    from confshift.worstcase import DiscreteJoint, worst_cdf_marginal

    inst = corpus.make_instance(harness.DEFAULT_SEED)
    d = DiscreteJoint(inst["v"], inst["m"], inst["lo"], inst["hi"])
    t = np.unique(inst["v"])[::97]
    want = [worst_cdf_marginal(d, float(x)) for x in t]
    got = verify.worst_cdf_oracle(inst["v"], inst["m"], inst["lo"], inst["hi"], t)
    assert np.max(np.abs(got - want)) <= verify.ABS_TOL
