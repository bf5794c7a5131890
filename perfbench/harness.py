"""Benchmark harness: set up a workload, run it closed-loop, check, report.

One client issues operations back to back; every operation is an in-process
call to the public CLI, ``confshift.cli.main(argv)``. A *step* is the unit of
latency: one ``cli`` round (predict, sensitivity, worstcase), one
coverage replication, or eight scan replications (each replication is one
``simulate --n-reps 1`` call; a scan replication alone is too short to time
steadily).

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
every other step runs with the tracing wrappers of :mod:`tracing` installed,
and the run reports per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
import tracing
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE_DIR = HERE / "reference"

DEFAULT_SEED = 1
HELDOUT_SEED = 2
SETUP_REPEATS = 5
TAIL_BEYOND = 10

SCAN_GRID = ",".join(f"{1.0 + 0.1 * i:.1f}" for i in range(13))  # 1.0 .. 2.2
# Campaign -> (argv, n_test, op seed pool size, replications per step).
CAMPAIGNS = {
    # Acceptance criterion c04 sizes.
    "campaign-coverage": (
        ["simulate", "--kind", "coverage", "--n-reps", "1", "--n-train", "1000",
         "--n-calib", "2000", "--n-test", "10000", "--gamma-true", "1.5",
         "--alphas", "0.2,0.5", "--delta", "0.05", "--procedure", "alg2",
         "--envelope", "wsr", "--bounds", "oracle", "--threads", "1"],
        10000, 32, 1),
    # Acceptance criterion c08 sizes, fixed effect 0.
    "campaign-scan": (
        ["simulate", "--kind", "sensitivity", "--n-reps", "1", "--n-train", "500",
         "--n-calib", "1000", "--n-test", "100", "--gamma-true", "1.6",
         "--alphas", "0.1", "--delta", "0.05", "--envelope", "wsr",
         "--bounds", "oracle", "--effect-kind", "fixed", "--effect-a", "0",
         "--grid", SCAN_GRID, "--threads", "1"],
        100, 128, 8),
}
WORKLOADS = ("cli", *CAMPAIGNS)
CLI_GAMMAS = (1.0, 1.5, 2.0, 3.0)


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


@dataclass
class Call:
    command: str
    key: str            # reference key: the same key must give the same outputs
    argv: list[str]
    out_dir: str
    context: dict


@dataclass
class Prepared:
    steps: list[list[Call]]          # cycled: step i runs steps[i % len]
    record: dict                     # set-up facts kept with the result


def setup(workload: str, seed: int, work_dir: str) -> Prepared:
    """Generate the workload's inputs from ``seed`` and build its calls."""
    out = os.path.join(work_dir, "out")
    if workload == "cli":
        paths = corpus.write_corpus(seed, os.path.join(work_dir, "inputs"))
        ties = corpus.tie_shares(seed)
        if ties["predict"] <= 0.0:
            raise SetupError(f"no test row ties at the k-th neighbour distance: {ties}")
        folds = ["--train", paths["train"], "--calib", paths["calib"], "--test", paths["test"]]
        n_test = corpus.N_TEST
        step = [
            Call("predict", "predict",
                 ["predict", *folds, "--method", "alg1", "--score", "cqr",
                  "--gamma", ",".join(map(str, CLI_GAMMAS)), "--out-dir", out + "/predict"],
                 out + "/predict", {"n_test": n_test, "n_gamma": len(CLI_GAMMAS)}),
            Call("sensitivity", "sensitivity",
                 ["sensitivity", *folds, "--method", "alg1", "--out-dir", out + "/sensitivity"],
                 out + "/sensitivity", {}),
            Call("worstcase", "worstcase",
                 ["worstcase", "--instance", paths["instance"], "--witness", "true",
                  "--out-dir", out + "/worstcase"],
                 out + "/worstcase", {"instance": corpus.make_instance(seed)}),
        ]
        return Prepared([step], {"kth_tie_share": ties})
    argv, n_test, pool, per_step = CAMPAIGNS[workload]
    tree = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
    op_seeds = [int(s) for s in tree.generate_state(pool)]
    calls = [Call("simulate", str(s), [*argv, "--seed", str(s), "--out-dir", out], out,
                  {"n_test": n_test}) for s in op_seeds]
    steps = [calls[i:i + per_step] for i in range(0, pool, per_step)]
    return Prepared(steps, {"op_seed_pool": pool, "replications_per_step": per_step})


# ---------------------------------------------------------------------------
# Running and checking one call
# ---------------------------------------------------------------------------


def _clear(out_dir: str) -> None:
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))


def timed_call(cli, call: Call) -> tuple[float, list[str]]:
    """Run one CLI call; return its latency and any failure it reported."""
    _clear(call.out_dir)
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(call.argv))
    except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
        return time.perf_counter() - t0, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - t0
    return elapsed, ([] if rc == 0 else [f"exit code {rc}"])


def check_call(call: Call, reference: dict | None, seen: dict) -> tuple[list[str], dict]:
    """Problems in the outputs of ``call``, and the parsed values."""
    try:
        values = verify.parse_outputs(call.command, call.out_dir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"], {}
    problems = verify.invariants(call.command, values, call.context)
    if reference is not None:
        if call.key not in reference["ops"]:
            problems.append(f"no reference for op {call.key}")
        else:
            problems += verify.compare(values, reference["ops"][call.key])
    first = seen.setdefault(call.key, values)
    if first is not values and not verify.same_values(first, values):
        problems.append("outputs differ from an earlier run of the same op")
    return problems, values


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """Highest whole percentile with at least ``beyond`` samples above it.

    Nearest-rank: percentile q is the ceil(q n / 100)-th smallest sample. With
    fewer than ``beyond + 1`` samples no such percentile exists and the
    maximum (percentile 100) is returned.
    """
    s = sorted(samples)
    n = len(s)
    if n <= beyond:
        return 100, s[-1]
    q = (100 * (n - beyond)) // n
    return q, s[math.ceil(q * n / 100) - 1]


# ---------------------------------------------------------------------------
# Environment record and set-up timing
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "confshift").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "simulate_threads": 1,
        "clients": 1,
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child side of set-up timing: import, generate inputs, say ready."""
    import confshift.cli  # noqa: F401 - the import is part of set-up

    work = WORK / f"setup-{os.getpid()}"
    try:
        setup(workload, seed, str(work))
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def time_setups(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time from process start to ready, in ``repeats`` fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=120)
            except BaseException:
                proc.kill()  # the with block then waits for it
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up probe failed (exit {proc.returncode})")
        out.append(elapsed)
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


@dataclass
class StepResult:
    latency: float              # wall seconds
    traced: bool
    calls: dict[str, float]     # wall seconds per command


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, measure for ``seconds``, check; return (result line, record)."""
    setup_times = [] if trace else time_setups(workload, seed, SETUP_REPEATS)
    import confshift.cli as cli

    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    try:
        prepared = setup(workload, seed, str(work))
        reference = verify.load_reference(str(reference_path(workload, seed)))
        tracer = tracing.Tracer()
        seen: dict = {}
        steps: list[StepResult] = []
        failures: list[str] = []
        attempted = failed = 0
        start = time.perf_counter()
        # A traced run needs both a traced and a plain step.
        while time.perf_counter() - start < seconds or len(steps) < 1 + trace:
            i = len(steps)
            traced = trace and i % 2 == 0
            calls = {}
            for call in prepared.steps[i % len(prepared.steps)]:
                if traced:
                    tracer.begin_op(i)
                    with tracing.installed(tracer):
                        latency, problems = timed_call(cli, call)
                else:
                    latency, problems = timed_call(cli, call)
                if not problems:
                    problems, _ = check_call(call, reference, seen)
                attempted += 1
                if problems:
                    failed += 1
                    failures.append(f"step {i} {call.command} {call.key}: {'; '.join(problems)}")
                calls[call.command] = calls.get(call.command, 0.0) + latency
            steps.append(StepResult(sum(calls.values()), traced, calls))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "setup": prepared.record,
              "reference": reference is not None, "steps": len(steps),
              "step_latencies_s": [s.latency for s in steps]}
    if trace:
        kind = "per_layer"
        metrics, balance = traced_metrics(tracer, steps)
        record["trace_balance_max_abs_error_s"] = balance
        record["spans"] = [[sp.name, sp.start, sp.end, sp.parent, sp.op, sp.attrs]
                           for sp in tracer.spans]
        if balance > 1e-9:
            failures.append("self times do not add up to the traced step time")
    else:
        kind = "end_to_end"
        plain = [s.latency for s in steps]
        q, tail_value = tail(plain)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "step_p50_s": statistics.median(plain),
            "step_tail_s": tail_value,
            "steps_per_s": len(plain) / sum(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["tail"] = {"percentile": q, "samples": len(plain)}
        record["setup_times_s"] = setup_times
    units = declared_metrics(kind)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    record["metrics"] = metrics
    record["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, record


def traced_metrics(tracer: tracing.Tracer, steps: list[StepResult]) -> tuple[dict, float]:
    """Per-layer metrics, and the largest gap between a traced step's summed
    self times and its root spans."""
    traced = [s for s in steps if s.traced]
    plain = [s for s in steps if not s.traced]
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    metrics["trace.overhead_ratio"] = (statistics.median(s.latency for s in traced)
                                       / statistics.median(s.latency for s in plain))
    for command in ("predict", "sensitivity", "worstcase"):
        lat = [s.calls[command] for s in plain if command in s.calls]
        metrics[f"cli.cmd_{command}.p50_s"] = statistics.median(lat) if lat else 0.0
    balance = tracing.op_balance(tracer.spans)
    return metrics, max((abs(a - b) for a, b in balance.values()), default=0.0)


def record_reference(workload: str, seed: int) -> Path:
    """Run every distinct op of the workload once and store its outputs."""
    import confshift.cli as cli

    work = WORK / f"record-{workload}-s{seed}-{os.getpid()}"
    ops = {}
    try:
        prepared = setup(workload, seed, str(work))
        for step in prepared.steps:
            for call in step:
                _, problems = timed_call(cli, call)
                if not problems:
                    problems, values = check_call(call, None, {})
                if problems:
                    raise SetupError(f"{call.command} {call.key}: {'; '.join(problems)}")
                ops[call.key] = verify.to_reference(values)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = reference_path(workload, seed)
    path.parent.mkdir(exist_ok=True)
    verify.write_reference(str(path), workload, seed, ops)
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the reference outputs for this workload and seed")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.record:
            print(record_reference(args.workload, args.seed))
            return 0
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(results / f"{name}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(record.pop("spans"), fh)
    with open(results / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in record["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({k: record.get(k) for k in ("environment", "setup", "steps", "tail")}))
    print(json.dumps(result))
    return 0
