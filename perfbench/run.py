#!/usr/bin/env python3
"""parafrac benchmark: end-to-end solve times and an outside-in layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload quasilinear-8k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each round runs three solves on the workload's configuration, in an order
drawn from ``--seed``: the full-history fine reference, parareal at
``threads = nproc`` and parareal at ``threads = 1``.  Rounds repeat until
``--seconds`` is spent.  Untraced rounds also time a fixed calibration
kernel around every solve and report solve costs in its units
(calibration.py), which cancels the drift of a shared host's speed.
Every round is checked (see ``check_round``); any failure is printed and
makes the exit code nonzero.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced pass with ``--trace 1``.  A fuller
record, with the environment and every sample, goes to ``.bench_out/``.
"""

import os

# One BLAS thread per solver thread keeps the process at nproc threads.
# This must happen before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layertrace  # noqa: E402
from calibration import Calibration  # noqa: E402
from workloads import K_MAX, TOL, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

KINDS = ("fine", "par", "par1")
# Per-layer metric names carry the solve kind they come from; the
# fine-only stepping.fine_sequential.self_s keeps its plain name.
LAYER_PREFIX = {"fine": "fine.", "par": "", "par1": "par1."}
SETUP_MIN_RUNS = 5
BUILD_OPERATOR_RUNS = 20

# The gated end-to-end metrics, in BENCHMARK.json.  A ``*_cost`` is a solve
# time in units of the calibration kernel timed around it (calibration.py).
END_TO_END_UNITS = {
    "setup_s": "s",
    "fine_cost": "cal",
    "parareal_cost": "cal",
    "parareal_1t_cost": "cal",
    "parareal_to_accuracy_cost": "cal",
    "speedup": "ratio",
    "speedup_at_accuracy": "ratio",
    "thread_scaling": "ratio",
    "iterations": "count",
    "iterations_to_accuracy": "count",
    "final_error": "l2",
    "fine_peak_mib": "MiB",
    "parareal_peak_mib": "MiB",
    "pass_ratio": "ratio",
}
# Raw wall times: printed and recorded, not gated, because their medians
# follow the host's speed drift from run to run.
RAW_UNITS = {
    "fine_s": "s",
    "parareal_s": "s",
    "parareal_1t_s": "s",
    "parareal_to_accuracy_s": "s",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import parafrac as pf
problem = pf.get_problem(sys.argv[2])
op = pf.build_operator(int(sys.argv[3]), problem.a, problem.b)
grids = pf.TimeGrids(problem.t_final, int(sys.argv[4]), int(sys.argv[5]))
print(repr(time.perf_counter() - t0))
"""


class SetupError(RuntimeError):
    """The checkout holds no parafrac sources to benchmark."""


def import_parafrac():
    """Import parafrac from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "parafrac" / "__init__.py").is_file():
        raise SetupError(f"no parafrac sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import parafrac

    if Path(parafrac.__file__).resolve().parent != SRC / "parafrac":
        raise SetupError(f"parafrac imported from {parafrac.__file__}, not {SRC}")
    return parafrac


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit():
    """Commit of the checkout, read from ``.git`` without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {var: os.environ[var] for var in BLAS_ENV},
        "git_commit": git_commit(),
        "seed": seed,
    }


class Case:
    """One workload's solver inputs, built once per run."""

    def __init__(self, pf, workload):
        self.pf = pf
        self.workload = workload
        self.problem = pf.get_problem(workload.problem)
        self.op = pf.build_operator(workload.degree, self.problem.a, self.problem.b)
        self.grids = pf.TimeGrids(self.problem.t_final, workload.nt, workload.m)
        self.threads = nproc()

    def solve(self, kind, reference, problem=None):
        """Run one solve; returns ``(states, report)`` (``report`` None for fine)."""
        problem = problem or self.problem
        if kind == "fine":
            states, _ = self.pf.run_fine_sequential(problem, self.op, self.grids)
            return states, None
        threads = self.threads if kind == "par" else 1
        iterate, report = self.pf.parareal_solve(
            problem, self.op, self.grids, tol=TOL, k_max=K_MAX, threads=threads,
            reference=reference if kind == "par" else None,
        )
        return iterate.states, report


def accuracy_iterate(errors, target):
    """First iterate k >= 1 from which every error stays at or below ``target``.

    ``errors[k]`` is the final-node error of iterate k (k = 0 is the initial
    coarse sweep, which the report does not time).  None if the last error
    is above the target.
    """
    k = len(errors)
    while k > 1 and errors[k - 1] <= target:
        k -= 1
    return k if k < len(errors) else None


class Outcome(NamedTuple):
    states: object
    report: object
    seconds: float
    error: object  # None, or the message of the exception the solve raised
    calibration: float = None  # mean kernel time just before and after the solve


def run_round(case, order, reference, problem=None, solve=None, calibrate=None):
    """Run the three solves in ``order``; returns ``{kind: Outcome}``.

    With ``calibrate``, the calibration kernel runs before the first solve
    and after every solve.
    """
    solve = solve or case.solve
    out = {}
    before = calibrate() if calibrate else None
    for kind in order:
        gc.collect()  # every solve starts from the same collector state
        t0 = perf_counter()
        try:
            states, report = solve(kind, reference, problem)
            error = None
        except Exception as exc:  # a failed solve is counted, not fatal
            states = report = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        after = calibrate() if calibrate else None
        out[kind] = Outcome(states, report, seconds, error,
                            (before + after) / 2 if calibrate else None)
        before = after
    return out


def all_returned(result):
    return all(o.error is None for o in result.values())


def check_round(case, result, reference):
    """Correctness gate for one round; returns ``{kind: [reason, ...]}`` of failures."""
    target = case.workload.accuracy_target
    failures = {}

    def fail(kind, reason):
        failures.setdefault(kind, []).append(reason)

    for kind, outcome in result.items():
        if outcome.error is not None:
            fail(kind, f"raised {outcome.error}")
            continue
        if not np.isfinite(outcome.states).all():
            fail(kind, "non-finite states")
            continue
        if kind == "fine":
            if not np.array_equal(outcome.states, reference):
                fail(kind, "differs from the warm-up fine solve")
            continue
        report = outcome.report
        if report.stop_reason != "tol" or report.iterations > K_MAX:
            fail(kind, f"stopped by {report.stop_reason} after {report.iterations} iterations")
    par, par1 = result["par"], result["par1"]
    if par.error is None and par1.error is None and not np.array_equal(par.states, par1.states):
        fail("par", f"threads={case.threads} states differ from threads=1 states")
    if par.error is None:
        error = par.report.errors_vs_reference[-1]
        if not error <= target:
            fail("par", f"final error {error:.6e} above target {target:.6e}")
    return failures


def round_metrics(case, result):
    """End-to-end values of one round in which every solve returned."""
    fine, par, par1 = result["fine"], result["par"], result["par1"]
    report = par.report
    errors = report.errors_vs_reference
    k_acc = accuracy_iterate(errors, case.workload.accuracy_target)
    fine_cost = fine.seconds / fine.calibration
    par_cost = par.seconds / par.calibration
    par1_cost = par1.seconds / par1.calibration
    # Ratios of costs, so that a drift of host speed between the solves cancels.
    out = {
        "fine_s": fine.seconds,
        "parareal_s": par.seconds,
        "parareal_1t_s": par1.seconds,
        "fine_cost": fine_cost,
        "parareal_cost": par_cost,
        "parareal_1t_cost": par1_cost,
        "speedup": fine_cost / par_cost,
        "thread_scaling": par1_cost / par_cost,
        "iterations": report.iterations,
        "final_error": errors[-1],
    }
    if k_acc is not None:
        to_acc = report.iteration_times[k_acc - 1]
        to_acc_cost = to_acc / par.calibration
        out.update(parareal_to_accuracy_s=to_acc,
                   parareal_to_accuracy_cost=to_acc_cost,
                   speedup_at_accuracy=fine_cost / to_acc_cost,
                   iterations_to_accuracy=k_acc)
    return out


def peak_mib(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def setup_seconds(workload):
    """``import parafrac`` plus problem, operator and grids, in a fresh interpreter."""
    args = [sys.executable, "-c", SETUP_CODE, str(SRC), workload.problem,
            str(workload.degree), str(workload.nt), str(workload.m)]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def summarize(samples):
    values = sorted(samples)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    counts = all(isinstance(v, int) for v in values)
    median = statistics.median_low(values) if counts else statistics.median(values)
    return {"median": median, "q1": q[0], "q3": q[2],
            "n": len(values), "samples": samples}


class Run:
    """State of one benchmark invocation: rounds, failures, samples."""

    def __init__(self, case, seed, seconds):
        self.case = case
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.samples = {}

    def order(self):
        return self.rng.sample(KINDS, len(KINDS))

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def record(self, round_index, failures, label=""):
        """Count one round's solves and report its failures."""
        self.attempted += len(KINDS)
        self.failed += len(failures)
        for kind, reasons in sorted(failures.items()):
            for reason in reasons:
                line = (f"FAIL workload={self.case.workload.name} round={round_index}"
                        f"{label} solve={kind}: {reason}")
                self.failures.append(line)
                print(line, file=sys.stderr)

    def timed_rounds(self, body, between=None):
        """Call ``body(round_index)`` until the next round would overrun ``seconds``.

        ``between`` runs after every round, outside the time budget.
        """
        elapsed = 0.0
        index = 0
        while True:
            start = perf_counter()
            body(index)
            elapsed += perf_counter() - start
            index += 1
            if between is not None:
                between()
            if elapsed + elapsed / index > self.seconds:
                return


def measure_end_to_end(run, reference):
    case = run.case
    calibrate = Calibration()

    def setup():
        run.add("setup_s", setup_seconds(case.workload))

    def body(index):
        result = run_round(case, run.order(), reference, calibrate=calibrate)
        failures = check_round(case, result, reference)
        run.record(index, failures)
        if all_returned(result):
            for name, value in round_metrics(case, result).items():
                run.add(name, value)

    # Set-up samples are spread over the run so that they see the same
    # host load as the rounds.
    run.timed_rounds(body, between=setup)
    while len(run.samples["setup_s"]) < SETUP_MIN_RUNS:
        setup()


def measure_layers(run, reference):
    """Alternate untraced and traced rounds; per-layer values from the traced ones."""
    case = run.case
    for _ in range(BUILD_OPERATOR_RUNS):
        t0 = perf_counter()
        case.pf.build_operator(case.workload.degree, case.problem.a, case.problem.b)
        run.add("spectral.build_operator_s", perf_counter() - t0)

    recorder = layertrace.Recorder()
    traced_problem = layertrace.traced_problem(case.problem, recorder)
    names = {"fine": layertrace.SOLVE_FINE, "par": layertrace.SOLVE_PARAREAL,
             "par1": layertrace.SOLVE_PARAREAL}
    spans = {}
    counts = {}

    def traced_solve(kind, reference, problem):
        (states, report), spans[kind] = recorder.solve_span(
            kind, names[kind], case.solve, kind, reference, problem)
        return states, report

    def body(index):
        order = run.order()
        plain = run_round(case, order, reference)
        run.record(index, check_round(case, plain, reference), " untraced")
        with layertrace.installed(recorder):
            traced = run_round(case, order, reference, traced_problem, traced_solve)
        failures = check_round(case, traced, reference)
        for kind in KINDS:
            if (traced[kind].error is None and plain[kind].error is None
                    and not np.array_equal(traced[kind].states, plain[kind].states)):
                failures.setdefault(kind, []).append("traced states differ from untraced")
        if failures or not all_returned(plain):
            run.record(index, failures, " traced")
            return
        values = {}
        for kind in KINDS:
            reduce = layertrace.fine_metrics if kind == "fine" else layertrace.parareal_metrics
            for name, value in reduce(spans[kind]).items():
                if name != "stepping.fine_sequential.self_s":
                    name = LAYER_PREFIX[kind] + name
                values[name] = value
        for name, value in values.items():
            if name.endswith(".calls") and counts.setdefault(name, value) != value:
                failures.setdefault("par", []).append(
                    f"{name} = {value}, first traced round gave {counts[name]}")
        run.record(index, failures, " traced")
        if failures:
            return
        for name, value in values.items():
            run.add(name, value)
        run.add("trace.overhead", traced["par"].seconds / plain["par"].seconds)
        if index == 0:
            write_spans(run, spans)

    run.timed_rounds(body)


def write_spans(run, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run.case.workload.name}-spans.json"
    with path.open("w") as fh:
        json.dump({"fields": layertrace.Span._fields,
                   "solves": {kind: spans[kind] for kind in KINDS}}, fh)


def units_for(name, trace):
    if not trace:
        return END_TO_END_UNITS.get(name) or RAW_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the result record."""
    pf = import_parafrac()
    case = Case(pf, workload)
    env = environment(seed)
    run = Run(case, seed, seconds)

    # The untimed warm-up pass fills the lazy weight tables and gives the
    # reference every round is checked against.  Untraced runs take the
    # tracemalloc peaks in it; parareal's at threads=1, where the
    # allocation order, and so the peak, does not depend on thread timing.
    if trace:
        reference, _ = case.solve("fine", None)
        case.solve("par1", None)
        measure_layers(run, reference)
    else:
        (reference, _), fine_peak = peak_mib(lambda: case.solve("fine", None))
        _, par_peak = peak_mib(lambda: case.solve("par1", None))
        run.add("fine_peak_mib", fine_peak)
        run.add("parareal_peak_mib", par_peak)
        measure_end_to_end(run, reference)
        run.add("pass_ratio", (run.attempted - run.failed) / run.attempted)

    stats = {k: summarize(v) for k, v in run.samples.items()}
    return {
        "workload": workload.name,
        "config": vars(workload),
        "trace": trace,
        "environment": env,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "stats": stats,
        "metrics": {k: {"value": s["median"], "unit": units_for(k, trace)}
                    for k, s in stats.items() if k not in RAW_UNITS},
    }


def print_table(record):
    env = record["environment"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  blas {env['blas']['name']} {env['blas']['version']}  "
          f"commit {env['git_commit']}")
    for name, s in record["stats"].items():
        note = "  (raw, not gated)" if name in RAW_UNITS else ""
        print(f"  {name:40s} {s['median']:.6g} {units_for(name, record['trace'])}  "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]  n={s['n']}{note}")
    print(f"  attempted {record['attempted']} solves, failed {record['failed']}")


def result_line(record):
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(args):
    """Each workload in its own interpreter, so process-wide caches start cold."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise SetupError(f"workload {name} exited with code {done.returncode}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            merged = run_all(args)
            print(json.dumps(merged))
            return 0 if merged["correct"] else 1
        record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print_table(record)
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
