#!/usr/bin/env python3
"""Self-test of the benchmark at shrunken sizes.

Run from the repository root (about a minute on two cores)::

    python3 perfbench/selftest.py

It checks that every workload runs untraced and traced, that the emitted
metric names and units are exactly those in ``BENCHMARK.json``, that the
trace counts what it should and repeats, that corrupted solver results are
counted as failed, and that the benchmark refuses to run without sources.
The injected failures print FAIL lines on standard error; that is expected.
Exits nonzero on the first failed check.
"""

import json
import pickle
import shutil
import subprocess
import sys
from dataclasses import replace

import run  # pins the BLAS threads before numpy is imported
import layertrace
from workloads import WORKLOADS

SECONDS = 1.0

# Same problems, shrunken grids; targets are twice the converged error.
SMALL = {
    "quasilinear-8k": dict(degree=8, nt=16, m=4, accuracy_target=6.0e-5),
    "long-history-16k": dict(degree=6, nt=4, m=64, accuracy_target=4.0e-4),
    "wide-linear-2k": dict(degree=24, nt=8, m=4, accuracy_target=1.3e-3),
}


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def small(name):
    return replace(WORKLOADS[name], **SMALL[name])


def declared_units(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_names(record, section):
    emitted = {k: v["unit"] for k, v in record["metrics"].items()}
    check(emitted == declared_units(section),
          f"{record['workload']}: emitted {section} names and units match BENCHMARK.json")


def check_result_line(record):
    line = json.loads(run.result_line(record))
    check(set(line) == {"correct", "attempted", "failed", "metrics"}
          and line["attempted"] >= 1 and isinstance(line["failed"], int),
          f"{record['workload']}: result line has the contract's keys")


def test_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the benchmark's workloads")
    for name in WORKLOADS:
        w = small(name)
        plain = run.run_workload(w, seed=1, seconds=SECONDS, trace=False)
        check(plain["correct"] and plain["failed"] == 0, f"{name}: untraced run is correct")
        check_names(plain, "end_to_end")
        check_result_line(plain)
        traced = run.run_workload(w, seed=2, seconds=SECONDS, trace=True)
        check(traced["correct"] and traced["failed"] == 0,
              f"{name}: traced run is correct and bitwise equal to untraced")
        check_names(traced, "per_layer")
        iterations = plain["metrics"]["iterations"]["value"]
        calls = traced["metrics"]["parareal.coarse_step.calls"]["value"]
        check(calls == 2 * w.nt * iterations,
              f"{name}: parareal.coarse_step.calls {calls} == 2*nt*iterations")
        again = run.run_workload(w, seed=3, seconds=SECONDS, trace=True)
        counts = {k: v for k, v in traced["metrics"].items() if k.endswith(".calls")}
        check(counts == {k: again["metrics"][k] for k in counts},
              f"{name}: call counts repeat between two traced runs")


def run_patched(attr, make, trace):
    """Run the small quasilinear workload with ``parafrac.<attr>`` replaced."""
    pf = run.import_parafrac()
    original = getattr(pf, attr)
    setattr(pf, attr, make(original))
    try:
        return run.run_workload(small("quasilinear-8k"), seed=1, seconds=SECONDS, trace=trace)
    finally:
        setattr(pf, attr, original)


def test_corruption():
    def thread_dependent(original):
        def solve(*args, **kwargs):
            iterate, report = original(*args, **kwargs)
            if kwargs["threads"] > 1:
                iterate.states[-1, 0] += 1e-12
            return iterate, report
        return solve

    record = run_patched("parareal_solve", thread_dependent, trace=False)
    check(not record["correct"]
          and any("differ from threads=1" in f for f in record["failures"]),
          "a thread-dependent result is counted as failed")

    def trace_dependent(original):
        def solve(problem, *args, **kwargs):
            iterate, report = original(problem, *args, **kwargs)
            if isinstance(problem.diffusion, layertrace.TracedCallback):
                iterate.states[-1, 0] += 1e-12
            return iterate, report
        return solve

    record = run_patched("parareal_solve", trace_dependent, trace=True)
    check(not record["correct"]
          and any("traced states differ" in f for f in record["failures"]),
          "a result that changes under tracing is counted as failed")

    def failing(original):
        calls = []

        def solve(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:  # the warm-up solve stays correct
                raise run.import_parafrac().SolverFailure(0, "injected")
            return original(*args, **kwargs)
        return solve

    record = run_patched("run_fine_sequential", failing, trace=False)
    check(not record["correct"] and record["failed"] == record["attempted"] // 3,
          "a solve that raises is counted as failed")


def test_seed_and_pickle():
    pf = run.import_parafrac()
    case = run.Case(pf, small("quasilinear-8k"))
    orders = {tuple(run.Run(case, seed, 1).order()) for seed in range(6)}
    check(all(sorted(o) == sorted(run.KINDS) for o in orders) and len(orders) > 1,
          "the seed permutes the order of the three solves")
    traced = layertrace.traced_problem(case.problem, layertrace.Recorder())
    copy = pickle.loads(pickle.dumps(traced))
    check(copy.diffusion.recorder is None and copy.diffusion(0.5, 0.0, 0.25) == 1.25,
          "traced problems pickle, and the copy forwards untimed")


def test_bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quasilinear-8k",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without sources the benchmark exits nonzero and prints no result")


def main():
    test_workloads()
    test_corruption()
    test_seed_and_pickle()
    test_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
