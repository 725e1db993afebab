"""Acceptance criteria.

One test per criterion, each printing a single pass/fail line with the
measured quantities (run with ``pytest -s`` to see the lines for passing
criteria too).  Tolerances are fixed here, not calibrated elsewhere.
"""

import os

import numpy as np
import pytest

from parafrac import (
    BoundParams,
    LipschitzConstants,
    TimeGrids,
    build_operator,
    caputo_power,
    chain_fine,
    coarse_step,
    discrete_caputo_coarse,
    discrete_caputo_hybrid,
    double_sum_bound,
    double_sum_exact,
    exactness_check,
    fine_propagate,
    get_problem,
    gronwall_brute,
    gronwall_closed,
    l1_weight,
    parareal_solve,
    run_coarse,
    run_fine_sequential,
    single_sum_bound,
    single_sum_exact,
    iteration_error_bound,
)
from parafrac.harness import _best_time, fit_loglog
from parafrac.l1 import weights_for
from parafrac.parareal import _solve
from parafrac.spectral import l2_norm


def _line(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{name}]: {status} ({detail})")


def test_criterion_01_weight_identities():
    ok = True
    detail = []
    for alpha in (0.25, 0.5, 0.75, 1.0):
        ok &= l1_weight(0.0, alpha) == 1.0
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        b = weights_for(alpha).on_grid(1, 10_001)
        d = b[:-1] - b[1:]
        total, carry = 0.0, 0.0
        for n in range(1, 10_001):
            term = d[n - 1] - carry
            fresh = total + term
            carry = (fresh - total) - term
            total = fresh
            worst = max(worst, abs(b[n] + total - 1.0))
    ok &= worst <= 1e-13
    detail.append(f"telescoping worst {worst:.2e}")
    rng = np.random.default_rng(0)
    hist = rng.normal(size=12)
    dT = 0.125
    exact_collapse = discrete_caputo_coarse(hist, dT, 1.0) == (hist[-1] - hist[-2]) / dT
    ok &= exact_collapse
    detail.append(f"backward-Euler collapse exact: {exact_collapse}")
    _line(1, "weight identities", ok, "; ".join(detail))
    assert ok


def test_criterion_02_hybrid_operator_order():
    # fitted order of the hybrid operator for y = t^alpha + t, within +-0.2
    # of min(1 + alpha, 2 - alpha): the pointwise truncation order of L1 at a
    # fixed t > 0 for a solution with a t^alpha layer (Stynes, O'Riordan and
    # Gracia, SIAM J. Numer. Anal. 55 (2017) 1057-1079).  The error is taken
    # at the fixed physical probe t = 3/4 (endpoint of interval 3*nt/4 - 1),
    # with the subdivision fixed and the fine step halving.
    results = []
    ok = True
    for alpha in (0.3, 0.5, 0.7):
        y = lambda t: t**alpha + t
        dcap = lambda t: caputo_power(alpha, alpha, t) + caputo_power(1.0, alpha, t)
        target = min(1.0 + alpha, 2.0 - alpha)
        errs, dts = [], []
        for nt in (8, 16, 32, 64):
            grids = TimeGrids(1.0, nt, 4)
            n = 3 * nt // 4 - 1
            coarse = [y(i * grids.dT) for i in range(n + 1)]
            fine = [y(n * grids.dT + j * grids.dt) for j in range(grids.m + 1)]
            t_eval = grids.fine_node(n, grids.m)
            errs.append(abs(discrete_caputo_hybrid(coarse, fine, grids, alpha) - dcap(t_eval)))
            dts.append(grids.dt)
        slope = fit_loglog(dts, errs)
        results.append(
            f"alpha={alpha}: slope {slope:.3f} vs target min(1+a, 2-a) = {target:.1f}+-0.2"
        )
        ok &= abs(slope - target) <= 0.2
    _line(2, "hybrid operator order at t = 3/4", ok, "; ".join(results))
    assert ok, "; ".join(results)


def test_criterion_03_spectral_exactness():
    rng = np.random.default_rng(1)
    worst_poly = 0.0
    worst_row = 0.0
    for degree in (4, 8, 16, 32):
        op = build_operator(degree, -1.0, 1.0)
        worst_row = max(worst_row, np.abs(op.d1.sum(axis=1)).max() / degree**2)
        for _ in range(10):
            poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=degree + 1))
            err = np.abs(op.d1 @ poly(op.nodes) - poly.deriv()(op.nodes)).max()
            worst_poly = max(worst_poly, err)
    ok = worst_poly <= 1e-8 and worst_row <= 1e-10
    _line(3, "spectral exactness", ok,
          f"poly error {worst_poly:.2e} <= 1e-8; row sums {worst_row:.2e} per N^2")
    assert ok


def test_criterion_04_m1_equivalence():
    problem = get_problem("paper42")
    op = build_operator(8, 0.0, 1.0)
    grids = TimeGrids(1.0, 64, 1)
    traj = run_coarse(problem, op, grids)
    worst = 0.0
    for n in range(64):
        endpoint, _ = fine_propagate(traj[n], traj[: n + 1], op, grids, problem)
        step = coarse_step(traj[: n + 1], op, grids, problem)
        worst = max(worst, float(np.abs(endpoint - step).max()))
    ok = worst <= 1e-12
    _line(4, "m = 1 equivalence", ok, f"worst endpoint gap {worst:.2e} over 64 intervals")
    assert ok


def test_criterion_05_finite_termination():
    problem = get_problem("linear-heat")
    op = build_operator(8, 0.0, 1.0)
    grids = TimeGrids(1.0, 8, 4)
    worst = 0.0
    for k in range(1, 9):
        worst = max(worst, exactness_check(problem, op, grids, k))
    ok = worst <= 1e-10
    _line(5, "finite termination", ok, f"worst node mismatch {worst:.2e} over k = 1..8")
    assert ok


def test_criterion_06_iteration_error_shape():
    problem = get_problem("paper42")
    op = build_operator(16, 0.0, 1.0)
    grids = TimeGrids(1.0, 64, 8)
    # the iteration's fine solution: the fine scheme applied sequentially
    fixed = chain_fine(problem, op, grids)
    _, report = _solve(problem, op, grids, tol=None, k_max=10, threads=2, reference=fixed)
    errs = report.errors_vs_reference
    drop = errs[1] / errs[6]
    plateau = all(errs[k + 1] <= 1.1 * errs[k] for k in range(6, len(errs) - 1))
    ok = drop >= 1e3 and plateau
    # the full-history reference saturates well above round-off
    full, _ = run_fine_sequential(problem, op, grids)
    gap = l2_norm(op, fixed[-1] - full[-1])
    ok &= gap > 1e-13
    _line(6, "iteration error shape", ok,
          f"drop k1->k6 {drop:.1f}x >= 1e3; plateau {plateau}; full-history floor {gap:.2e}")
    assert ok


def test_criterion_07_binomial_sum_tables():
    ok = True
    details = []
    for k in range(0, 13):
        p = BoundParams(1.0, 1.1, 1.001, 10, k)
        ok &= double_sum_bound(p) >= double_sum_exact(p) - 1e-12
        ok &= single_sum_bound(p) >= single_sum_exact(p) - 1e-12
        if k >= 10:
            ok &= single_sum_exact(p) == 0.0 and single_sum_bound(p) == 0.0
    sat = double_sum_exact(BoundParams(1.0, 1.1, 1.001, 10, 10))
    ok &= double_sum_exact(BoundParams(1.0, 1.1, 1.001, 10, 12)) == sat
    details.append("bounds dominate, single sums vanish from k = n, double sum saturates")
    hockey = all(
        single_sum_exact(BoundParams(1.0, 1.1, 1.0, n, k))
        == single_sum_bound(BoundParams(1.0, 1.1, 1.0, n, k))
        for n in range(1, 12)
        for k in range(0, n)
    )
    ok &= hockey
    details.append(f"hockey-stick equality at c = 1: {hockey}")
    _line(7, "binomial sum tables", ok, "; ".join(details))
    assert ok


def test_criterion_08_recurrence_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        p = BoundParams(
            a=float(rng.uniform(0.0, 2.0)),
            b=float(rng.uniform(0.0, 2.0)),
            c=float(rng.uniform(0.0, 2.0)),
            n=int(rng.integers(1, 21)),
            k=int(rng.integers(0, 21)),
            e0=float(rng.uniform(0.0, 2.0)),
        )
        brute = gronwall_brute(p)
        closed = gronwall_closed(p)
        worst = max(worst, abs(closed - brute) / max(1e-30, abs(brute)))
    sat_exact = all(
        gronwall_closed(BoundParams(1.3, 1.1, 1.2, 8, k, e0=0.7))
        == gronwall_closed(BoundParams(1.3, 1.1, 1.2, 8, 8, e0=0.7))
        for k in (8, 9, 12, 40)
    )
    ok = worst <= 1e-10 and sat_exact
    _line(8, "recurrence oracle equivalence", ok,
          f"worst relative gap {worst:.2e} over 200 draws; saturation exact: {sat_exact}")
    assert ok


def test_criterion_09_error_bound_domination():
    problem = get_problem("linear-heat")
    op = build_operator(8, 0.0, 1.0)
    grids = TimeGrids(1.0, 8, 4)
    reference, _ = run_fine_sequential(problem, op, TimeGrids(1.0, 8, 64))
    fixed = chain_fine(problem, op, grids)
    sweep0 = run_coarse(problem, op, grids)
    fine_err = max(l2_norm(op, reference[n] - fixed[n]) for n in range(1, 9))
    coarse_err = max(l2_norm(op, reference[n] - sweep0[n]) for n in range(1, 9))

    rng = np.random.default_rng(0)

    def fitted(propagate):
        worst = 0.0
        for n in (2, 4, 7):
            hist = fixed[: n + 1]
            for _ in range(8):
                delta = rng.normal(size=hist.shape) * 1e-6
                num = l2_norm(op, propagate(hist) - propagate(hist + delta))
                den = max(l2_norm(op, d) for d in delta)
                worst = max(worst, num / den)
        return max(1.1 * worst, 1.0 + 1e-9)

    consts = LipschitzConstants(
        c_coarse=fitted(lambda h: coarse_step(h, op, grids, problem)),
        c_fine=fitted(lambda h: fine_propagate(h[-1], h, op, grids, problem)[0]),
    )

    ok = True
    rows = []
    for k in range(0, 9):
        if k == 0:
            states = sweep0
        else:
            iterate, _ = _solve(problem, op, grids, tol=None, k_max=k, threads=1,
                                reference=None)
            states = iterate.states
        measured = max(l2_norm(op, reference[n] - states[n]) for n in range(9))
        bound = iteration_error_bound(consts, 8, k, fine_err, coarse_err)
        ok &= measured <= bound
        rows.append(f"k={k}: {measured:.1e}<={bound:.1e}")
    _line(9, "error bound domination", ok, "; ".join(rows[:3]) + "; ...")
    assert ok


@pytest.fixture(scope="module")
def measured_speedups():
    # bench_point's timing protocol (one discarded run, then the best of 2 timed
    # runs) without its allocation peaks, which criterion 10 does not read
    threads = min(4, os.cpu_count() or 1)
    problem = get_problem("paper42")
    op = build_operator(16, problem.a, problem.b)
    speedups = {}
    for dof in (2**10, 2**12, 2**13):
        grids = TimeGrids(problem.t_final, dof // 32, 32)
        wall_fine, _ = _best_time(lambda: run_fine_sequential(problem, op, grids), 2)
        wall_para, _ = _best_time(lambda: parareal_solve(problem, op, grids, tol=1e-10,
                                                         k_max=25, threads=threads), 2)
        speedups[dof] = wall_fine / wall_para
    return threads, speedups


def test_criterion_10_speedup_trend(measured_speedups):
    threads, speedups = measured_speedups
    slope = fit_loglog(list(speedups), list(speedups.values()))
    ok = speedups[2**13] > speedups[2**10] and slope > 0.0
    _line(10, "speedup trend", ok,
          f"threads={threads}; speedups {speedups}; fitted slope {slope:.2f}")
    assert ok


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="stated for hosts with at least 4 hardware threads")
def test_criterion_10_speedup_exceeds_one(measured_speedups):
    threads, speedups = measured_speedups
    ok = speedups[2**12] > 1.0 and speedups[2**13] > 1.0
    _line(10, "speedup exceeds one", ok, f"threads={threads}; speedups {speedups}")
    assert ok


def test_criterion_11_thread_determinism():
    problem = get_problem("paper42")
    op = build_operator(16, 0.0, 1.0)
    grids = TimeGrids(1.0, 32, 8)
    outcomes = {}
    for threads in (1, 2, 3, 8):
        iterate, _ = _solve(problem, op, grids, tol=1e-10, k_max=5, threads=threads,
                            reference=None)
        outcomes[threads] = iterate.states
    worst = max(float(np.abs(v - outcomes[1]).max()) for v in outcomes.values())
    ok = all(np.array_equal(v, outcomes[1]) for v in outcomes.values())
    _line(11, "thread determinism", ok,
          f"bitwise equal: {ok}, worst cross-thread deviation {worst:.2e} "
          f"over {sorted(outcomes)} threads")
    assert ok
