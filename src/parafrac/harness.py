"""Measurement drivers behind the CLI.

A benchmark point times the sequential fine solver against the parareal
driver at matched degrees of freedom, and the truncation study measures
the pointwise error of the hybrid Caputo operator against analytic
derivatives on refinement sequences.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .l1 import TimeGrids, _is_integer, caputo_power, discrete_caputo_hybrid
from .parareal import _check_settings, parareal_solve
from .problems import get_problem
from .spectral import build_operator
from .stepping import run_fine_sequential

__all__ = [
    "BenchRecord",
    "TRUNCATION_FUNCTIONS",
    "TruncationStudy",
    "bench_point",
    "fit_loglog",
    "truncation_study",
]


def fit_loglog(x, y):
    """Least-squares slope of log(y) against log(x); NaN when underdetermined."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    good = (x > 0) & (y > 0)
    if good.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


# -- benchmark ---------------------------------------------------------------


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark point; allocation figures are tracemalloc peaks (approximate).

    ``peak_alloc_bytes_parareal_approx`` is always taken from a ``threads=1`` solve:
    tracemalloc cannot see the worker processes of ``threads > 1``.  Both
    peaks are taken after the timed runs, which have already built the
    weight grids a solve reads, so they leave out the grid growth of a cold
    first solve that perfbench's ``*_peak_mib`` includes.  Neither peak
    repeats exactly: the same solve traced twice, in one process or in two,
    differs by about 1%, so compare them only to that precision.  The
    fields are the columns of the ``parafrac bench`` CSV.
    """

    dof: int
    nt: int
    m: int
    degree: int
    threads: int
    wall_time_fine: float
    wall_time_parareal: float
    speedup: float
    iterations_used: int
    final_diff: float
    peak_alloc_bytes_fine_approx: int
    peak_alloc_bytes_parareal_approx: int


def _best_time(fn, reps):
    fn()  # discarded warm-up run
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _peak_alloc(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_point(problem_name, dof, *, alpha=None, t_final=None, degree=16, m=32, tol=1e-10,
                k_max=20, threads=1, reps=3):
    """Time both solvers at ``dof = nt * m`` fine steps and report the speedup.

    ``m`` is clipped to ``dof`` and ``nt = dof // m`` (the realised dof is
    recorded); ``alpha`` and ``t_final`` override the builtin problem's
    order and horizon.  Timing is the minimum over ``reps`` repetitions after
    one discarded run; the memory pass runs separately so tracing does not
    pollute the timings.  ``dof``, ``m`` and ``reps`` must be positive
    integers; ``tol``, ``k_max`` and ``threads`` follow
    :func:`~parafrac.parareal.parareal_solve`, and all of them are checked
    before any solve runs.
    """
    for name, count in (("dof", dof), ("m", m), ("reps", reps)):
        if not _is_integer(count) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    _check_settings(tol, k_max, threads)  # before the fine solver's timed runs
    m_eff = min(m, dof)
    nt = dof // m_eff
    problem = get_problem(problem_name, alpha=alpha, t_final=t_final)
    op = build_operator(degree, problem.a, problem.b)
    grids = TimeGrids(problem.t_final, nt, m_eff)

    def fine():
        return run_fine_sequential(problem, op, grids)

    def parallel(threads=threads):
        return parareal_solve(problem, op, grids, tol=tol, k_max=k_max, threads=threads)

    wall_fine, _ = _best_time(fine, reps)
    wall_para, (_, report) = _best_time(parallel, reps)
    peak_fine = _peak_alloc(fine)
    # tracemalloc sees the caller alone, so the peak is that of a solve run all in it
    peak_para = _peak_alloc(lambda: parallel(1))
    return BenchRecord(
        dof=nt * m_eff,
        nt=nt,
        m=m_eff,
        degree=degree,
        threads=threads,
        wall_time_fine=wall_fine,
        wall_time_parareal=wall_para,
        speedup=wall_fine / wall_para,
        iterations_used=report.iterations,
        final_diff=report.diffs[-1],
        peak_alloc_bytes_fine_approx=peak_fine,
        peak_alloc_bytes_parareal_approx=peak_para,
    )


# -- truncation study --------------------------------------------------------


# name -> alpha -> the powers p of t whose sum is the test function; each
# has the analytic Caputo derivative caputo_power(p, alpha, t)
TRUNCATION_FUNCTIONS = {
    "const": lambda alpha: (0.0,),
    "linear": lambda alpha: (1.0,),
    "root": lambda alpha: (0.5,),
    # the generic low-regularity profile: smooth part plus t^alpha layer
    "mixed": lambda alpha: (alpha, 1.0),
}


@dataclass(frozen=True)
class TruncationStudy:
    """Pointwise errors over ``(n, r)`` plus fitted orders per region.

    ``rows`` are ``(nt, dt, region, n, r, t, error)`` tuples; ``orders``
    maps region names (``n0``, ``n1``, ``n2plus``) to fitted log-log
    slopes of the error against the fine step.
    """

    rows: list
    orders: dict


def truncation_study(alpha, m, nt_list, function="mixed", t_final=1.0):
    """Hybrid-operator errors against the analytic derivative on an nt sweep.

    The ``n >= 2`` order is fitted at a fixed physical probe, the endpoint
    of interval ``3*nt//4 - 1``, which is ``3/4 * t_final`` when ``nt`` is a
    multiple of 4.  For other ``nt`` it is the last coarse node before
    ``3/4 * t_final``, so a sweep mixing such ``nt`` probes drifting times.
    The probe interval is never below 2: for ``nt = 3`` it ends at
    ``t_final``, and for ``nt < 3`` there is none and the probe error is
    nan.  The near-origin regions are fitted at their per-level maxima.
    A sweep with fewer than two distinct levels raises ``ValueError``.
    """
    try:
        powers = TRUNCATION_FUNCTIONS[function](alpha)
    except KeyError:
        raise ValueError(
            f"unknown test function {function!r}; choices: {', '.join(sorted(TRUNCATION_FUNCTIONS))}"
        ) from None

    def y(t):
        return sum(t**p for p in powers)

    def dy(t):
        return sum(caputo_power(p, alpha, t) for p in powers)

    if len(set(nt_list)) < 2:
        raise ValueError("truncation sweep needs at least two distinct nt levels to fit an order")

    rows = []
    dts, max_n0, max_n1, probes = [], [], [], []
    for nt in nt_list:
        grids = TimeGrids(t_final, nt, m)
        probe_n = max(2, (3 * nt) // 4 - 1)
        worst_n0 = worst_n1 = 0.0
        probe_err = None
        for n in range(grids.nt):
            coarse = [y(i * grids.dT) for i in range(n + 1)]
            for r in range(1, grids.m + 1):
                fine = [y(n * grids.dT + jj * grids.dt) for jj in range(r + 1)]
                t = grids.fine_node(n, r)
                err = abs(discrete_caputo_hybrid(coarse, fine, grids, alpha) - dy(t))
                region = "n0" if n == 0 else ("n1" if n == 1 else "n2plus")
                rows.append((nt, grids.dt, region, n, r, t, err))
                if n == 0 and r >= 2:
                    worst_n0 = max(worst_n0, err)
                elif n == 1:
                    worst_n1 = max(worst_n1, err)
                if n == probe_n and r == grids.m:
                    probe_err = err
        dts.append(grids.dt)
        max_n0.append(worst_n0)
        max_n1.append(worst_n1)
        probes.append(probe_err if probe_err is not None else float("nan"))

    orders = {
        "n0": fit_loglog(dts, max_n0),
        "n1": fit_loglog(dts, max_n1),
        "n2plus": fit_loglog(dts, probes),
    }
    return TruncationStudy(rows=rows, orders=orders)
