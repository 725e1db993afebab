"""Parareal driver.

One iteration has two stages.  The parallel stage evaluates, for every
coarse interval independently, the fine endpoint and the coarse step from
the current iterate (both read the shared iterate and write disjoint
slots, so intervals distribute over threads in contiguous blocks).  The
sequential sweep then rebuilds the trajectory with the correction
``U[n+1] = F_old(n) + (G_new(n) - G_old(n))``.

The iteration stops when the max-over-nodes L2 difference of successive
iterates drops below the tolerance, or after ``k_max`` iterations.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError, ParafracError
from .spectral import l2_norm
from .stepping import chain_fine, coarse_step, fine_sweep_intervals, run_coarse

__all__ = ["PararealIterate", "PararealReport", "exactness_check", "parareal_solve"]

DIVERGENCE_FACTOR = 1e12


@dataclass
class PararealIterate:
    """Iterate after the last correction sweep, with the propagator caches.

    The update identity ``states[n+1] == fine_endpoints[n] +
    (coarse_new[n] - coarse_old[n])`` holds by construction and can be
    re-asserted from these fields.
    """

    k: int
    states: np.ndarray
    coarse_new: np.ndarray
    coarse_old: np.ndarray
    fine_endpoints: np.ndarray


@dataclass
class PararealReport:
    """Run summary: stop reason, per-iteration diffs and timings."""

    iterations: int
    diffs: list
    stop_reason: str
    threads: int
    wall_time: float
    iteration_times: list = field(default_factory=list)
    errors_vs_reference: Optional[list] = None
    wall_time_reference: Optional[float] = None


def _block_bounds(count, threads):
    """Contiguous, near-even split of ``range(count)`` into at most ``threads`` blocks."""
    blocks = min(threads, count)
    base, extra = divmod(count, blocks)
    bounds = []
    lo = 0
    for i in range(blocks):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _parallel_stage(u_nodes, g_old, f_old, op, grids, problem, threads):
    def work(lo, hi):
        f_old[lo:hi] = fine_sweep_intervals(u_nodes, lo, hi, op, grids, problem)
        for n in range(lo, hi):
            g_old[n] = coarse_step(u_nodes[: n + 1], op, grids, problem, step_index=n)

    bounds = _block_bounds(grids.nt, threads)
    if len(bounds) == 1:
        work(*bounds[0])
        return
    with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
        futures = [pool.submit(work, lo, hi) for lo, hi in bounds]
    # which block fails first depends on the grouping; one block reports as 1 thread does
    if any(isinstance(fut.exception(), ParafracError) for fut in futures):
        work(0, grids.nt)
    for fut in futures:
        fut.result()


def _solve(problem, op, grids, tol, k_max, threads, reference):
    t0 = time.perf_counter()
    nt = grids.nt
    ni = op.interior_size

    u_curr = run_coarse(problem, op, grids)
    # blow-up guard scale; a zero initial state falls back to an absolute scale
    guard = DIVERGENCE_FACTOR * max(l2_norm(op, u_curr[0]), 1.0)

    diffs = []
    times = []
    errors = None
    if reference is not None:
        errors = [l2_norm(op, u_curr[nt] - reference[nt])]

    g_old = np.empty((nt, ni))
    f_old = np.empty((nt, ni))
    g_new = np.empty((nt, ni))
    stop_reason = "k_max"
    iterations = 0
    for k in range(k_max):
        _parallel_stage(u_curr, g_old, f_old, op, grids, problem, threads)

        u_next = np.empty_like(u_curr)
        u_next[0] = u_curr[0]
        for n in range(nt):
            g_new[n] = coarse_step(u_next[: n + 1], op, grids, problem, step_index=n)
            u_next[n + 1] = f_old[n] + (g_new[n] - g_old[n])

        if not np.isfinite(u_next).all():
            bad = int(np.flatnonzero(~np.isfinite(u_next).all(axis=1))[0])
            raise DivergenceError(k, bad, "non-finite state after correction sweep")
        node_norms = [l2_norm(op, u_next[n]) for n in range(nt + 1)]
        if max(node_norms) > guard:
            bad = int(np.argmax(node_norms))
            raise DivergenceError(k, bad, "state norm exceeds divergence guard")

        diff = max(l2_norm(op, u_next[n] - u_curr[n]) for n in range(nt + 1))
        diffs.append(diff)
        times.append(time.perf_counter() - t0)
        if errors is not None:
            errors.append(l2_norm(op, u_next[nt] - reference[nt]))
        u_curr = u_next
        iterations = k + 1
        if tol is not None and diff < tol:
            stop_reason = "tol"
            break

    iterate = PararealIterate(
        k=iterations,
        states=u_curr,
        coarse_new=g_new,
        coarse_old=g_old,
        fine_endpoints=f_old,
    )
    report = PararealReport(
        iterations=iterations,
        diffs=diffs,
        stop_reason=stop_reason,
        threads=threads,
        wall_time=time.perf_counter() - t0,
        iteration_times=times,
        errors_vs_reference=errors,
    )
    return iterate, report


def parareal_solve(problem, op, grids, tol=1e-10, k_max=20, threads=1, reference=None):
    """Run the parareal iteration; returns ``(iterate, report)``.

    ``reference`` (optional) is a trajectory from
    :func:`~parafrac.stepping.run_fine_sequential`; when given, the report
    carries the final-node error against it for every iterate, including
    the initial coarse sweep.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    want = (grids.nt + 1, op.interior_size)
    if reference is not None and np.shape(reference) != want:
        raise ValueError(f"reference has shape {np.shape(reference)}, expected {want}")
    return _solve(problem, op, grids, tol, int(k_max), int(threads), reference)


def exactness_check(problem, op, grids, k):
    """Distance of iterate ``k`` from the chained-fine fixed point.

    After ``k`` iterations the first ``k`` coarse nodes of the parareal
    iterate agree with the trajectory obtained by chaining the fine
    propagator sequentially (finite termination).  Returns the max L2
    mismatch over nodes ``0..k``.
    """
    if not 0 <= k <= grids.nt:
        raise ValueError(f"iteration count k={k} outside 0..{grids.nt}")
    if k == 0:
        return 0.0
    fixed = chain_fine(problem, op, grids)
    iterate, _ = _solve(problem, op, grids, tol=None, k_max=k, threads=1, reference=None)
    return max(l2_norm(op, iterate.states[n] - fixed[n]) for n in range(k + 1))
