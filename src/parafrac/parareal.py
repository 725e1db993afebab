"""Parareal driver.

One iteration has two stages.  The parallel stage evaluates, for every
coarse interval independently, the fine endpoint and the coarse step from
the current iterate.  The sequential sweep then rebuilds the trajectory
with the correction ``U[n+1] = F_old(n) + (G_new(n) - G_old(n))``.

After ``k`` iterations, nodes ``0..k`` no longer change.  So in iteration
``k`` (counting from 0) intervals ``0..k-1`` start from the same nodes as
in the previous stage, and the stage marches the fine propagator only on
intervals ``s..nt-1``, ``s = min(k, nt-1)``; the fine endpoints of
intervals ``0..s-1`` stay from the previous stage, bit for bit what a new
march would give.  Both stages still take all ``nt`` coarse steps.

``threads`` counts the processes of the parallel stage: the caller plus
``threads - 1`` worker processes, started once per solve.  The intervals
``s..nt-1`` are split into contiguous blocks, ``threads`` of them or fewer
once fewer intervals are left; the caller marches block 0 and then every
coarse step, and each worker marches one of the other blocks.  The
workers are forked, which makes ``threads > 1`` Linux-only: they inherit
the problem, operator and grids, so callbacks need not be picklable, and
only the iterate goes out and each block's endpoints come back.  Starting
and stopping them costs 10 to 20 ms per solve on a 2-vCPU host.
``threads=1`` starts no process.

The iteration stops when the max-over-nodes L2 difference of successive
iterates drops below the tolerance, or after ``k_max`` iterations.
"""

from __future__ import annotations

import multiprocessing
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError
from .l1 import _is_integer
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
    """Run summary: stop reason, per-iteration diffs and timings.

    ``block_seconds[k]`` holds the fine-sweep wall time of every block of
    iteration ``k``'s parallel stage, each measured in the process that
    marched it.  Only marched intervals are timed: the blocks split
    intervals ``min(k, nt-1)..nt-1``, so there are
    ``min(threads, nt - min(k, nt-1))`` of them.  ``correction_seconds[k]``
    is the wall time of iteration ``k``'s sequential correction sweep.
    """

    iterations: int
    diffs: list
    stop_reason: str
    threads: int
    wall_time: float
    iteration_times: list = field(default_factory=list)
    errors_vs_reference: Optional[list] = None
    block_seconds: list = field(default_factory=list)
    correction_seconds: list = field(default_factory=list)


def _block_bounds(count, threads):
    """Contiguous, near-even split of ``range(count)`` into at most ``threads`` blocks."""
    blocks = min(threads, count)
    base, extra = divmod(count, blocks)
    cuts = [i * base + min(i, extra) for i in range(blocks + 1)]
    return list(zip(cuts, cuts[1:]))


_worker_inputs = None  # (op, grids, problem), set in each worker process


def _start_worker(op, grids, problem):
    global _worker_inputs
    _worker_inputs = (op, grids, problem)


def _workers(op, grids, problem, blocks):
    """Forked processes for blocks ``1..blocks-1``; none for one block."""
    if blocks == 1:
        return nullcontext()
    return ProcessPoolExecutor(blocks - 1, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(op, grids, problem))


def _sweep(u_nodes, lo, hi, op, grids, problem):
    """Fine endpoints of intervals ``lo..hi-1`` and the wall time of their sweep."""
    t0 = time.perf_counter()
    endpoints = fine_sweep_intervals(u_nodes, lo, hi, op, grids, problem)
    return endpoints, time.perf_counter() - t0


def _worker_sweep(u_nodes, lo, hi):
    return _sweep(u_nodes, lo, hi, *_worker_inputs)


def _parallel_stage(u_nodes, g_old, f_old, op, grids, problem, bounds, pool):
    """Fill ``f_old`` and ``g_old`` from ``u_nodes``; returns the block times.

    ``pool`` marches blocks ``bounds[1:]`` while the caller marches
    ``bounds[0]`` and then all coarse steps.  Each block's sweep names its
    first failing interval at its first failing substep (see
    :func:`~parafrac.stepping.fine_sweep_intervals`), and the blocks are
    collected in order, so the error raised is the one earliest in time, as
    :func:`~parafrac.stepping.chain_fine` reports it, for any thread count.
    A coarse-step error stands only if every block succeeded.
    """
    futures = [pool.submit(_worker_sweep, u_nodes, lo, hi) for lo, hi in bounds[1:]]
    lo, hi = bounds[0]
    f_old[lo:hi], seconds = _sweep(u_nodes, lo, hi, op, grids, problem)
    times = [seconds]
    try:
        for n in range(grids.nt):
            g_old[n] = coarse_step(u_nodes[: n + 1], op, grids, problem)
    finally:
        for (lo, hi), fut in zip(bounds[1:], futures):
            f_old[lo:hi], seconds = fut.result()
            times.append(seconds)
    return times


def _solve(problem, op, grids, tol, k_max, threads, reference):
    t0 = time.perf_counter()
    nt = grids.nt
    ni = op.interior_size

    u_curr = run_coarse(problem, op, grids)
    # blow-up guard scale; a zero initial state falls back to an absolute scale
    guard = DIVERGENCE_FACTOR * max(l2_norm(op, u_curr[0]), 1.0)

    report = PararealReport(iterations=0, diffs=[], stop_reason="k_max", threads=threads,
                            wall_time=0.0)
    if reference is not None:
        report.errors_vs_reference = [l2_norm(op, u_curr[nt] - reference[nt])]

    g_old = np.empty((nt, ni))
    f_old = np.empty((nt, ni))
    g_new = np.empty((nt, ni))
    with _workers(op, grids, problem, min(threads, nt)) as pool:
        for k in range(k_max):
            # intervals 0..s-1 start from the nodes the previous stage saw,
            # so their entries of f_old stand (see the module docstring)
            s = min(k, nt - 1)
            bounds = [(s + lo, s + hi) for lo, hi in _block_bounds(nt - s, threads)]
            report.block_seconds.append(
                _parallel_stage(u_curr, g_old, f_old, op, grids, problem, bounds, pool))

            sweep_t0 = time.perf_counter()
            u_next = np.empty_like(u_curr)
            u_next[0] = u_curr[0]
            for n in range(nt):
                g_new[n] = coarse_step(u_next[: n + 1], op, grids, problem)
                u_next[n + 1] = f_old[n] + (g_new[n] - g_old[n])
            report.correction_seconds.append(time.perf_counter() - sweep_t0)

            if not np.isfinite(u_next).all():
                bad = int(np.flatnonzero(~np.isfinite(u_next).all(axis=1))[0])
                raise DivergenceError(k, bad, "non-finite state after correction sweep")
            node_norms = [l2_norm(op, u_next[n]) for n in range(nt + 1)]
            if max(node_norms) > guard:
                bad = int(np.argmax(node_norms))
                raise DivergenceError(k, bad, "state norm exceeds divergence guard")

            diff = max(l2_norm(op, u_next[n] - u_curr[n]) for n in range(nt + 1))
            report.diffs.append(diff)
            report.iteration_times.append(time.perf_counter() - t0)
            if reference is not None:
                report.errors_vs_reference.append(l2_norm(op, u_next[nt] - reference[nt]))
            u_curr = u_next
            report.iterations = k + 1
            if tol is not None and diff < tol:
                report.stop_reason = "tol"
                break

    report.wall_time = time.perf_counter() - t0
    return PararealIterate(report.iterations, u_curr, g_new, g_old, f_old), report


def parareal_solve(problem, op, grids, tol=1e-10, k_max=20, threads=1, reference=None):
    """Run the parareal iteration; returns ``(iterate, report)``.

    ``reference`` (optional) is a trajectory from
    :func:`~parafrac.stepping.run_fine_sequential`; when given, the report
    carries the final-node error against it for every iterate, including
    the initial coarse sweep.
    """
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0:
        raise ValueError(f"tolerance must be a positive number, got {tol!r}")
    for name, count in (("k_max", k_max), ("threads", threads)):
        if not _is_integer(count) or count < 1:
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
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
    if not _is_integer(k) or not 0 <= k <= grids.nt:
        raise ValueError(f"iteration count k={k!r} must be an integer in 0..{grids.nt}")
    if k == 0:
        return 0.0
    fixed = chain_fine(problem, op, grids)
    iterate, _ = _solve(problem, op, grids, tol=None, k_max=int(k), threads=1, reference=None)
    return max(l2_norm(op, iterate.states[n] - fixed[n]) for n in range(k + 1))
