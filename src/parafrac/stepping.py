"""Semi-implicit L1 marching schemes.

* :func:`run_coarse` and :func:`run_fine_sequential` are one full-history
  march, :func:`_full_march`, at two step widths: ``dT`` over the coarse
  nodes (the cheap sequential propagator) and ``dt`` over all fine nodes,
  kept at every ``m``-th (the expensive reference).  :func:`coarse_step`
  takes one step of that march on the history it is given.
* :func:`fine_propagate` marches one coarse interval on the fine subgrid,
  compressing everything before the interval through the coarse history
  with fractional-index weights (the parallelizable propagator).  The same
  interval march, :func:`_march`, serves :func:`fine_sweep_intervals` on a
  stack of intervals.

Every step is :func:`_step`, on one state or a stack: ``A`` and ``f`` are
frozen at the previous state, so ``(I - gamma A) u = history + gamma f`` is
one dense solve; each march only builds its history sum.  Two solves stay
on purpose: scipy's LU with a small-pivot check for single systems, and
numpy's stacked ``linalg.solve`` for the sweep, which releases the GIL but
hides its pivots.  An exact check per stacked system made 1-thread
parareal 1.3 to 7 times slower, and a solve picked by batch size would tie
results to the thread count.

States are vectors of interior collocation values; trajectories are arrays
of shape ``(nodes, interior)``.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import SolverFailure
from .l1 import _telescoped, gamma_2_minus, weights_for
from .spectral import assemble_diffusion

__all__ = [
    "chain_fine",
    "coarse_step",
    "fine_propagate",
    "fine_sweep_intervals",
    "initial_state",
    "run_coarse",
    "run_fine_sequential",
]

PIVOT_RTOL = 1e-14
START_MISMATCH_TOL = 1e-10


@lru_cache(maxsize=32)
def _eye(size):
    out = np.eye(size)
    out.setflags(write=False)
    return out


def initial_state(problem, op):
    """Initial condition sampled at the interior collocation nodes."""
    u0 = np.asarray(problem.initial(op.interior_nodes), dtype=float)
    return np.broadcast_to(u0, (op.interior_size,)).astype(float, copy=True)


def _lu_solve_checked(system, rhs, step):
    """Dense LU with partial pivoting; rejects singular or tiny pivots."""
    try:
        lu, piv = lu_factor(system, check_finite=False)
    except Exception as exc:
        raise SolverFailure(step, f"LU factorisation failed: {exc}") from exc
    scale = float(np.abs(system).max())
    pivot_min = float(np.abs(np.diag(lu)).min())
    if not np.isfinite(pivot_min) or pivot_min <= PIVOT_RTOL * scale:
        raise SolverFailure(step, "singular or ill-conditioned time-step system")
    out = lu_solve((lu, piv), rhs, check_finite=False)
    if not np.isfinite(out).all():
        raise SolverFailure(step, "non-finite solution from linear solve")
    return out


def _stacked_solve(systems, rhs, step):
    """Stacked solve without a pivot check; ``step = (intervals, r)``.

    A failure names the first failing interval, not the block it is in.
    """
    intervals, r = step
    try:
        out = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        # numpy does not say which system failed; an exact zero pivot has sign 0
        bad = int(np.argmin(np.abs(np.linalg.slogdet(systems)[0])))
        raise SolverFailure((intervals[bad], r), f"fine-sweep solve failed: {exc}") from exc
    if not np.isfinite(out).all():
        bad = int(np.argmin(np.isfinite(out).all(axis=1)))
        raise SolverFailure((intervals[bad], r), "non-finite solution in fine sweep")
    return out


def _step(op, problem, u_prev, t_prev, width, history, coupling, solve, step):
    """One semi-implicit step: solve ``(I - gam A) u = history + gam f + coupling``.

    ``gam = width^alpha Gamma(2 - alpha)`` for a step of ``width``.  ``A`` and
    ``f`` are frozen at ``(u_prev, t_prev)``: one state and time, or a stack
    of states and a column of times, with the matching ``solve``.
    ``coupling`` may be ``None``; it is added last, which fixes the rounding.
    """
    gam = width**problem.alpha * gamma_2_minus(problem.alpha)
    a_mat = assemble_diffusion(op, u_prev, t_prev, problem)
    f = np.asarray(problem.source(op.interior_nodes, t_prev, u_prev), dtype=float)
    rhs = history + gam * np.broadcast_to(f, u_prev.shape)
    if coupling is not None:
        rhs += coupling
    # the same bits as eye - gam * a_mat, with one temporary fewer
    system = np.multiply(a_mat, -gam)
    system += _eye(op.interior_size)
    return solve(system, rhs, step)


def _full_step(states, n, b, tail, op, problem, width, step):
    """State at node ``n + 1`` from nodes ``0..n``; history ``b_n U_0 + tail[-n:] @ U[1..n]``.

    ``tail`` is ``_telescoped(b, N)[1:]`` for any ``N >= n``.
    """
    history = b[n] * states[0]
    if n:
        history += tail[-n:] @ states[1 : n + 1]
    return _step(op, problem, states[n], n * width, width, history, None,
                 _lu_solve_checked, step)


def _full_march(problem, op, width, count):
    """States at nodes ``0..count`` of the L1 march at step ``width``, full history."""
    b = weights_for(problem.alpha).on_grid(1, count + 1)
    tail = _telescoped(b, count)[1:]
    states = np.empty((count + 1, op.interior_size))
    states[0] = initial_state(problem, op)
    for n in range(count):
        states[n + 1] = _full_step(states, n, b, tail, op, problem, width, n)
    return states


def coarse_step(history, op, grids, problem, step_index=None):
    """One semi-implicit L1 step on the coarse grid.

    ``history`` holds the states at coarse nodes ``0..n``; returns the
    state at node ``n + 1``.  The diffusion matrix and the source are
    frozen at ``(U_n, T_n)``, so the quasilinear problem costs one dense
    solve per step.
    """
    states = np.asarray(history, dtype=float)
    if states.ndim == 1:
        states = states[None, :]
    if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != op.interior_size:
        raise ValueError("history must be a nonempty stack of interior-node states")
    n = states.shape[0] - 1
    if step_index is None:
        step_index = n
    b = weights_for(problem.alpha).on_grid(1, n + 1)
    return _full_step(states, n, b, _telescoped(b, n)[1:], op, problem, grids.dT, step_index)


def run_coarse(problem, op, grids):
    """Sequential coarse trajectory over all coarse nodes."""
    return _full_march(problem, op, grids.dT, grids.nt)


def _coarse_contribution(wt, hist, n, m, alpha):
    """History-side right-hand terms of the fine march, one row per substep.

    Row ``r-1`` carries the coarse-history bracket for target node
    ``(n, r)``: fractional-index weights applied to the coarse state
    increments, ``-m^-alpha sum_i b_{n-i+r/m} (U_i - U_{i-1})``.  The
    weight ``b_{(n-i)m+r over m}`` is a plain reshape of the cached weight
    grid, so the whole bracket is one matrix product.
    """
    ni = hist.shape[1]
    if n == 0:
        return np.zeros((m, ni))
    bq = wt.on_grid(m, n * m + 1)
    picks = bq[1 : n * m + 1].reshape(n, m)  # picks[j, r-1] = b_{(j m + r)/m}
    increments = hist[1:] - hist[:-1]
    return -(float(m) ** (-alpha)) * (picks.T @ increments[::-1])


def _march(start, hist, n, op, grids, problem, solve):
    """Fine paths ``paths[..., r, :]`` at nodes ``(n, r)``, ``r = 0..m``.

    ``n`` is one interval or a range, ``start`` the state(s) at node ``n``;
    ``hist`` (coarse states from node 0) enters through the coarse coupling.
    """
    m = grids.m
    alpha = problem.alpha
    wt = weights_for(alpha)
    rows = wt.fine_rows(m)
    if isinstance(n, range):
        base_t = (np.arange(n.start, n.stop) * grids.dT)[:, None]
        coupling = np.stack([_coarse_contribution(wt, hist[: j + 1], j, m, alpha) for j in n])
    else:
        base_t = n * grids.dT
        coupling = _coarse_contribution(wt, hist[: n + 1], n, m, alpha)

    paths = np.empty(start.shape[:-1] + (m + 1, op.interior_size))
    paths[..., 0, :] = start
    for r in range(1, m + 1):
        history = np.einsum("j,...js->...s", rows[r - 1], paths[..., :r, :])
        paths[..., r, :] = _step(op, problem, paths[..., r - 1, :],
                                 base_t + (r - 1) * grids.dt, grids.dt, history,
                                 coupling[..., r - 1, :], solve, (n, r))
    return paths


def fine_propagate(start, coarse_history, op, grids, problem):
    """March the hybrid scheme across one coarse interval.

    ``start`` is the state at coarse node ``n`` and must equal the last
    entry of ``coarse_history`` (states at nodes ``0..n``).  Returns
    ``(endpoint, fine_path)`` where ``fine_path[r-1]`` is the state at fine
    node ``(n, r)`` and ``endpoint`` is the state at coarse node ``n + 1``.

    Only the coarse history plus the current interval's fine states enter
    each substep, which is what makes intervals independent of each other
    and safe to propagate concurrently.
    """
    hist = np.asarray(coarse_history, dtype=float)
    if hist.ndim == 1:
        hist = hist[None, :]
    start = np.asarray(start, dtype=float)
    if hist.shape[1] != op.interior_size or start.shape != (op.interior_size,):
        raise ValueError("states must be vectors of interior-node values")
    n = hist.shape[0] - 1
    scale = max(1.0, float(np.abs(start).max()))
    if float(np.abs(hist[n] - start).max()) > START_MISMATCH_TOL * scale:
        raise ValueError("start state disagrees with the last coarse history entry")
    path = _march(start, hist, n, op, grids, problem, _lu_solve_checked)
    return path[-1].copy(), path[1:].copy()


def fine_sweep_intervals(u_nodes, n_lo, n_hi, op, grids, problem):
    """Fine endpoints for the intervals ``n_lo..n_hi-1``, marched together.

    The same interval march as :func:`fine_propagate`, on a stack of
    intervals with one stacked solve per substep.  Results do not depend on
    how intervals are grouped, which keeps the parallel driver deterministic
    for any thread count.  A failure names the first failing interval at the
    earliest failing substep of this group, so when several intervals fail
    the report depends on the grouping.
    """
    U = np.asarray(u_nodes)
    if n_hi - n_lo < 1 or n_hi > U.shape[0] - 1:
        raise ValueError("interval range outside the supplied coarse states")
    paths = _march(U[n_lo:n_hi], U, range(n_lo, n_hi), op, grids, problem, _stacked_solve)
    return paths[:, -1].copy()


def chain_fine(problem, op, grids):
    """Coarse-node trajectory of the fine propagator chained interval by interval.

    This is the fixed point the parareal correction converges to; it is not
    the same as :func:`run_fine_sequential`, which keeps the full fine
    history rather than the coarse-compressed one.
    """
    traj = np.empty((grids.nt + 1, op.interior_size))
    traj[0] = initial_state(problem, op)
    for n in range(grids.nt):
        traj[n + 1] = fine_propagate(traj[n], traj[: n + 1], op, grids, problem)[0]
    return traj


def run_fine_sequential(problem, op, grids):
    """Reference solver: L1 marching on the uniform fine grid, full history.

    Returns ``(states, seconds)`` where ``states`` are the trajectory values
    subsampled at the coarse nodes.  The history term grows with every step,
    which is exactly the quadratic-in-steps cost the parallel scheme avoids.
    """
    t0 = time.perf_counter()
    states = _full_march(problem, op, grids.dt, grids.total_fine)[:: grids.m].copy()
    return states, time.perf_counter() - t0
