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
  stack of intervals, with paths stored substep-major (one row per substep).
  The coarse coupling of each substep waits in the path row it precedes
  until the substep's state overwrites it, so a sweep holds one array.

Every step is :func:`_step`, on one state or a stack: ``A`` and ``f`` are
frozen at the previous state, so ``(I - gamma A) u = history + gamma f`` is
one dense solve; each march only builds its history sum.  On a stack whose
diffusion coefficient has no stack axis (it depends on neither ``u`` nor
``t``), ``A`` and ``I - gamma A`` are built once per substep and the solve
broadcasts that one system over the stack.  Two solves stay
on purpose: scipy's LU with a small-pivot check for single systems, and
numpy's stacked ``linalg.solve`` for the sweep, which solves a block's
systems in one call instead of one call per system but hides its pivots.
For 16 systems of 7x7 on one core of a Xeon host the stacked solve took
25 us, a loop of raw LAPACK ``getrf``/``getrs`` 54 us and a loop of scipy
``lu_factor``/``lu_solve`` 374 us.  An exact check per stacked system made
1-thread parareal 1.3 to 7 times slower, and a solve picked by batch size
would tie results to the thread count.

States are vectors of interior collocation values; trajectories are arrays
of shape ``(nodes, interior)``.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import ParafracError, SolverFailure
from .l1 import _step_factor, _telescoped, weights_for
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

    ``systems`` is one matrix per right-hand side, or one matrix that
    ``linalg.solve`` broadcasts over them; it still factors a copy per
    right-hand side, so the bits are those of the stacked systems.  A
    failure names ``(intervals[0], r)``, the first interval of the stack,
    which is exact for a one-interval stack; :func:`fine_sweep_intervals`
    lets no other label through.
    """
    label = (step[0][0], step[1])
    try:
        out = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(label, f"fine-sweep solve failed: {exc}") from exc
    if not np.isfinite(out).all():
        raise SolverFailure(label, "non-finite solution in fine sweep")
    return out


def _step(op, problem, u_prev, t_prev, gam, history, coupling, solve, step):
    """One semi-implicit step: solve ``(I - gam A) u = history + gam f + coupling``.

    ``A`` and ``f`` are frozen at ``(u_prev, t_prev)``: one state and time,
    or a stack of states and a column of times, with the matching ``solve``.
    On a stack, ``A`` and the system are one matrix when the coefficient has
    no stack axis (see :func:`assemble_diffusion`), else one per state.
    The system is built in the storage of the fresh ``A``, and ``history``,
    a fresh array, becomes the right-hand side in place.
    ``coupling`` may be ``None``; it is added last, which fixes the rounding,
    and read before the caller stores the result, so it may be the path row
    the result goes to.
    """
    a_mat = assemble_diffusion(op, u_prev, t_prev, problem)
    f = np.asarray(problem.source(op.interior_nodes, t_prev, u_prev), dtype=float)
    rhs = history
    rhs += gam * f
    if coupling is not None:
        rhs += coupling
    # the same bits as eye - gam * a_mat, built in A's storage
    a_mat *= -gam
    a_mat += _eye(op.interior_size)
    return solve(a_mat, rhs, step)


def _full_step(states, n, b, tail, op, problem, width, gam):
    """State at node ``n + 1`` from nodes ``0..n``; history ``b_n U_0 + tail[-n:] @ U[1..n]``.

    ``tail`` is ``_telescoped(b, N)[1:]`` for any ``N >= n``.
    """
    history = b[n] * states[0]
    if n:
        history += tail[-n:] @ states[1 : n + 1]
    return _step(op, problem, states[n], n * width, gam, history, None, _lu_solve_checked, n)


def _full_march(problem, op, width, count):
    """States at nodes ``0..count`` of the L1 march at step ``width``, full history."""
    b = weights_for(problem.alpha).on_grid(1, count + 1)
    tail = _telescoped(b, count)[1:]
    gam = _step_factor(width, problem.alpha)
    states = np.empty((count + 1, op.interior_size))
    states[0] = initial_state(problem, op)
    for n in range(count):
        states[n + 1] = _full_step(states, n, b, tail, op, problem, width, gam)
    return states


def _history_stack(history, op, name):
    """``history`` as float states of shape ``(nodes, interior)``; one state is one node."""
    states = np.asarray(history, dtype=float)
    if states.ndim == 1:
        states = states[None, :]
    if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != op.interior_size:
        raise ValueError(f"{name} must be a nonempty stack of interior-node states")
    return states


def coarse_step(history, op, grids, problem):
    """One semi-implicit L1 step on the coarse grid.

    ``history`` holds the states at coarse nodes ``0..n``; returns the
    state at node ``n + 1``.  The diffusion matrix and the source are
    frozen at ``(U_n, T_n)``, so the quasilinear problem costs one dense
    solve per step.  A failure names step ``n``.
    """
    states = _history_stack(history, op, "history")
    n = states.shape[0] - 1
    b = weights_for(problem.alpha).on_grid(1, n + 1)
    return _full_step(states, n, b, _telescoped(b, n)[1:], op, problem, grids.dT,
                      _step_factor(grids.dT, problem.alpha))


def run_coarse(problem, op, grids):
    """Sequential coarse trajectory over all coarse nodes."""
    return _full_march(problem, op, grids.dT, grids.nt)


def _coarse_contribution(bq, hist, n, m, alpha, out):
    """Write the history-side right-hand terms of the fine march into ``out``.

    ``out`` is the interval's path rows ``1..m``: row ``r`` waits there as
    the coarse-history bracket for target node ``(n, r)`` until substep
    ``r`` overwrites it with its state.  The bracket applies
    fractional-index weights to the coarse state increments,
    ``-m^-alpha sum_i b_{n-i+r/m} (U_i - U_{i-1})``.  ``bq`` is the march's
    weight grid ``b_{q/m}`` for at least ``q = 0..n*m``; the weight
    ``b_{(n-i)m+r over m}`` is a plain reshape of it, so the whole bracket
    is one matrix product.
    """
    picks = bq[1 : n * m + 1].reshape(n, m)  # picks[j, r-1] = b_{(j m + r)/m}
    increments = hist[1:] - hist[:-1]
    np.multiply(-(float(m) ** (-alpha)), picks.T @ increments[::-1], out=out)


def _march(start, hist, n, op, grids, problem, solve):
    """Fine paths ``paths[r]`` at nodes ``(n, r)``, ``r = 0..m``, substep-major.

    ``n`` is one interval or a range and ``start`` the state(s) at node
    ``n``; ``hist`` (coarse states from node 0) enters through the coarse
    coupling, which waits in the path row it precedes: row ``r`` holds
    substep ``r``'s coupling until that substep's state replaces it, so a
    sweep holds one array.  The weight tables come first: one grid lookup
    for the last interval serves every interval of the march, and a grid
    that has to grow does so before the path array exists.  The history is
    an ``einsum``: a BLAS gemv rounds a column by its place in the row,
    which would tie the bits to the grouping.
    """
    m = grids.m
    alpha = problem.alpha
    wt = weights_for(alpha)
    last = n[-1] if isinstance(n, range) else n
    bq = wt.on_grid(m, last * m + 1)
    rows = wt.fine_rows(m)
    paths = np.empty((m + 1,) + start.shape)
    paths[0] = start
    if isinstance(n, range):
        base_t = (np.arange(n.start, n.stop) * grids.dT)[:, None]
        for i, j in enumerate(n):
            _coarse_contribution(bq, hist[: j + 1], j, m, alpha, paths[1:, i])
    else:
        base_t = n * grids.dT
        _coarse_contribution(bq, hist[: n + 1], n, m, alpha, paths[1:])
    gam = _step_factor(grids.dt, problem.alpha)

    flat = paths.reshape(m + 1, -1)
    for r, row in enumerate(rows, 1):
        history = np.einsum("j,jk->k", row, flat[:r]).reshape(start.shape)
        paths[r] = _step(op, problem, paths[r - 1], base_t + (r - 1) * grids.dt, gam,
                         history, paths[r], solve, (n, r))
    return paths


def fine_propagate(start, coarse_history, op, grids, problem):
    """March the hybrid scheme across one coarse interval.

    ``start`` is the state at coarse node ``n`` and must equal the last
    entry of ``coarse_history`` (states at nodes ``0..n``).  Returns
    ``(endpoint, fine_path)`` where ``fine_path[r-1]`` is the state at fine
    node ``(n, r)`` and ``endpoint`` is the state at coarse node ``n + 1``.

    Only the coarse history plus the current interval's fine states enter
    each substep, which is what makes intervals independent of each other,
    so that separate processes can propagate them in any grouping.
    """
    hist = _history_stack(coarse_history, op, "coarse_history")
    start = np.asarray(start, dtype=float)
    if start.shape != (op.interior_size,):
        raise ValueError("start must be a vector of interior-node values")
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
    for any thread count.  When a stack of several intervals fails, they are
    marched again one at a time, in order, so a failure names the first
    failing interval at its first failing substep, as :func:`chain_fine`
    reports it, however the intervals are grouped.
    """
    U = np.asarray(u_nodes)
    if U.ndim != 2 or U.shape[1] != op.interior_size:
        raise ValueError("u_nodes must be a stack of interior-node states")
    if not 0 <= n_lo < n_hi < U.shape[0]:
        raise ValueError(f"intervals {n_lo}..{n_hi - 1} outside the supplied coarse states")
    try:
        paths = _march(U[n_lo:n_hi], U, range(n_lo, n_hi), op, grids, problem, _stacked_solve)
    except ParafracError:
        if n_hi - n_lo > 1:
            for n in range(n_lo, n_hi):
                fine_sweep_intervals(U, n, n + 1, op, grids, problem)
        raise
    return paths[-1].copy()


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
