"""Semi-implicit L1 marching schemes.

* :func:`run_coarse` and :func:`run_fine_sequential` are one full-history
  march, :func:`_full_march`, at two step widths: ``dT`` over the coarse
  nodes (the cheap sequential propagator) and ``dt`` over all fine nodes,
  kept at every ``m``-th (the expensive reference).  :func:`coarse_step`
  takes one step of that march on the history it is given.
* :func:`fine_propagate` marches one coarse interval on the fine subgrid,
  compressing everything before the interval through the coarse history
  with fractional-index weights (the parallelizable propagator).  It is a
  one-interval :func:`fine_sweep_intervals`, which runs :func:`_march` on
  a stack of interval starts, one chunk of at most ``STACK_CHUNK``
  intervals at a time; the two differ only in how they solve per-state
  systems.  Paths are stored substep-major (one row per substep); the
  coarse coupling of each substep waits in the path row it precedes until
  the substep's state overwrites it, so a march holds one path array, and a
  chunk's endpoints go into the sweep's result before the next chunk's
  march, so a process holds one chunk's path array and temporaries,
  whatever its block size.  An interval's history sum, assembly, system
  and solve do not depend on the other intervals, so the chunks leave the
  bits as they are.

Every step is :func:`_step`, on one state or a stack: ``A`` and ``f`` are
frozen at the previous state, so ``(I - gamma A) u = history + gamma f`` is
one dense solve; each march only builds its history sum.  On a stack whose
diffusion coefficient has no stack axis (it depends on neither ``u`` nor
``t``), ``A`` and ``I - gamma A`` are built once per substep and chunk,
factored once by LAPACK ``getrf`` with a small-pivot check, and each state
is solved against those factors, one right-hand side per ``getrs``, as a
single system is.  A stack of per-state systems (a coefficient that depends
on ``u`` or ``t``) goes to numpy's stacked ``linalg.solve``, which solves a
chunk's systems in one call instead of one call per system but hides its
pivots, so it is not pivot-checked.  Either way a state's solution is a
one-column LAPACK ``getrs`` against the ``getrf`` factors of its system, so
its bits do not depend on the other states in its chunk; a many-column
``getrs`` rounds differently.
The checked factor and solve call scipy's LAPACK ``dgetrf``/``dgetrs``
directly (:func:`lu_factor`, :func:`lu_solve`), which gives the bits of
scipy's ``lu_factor``/``lu_solve`` without their per-call argument
handling.  On one core of a 2-vCPU Xeon host, one BLAS thread, a
one-column solve at 63 unknowns took about 2 us raw and 10 us through
scipy's ``lu_solve``, and one coarse
step 74 us instead of 99 us (linear-heat, degree 64) and 33 us instead of
47 us (paper42, degree 16).  For 16 systems of 7x7 the stacked solve took
13 us, a loop of raw ``getrf``/``getrs`` 27 us and a loop of scipy's
wrappers 234 us.  An exact check per stacked system made 1-thread
parareal 1.3 to 7 times slower, and a solve picked by batch size would tie
results to the thread count.

States are vectors of interior collocation values; trajectories are arrays
of shape ``(nodes, interior)``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

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
# intervals per march in a sweep; bounds a process's path array and temporaries
STACK_CHUNK = 64


def initial_state(problem, op):
    """Initial condition sampled at the interior collocation nodes."""
    u0 = np.asarray(problem.initial(op.interior_nodes), dtype=float)
    return np.broadcast_to(u0, (op.interior_size,)).astype(float, copy=True)


def lu_factor(system):
    """``(lu, piv)`` of one matrix by LAPACK ``getrf``, the bits of ``scipy.linalg.lu_factor``.

    An exactly zero pivot (``info > 0``) is returned as it is, without
    scipy's warning; only an illegal argument (``info < 0``) raises.
    """
    lu, piv, info = dgetrf(system)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return lu, piv


def lu_solve(factors, rhs):
    """One right-hand side solved by LAPACK ``getrs`` against :func:`lu_factor`'s factors.

    The bits of ``scipy.linalg.lu_solve``.
    """
    return dgetrs(*factors, rhs)[0]


def _checked_factor(system, step):
    """LU factors of one matrix, partial pivoting; rejects singular or tiny pivots.

    The factors are LAPACK ``getrf``'s, called directly (:func:`lu_factor`),
    with the bits of scipy's ``lu_factor``.  An exactly zero pivot fails the
    pivot rule like any pivot of at most ``PIVOT_RTOL`` times the largest
    entry, whatever the warning filter.  A failure names ``step``.
    """
    try:
        lu, piv = lu_factor(system)
    except Exception as exc:
        raise SolverFailure(step, f"LU factorisation failed: {exc}") from exc
    scale = float(np.abs(system).max())
    pivot_min = float(np.abs(np.diag(lu)).min())
    if not np.isfinite(pivot_min) or pivot_min <= PIVOT_RTOL * scale:
        raise SolverFailure(step, "singular or ill-conditioned time-step system")
    return lu, piv


def _lu_solve_checked(system, rhs, step):
    """Dense LU solve with the pivot check of :func:`_checked_factor`.

    ``system`` is one matrix or a stack of one, ``rhs`` one state or a stack
    of states; the solution has the shape of ``rhs``.  The matrix is factored
    once by LAPACK ``getrf``, and each state of a stack is its own one-column
    ``getrs`` (:func:`lu_solve`): a many-column ``getrs`` rounds differently,
    which would tie the bits to the grouping.  A failure names ``step``.
    """
    factors = _checked_factor(system.reshape(system.shape[-2:]), step)
    if rhs.ndim == 1:
        out = lu_solve(factors, rhs)
    else:
        out = np.empty_like(rhs)
        for x, b in zip(out, rhs):
            x[...] = lu_solve(factors, b)
    if not np.isfinite(out).all():
        raise SolverFailure(step, "non-finite solution from linear solve")
    return out


def _stacked_solve(systems, rhs, step):
    """Stacked solve; a failure names ``step``.

    ``systems`` is one matrix shared by the right-hand sides, solved by
    :func:`_lu_solve_checked` from one checked factorisation, or one matrix
    per right-hand side, solved by ``linalg.solve`` without a pivot check.
    Both give each state the bits of its own LU solve.
    """
    if systems.ndim == 2:
        return _lu_solve_checked(systems, rhs, step)
    try:
        out = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(step, f"fine-sweep solve failed: {exc}") from exc
    if not np.isfinite(out).all():
        raise SolverFailure(step, "non-finite solution in fine sweep")
    return out


def _step(op, problem, u_prev, t_prev, gam, history, coupling, solve, step):
    """One semi-implicit step: solve ``(I - gam A) u = history + gam f + coupling``.

    ``A`` and ``f`` are frozen at ``(u_prev, t_prev)``: one state and time,
    or a stack of states and a column of times, with the matching ``solve``.
    On a stack (one chunk of a sweep), ``A`` and the system are one matrix
    when the coefficient has no stack axis (see :func:`assemble_diffusion`),
    else one per state.
    The system is built in the storage of the fresh ``A`` (scaled by
    ``-gam``, then 1.0 added on its diagonal), and ``history``, a fresh
    array, becomes the right-hand side in place.
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
    # the values of eye - gam * a_mat, built in A's storage
    a_mat *= -gam
    np.einsum("...ii->...i", a_mat)[...] += 1.0
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


def _history_stack(history, op, grids, name):
    """``history`` as float states of shape ``(nodes, interior)``; one state is one node.

    It holds at most ``grids.nt`` nodes, so no step starts at ``t_final``.
    """
    states = np.asarray(history, dtype=float)
    if states.ndim == 1:
        states = states[None, :]
    if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] != op.interior_size:
        raise ValueError(f"{name} must be a nonempty stack of interior-node states")
    if states.shape[0] > grids.nt:
        raise ValueError(f"{name} holds {states.shape[0]} nodes, more than nt = {grids.nt}")
    return states


def coarse_step(history, op, grids, problem):
    """One semi-implicit L1 step on the coarse grid.

    ``history`` holds the states at coarse nodes ``0..n``; returns the
    state at node ``n + 1``.  The diffusion matrix and the source are
    frozen at ``(U_n, T_n)``, so the quasilinear problem costs one dense
    solve per step.  A failure names step ``n``.
    """
    states = _history_stack(history, op, grids, "history")
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
    """Fine paths ``paths[r, i]`` at nodes ``(n[i], r)``, ``r = 0..m``, substep-major.

    ``n`` is a range of intervals, one chunk of a sweep, and ``start`` their
    stacked first states; ``hist`` (coarse states from node 0) enters
    through the coarse coupling, which waits in the path row it precedes
    until that substep's state replaces it.  Each substep is one history
    sum and one :func:`_step` on the whole stack, so a march holds one path
    array plus one substep's temporaries.  The ``b_{q/m}`` grid of the
    whole time grid and the fine weight rows are fetched first: the grids
    grow before the path array exists, and a process's grids do not depend
    on what it marched first.  A failure names ``(n.start, r)``.  The
    history is an ``einsum``: a BLAS gemv rounds a column by its place in
    the row, which would tie the bits to the grouping.
    """
    m = grids.m
    alpha = problem.alpha
    wt = weights_for(alpha)
    bq = wt.on_grid(m, (grids.nt - 1) * m + 1)
    rows = wt.fine_rows(m)
    paths = np.empty((m + 1,) + start.shape)
    paths[0] = start
    base_t = (np.arange(n.start, n.stop) * grids.dT)[:, None]
    for i, j in enumerate(n):
        _coarse_contribution(bq, hist[: j + 1], j, m, alpha, paths[1:, i])
    gam = _step_factor(grids.dt, problem.alpha)

    flat = paths.reshape(m + 1, -1)
    for r, row in enumerate(rows, 1):
        history = np.einsum("j,jk->k", row, flat[:r]).reshape(start.shape)
        paths[r] = _step(op, problem, paths[r - 1], base_t + (r - 1) * grids.dt, gam, history,
                         paths[r], solve, (n.start, r))
    return paths


def fine_propagate(start, coarse_history, op, grids, problem):
    """March the hybrid scheme across one coarse interval.

    ``start`` is the state at coarse node ``n`` and must equal the last
    entry of ``coarse_history`` (states at nodes ``0..n``).  Returns
    ``(endpoint, fine_path)`` where ``fine_path[r-1]`` is the state at fine
    node ``(n, r)`` and ``endpoint`` is the state at coarse node ``n + 1``.

    Only the coarse history plus the current interval's fine states enter
    each substep, which is what makes intervals independent of each other,
    so that separate processes can propagate them in any grouping.  It is a
    one-interval sweep with the checked solve, so callbacks see stacks of one.
    """
    hist = _history_stack(coarse_history, op, grids, "coarse_history")
    start = np.asarray(start, dtype=float)
    if start.shape != (op.interior_size,):
        raise ValueError("start must be a vector of interior-node values")
    n = hist.shape[0] - 1
    scale = max(1.0, float(np.abs(start).max()))
    if float(np.abs(hist[n] - start).max()) > START_MISMATCH_TOL * scale:
        raise ValueError("start state disagrees with the last coarse history entry")
    path = _march(start[None], hist, range(n, n + 1), op, grids, problem, _lu_solve_checked)
    return path[-1, 0].copy(), path[1:, 0].copy()


def fine_sweep_intervals(u_nodes, n_lo, n_hi, op, grids, problem):
    """Fine endpoints for the intervals ``n_lo..n_hi-1``, marched in chunks.

    The same interval march as :func:`fine_propagate`, one :func:`_march`
    per chunk of at most ``STACK_CHUNK`` intervals, with one stacked solve
    per substep; a chunk's endpoints are written into the one result array
    before the next chunk's path array exists.  Results do not depend on how intervals are grouped,
    which keeps the parallel driver deterministic for any thread count.
    When a chunk fails, the chunks before it have finished, so its
    intervals are marched again one at a time, in order: a failure names
    the first failing interval at its first failing substep, as
    :func:`chain_fine` reports it, however the intervals are grouped.
    """
    U = np.asarray(u_nodes)
    if U.ndim != 2:
        raise ValueError("u_nodes must be a stack of interior-node states")
    if not 0 <= n_lo < n_hi < U.shape[0]:
        raise ValueError(f"intervals {n_lo}..{n_hi - 1} outside the supplied coarse states")
    hist = _history_stack(U[:n_hi], op, grids, f"u_nodes[:{n_hi}]")
    ends = np.empty((n_hi - n_lo, op.interior_size))
    for lo in range(n_lo, n_hi, STACK_CHUNK):
        chunk = range(lo, min(lo + STACK_CHUNK, n_hi))
        try:
            ends[lo - n_lo : chunk.stop - n_lo] = _march(
                hist[chunk.start : chunk.stop], hist, chunk, op, grids, problem, _stacked_solve)[-1]
        except ParafracError:
            if len(chunk) > 1:
                for n in chunk:
                    fine_sweep_intervals(U, n, n + 1, op, grids, problem)
            raise
    return ends


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
