#!/usr/bin/env python3
"""Check that two source trees of parafrac compute the same bits.

Usage, from anywhere::

    python3 tools/bitcheck.py PARENT_SRC CHANGE_SRC

Each argument is a checkout of the repository (or its ``src`` directory).
Every tree runs in its own subprocess, which imports ``parafrac`` from that
tree, runs the solvers on a fixed list of configurations and saves every
result array with ``np.savez``.  The two archives are then compared by
:func:`compare`: every array present in both is checked with
``np.array_equal``, a NaN in a float array matching a NaN, and each
mismatch is printed with its largest absolute difference, as is each name
present on one side only.  The script ends with a count and exits 1 if
anything differs.

Covered, on the configurations in ``CONFIGS`` and on two custom problems
whose diffusion coefficient varies in ``x`` alone or in ``t`` alone (so a
stacked sweep assembles one matrix for all its intervals, or one per
interval): ``run_coarse``, ``run_fine_sequential``, ``chain_fine``,
``fine_propagate`` (endpoint and path of intervals 0, 1, nt/2 and nt-1),
``fine_sweep_intervals`` (all intervals, and 1..nt-2) and
``parareal_solve`` at threads 1, 2, 3 and 8 (states, the three caches,
diffs, errors against the reference and the iteration count).  A sweep
marches its intervals in chunks of 64, and every assembly shape crosses
a chunk boundary: one matrix per state on ``quasilinear-8k``
(``D = 1 + u``), a scalar ``D`` on ``constant-D-n8-nt80-m2``, and ``1 + x``
and ``1 + t`` on the custom problems at ``nt = 80``.  Failure paths are
covered too: on five failing problems (a NaN source inside one interval,
NaN sources in two intervals, a NaN source inside interval 70 of 80, past
the first chunk of a one-process sweep, a NaN source in both chunks of
that sweep, inside interval 10 from its second substep and, for the fine
march alone, in interval 70 from its first, and a fine system that is
singular up to rounding) the outcome of ``chain_fine``,
``run_fine_sequential`` and ``parareal_solve`` at each thread count is
saved as a string, the exception type with its location.  The
calculators are covered on valid inputs: ``lipschitz_coarse`` and
``lipschitz_fine`` over a fixed grid of steps, orders, constants, ``m``
and ``r``; ``gronwall_brute``, ``gronwall_closed``,
the four binomial sums and ``iteration_error_bound`` on the inputs of
acceptance criteria 07 and 08 and on fixed constants at ``n = 8``; and the
``truncation_study`` rows and orders of every test function.  The assembly
kernel is covered on its own, so that a change in its bits is reported
under its own name: ``assemble_diffusion`` at degrees 8, 16 and 64 on one
state with ``D = 1 + u`` (``assembly:n<degree>:state``), on a stack of 5
states with ``D = 1 + u`` (``:stack``), on that stack with a column of
times and ``D = 1 + t`` (``:time-column``) and on that stack with a scalar
``D`` (``:scalar``).  So is the checked dense solve,
``stepping._lu_solve_checked``: the linear-heat system ``I - gamma A``
(``gamma`` the L1 step factor of a step of 1/64, ``A`` assembled at the
initial state) at degrees 8, 16 and 64, 7, 15 and 63 unknowns, solved for
one state (``solve:n<degree>:state``) and for a stack of 5 states
(``:stack``).  So are the two L1 weight grids a solve reads, for
every configuration and custom problem: ``b_{q/m}`` for
``q = 0..(nt-1)m`` (``weights:<config>:m``), which the fine propagator
applies to the coarse history, and ``b_q`` for ``q = 0..nt m``
(``weights:<config>:1``), which the full-history marches and the fine
rows use; a change to the weight formula or to how the grids grow is then
reported under its own name.  BLAS is pinned to one thread in the subprocesses.
Only numpy and the standard library are used; a run takes a minute or two
on a 2-vCPU host.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

THREADS = (1, 2, 3, 8)

# (label, problem, degree, nt, m, tol, k_max); tol None runs a fixed k_max
CONFIGS = (
    ("quasilinear-8k", "paper42", 16, 256, 32, 1e-10, 25),
    ("long-history-16k", "paper42", 8, 32, 512, 1e-10, 25),
    ("wide-linear-2k", "linear-heat", 64, 64, 32, 1e-10, 25),
    ("paper42-n16-nt30-m6", "paper42", 16, 30, 6, 1e-10, 25),
    ("linear-heat-n12-nt7-m5", "linear-heat", 12, 7, 5, 1e-10, 25),
    ("paper42-n8-nt4-m4-k6", "paper42", 8, 4, 4, None, 6),
    ("constant-D-n16-nt16-m8", "constant-D", 16, 16, 8, 1e-10, 25),
    ("constant-D-n8-nt80-m2", "constant-D", 8, 80, 2, 1e-10, 25),
)


def _custom_problems(pf):
    """``(label, problem, degree, nt, m, tol, k_max)`` for coefficients on one side of a stack.

    ``D = 1 + x`` has one value per node, so a stacked sweep assembles one
    matrix for all its intervals; ``D = 1 + t`` has one value per interval,
    so it assembles one matrix per interval.  Each runs at ``nt = 8`` and at
    ``nt = 80``, where a stack of all intervals spans two chunks of a march.
    """
    from parafrac.problems import ProblemSpec, decaying_sine_source

    def sine(x):
        return np.sin(np.pi * np.asarray(x))

    x_only = ProblemSpec(0.0, 1.0, 1.0, 0.5, lambda x, t, u: 1.0 + x, decaying_sine_source, sine)
    t_only = ProblemSpec(0.0, 1.0, 1.0, 0.5, lambda x, t, u: 1.0 + t, decaying_sine_source, sine)
    return (
        ("x-only-n8-nt8-m4", x_only, 8, 8, 4, 1e-10, 25),
        ("t-only-n8-nt8-m4", t_only, 8, 8, 4, 1e-10, 25),
        ("x-only-n8-nt80-m2", x_only, 8, 80, 2, 1e-10, 25),
        ("t-only-n8-nt80-m2", t_only, 8, 80, 2, 1e-10, 25),
    )


def _failing_problems(pf):
    """``(label, problem, op, grids)`` for the failing problems of the test suite."""
    from parafrac.l1 import gamma_2_minus
    from parafrac.problems import ProblemSpec

    def sine(x):
        return np.sin(np.pi * np.asarray(x))

    def one_interval(x, t, u):  # NaN strictly inside interval 5 of 8
        return np.where((t > 5 / 8) & (t < 6 / 8), np.nan, 0.0) + 0.0 * u

    def two_intervals(x, t, u):  # interval 2 from substep 4, interval 6 from substep 2
        bad = ((t > 2 / 8 + 2.5 / 32) & (t < 3 / 8)) | ((t > 6 / 8 + 0.5 / 32) & (t < 7 / 8))
        return np.where(bad, np.nan, 0.0) + 0.0 * u

    def past_first_chunk(x, t, u):  # NaN strictly inside interval 70 of 80
        return np.where((t > 70 / 80) & (t < 71 / 80), np.nan, 0.0) + 0.0 * u

    def two_chunks(x, t, u):  # interval 10 from substep 2; 70 from substep 1, fine march only
        fine_only = (np.ndim(u) == 2) & (t > 69.75 / 80) & (t < 71 / 80)
        bad = ((t > 10 / 80) & (t < 11 / 80)) | fine_only
        return np.where(bad, np.nan, 0.0) + 0.0 * u

    def unit(x, t, u):
        return 1.0

    op = pf.build_operator(8, 0.0, 1.0)
    grids = pf.TimeGrids(1.0, 8, 4)
    # constant D = 1/(gamma_fine mu_1) makes the fine system singular up to rounding
    near = pf.TimeGrids(1.0, 4, 4)
    eig = np.linalg.eigvals(op.d2[1:-1, 1:-1])
    mu1 = eig[np.argmin(np.abs(eig))].real
    diff = 1.0 / (near.dt**0.5 * gamma_2_minus(0.5) * mu1)
    return (
        ("nan-one-interval", ProblemSpec(0.0, 1.0, 1.0, 0.5, unit, one_interval, sine), op,
         grids),
        ("nan-two-intervals", ProblemSpec(0.0, 1.0, 1.0, 0.5, unit, two_intervals, sine), op,
         grids),
        ("near-singular-fine", ProblemSpec(0.0, 1.0, 1.0, 0.5, lambda x, t, u: diff,
                                           lambda x, t, u: 0.0, sine), op, near),
        ("nan-past-first-chunk", ProblemSpec(0.0, 1.0, 1.0, 0.5, unit, past_first_chunk, sine),
         op, pf.TimeGrids(1.0, 80, 2)),
        ("nan-two-chunks", ProblemSpec(0.0, 1.0, 1.0, 0.5, unit, two_chunks, sine), op,
         pf.TimeGrids(1.0, 80, 2)),
    )


def _calculators(pf):
    """Name -> array of the bound calculators and the truncation study, valid inputs only."""
    from parafrac.harness import TRUNCATION_FUNCTIONS, truncation_study

    arrays = {}
    coarse, fine = [], []
    for dT in (1 / 2, 1 / 10, 1 / 64):
        for alpha in (0.2, 0.5, 1.0):
            for c_diff in (0.0, 0.7):
                for l_f in (0.0, 0.3):
                    coarse.append(pf.lipschitz_coarse(dT, alpha, c_diff, l_f))
                    for m in (1, 2, 8):
                        for r in (None, 1, m):
                            fine.append(pf.lipschitz_fine(dT, dT / m, m, alpha, c_diff, l_f, r))
    arrays["bounds:lipschitz_coarse"] = np.array(coarse)
    arrays["bounds:lipschitz_fine"] = np.array(fine)

    rng = np.random.default_rng(1234)  # criterion 08's draws
    params = [pf.BoundParams(1.0, 1.1, 1.001, 10, k) for k in range(13)]
    params += [pf.BoundParams(1.0, 1.1, 1.0, n, k) for n in range(1, 12) for k in range(n)]
    params += [pf.BoundParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)),
                              float(rng.uniform(0.0, 2.0)), int(rng.integers(1, 21)),
                              int(rng.integers(0, 21)), float(rng.uniform(0.0, 2.0)))
               for _ in range(200)]
    params += [pf.BoundParams(1.3, 1.1, 1.2, 8, k, e0=0.7) for k in (8, 9, 12, 40)]
    for fn in (pf.gronwall_brute, pf.gronwall_closed, pf.double_sum_exact,
               pf.double_sum_bound, pf.single_sum_exact, pf.single_sum_bound):
        arrays[f"bounds:{fn.__name__}"] = np.array([fn(p) for p in params])
    arrays["bounds:iteration_error_bound"] = np.array([
        pf.iteration_error_bound(pf.LipschitzConstants(cc, cf), 8, k, fine_err, coarse_err)
        for cc, cf in ((1.2, 1.5), (1.05, 1.4))
        for fine_err, coarse_err in ((1e-4, 1e-2), (0.0, 1e-3))
        for k in range(9)
    ])

    for function in sorted(TRUNCATION_FUNCTIONS):
        study = truncation_study(0.5, 4, (8, 16), function=function)
        key = f"truncation:{function}"
        arrays[f"{key}:rows"] = np.array([(nt, dt, n, r, t, err)
                                          for nt, dt, _, n, r, t, err in study.rows])
        arrays[f"{key}:regions"] = np.array([row[2] for row in study.rows])
        arrays[f"{key}:orders"] = np.array([study.orders[k] for k in sorted(study.orders)])
    return arrays


def _assembly(pf):
    """Name -> ``assemble_diffusion`` output for a state, a stack, a time column and a scalar ``D``."""
    from parafrac.problems import ProblemSpec

    def problem(diffusion):
        return ProblemSpec(0.0, 1.0, 1.0, 0.5, diffusion, lambda x, t, u: 0.0,
                           lambda x: 0.0 * np.asarray(x))

    quasilinear = problem(lambda x, t, u: 1.0 + u)
    times = np.linspace(0.1, 0.5, 5)[:, None]
    arrays = {}
    for degree in (8, 16, 64):
        op = pf.build_operator(degree, 0.0, 1.0)
        states = np.random.default_rng(degree).standard_normal((5, op.interior_size))
        key = f"assembly:n{degree}"
        arrays[f"{key}:state"] = pf.assemble_diffusion(op, states[0], 0.3, quasilinear)
        arrays[f"{key}:stack"] = pf.assemble_diffusion(op, states, 0.3, quasilinear)
        arrays[f"{key}:time-column"] = pf.assemble_diffusion(
            op, states, times, problem(lambda x, t, u: 1.0 + t))
        arrays[f"{key}:scalar"] = pf.assemble_diffusion(
            op, states, 0.3, problem(lambda x, t, u: 2.5))
    return arrays


def _solves(pf):
    """Name -> checked dense solve of ``I - gamma A`` for one state and a stack of 5."""
    from parafrac.l1 import _step_factor
    from parafrac.stepping import _lu_solve_checked

    problem = pf.get_problem("linear-heat")
    gam = _step_factor(1 / 64, problem.alpha)
    arrays = {}
    for degree in (8, 16, 64):
        op = pf.build_operator(degree, problem.a, problem.b)
        a_mat = pf.assemble_diffusion(op, pf.initial_state(problem, op), 0.0, problem)
        system = np.eye(op.interior_size) - gam * a_mat
        states = np.random.default_rng(degree).standard_normal((5, op.interior_size))
        key = f"solve:n{degree}"
        arrays[f"{key}:state"] = _lu_solve_checked(system, states[0], 0)
        arrays[f"{key}:stack"] = _lu_solve_checked(system, states, 0)
    return arrays


def _outcome(fn):
    """``"ok"``, or the exception type with the location fields it carries."""
    try:
        fn()
    except Exception as exc:
        where = [f"{name}={getattr(exc, name)!r}" for name in
                 ("step", "iteration", "interval", "node_index") if hasattr(exc, name)]
        return np.array(" ".join([type(exc).__name__, *where]))
    return np.array("ok")


def _dump(out):
    """Run every configuration with the ``parafrac`` on ``sys.path``; save to ``out``."""
    import parafrac as pf
    from parafrac.l1 import weights_for
    from parafrac.parareal import _solve
    from parafrac.stepping import fine_sweep_intervals

    arrays = {}
    configs = [(label, pf.get_problem(name), *rest) for label, name, *rest in CONFIGS]
    for label, problem, degree, nt, m, tol, k_max in configs + list(_custom_problems(pf)):
        op = pf.build_operator(degree, problem.a, problem.b)
        grids = pf.TimeGrids(problem.t_final, nt, m)
        coarse = pf.run_coarse(problem, op, grids)
        reference, _ = pf.run_fine_sequential(problem, op, grids)
        arrays[f"{label}:run_coarse"] = coarse
        arrays[f"{label}:run_fine_sequential"] = reference
        arrays[f"{label}:chain_fine"] = pf.chain_fine(problem, op, grids)
        for n in sorted({0, min(1, nt - 1), nt // 2, nt - 1}):
            end, path = pf.fine_propagate(coarse[n], coarse[: n + 1], op, grids, problem)
            arrays[f"{label}:fine_propagate:{n}:endpoint"] = end
            arrays[f"{label}:fine_propagate:{n}:path"] = path
        arrays[f"{label}:fine_sweep_intervals:all"] = fine_sweep_intervals(
            coarse, 0, nt, op, grids, problem)
        if nt > 2:
            arrays[f"{label}:fine_sweep_intervals:inner"] = fine_sweep_intervals(
                coarse, 1, nt - 1, op, grids, problem)
        for threads in THREADS:
            if tol is None:
                iterate, report = _solve(problem, op, grids, None, k_max, threads, reference)
            else:
                iterate, report = pf.parareal_solve(problem, op, grids, tol=tol, k_max=k_max,
                                                    threads=threads, reference=reference)
            key = f"{label}:parareal:t{threads}"
            arrays[f"{key}:states"] = iterate.states
            arrays[f"{key}:coarse_new"] = iterate.coarse_new
            arrays[f"{key}:coarse_old"] = iterate.coarse_old
            arrays[f"{key}:fine_endpoints"] = iterate.fine_endpoints
            arrays[f"{key}:diffs"] = np.array(report.diffs)
            arrays[f"{key}:errors_vs_reference"] = np.array(report.errors_vs_reference)
            arrays[f"{key}:iterations"] = np.array(report.iterations)
        weights = weights_for(problem.alpha)
        arrays[f"weights:{label}:m"] = weights.on_grid(m, (nt - 1) * m + 1)
        arrays[f"weights:{label}:1"] = weights.on_grid(1, nt * m + 1)
        print(f"  {label}: done", file=sys.stderr, flush=True)
    for label, problem, op, grids in _failing_problems(pf):
        arrays[f"{label}:chain_fine"] = _outcome(lambda: pf.chain_fine(problem, op, grids))
        arrays[f"{label}:run_fine_sequential"] = _outcome(
            lambda: pf.run_fine_sequential(problem, op, grids))
        for threads in THREADS:
            arrays[f"{label}:parareal:t{threads}"] = _outcome(lambda: pf.parareal_solve(
                problem, op, grids, tol=1e-10, k_max=3, threads=threads))
        print(f"  {label}: done", file=sys.stderr, flush=True)
    arrays.update(_calculators(pf))
    arrays.update(_assembly(pf))
    arrays.update(_solves(pf))
    np.savez(out, **arrays)


def _src_dir(tree):
    tree = Path(tree).resolve()
    return tree / "src" if (tree / "src" / "parafrac").is_dir() else tree


def _run(tree, out):
    src = _src_dir(tree)
    if not (src / "parafrac").is_dir():
        sys.exit(f"no parafrac package under {tree}")
    print(f"running {src}", file=sys.stderr, flush=True)
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import bitcheck; bitcheck._dump({out!r})"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent), **BLAS_THREADS)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return np.load(out)


def _difference(a, b):
    if "U" in (a.dtype.kind, b.dtype.kind):
        return f"{a} vs {b}"
    if a.shape != b.shape:
        return f"shapes {a.shape} vs {b.shape}"
    return f"largest absolute difference {np.abs(a - b).max()}"


def compare(old, new):
    """Print every difference between two archives of named arrays; return their count.

    ``old`` and ``new`` map names to arrays (an ``np.load`` archive or a
    dict).  Each name present on one side only is one difference, and so is
    each common array that ``np.array_equal`` tells apart; a NaN in a float
    array matches a NaN (an order fitted to zero errors is NaN).
    """
    one_side = sorted(set(old) ^ set(new))
    for name in one_side:
        print(f"ONLY IN {'PARENT' if name in old else 'CHANGE'} {name}")
    common = [name for name in old if name in new]
    mismatches = 0
    for name in common:
        a, b = old[name], new[name]
        floats = a.dtype.kind == b.dtype.kind == "f"
        if not np.array_equal(a, b, equal_nan=floats):
            mismatches += 1
            print(f"MISMATCH {name}: {_difference(a, b)}")
    if one_side or mismatches:
        print(f"{mismatches} of {len(common)} common arrays differ; "
              f"{len(one_side)} names on one side only")
    else:
        # a failure outcome is one string; the truncation regions are a string column
        outcomes = sum(old[name].dtype.kind == "U" and old[name].ndim == 0 for name in common)
        print(f"{len(common)} arrays np.array_equal ({outcomes} of them failure outcomes)")
    return mismatches + len(one_side)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        old = _run(argv[0], os.path.join(tmp, "parent.npz"))
        new = _run(argv[1], os.path.join(tmp, "change.npz"))
        return 1 if compare(old, new) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
