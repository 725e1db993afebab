"""Coarse propagator, hybrid fine propagator, and the sequential reference."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from parafrac import (
    TimeGrids,
    assemble_diffusion,
    build_operator,
    chain_fine,
    coarse_step,
    fine_propagate,
    initial_state,
    l1_weight,
    run_coarse,
    run_fine_sequential,
)
from parafrac import stepping
from parafrac.errors import SolverFailure
from parafrac.l1 import FractionalWeights, _step_factor, gamma_2_minus
from parafrac.problems import get_problem
from parafrac.spectral import l2_norm
from parafrac.stepping import _lu_solve_checked, fine_sweep_intervals

from conftest import constant_initial_factory, make_problem
from test_spectral import closed_form_d1

# first verified run, cross-checked against the independent assembly below
U1_PAPER42_NT4_N8 = np.array([
    0.00989172694802523, 0.03682683697568536, 0.06841226356276062,
    0.08295528278048052, 0.06841226356276059, 0.036826836975685326,
    0.009891726948025217,
])
COARSE_NORM_NT64_N8 = 0.026480743084220996
FINE_ENDPOINT_N0_M4_N8 = np.array([
    0.009024159973987216, 0.033185269176096786, 0.06081648492720379,
    0.07331009243228288, 0.0608164849272038, 0.0331852691760968,
    0.009024159973987218,
])
FINE_NORM_NT64_M8_N16 = 0.026145071475084776


class TestCoarseStep:
    def test_zero_coefficients_identity(self, op8):
        prob = make_problem(lambda x, t, u: 0.0, lambda x, t, u: 0.0,
                            lambda x: np.sin(np.pi * np.asarray(x)))
        grids = TimeGrids(1.0, 4, 1)
        u0 = initial_state(prob, op8)
        u1 = coarse_step(u0[None, :], op8, grids, prob)
        assert np.array_equal(u1, u0)

    def test_alpha_one_is_backward_euler(self, op8):
        kappa = 2.0
        prob = make_problem(lambda x, t, u: kappa, lambda x, t, u: 0.0,
                            lambda x: np.sin(np.pi * np.asarray(x)), alpha=1.0)
        grids = TimeGrids(1.0, 8, 1)
        traj = run_coarse(prob, op8, grids)
        n = 3
        d2_int = op8.d2[1:-1, 1:-1]
        system = np.eye(7) - grids.dT * kappa * d2_int
        want = np.linalg.solve(system, traj[n])
        assert np.abs(traj[n + 1] - want).max() <= 1e-13

    def test_first_step_regression(self, op8, paper42):
        grids = TimeGrids(1.0, 4, 1)
        u0 = initial_state(paper42, op8)
        u1 = coarse_step(u0[None, :], op8, grids, paper42)
        assert np.abs(u1 - U1_PAPER42_NT4_N8).max() <= 1e-15

    def test_first_step_independent_assembly(self, op8, paper42):
        # rebuild the step from the weight formula and the closed-form
        # differentiation matrix, then solve with plain numpy
        grids = TimeGrids(1.0, 4, 1)
        u0 = initial_state(paper42, op8)
        d1 = closed_form_d1(8, 0.0, 1.0)
        full = np.zeros(9)
        full[1:-1] = u0
        dvals = 1.0 + full
        a_full = d1 @ np.diag(dvals) @ d1
        gam = grids.dT**0.5 * math.gamma(1.5)
        rhs = l1_weight(0, 0.5) * u0 + gam * np.sin(np.pi * op8.nodes[1:-1]) * math.exp(0.0)
        system = np.eye(7) - gam * a_full[1:-1, 1:-1]
        want = np.linalg.solve(system, rhs)
        got = coarse_step(u0[None, :], op8, grids, paper42)
        assert np.abs(got - want).max() <= 1e-10

    def test_rejects_empty_history(self, op8, paper42):
        with pytest.raises(ValueError):
            coarse_step(np.empty((0, 7)), op8, TimeGrids(1.0, 4, 1), paper42)


class TestFineInputChecks:
    """Bad inputs to the fine entry points are named before any marching."""

    def test_propagate_rejects_empty_history(self, op8, paper42):
        u0 = initial_state(paper42, op8)
        with pytest.raises(ValueError, match="coarse_history"):
            fine_propagate(u0, np.empty((0, 7)), op8, TimeGrids(1.0, 4, 2), paper42)

    def test_sweep_rejects_single_state(self, op8, paper42):
        with pytest.raises(ValueError, match="u_nodes"):
            fine_sweep_intervals(initial_state(paper42, op8), 0, 1, op8,
                                 TimeGrids(1.0, 4, 2), paper42)

    def test_sweep_rejects_wrong_width(self, op8, paper42):
        with pytest.raises(ValueError, match="u_nodes"):
            fine_sweep_intervals(np.zeros((5, 6)), 0, 2, op8, TimeGrids(1.0, 4, 2), paper42)

    def test_sweep_rejects_negative_start(self, op8, paper42):
        grids = TimeGrids(1.0, 4, 2)
        with pytest.raises(ValueError, match="outside the supplied coarse states"):
            fine_sweep_intervals(run_coarse(paper42, op8, grids), -2, 2, op8, grids, paper42)

    @pytest.mark.parametrize("entry", ["coarse_step", "fine_propagate", "fine_sweep_intervals"])
    def test_no_march_past_the_last_interval(self, op8, paper42, entry):
        # a history holds at most nt nodes, so no step starts at t_final
        grids = TimeGrids(1.0, 4, 2)
        states = np.vstack([run_coarse(paper42, op8, grids), np.zeros((1, 7))])
        march = {
            "coarse_step": lambda k: coarse_step(states[:k], op8, grids, paper42),
            "fine_propagate": lambda k: fine_propagate(states[k - 1], states[:k], op8, grids,
                                                       paper42),
            "fine_sweep_intervals": lambda k: fine_sweep_intervals(states, 0, k, op8, grids,
                                                                   paper42),
        }[entry]
        march(grids.nt)
        with pytest.raises(ValueError, match="more than nt = 4"):
            march(grids.nt + 1)


class TestRunCoarse:
    def test_single_interval(self, op8, paper42):
        grids = TimeGrids(1.0, 1, 1)
        traj = run_coarse(paper42, op8, grids)
        assert traj.shape == (2, 7)
        u0 = initial_state(paper42, op8)
        assert np.array_equal(traj[0], u0)
        assert np.array_equal(traj[1], coarse_step(u0[None, :], op8, grids, paper42))

    def test_zero_data_stays_zero(self, op8):
        prob = make_problem(lambda x, t, u: 1.0 + u, lambda x, t, u: 0.0,
                            lambda x: 0.0 * np.asarray(x))
        traj = run_coarse(prob, op8, TimeGrids(1.0, 6, 1))
        assert not traj.any()

    def test_final_norm_regression(self, op8, paper42):
        traj = run_coarse(paper42, op8, TimeGrids(1.0, 64, 1))
        assert l2_norm(op8, traj[-1]) == pytest.approx(COARSE_NORM_NT64_N8, abs=1e-14)

    def test_deterministic(self, op8, paper42):
        grids = TimeGrids(1.0, 16, 1)
        assert np.array_equal(run_coarse(paper42, op8, grids), run_coarse(paper42, op8, grids))

    def test_coarse_step_repeats_every_node(self, op8, paper42):
        # one step of the march on its own history gives the march's next node
        grids = TimeGrids(1.0, 16, 1)
        traj = run_coarse(paper42, op8, grids)
        for n in range(grids.nt):
            assert np.array_equal(coarse_step(traj[: n + 1], op8, grids, paper42), traj[n + 1]), n


class TestFinePropagate:
    def test_m1_collapse_full_trajectory(self, op8, paper42):
        grids = TimeGrids(1.0, 64, 1)
        traj = run_coarse(paper42, op8, grids)
        for n in range(64):
            endpoint, _ = fine_propagate(traj[n], traj[: n + 1], op8, grids, paper42)
            step = coarse_step(traj[: n + 1], op8, grids, paper42)
            assert np.abs(endpoint - step).max() <= 1e-12

    def test_constant_history_fixed_point(self, op8):
        prob = make_problem(lambda x, t, u: 0.0, lambda x, t, u: 0.0,
                            constant_initial_factory(1.5))
        grids = TimeGrids(1.0, 4, 5)
        hist = np.full((3, 7), 1.5)
        endpoint, path = fine_propagate(hist[-1], hist, op8, grids, prob)
        assert np.abs(path - 1.5).max() <= 1e-12
        assert np.abs(endpoint - 1.5).max() <= 1e-12

    def test_endpoint_regression(self, op8, paper42):
        grids = TimeGrids(1.0, 4, 4)
        u0 = initial_state(paper42, op8)
        endpoint, path = fine_propagate(u0, u0[None, :], op8, grids, paper42)
        assert path.shape == (4, 7)
        assert np.abs(endpoint - FINE_ENDPOINT_N0_M4_N8).max() <= 1e-15

    def test_first_interval_matches_sequential(self, op8, paper42):
        # independent code path: plain full-history marching on [0, T_1]
        grids = TimeGrids(1.0, 4, 4)
        u0 = initial_state(paper42, op8)
        endpoint, _ = fine_propagate(u0, u0[None, :], op8, grids, paper42)
        short = dataclasses.replace(paper42, t_final=grids.dT)
        states, _ = run_fine_sequential(short, op8, TimeGrids(grids.dT, 1, 4))
        assert np.abs(endpoint - states[-1]).max() <= 1e-13

    def test_start_mismatch_rejected(self, op8, paper42):
        grids = TimeGrids(1.0, 4, 4)
        u0 = initial_state(paper42, op8)
        with pytest.raises(ValueError):
            fine_propagate(u0 + 1.0, u0[None, :], op8, grids, paper42)


class TestFineSweep:
    def test_matches_reference_per_interval(self, op8, paper42):
        grids = TimeGrids(1.0, 8, 4)
        traj = run_coarse(paper42, op8, grids)
        batched = fine_sweep_intervals(traj, 0, 8, op8, grids, paper42)
        for n in range(8):
            want, _ = fine_propagate(traj[n], traj[: n + 1], op8, grids, paper42)
            assert np.abs(batched[n] - want).max() <= 1e-13

    def test_block_split_invariance(self, op8, op16, paper42, monkeypatch):
        # a chunk of 1 or 3 splits every stack below; 64 holds every stack whole
        for chunk in (1, 3, 64):
            monkeypatch.setattr(stepping, "STACK_CHUNK", chunk)
            grids = TimeGrids(1.0, 8, 4)
            traj = run_coarse(paper42, op8, grids)
            whole = fine_sweep_intervals(traj, 0, 8, op8, grids, paper42)
            pieces = np.vstack([
                fine_sweep_intervals(traj, 0, 3, op8, grids, paper42),
                fine_sweep_intervals(traj, 3, 5, op8, grids, paper42),
                fine_sweep_intervals(traj, 5, 8, op8, grids, paper42),
            ])
            assert np.array_equal(whole, pieces), chunk

            # every split point and every single interval: dt = 1/180 is not a
            # power of two, and 15 interior values make every history row an odd
            # width.  A BLAS gemv history rounds such rows by their position in
            # the block, which moves endpoints here once substeps reach about 10
            grids = TimeGrids(1.0, 6, 30)
            traj = run_coarse(paper42, op16, grids)
            whole = fine_sweep_intervals(traj, 0, 6, op16, grids, paper42)
            for split in range(1, 6):
                pieces = np.vstack([
                    fine_sweep_intervals(traj, 0, split, op16, grids, paper42),
                    fine_sweep_intervals(traj, split, 6, op16, grids, paper42),
                ])
                assert np.array_equal(whole, pieces), (chunk, split)
            for n in range(6):
                single = fine_sweep_intervals(traj, n, n + 1, op16, grids, paper42)
                assert np.array_equal(whole[n], single[0]), (chunk, n)

    def test_sweep_holds_one_path_array(self, op8, paper42):
        # the coarse coupling waits in the path rows, so a warm sweep's peak
        # is one chunk's (m+1, B, interior) path array, here all B = 4
        # intervals, plus one substep's temporaries
        grids = TimeGrids(1.0, 4, 512)
        traj = run_coarse(paper42, op8, grids)
        fine_sweep_intervals(traj, 0, 4, op8, grids, paper42)
        path_bytes = (grids.m + 1) * grids.nt * op8.interior_size * 8
        tracemalloc.start()
        try:
            fine_sweep_intervals(traj, 0, 4, op8, grids, paper42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * path_bytes

    def test_stacked_substep_builds_interior_system_only(self, op16, paper42):
        # D = 1 + u has a stack axis: each substep builds one (B, n-1, n+1)
        # product per chunk and turns the (B, n-1, n-1) block it gives into
        # I - gamma A in place, with no full-grid matrices and no copy of the
        # system; the 64 intervals here are one chunk
        grids = TimeGrids(1.0, 64, 2)
        traj = run_coarse(paper42, op16, grids)
        fine_sweep_intervals(traj, 0, 64, op16, grids, paper42)
        size = op16.interior_size
        path_bytes = (grids.m + 1) * grids.nt * size * 8
        system_bytes = grids.nt * size * size * 8
        tracemalloc.start()
        try:
            fine_sweep_intervals(traj, 0, 64, op16, grids, paper42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.45 * (path_bytes + system_bytes)

    def test_substep_temporaries_bounded_by_one_chunk(self, op16, paper42):
        # 256 intervals are four chunks, each its own march, so a sweep holds
        # one chunk's path array and one chunk's product and systems at a time
        grids = TimeGrids(1.0, 256, 32)
        traj = run_coarse(paper42, op16, grids)
        fine_sweep_intervals(traj, 0, 256, op16, grids, paper42)
        size = op16.interior_size
        path_bytes = (grids.m + 1) * stepping.STACK_CHUNK * size * 8
        chunk_bytes = stepping.STACK_CHUNK * size * ((size + 2) + size) * 8
        tracemalloc.start()
        try:
            fine_sweep_intervals(traj, 0, 256, op16, grids, paper42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path_bytes + 2 * chunk_bytes

    def test_sweep_peak_does_not_grow_with_block(self, op16, paper42):
        # the chunks before the last leave only their endpoints behind, so
        # four chunks peak within 5% of one (4.3% here, the 192 held endpoints)
        grids = TimeGrids(1.0, 256, 32)
        traj = run_coarse(paper42, op16, grids)
        peaks = []
        for hi in (64, 256):
            fine_sweep_intervals(traj, 0, hi, op16, grids, paper42)
            tracemalloc.start()
            try:
                fine_sweep_intervals(traj, 0, hi, op16, grids, paper42)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.05 * peaks[0]

    def test_cold_sweep_grows_grid_before_path_array(self, op8, paper42):
        # no other test uses this order, so the sweep starts with no b_{q/m}
        # grid: it is built once, at its full size, before the path array
        problem = dataclasses.replace(paper42, alpha=0.375)
        grids = TimeGrids(1.0, 32, 512)
        traj = run_coarse(problem, op8, grids)
        path_bytes = (grids.m + 1) * grids.nt * op8.interior_size * 8
        grid_bytes = ((grids.nt - 1) * grids.m + 1) * 8
        tracemalloc.start()
        try:
            fine_sweep_intervals(traj, 0, 32, op8, grids, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * (path_bytes + grid_bytes)

    def test_one_grid_lookup_per_march(self, op8, paper42, monkeypatch):
        # one b_{q/m} lookup per march, of the whole time grid, whichever
        # intervals it marches
        lookups = []
        on_grid = FractionalWeights.on_grid

        def spy(self, denom, count):
            lookups.append((denom, count))
            return on_grid(self, denom, count)

        monkeypatch.setattr(FractionalWeights, "on_grid", spy)
        grids = TimeGrids(1.0, 32, 4)
        whole = [(grids.m, (grids.nt - 1) * grids.m + 1)]
        traj = run_coarse(paper42, op8, grids)
        for march in (lambda: fine_sweep_intervals(traj, 0, 32, op8, grids, paper42),
                      lambda: fine_sweep_intervals(traj, 0, 16, op8, grids, paper42),
                      lambda: fine_propagate(traj[31], traj[:32], op8, grids, paper42),
                      lambda: fine_propagate(traj[1], traj[:2], op8, grids, paper42)):
            lookups.clear()
            march()
            assert [look for look in lookups if look[0] == grids.m] == whole

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("name", ["paper42", "linear-heat"])
    def test_propagate_differs_from_sweep_only_in_its_solve(self, op8, name, n, monkeypatch):
        # paper42's coefficient has a stack axis, so its sweep solves per-state
        # systems with linalg.solve; linear-heat's has none, and its sweep
        # solves the shared system as fine_propagate does, with no patch
        problem = get_problem(name)
        grids = TimeGrids(1.0, 8, 4)
        traj = run_coarse(problem, op8, grids)
        if name == "paper42":
            monkeypatch.setattr(stepping, "_lu_solve_checked", stepping._stacked_solve)
        got = fine_propagate(traj[n], traj[: n + 1], op8, grids, problem)[0]
        assert np.array_equal(got, fine_sweep_intervals(traj, n, n + 1, op8, grids, problem)[0])

    def test_coefficient_without_stack_axis_same_bits(self, op16, linear_heat, monkeypatch):
        # linear-heat's D = 1 has no stack axis, so its sweep solves one
        # broadcast system per substep and chunk; written with a stack axis,
        # it solves one system per interval.  Split into chunks or not, a
        # stack gives the bits of its intervals marched one at a time, also
        # for D = 1 + t, which has one value per interval
        grids = TimeGrids(1.0, 8, 6)
        traj = run_coarse(linear_heat, op16, grids)
        stacked = dataclasses.replace(linear_heat, diffusion=lambda x, t, u: 1.0 + 0.0 * u)
        timed = dataclasses.replace(linear_heat, diffusion=lambda x, t, u: 1.0 + t)
        for chunk in (1, 3, 64):
            monkeypatch.setattr(stepping, "STACK_CHUNK", chunk)
            whole = fine_sweep_intervals(traj, 0, 8, op16, grids, linear_heat)
            assert np.array_equal(whole, fine_sweep_intervals(traj, 0, 8, op16, grids, stacked))
            timed_whole = fine_sweep_intervals(traj, 0, 8, op16, grids, timed)
            for problem, endpoints in ((linear_heat, whole), (timed, timed_whole)):
                for n in range(8):
                    single = fine_sweep_intervals(traj, n, n + 1, op16, grids, problem)
                    assert np.array_equal(endpoints[n], single[0]), (chunk, n)

    def test_shared_system_factored_once_per_substep(self, op16, linear_heat, monkeypatch):
        # a warm one-chunk sweep of linear-heat factors its shared system once
        # per substep and solves each interval's state against those factors,
        # one lu_solve per state, with no linalg.solve
        grids = TimeGrids(1.0, 8, 6)
        traj = run_coarse(linear_heat, op16, grids)
        fine_sweep_intervals(traj, 0, 8, op16, grids, linear_heat)
        calls = {"lu_factor": 0, "lu_solve": 0, "linalg.solve": 0}

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(stepping, "lu_factor", spy("lu_factor", stepping.lu_factor))
        monkeypatch.setattr(stepping, "lu_solve", spy("lu_solve", stepping.lu_solve))
        monkeypatch.setattr(np.linalg, "solve", spy("linalg.solve", np.linalg.solve))
        fine_sweep_intervals(traj, 0, 8, op16, grids, linear_heat)
        assert calls == {"lu_factor": grids.m, "lu_solve": grids.m * 8, "linalg.solve": 0}

    def test_coefficient_without_stack_axis_builds_one_system(self, op16, linear_heat):
        # one (interior, interior) system per substep, not one per interval
        grids = TimeGrids(1.0, 16, 8)
        traj = run_coarse(linear_heat, op16, grids)
        fine_sweep_intervals(traj, 0, 16, op16, grids, linear_heat)
        path_bytes = (grids.m + 1) * grids.nt * op16.interior_size * 8
        tracemalloc.start()
        try:
            fine_sweep_intervals(traj, 0, 16, op16, grids, linear_heat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path_bytes


class TestRunFineSequential:
    def test_m1_equals_coarse(self, op8, paper42):
        grids = TimeGrids(1.0, 16, 1)
        states, _ = run_fine_sequential(paper42, op8, grids)
        coarse = run_coarse(paper42, op8, grids)
        assert np.array_equal(states, coarse)

    def test_zero_data(self, op8):
        prob = make_problem(lambda x, t, u: 1.0 + u, lambda x, t, u: 0.0,
                            lambda x: 0.0 * np.asarray(x))
        states, seconds = run_fine_sequential(prob, op8, TimeGrids(1.0, 4, 4))
        assert not states.any()
        assert seconds >= 0.0

    def test_final_norm_regression(self, op16, paper42):
        states, _ = run_fine_sequential(paper42, op16, TimeGrids(1.0, 64, 8))
        assert l2_norm(op16, states[-1]) == pytest.approx(FINE_NORM_NT64_M8_N16, abs=1e-14)

    def test_convergence_on_manufactured_solution(self, op16):
        # u = (t^a + t) sin(pi x) with the matching source; first-order
        # decay at the final time under step halving
        alpha = 0.5
        g15 = math.gamma(1.5)

        def source(x, t, u):
            prof = np.sin(np.pi * x)
            return (g15 + t**0.5 / g15) * prof + np.pi**2 * (t**alpha + t) * prof

        prob = make_problem(lambda x, t, u: 1.0, source, lambda x: 0.0 * np.asarray(x),
                            alpha=alpha)
        errs = []
        for nt in (16, 32, 64):
            states, _ = run_fine_sequential(prob, op16, TimeGrids(1.0, nt, 4))
            exact = 2.0 * np.sin(np.pi * op16.interior_nodes)
            errs.append(l2_norm(op16, states[-1] - exact))
        assert errs[1] <= 0.62 * errs[0]
        assert errs[2] <= 0.62 * errs[1]


class TestPropagatorProperties:
    def test_linear_problem_forcing_superposition(self, op8):
        # with solution-independent coefficients the step is affine, so the
        # difference of two histories does not see the forcing
        def src(x, t, u):
            return np.sin(np.pi * x) * np.exp(-t)

        base = make_problem(lambda x, t, u: 1.0, src, lambda x: np.sin(np.pi * np.asarray(x)))
        unforced = make_problem(lambda x, t, u: 1.0, lambda x, t, u: 0.0,
                                lambda x: np.sin(np.pi * np.asarray(x)))
        grids = TimeGrids(1.0, 4, 1)
        rng = np.random.default_rng(11)
        v = rng.normal(size=(4, 7))
        w = v + rng.normal(size=(4, 7)) * 0.1
        diff_forced = coarse_step(v, op8, grids, base) - coarse_step(w, op8, grids, base)
        diff_plain = coarse_step(v, op8, grids, unforced) - coarse_step(w, op8, grids, unforced)
        assert np.abs(diff_forced - diff_plain).max() <= 1e-12

    def test_coarse_growth_factor_stable(self, op8, paper42):
        # measured perturbation growth fits a finite coefficient in the
        # one-step bound, stable under halving the perturbation size
        grids = TimeGrids(1.0, 8, 1)
        traj = run_coarse(paper42, op8, grids)
        rng = np.random.default_rng(2)
        s = grids.dT**paper42.alpha * gamma_2_minus(paper42.alpha)

        def fitted_c(eps):
            worst = 0.0
            for _ in range(12):
                delta = rng.normal(size=traj[:5].shape)
                delta *= eps / max(l2_norm(op8, d) for d in delta)
                pert = traj[:5] + delta
                num = l2_norm(op8, coarse_step(traj[:5], op8, grids, paper42)
                              - coarse_step(pert, op8, grids, paper42))
                den = max(l2_norm(op8, d) for d in delta)
                worst = max(worst, num / den)
            return (worst**2 - 1.0) / s  # invert sqrt((1 + C s) / 1)

        c_big = fitted_c(1e-4)
        c_small = fitted_c(5e-5)
        assert math.isfinite(c_big) and math.isfinite(c_small)
        assert abs(c_big - c_small) <= 0.5 * max(abs(c_big), abs(c_small), 1.0)


def _step_system(problem, degree):
    """``I - gamma A`` of one L1 step of width 1/64, ``A`` frozen at the initial state."""
    op = build_operator(degree, problem.a, problem.b)
    a_mat = assemble_diffusion(op, initial_state(problem, op), 0.0, problem)
    return np.eye(op.interior_size) - _step_factor(1 / 64, problem.alpha) * a_mat


class TestSolverGuards:
    @pytest.mark.parametrize("name, degree", [
        ("paper42", 16), ("linear-heat", 8), ("linear-heat", 64), ("random", 63),
    ])
    def test_lapack_solve_has_scipy_bits(self, name, degree):
        # the raw getrf/getrs pair gives the factors, pivots and solution of
        # scipy's lu_factor/lu_solve wrappers
        rng = np.random.default_rng(degree)
        if name == "random":
            system = np.eye(degree) + 0.1 * rng.standard_normal((degree, degree))
        else:
            system = _step_system(get_problem(name), degree)
        rhs = rng.standard_normal(system.shape[0])
        lu, piv = stepping.lu_factor(system)
        want_lu, want_piv = scipy.linalg.lu_factor(system)
        assert np.array_equal(lu, want_lu) and np.array_equal(piv, want_piv)
        assert np.array_equal(stepping.lu_solve((lu, piv), rhs),
                              scipy.linalg.lu_solve((want_lu, want_piv), rhs))

    def test_singular_system_rejected(self):
        # an exact zero pivot meets the pivot rule, whatever the warning filter
        singular = np.ones((3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="singular or ill-conditioned") as err:
                _lu_solve_checked(singular, np.ones(3), step=5)
        assert err.value.step == 5

    def test_nan_system_rejected(self):
        system = np.eye(3)
        system[1, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure) as err:
                _lu_solve_checked(system, np.ones(3), step=(2, 1))
        assert err.value.step == (2, 1)

    def test_fine_sweep_names_first_failing_interval(self, op8, monkeypatch):
        # interval 2 fails from substep 4 and interval 6 from substep 2; every
        # stack that holds interval 2 names it, as chain_fine does, also when
        # either fails in a later chunk of its stack
        def source(x, t, u):
            bad = ((t > 2 / 8 + 2.5 / 32) & (t < 3 / 8)) | ((t > 6 / 8 + 0.5 / 32) & (t < 7 / 8))
            return np.where(bad, np.nan, 0.0) + 0.0 * u

        prob = make_problem(lambda x, t, u: 1.0, source,
                            lambda x: np.sin(np.pi * np.asarray(x)))
        grids = TimeGrids(1.0, 8, 4)
        traj = np.zeros((grids.nt + 1, op8.interior_size))
        for chunk in (1, 3, 64):
            monkeypatch.setattr(stepping, "STACK_CHUNK", chunk)
            for lo, hi, want in ((0, 8, (2, 4)), (1, 8, (2, 4)), (2, 7, (2, 4)), (2, 3, (2, 4)),
                                 (3, 8, (6, 2)), (6, 7, (6, 2))):
                with pytest.raises(SolverFailure) as err:
                    fine_sweep_intervals(traj, lo, hi, op8, grids, prob)
                assert err.value.step == want, (chunk, lo, hi)

    def test_chain_fine_matches_manual_chaining(self, op8, paper42):
        grids = TimeGrids(1.0, 4, 2)
        chained = chain_fine(paper42, op8, grids)
        manual = np.empty_like(chained)
        manual[0] = initial_state(paper42, op8)
        for n in range(4):
            manual[n + 1] = fine_propagate(manual[n], manual[: n + 1], op8, grids, paper42)[0]
        assert np.array_equal(chained, manual)
