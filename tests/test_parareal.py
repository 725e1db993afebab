"""Driver behavior: correction identity, termination, determinism, guards."""

import multiprocessing

import numpy as np
import pytest

from parafrac import (
    DivergenceError,
    SolverFailure,
    TimeGrids,
    chain_fine,
    exactness_check,
    fine_propagate,
    initial_state,
    parareal_solve,
    run_coarse,
    run_fine_sequential,
)
from parafrac import stepping
from parafrac.l1 import gamma_2_minus
from parafrac.parareal import _block_bounds, _solve
from parafrac.spectral import l2_norm
from parafrac.stepping import fine_sweep_intervals

from conftest import make_problem


class TestBlockBounds:
    def test_partition_covers_range(self):
        for count in (1, 5, 8, 17):
            for threads in (1, 2, 3, 8, 32):
                bounds = _block_bounds(count, threads)
                assert bounds[0][0] == 0 and bounds[-1][1] == count
                for (a, b), (c, d) in zip(bounds, bounds[1:]):
                    assert b == c and b > a
                assert len(bounds) == min(threads, count)
                sizes = [b - a for a, b in bounds]
                assert max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)


class TestSingleInterval:
    def test_first_iterate_is_fine_endpoint(self, op16, paper42):
        # with one interval the coarse terms cancel, so the corrected value
        # is the fine endpoint itself
        grids = TimeGrids(1.0, 1, 4)
        iterate, report = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=3, threads=1)
        assert np.array_equal(iterate.states[1], iterate.fine_endpoints[0])
        u0 = initial_state(paper42, op16)
        want, _ = fine_propagate(u0, u0[None, :], op16, grids, paper42)
        assert np.abs(iterate.states[1] - want).max() <= 1e-13
        assert report.iterations >= 1


class TestCorrectionIdentity:
    def test_update_reassertable_from_caches(self, op16, paper42):
        grids = TimeGrids(1.0, 8, 4)
        iterate, _ = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=6, threads=2)
        rebuilt = iterate.fine_endpoints + (iterate.coarse_new - iterate.coarse_old)
        assert np.array_equal(iterate.states[1:], rebuilt)

    def test_initial_node_pinned(self, op16, paper42):
        grids = TimeGrids(1.0, 8, 4)
        iterate, _ = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=6, threads=1)
        assert np.array_equal(iterate.states[0], initial_state(paper42, op16))


class TestCoincidentPropagators:
    def test_m_equal_one_converges_immediately(self, op16, paper42):
        # fine and coarse propagators coincide, so the first correction
        # already reproduces the coarse trajectory
        grids = TimeGrids(1.0, 8, 1)
        iterate, report = parareal_solve(paper42, op16, grids, tol=1e-30, k_max=3, threads=1)
        assert all(d <= 1e-12 for d in report.diffs)
        coarse = run_coarse(paper42, op16, grids)
        assert np.abs(iterate.states - coarse).max() <= 1e-12


class TestFiniteTermination:
    def test_linear_problem_nodes_match_fixed_point(self, op8, linear_heat):
        grids = TimeGrids(1.0, 8, 4)
        for k in (0, 1, 4, 8):
            assert exactness_check(linear_heat, op8, grids, k) <= 1e-10

    def test_quasilinear_problem_also_terminates(self, op8, paper42):
        grids = TimeGrids(1.0, 6, 3)
        assert exactness_check(paper42, op8, grids, 6) <= 1e-10

    def test_bad_iteration_count_rejected(self, op8, linear_heat):
        with pytest.raises(ValueError):
            exactness_check(linear_heat, op8, TimeGrids(1.0, 4, 2), 5)


class TestReport:
    def test_diff_sequence_contract(self, op16, paper42):
        grids = TimeGrids(1.0, 16, 4)
        _, report = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=20, threads=2)
        assert report.stop_reason == "tol"
        assert len(report.diffs) == report.iterations
        assert len(report.iteration_times) == report.iterations
        assert report.diffs[-1] < 1e-10
        # plateau tolerance: once past the peak the diffs do not grow by
        # more than ten percent
        peak = int(np.argmax(report.diffs))
        for a, b in zip(report.diffs[peak:], report.diffs[peak + 1 :]):
            assert b <= 1.1 * a + 1e-15

    def test_kmax_stop_reason(self, op16, paper42):
        grids = TimeGrids(1.0, 8, 4)
        _, report = parareal_solve(paper42, op16, grids, tol=1e-16, k_max=2, threads=1)
        assert report.stop_reason == "k_max"
        assert report.iterations == 2

    def test_reference_errors_tracked(self, op16, paper42):
        grids = TimeGrids(1.0, 8, 4)
        reference, seconds = run_fine_sequential(paper42, op16, grids)
        _, report = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=8, threads=1,
                                   reference=reference)
        assert report.errors_vs_reference is not None
        assert len(report.errors_vs_reference) == report.iterations + 1
        assert report.errors_vs_reference[0] > report.errors_vs_reference[-1]
        assert seconds > 0.0

    def test_reference_shape_checked_before_coarse_sweep(self, op8, paper42, monkeypatch):
        # a reference from another grid must not yield errors silently
        reference, _ = run_fine_sequential(paper42, op8, TimeGrids(1.0, 8, 2))

        def no_coarse_sweep(*args):
            raise AssertionError("coarse sweep ran before the reference was checked")

        monkeypatch.setattr("parafrac.parareal.run_coarse", no_coarse_sweep)
        for bad in (reference, reference[:5, :-1], reference[:5, 0]):
            with pytest.raises(ValueError, match="reference has shape"):
                parareal_solve(paper42, op8, TimeGrids(1.0, 4, 2), reference=bad)

    def test_validation(self, op16, paper42):
        grids = TimeGrids(1.0, 4, 2)
        with pytest.raises(ValueError):
            parareal_solve(paper42, op16, grids, tol=0.0)
        with pytest.raises(ValueError):
            parareal_solve(paper42, op16, grids, k_max=0)
        with pytest.raises(ValueError):
            parareal_solve(paper42, op16, grids, threads=0)
        # a missing, boolean or non-numeric tolerance is a ValueError, not a TypeError
        for bad in (None, True, "1e-8", float("nan")):
            with pytest.raises(ValueError, match="tolerance"):
                parareal_solve(paper42, op16, grids, tol=bad)

    def test_counts_must_be_integers(self, op8, paper42):
        # a float or bool count is rejected, not truncated; numpy integers pass
        grids = TimeGrids(1.0, 4, 2)
        for bad in ({"threads": 2.7}, {"k_max": 3.9}, {"threads": True}, {"k_max": True},
                    {"k_max": 2.0}):
            with pytest.raises(ValueError, match="must be a positive integer"):
                parareal_solve(paper42, op8, grids, **bad)
        _, report = parareal_solve(paper42, op8, grids, tol=1e-16, k_max=np.int64(2),
                                   threads=np.int32(2))
        assert report.iterations == 2 and report.threads == 2
        # exactness_check applies the same rule to its iteration count
        for bad in (2.5, True, 2.0):
            with pytest.raises(ValueError, match="must be an integer"):
                exactness_check(paper42, op8, grids, bad)
        assert exactness_check(paper42, op8, grids, np.int64(2)) == exactness_check(
            paper42, op8, grids, 2)


class TestDeterminism:
    def test_thread_count_invariance(self, op16, paper42):
        grids = TimeGrids(1.0, 32, 8)
        states = {}
        for threads in (1, 2, 3, 8):
            iterate, _ = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=5,
                                        threads=threads)
            states[threads] = iterate.states
        baseline = states[1]
        for other in states.values():
            assert np.array_equal(other, baseline)


class TestWorkerProcesses:
    def test_block_seconds_per_iteration_and_block(self, op16, paper42):
        # iteration k splits intervals min(k, nt-1)..nt-1 into blocks; on
        # nt=4 they run out before the three processes do
        for nt, threads in ((8, 1), (8, 2), (8, 3), (4, 3)):
            grids = TimeGrids(1.0, nt, 4)
            _, report = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=6,
                                       threads=threads)
            blocks = [len(_block_bounds(nt - min(k, nt - 1), threads))
                      for k in range(report.iterations)]
            assert [len(times) for times in report.block_seconds] == blocks
            assert all(t > 0.0 for times in report.block_seconds for t in times)
        assert blocks[-1] < threads

    def test_correction_seconds_per_iteration(self, op16, paper42):
        grids = TimeGrids(1.0, 8, 4)
        for threads in (1, 2):
            _, report = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=4,
                                       threads=threads)
            assert len(report.correction_seconds) == report.iterations
            assert all(t > 0.0 for t in report.correction_seconds)

    def test_one_thread_starts_no_process(self, op8, paper42, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for threads=1")

        monkeypatch.setattr("parafrac.parareal.ProcessPoolExecutor", no_pool)
        _, report = parareal_solve(paper42, op8, TimeGrids(1.0, 8, 2), k_max=3, threads=1)
        assert report.iterations >= 1

    def test_no_worker_left_after_return_or_failure(self, op8, paper42):
        grids = TimeGrids(1.0, 8, 4)
        parareal_solve(paper42, op8, grids, tol=1e-10, k_max=3, threads=2)
        assert multiprocessing.active_children() == []

        # interval 5 fails in the worker's block; interval 1 in the caller's,
        # so the error leaves the stage while the worker is still marching
        for n in (5, 1):
            def source(x, t, u, n=n):
                return np.where((t > n / 8) & (t < (n + 1) / 8), np.nan, 0.0) + 0.0 * u

            prob = make_problem(lambda x, t, u: 1.0, source,
                                lambda x: np.sin(np.pi * np.asarray(x)))
            with pytest.raises(SolverFailure) as err:
                parareal_solve(prob, op8, grids, tol=1e-10, k_max=3, threads=2)
            assert err.value.step == (n, 2)
            assert multiprocessing.active_children() == []

    def test_closure_state_read_afresh_by_every_solve(self, op8):
        # workers are started per solve, so a callback whose captured value
        # changed since the last solve is never run from a stale copy
        scale = [1.0]
        prob = make_problem(lambda x, t, u: 1.0 + 0.1 * scale[0] * u,
                            lambda x, t, u: scale[0] * np.sin(np.pi * np.asarray(x)),
                            lambda x: np.sin(np.pi * np.asarray(x)))
        grids = TimeGrids(1.0, 8, 4)
        results = []
        for value in (1.0, 3.0):
            scale[0] = value
            pair = [parareal_solve(prob, op8, grids, tol=1e-10, k_max=6, threads=threads)[0]
                    for threads in (1, 2)]
            assert np.array_equal(pair[0].states, pair[1].states)
            results.append(pair[1].states)
        assert not np.array_equal(results[0], results[1])


class TestConvergedPrefix:
    def test_iteration_k_marches_from_interval_k(self, op8, paper42, monkeypatch):
        marched = []

        def recording_sweep(u_nodes, lo, hi, *args):
            marched.append((lo, hi))
            return fine_sweep_intervals(u_nodes, lo, hi, *args)

        monkeypatch.setattr("parafrac.parareal.fine_sweep_intervals", recording_sweep)
        grids = TimeGrids(1.0, 5, 2)
        _solve(paper42, op8, grids, tol=None, k_max=7, threads=1, reference=None)
        assert marched == [(min(k, grids.nt - 1), grids.nt) for k in range(7)]

    @pytest.mark.parametrize("nt, m, k_max", [(8, 4, 1), (8, 4, 3), (6, 3, 5), (4, 4, 6)])
    def test_kept_endpoints_equal_a_full_sweep(self, op8, paper42, nt, m, k_max):
        # the endpoints kept from earlier stages are the ones a sweep of all
        # intervals from the last iterate's states would give, bit for bit
        grids = TimeGrids(1.0, nt, m)
        if k_max == 1:
            previous = run_coarse(paper42, op8, grids)
        else:
            previous = _solve(paper42, op8, grids, tol=None, k_max=k_max - 1, threads=1,
                              reference=None)[0].states
        want = fine_sweep_intervals(previous, 0, nt, op8, grids, paper42)
        for threads in (1, 3, 8):
            iterate, _ = _solve(paper42, op8, grids, tol=None, k_max=k_max, threads=threads,
                                reference=None)
            assert np.array_equal(iterate.fine_endpoints, want), threads


class TestDivergenceGuard:
    def test_unstable_source_detected(self, op16):
        prob = make_problem(lambda x, t, u: 1.0, lambda x, t, u: 60.0 * u,
                            lambda x: np.sin(np.pi * np.asarray(x)))
        grids = TimeGrids(1.0, 12, 2)
        with pytest.raises(DivergenceError):
            parareal_solve(prob, op16, grids, tol=1e-10, k_max=8, threads=1)


class TestFailureLocation:
    def test_fine_sweep_names_failing_interval_for_any_thread_count(self, op8):
        # the source is NaN strictly inside interval 5, so the first bad
        # substep is (5, 2) whichever block the interval lands in
        def source(x, t, u):
            return np.where((t > 5 / 8) & (t < 6 / 8), np.nan, 0.0) + 0.0 * u

        prob = make_problem(lambda x, t, u: 1.0, source,
                            lambda x: np.sin(np.pi * np.asarray(x)))
        grids = TimeGrids(1.0, 8, 4)
        with pytest.raises(SolverFailure) as err:
            chain_fine(prob, op8, grids)
        assert err.value.step == (5, 2)
        for threads in (1, 2, 3, grids.nt):
            with pytest.raises(SolverFailure) as err:
                parareal_solve(prob, op8, grids, tol=1e-10, k_max=3, threads=threads)
            assert err.value.step == (5, 2), threads

    def test_two_failing_intervals_reported_alike_for_any_thread_count(self, op8):
        # interval 2 fails from substep 4 and interval 6 from substep 2; the
        # failure earliest in time wins, as in the sequential solvers,
        # whichever block fails first
        def source(x, t, u):
            bad = ((t > 2 / 8 + 2.5 / 32) & (t < 3 / 8)) | ((t > 6 / 8 + 0.5 / 32) & (t < 7 / 8))
            return np.where(bad, np.nan, 0.0) + 0.0 * u

        prob = make_problem(lambda x, t, u: 1.0, source,
                            lambda x: np.sin(np.pi * np.asarray(x)))
        grids = TimeGrids(1.0, 8, 4)
        with pytest.raises(SolverFailure) as err:
            chain_fine(prob, op8, grids)
        assert err.value.step == (2, 4)
        with pytest.raises(SolverFailure) as err:
            run_fine_sequential(prob, op8, grids)
        assert err.value.step == 11  # the step to fine node (2, 4)
        for threads in (1, 2, 3, grids.nt):
            with pytest.raises(SolverFailure) as err:
                parareal_solve(prob, op8, grids, tol=1e-10, k_max=3, threads=threads)
            assert err.value.step == (2, 4), threads
        assert multiprocessing.active_children() == []

    @staticmethod
    def _two_chunk_problem(interval_10):
        # nt = 80, m = 2: a one-process sweep marches chunks 0..63 and 64..79.
        # Interval 70 fails from substep 1, but only in the fine march, which
        # passes a stack of states: a coarse step passes one state, so no
        # coarse step fails.  Interval 10, if asked for, fails from substep 2
        def source(x, t, u):
            bad = (np.ndim(u) == 2) & (t > 69.75 / 80) & (t < 71 / 80)
            if interval_10:
                bad = bad | ((t > 10 / 80) & (t < 11 / 80))
            return np.where(bad, np.nan, 0.0) + 0.0 * u

        return make_problem(lambda x, t, u: 1.0, source,
                            lambda x: np.sin(np.pi * np.asarray(x)))

    def test_failure_order_across_chunks(self, op8):
        # interval 70's substep 1 comes before interval 10's substep 2 in a
        # march of all 80 intervals, but the first chunk runs all its
        # substeps first; the failure earliest in time wins either way
        prob = self._two_chunk_problem(interval_10=True)
        grids = TimeGrids(1.0, 80, 2)
        with pytest.raises(SolverFailure) as err:
            chain_fine(prob, op8, grids)
        assert err.value.step == (10, 2)
        traj = run_coarse(prob, op8, grids)
        with pytest.raises(SolverFailure) as err:
            fine_sweep_intervals(traj, 0, 80, op8, grids, prob)
        assert err.value.step == (10, 2)
        for threads in (1, 2, 3, 8):
            with pytest.raises(SolverFailure) as err:
                parareal_solve(prob, op8, grids, tol=1e-10, k_max=3, threads=threads)
            assert err.value.step == (10, 2), threads
        assert multiprocessing.active_children() == []

    def test_only_the_failing_chunk_is_marched_again(self, op8, monkeypatch):
        # the chunk 0..63 has finished all its substeps when 64..79 fails, so
        # only 64..79 is marched again, one interval at a time, up to 70
        prob = self._two_chunk_problem(interval_10=False)
        grids = TimeGrids(1.0, 80, 2)
        marched = []
        march = stepping._march

        def spy(start, hist, n, *args):
            marched.append((n.start, n.stop))
            return march(start, hist, n, *args)

        monkeypatch.setattr(stepping, "_march", spy)
        traj = np.zeros((grids.nt + 1, op8.interior_size))
        with pytest.raises(SolverFailure) as err:
            fine_sweep_intervals(traj, 0, 80, op8, grids, prob)
        assert err.value.step == (70, 1)
        assert marched == [(0, 64), (64, 80)] + [(n, n + 1) for n in range(64, 71)]

    def test_coarse_step_error_stands_only_when_every_block_succeeds(self, op8, paper42,
                                                                     monkeypatch):
        def failing_coarse_step(*args):
            raise SolverFailure(3, "injected coarse-step failure")

        monkeypatch.setattr("parafrac.parareal.coarse_step", failing_coarse_step)
        grids = TimeGrids(1.0, 8, 4)
        for threads in (1, 2, 3, grids.nt):
            with pytest.raises(SolverFailure) as err:
                parareal_solve(paper42, op8, grids, tol=1e-10, k_max=3, threads=threads)
            assert err.value.step == 3, threads
            assert multiprocessing.active_children() == []

        # interval 5 fails in a worker's block at threads 2, 3 and 8, and in the
        # caller's before the coarse steps at threads 1; the fine error wins
        def source(x, t, u):
            return np.where((t > 5 / 8) & (t < 6 / 8), np.nan, 0.0) + 0.0 * u

        prob = make_problem(lambda x, t, u: 1.0, source,
                            lambda x: np.sin(np.pi * np.asarray(x)))
        for threads in (1, 2, 3, grids.nt):
            with pytest.raises(SolverFailure) as err:
                parareal_solve(prob, op8, grids, tol=1e-10, k_max=3, threads=threads)
            assert err.value.step == (5, 2), threads
            assert multiprocessing.active_children() == []


class TestNearSingularFineSystem:
    def test_guards_on_every_path(self, op8):
        # constant D = 1/(gamma_fine mu_1) makes I - gamma_fine D d2 singular
        # up to rounding, while the coarse system (larger gamma) stays regular
        grids = TimeGrids(1.0, 4, 4)
        eig = np.linalg.eigvals(op8.d2[1:-1, 1:-1])
        mu1 = eig[np.argmin(np.abs(eig))].real
        diff = 1.0 / (grids.dt**0.5 * gamma_2_minus(0.5) * mu1)
        prob = make_problem(lambda x, t, u: diff, lambda x, t, u: 0.0,
                            lambda x: np.sin(np.pi * np.asarray(x)), alpha=0.5)
        coarse = run_coarse(prob, op8, grids)
        assert np.isfinite(coarse).all()
        with pytest.raises(SolverFailure) as err:
            fine_propagate(coarse[0], coarse[:1], op8, grids, prob)
        assert err.value.step == (0, 1)
        with pytest.raises(SolverFailure) as err:
            run_fine_sequential(prob, op8, grids)
        assert err.value.step == 0
        # the stacked solve pivot-checks a system shared by its stack, so the
        # parallel stage names the same substep at every thread count
        for threads in (1, 2, 3, 8):
            with pytest.raises(SolverFailure) as err:
                parareal_solve(prob, op8, grids, tol=1e-10, k_max=3, threads=threads)
            assert err.value.step == (0, 1)


class TestConvergenceToFixedPoint:
    def test_error_vs_fine_scheme_solution_decays(self, op16, paper42):
        grids = TimeGrids(1.0, 16, 4)
        fixed = chain_fine(paper42, op16, grids)
        errs = []
        for k in (1, 3, 5):
            iterate, _ = _solve(paper42, op16, grids, tol=None, k_max=k, threads=2,
                                reference=None)
            errs.append(l2_norm(op16, iterate.states[-1] - fixed[-1]))
        assert errs[2] < errs[1] < errs[0]
