"""Driver behavior: correction identity, termination, determinism, guards."""

import os

import numpy as np
import pytest

from parafrac import (
    DivergenceError,
    ParafracError,
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
from parafrac.l1 import gamma_2_minus
from parafrac.parareal import _block_bounds, _solve
from parafrac.spectral import l2_norm

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


class TestDeterminism:
    def test_thread_count_invariance(self, op16, paper42):
        grids = TimeGrids(1.0, 32, 8)
        states = {}
        for threads in (1, 2, os.cpu_count() or 2):
            iterate, _ = parareal_solve(paper42, op16, grids, tol=1e-10, k_max=5,
                                        threads=threads)
            states[threads] = iterate.states
        baseline = states[1]
        for other in states.values():
            assert np.abs(other - baseline).max() <= 1e-13


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
        # earliest substep wins, as in one block, whichever block fails first
        def source(x, t, u):
            bad = ((t > 2 / 8 + 2.5 / 32) & (t < 3 / 8)) | ((t > 6 / 8 + 0.5 / 32) & (t < 7 / 8))
            return np.where(bad, np.nan, 0.0) + 0.0 * u

        prob = make_problem(lambda x, t, u: 1.0, source,
                            lambda x: np.sin(np.pi * np.asarray(x)))
        grids = TimeGrids(1.0, 8, 4)
        for threads in (1, 2, 3, grids.nt):
            with pytest.raises(SolverFailure) as err:
                parareal_solve(prob, op8, grids, tol=1e-10, k_max=3, threads=threads)
            assert err.value.step == (6, 2), threads


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
        # the stacked solve of the parallel stage has no pivot check; the
        # failure surfaces later, through the divergence guard
        with pytest.raises(ParafracError):
            parareal_solve(prob, op8, grids, tol=1e-10, k_max=3, threads=1)


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
