"""Benchmark records and the truncation study."""

import numpy as np
import pytest

from parafrac.harness import (
    TRUNCATION_FUNCTIONS,
    bench_point,
    fit_loglog,
    truncation_study,
)


class TestFitLoglog:
    def test_recovers_power(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_loglog(x, x**2) == pytest.approx(2.0, abs=1e-12)

    def test_underdetermined_is_nan(self):
        assert np.isnan(fit_loglog([1.0], [1.0]))
        assert np.isnan(fit_loglog([1.0, 2.0], [0.0, 0.0]))


class TestTruncationStudy:
    def test_constant_function_exact(self):
        study = truncation_study(0.5, 2, (4, 8), function="const")
        errs = [row[-1] for row in study.rows]
        assert max(errs) <= 1e-12

    def test_linear_function_exact(self):
        # piecewise-linear interpolation reproduces y = t, so the operator
        # is exact up to round-off at every node
        study = truncation_study(0.5, 4, (4, 8), function="linear")
        errs = [row[-1] for row in study.rows]
        assert max(errs) <= 1e-12

    def test_row_layout(self):
        study = truncation_study(0.5, 3, (4, 8), function="root")
        assert len(study.rows) == 4 * 3 + 8 * 3
        nt, dt, region, n, r, t, err = study.rows[0]
        assert (nt, n, r) == (4, 0, 1)
        assert region == "n0"
        assert dt == pytest.approx(1.0 / 12.0)
        regions = {row[2] for row in study.rows}
        assert regions == {"n0", "n1", "n2plus"}

    def test_root_errors_shrink_with_refinement(self):
        study = truncation_study(0.5, 4, (8, 16, 32), function="root")
        assert study.orders["n2plus"] > 0.0
        assert set(study.orders) == {"n0", "n1", "n2plus"}

    def test_mixed_order_meets_guarantee(self):
        # guaranteed order away from the origin is 1 - alpha; the smooth
        # test family converges at least that fast
        for alpha in (0.3, 0.7):
            study = truncation_study(alpha, 4, (8, 16, 32, 64), function="mixed")
            assert study.orders["n2plus"] >= (1.0 - alpha) - 0.2

    def test_probe_fixed_at_three_quarters(self):
        # the n >= 2 order is fitted at t = 3/4 * t_final, the same physical
        # time on every level of a sweep whose nt are multiples of 4
        study = truncation_study(0.5, 4, (8, 16, 32), function="mixed", t_final=2.0)
        probes = [(row[1], row[-1]) for row in study.rows
                  if row[4] == 4 and row[5] == pytest.approx(1.5, abs=1e-12)]
        assert len(probes) == 3
        dts, errs = zip(*probes)
        assert study.orders["n2plus"] == pytest.approx(fit_loglog(dts, errs), rel=1e-12)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            truncation_study(0.5, 2, (4,), function="nope")
        with pytest.raises(ValueError):
            truncation_study(0.5, 2, (), function="root")

    def test_non_integer_counts_rejected(self):
        # a float level is rejected, not marched as int(level) under its own label
        for m, sweep in ((2, (8.7, 16)), (2.0, (8, 16)), (2, (True, 16))):
            with pytest.raises(ValueError, match="integers"):
                truncation_study(0.5, m, sweep, function="const")

    def test_sweep_too_short_to_fit_rejected(self):
        for sweep in ((4,), (8, 8)):
            with pytest.raises(ValueError, match="two distinct"):
                truncation_study(0.5, 2, sweep, function="root")

    def test_registry_names(self):
        assert set(TRUNCATION_FUNCTIONS) == {"const", "linear", "root", "mixed"}


class TestBench:
    def test_record_consistency(self):
        rec = bench_point("paper42", 64, degree=8, m=8, threads=1, reps=1)
        assert rec.dof == rec.nt * rec.m == 64
        assert rec.wall_fine > 0 and rec.wall_parareal > 0
        assert rec.speedup == pytest.approx(rec.wall_fine / rec.wall_parareal)
        assert rec.iterations >= 1
        assert rec.peak_alloc_fine > 0 and rec.peak_alloc_parareal > 0

    def test_parareal_peak_independent_of_threads(self):
        # tracemalloc cannot see worker processes, so a peak traced at
        # threads=2 missed the blocks they march (0.71x of threads=1 here).
        # The first call fills the lazy weight tables; tracemalloc peaks of
        # one solve still vary by about 1% from run to run.
        peaks = [bench_point("paper42", 256, degree=16, m=8, threads=threads,
                             reps=1).peak_alloc_parareal
                 for threads in (1, 2, 1)]
        assert peaks[1] == pytest.approx(peaks[2], rel=0.05)

    def test_parareal_peak_independent_of_threads_cold_grid(self):
        # no other test uses this order, so the timed runs at threads=2 leave
        # the caller's b_{q/m} grid covering its own blocks only; growing it
        # inside the traced solve read 1.19x the threads=1 peak here
        peaks = [bench_point("paper42", 2048, alpha=0.4375, degree=8, m=128, threads=threads,
                             reps=1).peak_alloc_parareal
                 for threads in (2, 1)]
        assert peaks[0] == pytest.approx(peaks[1], rel=0.05)

    def test_single_thread_record_still_written(self):
        rec = bench_point("paper42", 32, degree=8, m=4, threads=1, reps=1)
        assert rec.speedup > 0.0

    def test_m_clipped_to_dof(self):
        rec = bench_point("paper42", 8, degree=8, m=32, threads=1, reps=1)
        assert rec.m == 8 and rec.nt == 1

    def test_bad_counts_rejected(self):
        # rejected, not clamped to 1 dof, 1 rep or m = 1
        for kwargs in ({"dof": 0}, {"dof": -5}, {"dof": 8.0}, {"reps": 0}, {"reps": -3},
                       {"reps": True}, {"m": 0}, {"m": -3}, {"m": 2.5}):
            args = {"dof": 16, "degree": 8, "m": 4, "reps": 1, **kwargs}
            with pytest.raises(ValueError):
                bench_point("paper42", args.pop("dof"), **args)

    def test_empty_sweep_rejected(self, monkeypatch):
        # the empty-sweep rule lives in cli.cmd_bench, which loops over
        # bench_point itself; it must stop before any point is timed
        import parafrac.cli as cli

        calls = []
        monkeypatch.setattr(cli, "bench_point", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="sweep"):
            cli.cmd_bench(cli.RunConfig(sweep=()))
        assert calls == []
