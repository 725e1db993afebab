"""Weight identities and the two discrete Caputo operators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from parafrac import (
    TimeGrids,
    caputo_power,
    discrete_caputo_coarse,
    discrete_caputo_hybrid,
    get_problem,
    l1_weight,
)
from parafrac.l1 import FractionalWeights, _telescoped, gamma_2_minus, weights_for

ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


class TestWeights:
    def test_first_weight_is_one(self):
        for alpha in ALPHAS:
            assert l1_weight(0.0, alpha) == 1.0

    def test_known_values(self):
        assert l1_weight(1, 0.5) == pytest.approx(2**0.5 - 1, abs=1e-15)
        assert l1_weight(0.5, 0.5) == pytest.approx(1.5**0.5 - 0.5**0.5, abs=1e-15)
        assert l1_weight(3, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            l1_weight(-0.1, 0.5)
        with pytest.raises(ValueError):
            l1_weight(1.0, 0.0)
        with pytest.raises(ValueError):
            l1_weight(1.0, 1.5)
        # the weight grid applies the count rule to both arguments: floats and
        # bool raise ValueError and leave nothing in the cache; numpy integers pass
        wt = FractionalWeights(0.5)
        for denom, count in ((1, 2.5), (1.5, 4), (True, 3), (0, 3), (1, 0)):
            with pytest.raises(ValueError, match="positive integers"):
                wt.on_grid(denom, count)
        assert wt._grids == {}
        assert np.array_equal(wt.on_grid(np.int64(2), np.int32(5)), wt.on_grid(2, 5))

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_index_rejected(self, x):
        with pytest.raises(ValueError, match="weight index"):
            l1_weight(x, 0.5)

    def test_alpha_one_collapse(self):
        w = weights_for(1.0).on_grid(1, 50)
        assert w[0] == 1.0
        assert not w[1:].any()
        assert l1_weight(0.25, 1.0) == 0.0

    @given(
        alpha=st.floats(0.05, 0.95),
        x=st.floats(0.0, 100.0),
        step=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, alpha, x, step):
        assert l1_weight(x, alpha) > l1_weight(x + step, alpha)

    def test_telescoping_sum(self):
        # b_n + sum_i (b_{n-i} - b_{n-i+1}) = 1; compensated running sums
        for alpha in (0.3, 0.5, 0.9):
            b = weights_for(alpha).on_grid(1, 10_001)
            d = b[:-1] - b[1:]
            total, carry = 0.0, 0.0
            for n in range(1, 10_001):
                term = d[n - 1] - carry
                fresh = total + term
                carry = (fresh - total) - term
                total = fresh
                assert abs(b[n] + total - 1.0) <= 1e-13, (alpha, n)

    def test_grid_cache_grows_and_is_readonly(self):
        wt = FractionalWeights(0.5)
        short = wt.on_grid(1, 4)
        long = wt.on_grid(1, 128)
        assert np.array_equal(short, long[:4])
        with pytest.raises(ValueError):
            long[0] = 2.0

    def test_grid_matches_scalar(self):
        wt = FractionalWeights(0.7)
        grid = wt.on_grid(4, 13)
        for q in range(13):
            assert grid[q] == l1_weight(q / 4, 0.7)

    def test_fine_rows_shapes(self):
        rows = list(FractionalWeights(0.5).fine_rows(6))
        assert [len(r) for r in rows] == [1, 2, 3, 4, 5, 6]
        assert rows[0][0] == 1.0  # b_0 multiplies the start at r = 1
        for m in (1, 6, 33):
            wt = FractionalWeights(0.5)
            rows = list(wt.fine_rows(m))
            b = wt.on_grid(1, m)
            assert len(rows) == m
            for r in range(1, m + 1):
                assert np.array_equal(rows[r - 1], _telescoped(b, r - 1)), (m, r)
        # O(m) storage: the m rows together would take m(m+1)/2 floats, 16 MiB
        # here, and a march holds one row at a time
        tracemalloc.start()
        try:
            count = sum(1 for _ in FractionalWeights(0.5).fine_rows(2048))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2048
        assert peak < 2**20


class TestCoarseOperator:
    def test_annihilates_constants(self):
        for n in (0, 1, 5, 40):
            hist = np.full(n + 2, 3.7)
            val = discrete_caputo_coarse(hist, 0.1, 0.5)
            assert abs(val) <= 1e-12 * 3.7

    def test_alpha_one_is_backward_difference(self):
        rng = np.random.default_rng(7)
        hist = rng.normal(size=9)
        dT = 0.125
        got = discrete_caputo_coarse(hist, dT, 1.0)
        assert got == (hist[-1] - hist[-2]) / dT

    def test_linear_function_is_exact(self):
        # piecewise-linear interpolation reproduces y = t, so the operator
        # equals the analytic derivative at every step size
        analytic = caputo_power(1.0, 0.5, 1.0)
        assert analytic == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)
        errs = []
        for nt in (4, 8, 16, 32):
            hist = np.linspace(0.0, 1.0, nt + 1)
            got = discrete_caputo_coarse(hist, 1.0 / nt, 0.5)
            errs.append(abs(got - analytic))
        assert errs[0] <= 1e-12
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12

    def test_short_history_rejected(self):
        with pytest.raises(ValueError):
            discrete_caputo_coarse([1.0], 0.1, 0.5)


def _hybrid_inputs(y, grids, n, r):
    coarse = [y(i * grids.dT) for i in range(n + 1)]
    fine = [y(n * grids.dT + j * grids.dt) for j in range(r + 1)]
    return coarse, fine


class TestHybridOperator:
    def test_annihilates_constants(self):
        grids = TimeGrids(1.0, 6, 5)
        for n in (0, 1, 4):
            for r in (1, 3, 5):
                coarse = [2.5] * (n + 1)
                fine = [2.5] * (r + 1)
                assert abs(discrete_caputo_hybrid(coarse, fine, grids, 0.6)) <= 1e-12 * 2.5

    def test_m_equal_one_collapse(self):
        rng = np.random.default_rng(3)
        for alpha in (0.3, 0.8):
            for n in range(0, 65, 8):
                vals = rng.normal(size=n + 2)
                grids = TimeGrids(float(n + 1) * 0.05, n + 1, 1)
                got = discrete_caputo_hybrid(vals[: n + 1], vals[n : n + 2], grids, alpha)
                want = discrete_caputo_coarse(vals, grids.dT, alpha)
                assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_n0_equals_coarse_on_fine_grid(self):
        y = lambda t: t**0.4 + 0.2 * t
        grids = TimeGrids(1.0, 4, 8)
        for r in (1, 4, 8):
            coarse, fine = _hybrid_inputs(y, grids, 0, r)
            got = discrete_caputo_hybrid(coarse, fine, grids, 0.5)
            want = discrete_caputo_coarse(fine, grids.dt, 0.5)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_continuity_mismatch_rejected(self):
        grids = TimeGrids(1.0, 4, 4)
        with pytest.raises(ValueError):
            discrete_caputo_hybrid([0.0, 1.0], [0.5, 0.6], grids, 0.5)

    def test_bad_fine_index_rejected(self):
        grids = TimeGrids(1.0, 4, 2)
        with pytest.raises(ValueError):
            discrete_caputo_hybrid([0.0], [0.0, 0.1, 0.2, 0.3], grids, 0.5)

    def test_quadrature_oracle(self):
        # the operator must equal the exact Caputo derivative of the
        # piecewise-linear interpolant on the composite grid
        alpha = 0.6
        y = lambda t: t**0.4 + 0.3 * math.sin(2 * t)
        grids = TimeGrids(1.0, 5, 4)
        n, r = 3, 3
        coarse, fine = _hybrid_inputs(y, grids, n, r)
        times = [i * grids.dT for i in range(n + 1)]
        times += [n * grids.dT + j * grids.dt for j in range(1, r + 1)]
        vals = list(coarse) + list(fine[1:])
        t_eval = grids.fine_node(n, r)

        total = 0.0
        for (ta, va), (tb, vb) in zip(zip(times, vals), zip(times[1:], vals[1:])):
            slope = (vb - va) / (tb - ta)
            contrib, _ = quad(lambda s: (t_eval - s) ** (-alpha) * slope, ta, min(tb, t_eval))
            total += contrib
        oracle = total / math.gamma(1.0 - alpha)

        got = discrete_caputo_hybrid(coarse, fine, grids, alpha)
        assert got == pytest.approx(oracle, abs=5e-10)

    def test_error_decays_away_from_origin(self):
        # error against the analytic derivative at the fixed physical time
        # t = 3/4 (endpoint of interval 3*nt/4 - 1), fine step halving with
        # the subdivision held fixed; the guaranteed order away from the
        # origin is at least 1 - alpha
        for alpha in (0.3, 0.5, 0.7):
            y = lambda t: t**alpha + t
            dcap = lambda t: caputo_power(alpha, alpha, t) + caputo_power(1.0, alpha, t)
            errs, dts = [], []
            for nt in (8, 16, 32, 64):
                grids = TimeGrids(1.0, nt, 4)
                n = 3 * nt // 4 - 1
                coarse, fine = _hybrid_inputs(y, grids, n, grids.m)
                err = abs(discrete_caputo_hybrid(coarse, fine, grids, alpha) - dcap(grids.fine_node(n, grids.m)))
                errs.append(err)
                dts.append(grids.dt)
            slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            assert slope >= (1.0 - alpha) - 0.2, (alpha, slope)
            assert errs[-1] < errs[0]


class TestAnalyticOracle:
    def test_constant_annihilated(self):
        assert caputo_power(0.0, 0.5, 2.0) == 0.0

    def test_classical_limit(self):
        # alpha = 1 recovers the classical derivative of t^beta
        assert caputo_power(3.0, 1.0, 2.0) == pytest.approx(3 * 2.0**2, rel=1e-13)

    def test_half_derivative_of_root(self):
        # d^0.5 t^0.5 is the constant Gamma(1.5)
        for t in (0.25, 1.0, 3.0):
            assert caputo_power(0.5, 0.5, t) == pytest.approx(math.gamma(1.5), rel=1e-13)

    @pytest.mark.parametrize("exponent, t, match", [
        (1.0, -1.0, "time"), (1.0, math.nan, "time"), (math.nan, 1.0, "power"),
    ])
    def test_bad_time_or_power_rejected(self, exponent, t, match):
        with pytest.raises(ValueError, match=match):
            caputo_power(exponent, 0.5, t)

    def test_gamma_route(self):
        assert gamma_2_minus(1.0) == 1.0
        assert gamma_2_minus(0.5) == pytest.approx(math.gamma(1.5), rel=1e-15)


class TestTimeGrids:
    @pytest.mark.parametrize("nt, m", [(2.5, 4), (4.0, 2), (4, 2.0), (True, 2), ("4", 2)])
    def test_non_integer_counts_rejected(self, nt, m):
        with pytest.raises(ValueError, match="integers"):
            TimeGrids(1.0, nt, m)

    @pytest.mark.parametrize("t_final", [0.0, -1.0, math.inf, math.nan])
    def test_final_time_positive_and_finite(self, t_final):
        # both owners of a final time apply the one rule
        with pytest.raises(ValueError, match="final time"):
            TimeGrids(t_final, 4, 2)
        with pytest.raises(ValueError, match="final time"):
            get_problem("paper42", t_final=t_final)

    def test_numpy_integer_counts_accepted(self):
        grids = TimeGrids(1.0, np.int64(4), np.int32(2))
        assert grids.total_fine == 8 and grids.dt == 0.125
