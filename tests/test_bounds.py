"""Recurrence bound calculators: oracles, closed forms, and estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafrac import (
    BoundParams,
    LipschitzConstants,
    double_sum_bound,
    double_sum_exact,
    gronwall_brute,
    gronwall_closed,
    l1_weight,
    lipschitz_coarse,
    lipschitz_fine,
    single_sum_bound,
    single_sum_exact,
    iteration_error_bound,
)
from parafrac.l1 import gamma_2_minus


class TestLipschitzCoarse:
    def test_linear_case_is_one(self):
        assert lipschitz_coarse(0.25, 0.5) == 1.0

    def test_small_step_asymptotics(self):
        # value - 1 ~ (Gamma(2-a)/2) (C + L_f) dT^a as dT -> 0
        dT, alpha = 1e-6, 0.5
        got = lipschitz_coarse(dT, alpha, c_diff=1.0, l_f=1.0) - 1.0
        want = 0.5 * gamma_2_minus(alpha) * 2.0 * dT**alpha
        assert got == pytest.approx(want, rel=0.01)

    def test_pole(self):
        alpha = 0.5
        s = 0.25**alpha * gamma_2_minus(alpha)
        assert math.isfinite(lipschitz_coarse(0.25, alpha, l_f=0.999 / s))
        with pytest.raises(ValueError):
            lipschitz_coarse(0.25, alpha, l_f=1.0 / s)

    @pytest.mark.parametrize("alpha", [1.5, 0.0])
    def test_order_checked(self, alpha):
        with pytest.raises(ValueError, match="fractional order"):
            lipschitz_coarse(0.1, alpha, c_diff=1.0)


class TestLipschitzFine:
    def test_single_substep_value(self):
        got = lipschitz_fine(0.25, 0.25, 1, 0.5, r=1)
        want = 1.0 + math.sqrt(2.0 * (2**0.5 - 1.0))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.9102, abs=1e-4)

    def test_history_coupling_decays(self):
        vals = [lipschitz_fine(1.0, 1.0 / m, m, 0.5, r=m) for m in (1, 8, 64, 512)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == pytest.approx(1.0, abs=0.05)

    def test_grid_consistency_checked(self):
        with pytest.raises(ValueError):
            lipschitz_fine(1.0, 0.3, 2, 0.5)

    @pytest.mark.parametrize("args, kwargs", [
        ((0.5, 0.2, 2.5, 0.5), {}),
        ((0.1, 0.05, 2, 0.5), {"r": 1.5}),
    ])
    def test_counts_follow_count_rule(self, args, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            lipschitz_fine(*args, **kwargs)

    def test_endpoint_default(self):
        assert lipschitz_fine(0.5, 0.125, 4, 0.5) == lipschitz_fine(0.5, 0.125, 4, 0.5, r=4)

    def test_uses_fractional_weight(self):
        m, r = 8, 3
        got = lipschitz_fine(1.0, 1.0 / m, m, 0.7, r=r)
        want = 1.0 + math.sqrt(2.0 * l1_weight(r / m, 0.7)) * m**-0.7
        assert got == pytest.approx(want, rel=1e-12)


class TestGronwallBrute:
    def test_degenerate_constant(self):
        for n, k in ((1, 1), (5, 3), (20, 20)):
            assert gronwall_brute(BoundParams(1.0, 0.0, 0.0, n, k)) == 1.0

    def test_pure_shift(self):
        # a=0, b=1, c=0 shifts the initial level diagonally
        for n in range(1, 8):
            for k in range(0, 8):
                want = 1.0 if k <= n - 1 else 0.0
                assert gronwall_brute(BoundParams(0.0, 1.0, 0.0, n, k, e0=1.0)) == want

    def test_overflow_detected(self):
        with pytest.raises(OverflowError):
            gronwall_brute(BoundParams(1e300, 10.0, 10.0, 512, 512))


class TestGronwallClosed:
    def test_matches_brute_on_quoted_point(self):
        p = BoundParams(1.0, 1.1, 1.001, 10, 10, e0=0.0)
        assert gronwall_closed(p) == pytest.approx(gronwall_brute(p), rel=1e-12)

    def test_matches_brute_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            p = BoundParams(
                a=float(rng.uniform(0.0, 2.0)),
                b=float(rng.uniform(0.0, 2.0)),
                c=float(rng.uniform(0.0, 2.0)),
                n=int(rng.integers(1, 21)),
                k=int(rng.integers(0, 21)),
                e0=float(rng.uniform(0.0, 2.0)),
            )
            want = gronwall_brute(p)
            got = gronwall_closed(p)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12), p

    @given(
        a=st.floats(0.0, 3.0),
        b=st.floats(0.0, 3.0),
        c=st.floats(0.0, 3.0),
        e0=st.floats(0.0, 3.0),
        n=st.integers(1, 12),
        k=st.integers(0, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_property(self, a, b, c, e0, n, k):
        p = BoundParams(a, b, c, n, k, e0=e0)
        assert gronwall_closed(p) == pytest.approx(gronwall_brute(p), rel=1e-10, abs=1e-12)

    def test_saturation_is_exact(self):
        base = BoundParams(1.3, 1.1, 1.2, 8, 8, e0=0.7)
        sat = gronwall_closed(base)
        for k in (9, 12, 200):
            p = BoundParams(1.3, 1.1, 1.2, 8, k, e0=0.7)
            assert gronwall_closed(p) == sat

    def test_initial_term_vanishes_at_saturation(self):
        for k in (8, 9, 30):
            p = BoundParams(0.0, 1.1, 1.2, 8, k, e0=5.0)
            assert gronwall_closed(p) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BoundParams(-1.0, 1.0, 1.0, 5, 2)
        with pytest.raises(ValueError):
            BoundParams(1.0, 1.0, 1.0, 0, 2)
        with pytest.raises(ValueError):
            BoundParams(1.0, 1.0, 1.0, 5, 600)
        # a float or bool index is rejected, not run as an integer; numpy integers pass
        for n, k in ((3.5, 1), (3, 1.0), (True, True), (True, 1)):
            with pytest.raises(ValueError, match="must be integers"):
                BoundParams(1.0, 1.1, 1.0, n=n, k=k)
        assert double_sum_exact(BoundParams(1.0, 1.1, 1.0, n=np.int64(3), k=np.int32(1))) == \
            double_sum_exact(BoundParams(1.0, 1.1, 1.0, n=3, k=1))


class TestSingleSum:
    def test_hockey_stick_equality_at_unit_c(self):
        # n=5, k=2: sum of binom(j-1, 1) over j=2..4 equals binom(4, 2)
        p = BoundParams(1.0, 1.0, 1.0, 5, 2)
        assert single_sum_exact(p) == 6.0
        assert single_sum_bound(p) == 6.0
        for n in range(1, 12):
            for k in range(0, n):
                q = BoundParams(1.0, 1.0, 1.0, n, k)
                assert single_sum_exact(q) == single_sum_bound(q)

    def test_bound_dominates(self):
        # the estimate step needs c >= 1, which the coarse growth constant
        # always satisfies
        rng = np.random.default_rng(77)
        for _ in range(200):
            p = BoundParams(
                1.0, 1.0, float(rng.uniform(1.0, 3.0)),
                int(rng.integers(1, 16)), int(rng.integers(0, 16)),
            )
            assert single_sum_bound(p) >= single_sum_exact(p) - 1e-12

    def test_vanishes_from_k_equal_n(self):
        for k in (10, 11, 40):
            p = BoundParams(1.0, 1.0, 1.001, 10, k)
            assert single_sum_exact(p) == 0.0
            assert single_sum_bound(p) == 0.0


class TestDoubleSum:
    def test_bound_dominates(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            p = BoundParams(
                1.0, float(rng.uniform(0.0, 3.0)), float(rng.uniform(1.0 + 1e-6, 3.0)),
                int(rng.integers(1, 16)), int(rng.integers(0, 17)),
            )
            assert double_sum_bound(p) >= double_sum_exact(p) - 1e-12

    def test_exact_saturates_at_k_equal_n(self):
        sat = double_sum_exact(BoundParams(1.0, 1.1, 1.001, 10, 10))
        for k in (11, 12, 64):
            assert double_sum_exact(BoundParams(1.0, 1.1, 1.001, 10, k)) == sat

    def test_limit_form_continuous_at_unit_c(self):
        p_at = BoundParams(1.0, 1.4, 1.0, 9, 4)
        p_near = BoundParams(1.0, 1.4, 1.0 + 1e-7, 9, 4)
        assert double_sum_bound(p_at) == pytest.approx(double_sum_bound(p_near), rel=1e-5)
        assert double_sum_bound(p_at) >= double_sum_exact(p_at) - 1e-12

    def test_depth_one(self):
        assert double_sum_bound(BoundParams(1.0, 2.0, 1.5, 1, 1)) == pytest.approx(1.0)
        assert double_sum_exact(BoundParams(1.0, 2.0, 1.5, 1, 1)) == 1.0


class TestIterationErrorBound:
    CONSTS = LipschitzConstants(c_coarse=1.2, c_fine=1.5)

    def test_constant_derivations_exact(self):
        assert self.CONSTS.a - 1.0 == self.CONSTS.c_fine
        assert self.CONSTS.b == self.CONSTS.a - 1.0 + self.CONSTS.c
        with pytest.raises(ValueError):
            LipschitzConstants(0.9, 1.5)

    def test_index_validation(self):
        for n, k in ((0, 2), (5, -1), (5, 600), (3.5, 1), (3, 1.0), (True, True)):
            with pytest.raises(ValueError):
                iteration_error_bound(self.CONSTS, n, k, fine_err=1e-3, coarse_err=1e-2)
        assert iteration_error_bound(self.CONSTS, np.int64(6), np.int32(3), 1e-3, 1e-2) == \
            iteration_error_bound(self.CONSTS, 6, 3, 1e-3, 1e-2)

    def test_coarse_term_gone_for_k_at_least_n(self):
        val = iteration_error_bound(self.CONSTS, 6, 6, fine_err=1e-3, coarse_err=1e6)
        same = iteration_error_bound(self.CONSTS, 6, 6, fine_err=1e-3, coarse_err=0.0)
        assert val == same

    def test_coarse_term_skipped_where_its_power_overflows(self):
        # b**k overflows, but from k = n on the coarse term is exactly zero
        consts = LipschitzConstants(c_coarse=1.0, c_fine=1e10)
        got = iteration_error_bound(consts, 2, 40, fine_err=1.0, coarse_err=1.0)
        assert got == consts.a * (2.0 + consts.b)  # c = 1: (n + b) (1 + b)^(n-2)

    def test_k_zero_reduces_to_coarse_decay(self):
        c = self.CONSTS.c
        got = iteration_error_bound(self.CONSTS, 7, 0, fine_err=123.0, coarse_err=2.0)
        assert got == pytest.approx(c**6 * 2.0, rel=1e-13)

    def test_monotone_in_errors(self):
        lo = iteration_error_bound(self.CONSTS, 6, 3, 1e-4, 1e-3)
        hi_fine = iteration_error_bound(self.CONSTS, 6, 3, 2e-4, 1e-3)
        hi_coarse = iteration_error_bound(self.CONSTS, 6, 3, 1e-4, 2e-3)
        assert hi_fine > lo and hi_coarse > lo

    def test_dominates_saturated_recurrence(self):
        # from k = n on, the truncation is inactive and the closed-form
        # estimates majorize the exact recurrence value (for k below n the
        # min-truncated first coefficient undercuts the recurrence's own
        # sum, so no such comparison is asserted there)
        consts = LipschitzConstants(c_coarse=1.05, c_fine=1.4)
        fine_err, coarse_err = 1e-4, 1e-2
        for n in (4, 8):
            for k in (n, n + 3):
                p = BoundParams(consts.a * fine_err, consts.b, consts.c, n, k,
                                e0=coarse_err)
                exact = gronwall_brute(p)
                bound = iteration_error_bound(consts, n, k, fine_err, coarse_err)
                assert bound >= exact - 1e-12, (n, k)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: BoundParams(NAN, 1.0, 1.0, 3, 1),
    lambda: BoundParams(1.0, NAN, 1.0, 3, 1),
    lambda: BoundParams(1.0, 1.0, NAN, 3, 1),
    lambda: BoundParams(1.0, 1.0, 1.0, 3, 1, e0=NAN),
    lambda: LipschitzConstants(NAN, 1.0),
    lambda: LipschitzConstants(1.0, NAN),
    lambda: lipschitz_coarse(0.1, 0.5, c_diff=NAN),
    lambda: lipschitz_coarse(0.1, 0.5, l_f=NAN),
    lambda: lipschitz_fine(0.1, 0.05, 2, 0.5, c_diff=NAN),
    lambda: lipschitz_fine(0.1, 0.05, 2, 0.5, l_f=NAN),
    lambda: iteration_error_bound(LipschitzConstants(1.2, 1.5), 4, 1, NAN, 0.1),
    lambda: iteration_error_bound(LipschitzConstants(1.2, 1.5), 4, 1, 0.1, NAN),
], ids=["a", "b", "c", "e0", "c_coarse", "c_fine", "coarse-c_diff", "coarse-l_f",
        "fine-c_diff", "fine-l_f", "fine_err", "coarse_err"])
def test_nan_input_rejected(call):
    with pytest.raises(ValueError):
        call()


INF = float("inf")


@pytest.mark.parametrize("call", [
    lambda: BoundParams(INF, 1.0, 1.0, 3, 1),
    lambda: BoundParams(1.0, INF, 1.0, 3, 1),
    lambda: BoundParams(1.0, 1.0, INF, 3, 1),
    lambda: BoundParams(1.0, 1.0, 1.0, 3, 1, e0=INF),
    lambda: LipschitzConstants(INF, 1.5),
    lambda: LipschitzConstants(1.5, INF),
    # the terms the docstring calls exactly zero would be 0.0 * inf = nan
    lambda: iteration_error_bound(LipschitzConstants(1.2, 1.5), 4, 0, INF, 0.1),
    lambda: iteration_error_bound(LipschitzConstants(1.2, 1.5), 4, 4, 0.1, INF),
    # not inf, and not the step-size message that 0 * inf = nan gave
    lambda: lipschitz_coarse(0.1, 0.5, c_diff=INF),
    lambda: lipschitz_coarse(0.1, 0.5, l_f=INF),
    lambda: lipschitz_coarse(INF, 0.5),
    lambda: lipschitz_fine(0.1, 0.05, 2, 0.5, c_diff=INF),
    lambda: lipschitz_fine(0.1, 0.05, 2, 0.5, l_f=INF),
    lambda: lipschitz_fine(INF, INF, 2, 0.5),
], ids=["a", "b", "c", "e0", "c_coarse", "c_fine", "fine_err-k0", "coarse_err-k-at-n",
        "coarse-c_diff", "coarse-l_f", "coarse-step", "fine-c_diff", "fine-l_f", "fine-step"])
def test_infinite_input_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()
