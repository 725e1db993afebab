"""Collocation nodes, differentiation matrices, quadrature, diffusion assembly."""

import numpy as np
import pytest

from parafrac import ProblemSpec, assemble_diffusion, build_operator, l2_norm
from parafrac.errors import CoefficientError
from parafrac.spectral import clenshaw_curtis_weights

from conftest import make_problem, zero_coefficient


def closed_form_d1(degree, a, b):
    """Independent oracle: off-diagonals plus the explicit diagonal formulas."""
    j = np.arange(degree + 1)
    xi = np.cos(np.pi * j / degree)
    c = np.where((j == 0) | (j == degree), 2.0, 1.0) * (-1.0) ** j
    d = np.empty((degree + 1, degree + 1))
    for i in range(degree + 1):
        for k in range(degree + 1):
            if i != k:
                d[i, k] = (c[i] / c[k]) / (xi[i] - xi[k])
    d[0, 0] = (2 * degree**2 + 1) / 6
    d[degree, degree] = -(2 * degree**2 + 1) / 6
    for i in range(1, degree):
        d[i, i] = -xi[i] / (2 * (1 - xi[i] ** 2))
    return d * (2.0 / (b - a))


class TestBuildOperator:
    def test_reference_nodes_degree_two(self):
        op = build_operator(2, -1.0, 1.0)
        assert np.allclose(op.nodes, [1.0, 0.0, -1.0], atol=1e-15)

    def test_corner_diagonal_closed_form(self):
        op = build_operator(2, -1.0, 1.0)
        assert op.d1[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_diagonal_matches_closed_form(self):
        for degree in (2, 5, 16, 64):
            op = build_operator(degree, -1.0, 1.0)
            oracle = closed_form_d1(degree, -1.0, 1.0)
            assert np.abs(op.d1 - oracle).max() <= 1e-10

    def test_row_sums_vanish(self):
        for degree in (4, 16, 64):
            op = build_operator(degree, 0.0, 2.0)
            assert np.abs(op.d1.sum(axis=1)).max() <= 1e-10 * degree**2

    def test_second_matrix_is_square_of_first(self):
        op = build_operator(12, 0.0, 1.0)
        assert np.array_equal(op.d2, op.d1 @ op.d1)

    def test_scaling_covariance(self):
        ref = build_operator(10, -1.0, 1.0)
        phys = build_operator(10, 0.25, 0.75)
        assert np.abs(phys.d1 - ref.d1 * (2.0 / 0.5)).max() <= 1e-13 * np.abs(phys.d1).max()

    def test_node_antisymmetry(self):
        op = build_operator(17, -1.0, 1.0)
        assert np.abs(op.nodes + op.nodes[::-1]).max() <= 1e-15

    def test_polynomial_exactness(self):
        rng = np.random.default_rng(42)
        for degree in (4, 8, 16, 32):
            op = build_operator(degree, -1.0, 1.0)
            for _ in range(5):
                coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
                poly = np.polynomial.Polynomial(coeffs)
                err = np.abs(op.d1 @ poly(op.nodes) - poly.deriv()(op.nodes)).max()
                assert err <= 1e-8, (degree, err)

    def test_cubic_on_unit_interval(self):
        op = build_operator(8, 0.0, 1.0)
        got = op.d1 @ op.nodes**3
        assert np.abs(got - 3 * op.nodes**2).max() <= 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_operator(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            build_operator(8, 1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0),
                                      (0.0, np.nan)])
    def test_interval_ends_finite(self, a, b):
        # both owners of an interval apply the one rule
        with pytest.raises(ValueError, match="invalid interval"):
            build_operator(8, a, b)
        with pytest.raises(ValueError, match="invalid interval"):
            ProblemSpec(a, b, 1.0, 0.5, zero_coefficient, zero_coefficient, lambda x: 0.0 * x)

    @pytest.mark.parametrize("degree", [8.0, 8.5, True])
    def test_degree_follows_count_rule(self, degree):
        with pytest.raises(ValueError, match="degree must be an integer"):
            build_operator(degree, 0.0, 1.0)

    def test_numpy_integer_degree_accepted(self):
        op = build_operator(np.int64(8), 0.0, 1.0)
        assert op.interior_size == 7
        assert np.array_equal(op.d2, build_operator(8, 0.0, 1.0).d2)

    def test_arrays_are_readonly(self):
        op = build_operator(6, 0.0, 1.0)
        with pytest.raises(ValueError):
            op.d1[0, 0] = 0.0


class TestQuadrature:
    def test_weights_sum_to_interval_length(self):
        for degree in (2, 7, 16, 33):
            w = clenshaw_curtis_weights(degree)
            assert abs(w.sum() - 2.0) <= 1e-12
            op = build_operator(degree, 0.0, 2.5)
            assert abs(op.quad_weights.sum() - 2.5) <= 1e-12

    def test_weights_nonnegative(self):
        for degree in (2, 9, 16, 64):
            assert clenshaw_curtis_weights(degree).min() >= 0.0

    def test_degree_follows_count_rule(self):
        with pytest.raises(ValueError, match="degree must be an integer"):
            clenshaw_curtis_weights(4.5)

    def test_degree_one_is_trapezoid(self):
        assert np.array_equal(clenshaw_curtis_weights(1), [1.0, 1.0])

    def test_polynomial_integration(self):
        w = clenshaw_curtis_weights(8)
        x = np.cos(np.pi * np.arange(9) / 8)
        assert np.dot(w, x**2) == pytest.approx(2.0 / 3.0, abs=1e-13)
        assert np.dot(w, x**7) == pytest.approx(0.0, abs=1e-13)


class TestL2Norm:
    def test_zero_vector(self, op16):
        assert l2_norm(op16, np.zeros(15)) == 0.0

    def test_sine_profile(self, op16):
        v = np.sin(np.pi * op16.interior_nodes)
        assert l2_norm(op16, v) == pytest.approx(2**-0.5, abs=1e-6)

    def test_constant_vector_baseline(self, op16):
        # forced zero boundary entries leave a small quadrature deficit;
        # regression value from the first verified run
        got = l2_norm(op16, np.ones(15))
        assert got == pytest.approx(0.9980372895701588, abs=1e-13)

    def test_matches_dense_quadrature_of_interpolant(self, op16):
        # oracle: interpolate smooth nodal values (zero at the boundary) on a
        # dense grid and integrate the square with the trapezoid rule
        full = np.sin(np.pi * op16.nodes) * np.exp(op16.nodes)
        dense = np.linspace(0.0, 1.0, 20001)
        interp = _barycentric(op16.nodes, full.copy(), dense)
        want = np.sqrt(np.trapezoid(interp**2, dense))
        assert l2_norm(op16, full[1:-1]) == pytest.approx(want, rel=1e-6)


def _barycentric(nodes, vals, x):
    n = len(nodes) - 1
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    w *= (-1.0) ** np.arange(n + 1)
    num = np.zeros_like(x)
    den = np.zeros_like(x)
    exact = np.full(x.shape, np.nan)
    for j in range(n + 1):
        diff = x - nodes[j]
        hit = diff == 0.0
        exact[hit] = vals[j]
        diff[hit] = 1.0
        num += w[j] * vals[j] / diff
        den += w[j] / diff
    out = num / den
    mask = ~np.isnan(exact)
    out[mask] = exact[mask]
    return out


class TestAssembleDiffusion:
    def test_unit_coefficient_gives_interior_d2(self, op8, paper42):
        prob = make_problem(lambda x, t, u: 1.0, lambda x, t, u: 0.0, lambda x: 0.0 * np.asarray(x))
        got = assemble_diffusion(op8, np.zeros(7), 0.0, prob)
        assert np.allclose(got, op8.d2[1:-1, 1:-1], rtol=0, atol=1e-13)

    def test_constant_coefficient_scales(self, op8):
        kappa = 3.25
        prob = make_problem(lambda x, t, u: kappa, lambda x, t, u: 0.0, lambda x: 0.0 * np.asarray(x))
        got = assemble_diffusion(op8, np.zeros(7), 0.0, prob)
        assert np.abs(got - kappa * op8.d2[1:-1, 1:-1]).max() <= 1e-11 * kappa

    def test_one_plus_u_at_zero_state(self, op8, paper42):
        got = assemble_diffusion(op8, np.zeros(7), 0.3, paper42)
        assert np.allclose(got, op8.d2[1:-1, 1:-1], rtol=0, atol=1e-13)

    def test_nonfinite_coefficient_reports_node(self, op8):
        def bad(x, t, u):
            out = np.ones_like(np.asarray(x, dtype=float))
            out[3] = np.nan
            return out

        prob = make_problem(bad, lambda x, t, u: 0.0, lambda x: 0.0 * np.asarray(x))
        with pytest.raises(CoefficientError) as err:
            assemble_diffusion(op8, np.zeros(7), 0.0, prob)
        assert err.value.node_index == 3

    def test_state_size_checked(self, op8, paper42):
        with pytest.raises(ValueError):
            assemble_diffusion(op8, np.zeros(9), 0.0, paper42)


class TestAssembleDiffusionStack:
    """A stack of 5 states: the coefficient is broadcast over the axes it has.

    Several degrees, so that the one-matrix result is pinned bitwise against
    the stacked one on whichever BLAS runs the product.
    """

    @staticmethod
    def _setup(degree):
        op = build_operator(degree, 0.0, 1.0)
        states = np.random.default_rng(degree).standard_normal((5, op.interior_size))
        return op, states

    @staticmethod
    def _problem(diffusion):
        return make_problem(diffusion, lambda x, t, u: 0.0, lambda x: 0.0 * np.asarray(x))

    @pytest.mark.parametrize("degree", [8, 16, 64])
    @pytest.mark.parametrize("coefficient", [
        lambda x: 2.5,
        lambda x: 1.0 + x,
    ], ids=["scalar", "x-only"])
    def test_no_stack_axis_gives_one_matrix(self, degree, coefficient):
        op, states = self._setup(degree)
        size = op.interior_size
        one = assemble_diffusion(op, states, 0.3, self._problem(lambda x, t, u: coefficient(x)))
        assert one.shape == (size, size)
        stacked = assemble_diffusion(
            op, states, 0.3, self._problem(lambda x, t, u: coefficient(x) + 0.0 * u))
        assert stacked.shape == (5, size, size)
        for matrix in stacked:
            assert np.array_equal(one, matrix)

    @pytest.mark.parametrize("degree", [8, 16, 64])
    @pytest.mark.parametrize("shape", ["state", "stack", "time-column", "scalar"])
    def test_interior_block_of_full_grid_product(self, degree, shape):
        # only the interior block is built; its bits are those of the full
        # (n+1, n+1) product with the boundary rows and columns dropped
        op, states = self._setup(degree)
        state, t, coefficient = {
            "state": (states[0], 0.3, lambda x, t, u: 1.0 + u),
            "stack": (states, 0.3, lambda x, t, u: 1.0 + u),
            "time-column": (states, np.linspace(0.1, 0.5, 5)[:, None], lambda x, t, u: 1.0 + t),
            "scalar": (states, 0.3, lambda x, t, u: 2.5),
        }[shape]
        full = np.zeros(state.shape[:-1] + op.nodes.shape)
        full[..., 1:-1] = state
        dv = np.asarray(coefficient(op.nodes, t, full), dtype=float)
        dv = np.broadcast_to(dv, full.shape[full.ndim - max(dv.ndim, 1):])
        want = ((op.d1 * dv[..., None, :]) @ op.d1)[..., 1:-1, 1:-1]
        got = assemble_diffusion(op, state, t, self._problem(coefficient))
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("degree", [8, 16, 64])
    def test_time_column_keeps_the_stack(self, degree):
        op, states = self._setup(degree)
        prob = self._problem(lambda x, t, u: 1.0 + t)
        times = np.linspace(0.1, 0.5, 5)[:, None]
        got = assemble_diffusion(op, states, times, prob)
        assert got.shape == (5, op.interior_size, op.interior_size)
        for i, t in enumerate(times[:, 0]):
            assert np.array_equal(got[i], assemble_diffusion(op, states[i], t, prob))

    @pytest.mark.parametrize("degree", [8, 16, 64])
    def test_extra_leading_axis_rejected(self, degree):
        op, states = self._setup(degree)
        prob = self._problem(lambda x, t, u: np.ones((2,) + np.shape(u)))
        with pytest.raises(ValueError):
            assemble_diffusion(op, states, 0.0, prob)
        with pytest.raises(ValueError):
            assemble_diffusion(op, states[0], 0.0, prob)
