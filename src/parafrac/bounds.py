"""Calculators for the convergence analysis of the parareal iteration.

Covers the one-step growth constants of the two propagators, the
two-index recurrence ``E[k+1, n+1] <= a + b E[k, n] + c E[k+1, n]``
(brute-force table and closed form), the closed-form estimates of the
binomial sums appearing in it, and the composite two-term error bound
that combines them with measured propagator errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .l1 import gamma_2_minus, l1_weight

__all__ = [
    "BoundParams",
    "LipschitzConstants",
    "double_sum_bound",
    "double_sum_exact",
    "gronwall_brute",
    "gronwall_closed",
    "lipschitz_coarse",
    "lipschitz_fine",
    "single_sum_bound",
    "single_sum_exact",
    "iteration_error_bound",
]

INDEX_CAP = 512
# below this distance from c = 1 the closed forms switch to their analytic limit
C_LIMIT_TOL = 1e-9


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the recurrence ``E[k+1, n+1] <= a + b E[k, n] + c E[k+1, n]``.

    ``e0`` is the error level of the initial sweep (``E[0, n] = e0`` for
    ``n >= 1``).  The analysis assumes strictly positive ``a, b, c``;
    zero values are accepted here so degenerate cases stay checkable.
    """

    a: float
    b: float
    c: float
    n: int
    k: int
    e0: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "e0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 1 <= self.n <= INDEX_CAP:
            raise ValueError(f"n must lie in 1..{INDEX_CAP}")
        if not 0 <= self.k <= INDEX_CAP:
            raise ValueError(f"k must lie in 0..{INDEX_CAP}")


@dataclass(frozen=True)
class LipschitzConstants:
    """Propagator growth constants and the recurrence coefficients they induce."""

    c_coarse: float
    c_fine: float

    def __post_init__(self):
        if self.c_coarse < 1.0 or self.c_fine < 1.0:
            raise ValueError("growth constants must be at least 1")

    @property
    def a(self):
        return 1.0 + self.c_fine

    @property
    def b(self):
        return self.c_fine + self.c_coarse

    @property
    def c(self):
        return self.c_coarse


def lipschitz_coarse(dT, alpha, c_diff=0.0, l_f=0.0):
    """Growth factor of one coarse step under history perturbations.

    ``c_diff`` absorbs the solution-dependence of the diffusion
    coefficient, ``l_f`` is the source Lipschitz constant; both vanish for
    linear problems, giving the factor 1.
    """
    if not dT > 0:
        raise ValueError("step must be positive")
    if c_diff < 0 or l_f < 0:
        raise ValueError("constants must be nonnegative")
    s = dT**alpha * gamma_2_minus(alpha)
    den = 1.0 - l_f * s
    if den <= 0:
        raise ValueError("time step too large for the given source Lipschitz constant")
    return math.sqrt((1.0 + c_diff * s) / den)


def lipschitz_fine(dT, dt, m, alpha, c_diff=0.0, l_f=0.0, r=None):
    """Growth factor of the fine propagator at substep ``r`` (default the endpoint).

    Splits into a within-interval factor and a history coupling that decays
    like ``m^-alpha``; the endpoint ``r = m`` is the constant used when a
    single number per interval is needed.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not (dt > 0 and dT > 0):
        raise ValueError("steps must be positive")
    if abs(dT - m * dt) > 1e-9 * dT:
        raise ValueError("grids disagree: dT must equal m * dt")
    if r is None:
        r = m
    if not 1 <= r <= m:
        raise ValueError(f"substep r={r} outside 1..{m}")
    if c_diff < 0 or l_f < 0:
        raise ValueError("constants must be nonnegative")
    s = dt**alpha * gamma_2_minus(alpha)
    den = 1.0 - l_f * s
    if den <= 0:
        raise ValueError("time step too large for the given source Lipschitz constant")
    history = math.sqrt(2.0 * l1_weight(r / m, alpha)) * float(m) ** (-alpha)
    return (math.sqrt(1.0 + c_diff * s) + history) / math.sqrt(den)


def gronwall_brute(params):
    """Brute-force oracle: iterate the recurrence table and read off ``f[k, n]``."""
    p = params
    f = np.zeros((p.k + 1, p.n + 1))
    f[0, 1:] = p.e0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(p.k):
            prev = f[k]
            row = f[k + 1]
            for n in range(p.n):
                row[n + 1] = p.a + p.b * prev[n] + p.c * row[n]
    out = float(f[p.k, p.n])
    if not math.isfinite(out):
        raise OverflowError("recurrence table overflows the float range")
    return out


def _double_sum(b, c, n, k):
    # terms with j >= n vanish (inner range empty), hence the min: values
    # for k >= n are computed from the identical term set and saturate exactly
    terms = []
    try:
        for j in range(min(k, n)):
            bj = b**j
            for i in range(n - j):
                terms.append(float(math.comb(i + j, j)) * c**i * bj)
    except OverflowError:
        raise OverflowError("binomial sum overflows the float range") from None
    return math.fsum(terms)


def _single_sum(c, n, k):
    if k == 0:
        # only j = 0 contributes, through the empty-history convention
        return 1.0 if n >= 1 else 0.0
    try:
        terms = [float(math.comb(j - 1, k - 1)) * c ** (j - k) for j in range(k, n)]
    except OverflowError:
        raise OverflowError("binomial sum overflows the float range") from None
    return math.fsum(terms)


def gronwall_closed(params):
    """Closed form of the recurrence bound (exact binomials, fsum accumulation)."""
    p = params
    out = p.a * _double_sum(p.b, p.c, p.n, p.k) + p.e0 * p.b**p.k * _single_sum(p.c, p.n, p.k)
    if not math.isfinite(out):
        raise OverflowError("closed-form bound overflows the float range")
    return out


def double_sum_exact(params):
    """The double binomial sum itself (coefficient of the per-step error)."""
    return _double_sum(params.b, params.c, params.n, params.k)


def double_sum_bound(params):
    """Closed-form estimate of the double sum; tight at the ``k >= n`` plateau.

    The estimate is independent of ``k``.  At ``c = 1`` the formula is the
    analytic limit ``(n + b) (1 + b)^(n-2)`` of the ``c != 1`` expression.
    """
    p = params
    if abs(p.c - 1.0) <= C_LIMIT_TOL:
        return (p.n + p.b) * (1.0 + p.b) ** (p.n - 2)
    return (p.c * (p.b + p.c) ** (p.n - 1) - (1.0 + p.b) ** (p.n - 1)) / (p.c - 1.0)


def single_sum_exact(params):
    """The single binomial sum (coefficient of the initial-sweep error)."""
    return _single_sum(params.c, params.n, params.k)


def single_sum_bound(params):
    """Hockey-stick estimate ``c^(n-k-1) C(n-1, k)``; equality at ``c = 1``."""
    p = params
    coeff = math.comb(p.n - 1, p.k) if p.k <= p.n - 1 else 0
    if coeff == 0:
        return 0.0
    return float(coeff) * p.c ** (p.n - p.k - 1)


def iteration_error_bound(consts, n, k, fine_err, coarse_err):
    """Two-term bound on the iterate error at coarse node ``n`` after ``k`` iterations.

    ``fine_err`` and ``coarse_err`` are the maximal propagator errors (fine
    trajectory vs exact, and initial coarse sweep vs exact).  The first
    term carries the fine error with the double-sum estimate truncated at
    ``min(k, n)``; the second carries the coarse error and vanishes once
    ``k >= n`` (finite termination).  For ``k = 0`` the iteration sum is
    empty and the bound reduces to ``c^(n-1) * coarse_err``.
    """
    if not 1 <= n <= INDEX_CAP:
        raise ValueError(f"n must lie in 1..{INDEX_CAP}")
    if not 0 <= k <= INDEX_CAP:
        raise ValueError(f"k must lie in 0..{INDEX_CAP}")
    if fine_err < 0 or coarse_err < 0:
        raise ValueError("propagator errors must be nonnegative")
    a, b, c = consts.a, consts.b, consts.c
    mm = min(k, n)
    first = a * double_sum_bound(BoundParams(a, b, c, mm, mm)) if mm else 0.0
    # exactly zero from k = n on; b**k * 0.0 could be inf * 0 = nan
    second = b**k * single_sum_bound(BoundParams(a, b, c, n, k)) if k < n else 0.0
    return first * fine_err + second * coarse_err
