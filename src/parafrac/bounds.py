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

from .l1 import _check_alpha, _is_integer, _step_factor, _weight

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


def _check_indices(n, k):
    if not (_is_integer(n) and _is_integer(k)):
        raise ValueError(f"n and k must be integers, got {(n, k)!r}")
    if not 1 <= n <= INDEX_CAP:
        raise ValueError(f"n must lie in 1..{INDEX_CAP}")
    if not 0 <= k <= INDEX_CAP:
        raise ValueError(f"k must lie in 0..{INDEX_CAP}")


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the recurrence ``E[k+1, n+1] <= a + b E[k, n] + c E[k+1, n]``.

    ``e0`` is the error level of the initial sweep (``E[0, n] = e0`` for
    ``n >= 1``).  The analysis assumes strictly positive ``a, b, c``;
    zero values are accepted here so degenerate cases stay checkable.
    ``a, b, c`` and ``e0`` must be finite; NaN fails too.
    """

    a: float
    b: float
    c: float
    n: int
    k: int
    e0: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "e0"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        _check_indices(self.n, self.k)


@dataclass(frozen=True)
class LipschitzConstants:
    """Propagator growth constants and the recurrence coefficients they induce."""

    c_coarse: float
    c_fine: float

    def __post_init__(self):
        if not (1.0 <= self.c_coarse < math.inf and 1.0 <= self.c_fine < math.inf):
            raise ValueError("growth constants must be finite and at least 1")

    @property
    def a(self):
        return 1.0 + self.c_fine

    @property
    def b(self):
        return self.c_fine + self.c_coarse

    @property
    def c(self):
        return self.c_coarse


def _frozen_step(width, alpha, c_diff, l_f):
    """``(s, 1 - l_f s)`` for the L1 step factor ``s`` of ``width``: the growth constants' rule.

    A positive step, nonnegative constants, an order in (0, 1]
    (``l1._check_alpha``) and ``l_f s < 1``; NaN fails every test.
    """
    if not width > 0:
        raise ValueError("step must be positive")
    if not (c_diff >= 0 and l_f >= 0):
        raise ValueError("constants must be nonnegative")
    _check_alpha(alpha)
    s = _step_factor(width, alpha)
    den = 1.0 - l_f * s
    if not den > 0:
        raise ValueError("time step too large for the given source Lipschitz constant")
    return s, den


def lipschitz_coarse(dT, alpha, c_diff=0.0, l_f=0.0):
    """Growth factor of one coarse step under history perturbations.

    ``c_diff`` absorbs the solution-dependence of the diffusion
    coefficient, ``l_f`` is the source Lipschitz constant; both vanish for
    linear problems, giving the factor 1.  Inputs: the rule of :func:`_frozen_step`.
    """
    s, den = _frozen_step(dT, alpha, c_diff, l_f)
    return math.sqrt((1.0 + c_diff * s) / den)


def lipschitz_fine(dT, dt, m, alpha, c_diff=0.0, l_f=0.0, r=None):
    """Growth factor of the fine propagator at substep ``r`` (default the endpoint).

    Splits into a within-interval factor and a history coupling that decays
    like ``m^-alpha``; the endpoint ``r = m`` is the constant used when a
    single number per interval is needed.  ``m`` and ``r`` follow the count
    rule ``l1._is_integer``, ``dt`` and the constants the rule of
    :func:`_frozen_step`, and ``dT`` must equal ``m dt``.
    """
    if not (_is_integer(m) and m >= 1):
        raise ValueError(f"substep count m must be an integer >= 1, got {m!r}")
    r = m if r is None else r
    if not (_is_integer(r) and 1 <= r <= m):
        raise ValueError(f"substep r={r!r} must be an integer in 1..{m}")
    s, den = _frozen_step(dt, alpha, c_diff, l_f)
    if not abs(dT - m * dt) <= 1e-9 * dT:
        raise ValueError("grids disagree: dT must equal m * dt")
    history = math.sqrt(2.0 * _weight(r / m, alpha)) * float(m) ** (-alpha)
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
    _check_indices(n, k)
    if not (0 <= fine_err < math.inf and 0 <= coarse_err < math.inf):
        raise ValueError("propagator errors must be finite and nonnegative")
    a, b, c = consts.a, consts.b, consts.c
    mm = min(k, n)
    first = a * double_sum_bound(BoundParams(a, b, c, mm, mm)) if mm else 0.0
    # exactly zero from k = n on; b**k * 0.0 could be inf * 0 = nan
    second = b**k * single_sum_bound(BoundParams(a, b, c, n, k)) if k < n else 0.0
    return first * fine_err + second * coarse_err
