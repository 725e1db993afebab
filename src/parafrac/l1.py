"""L1 weights for the Caputo derivative and the discrete operators built on them.

The L1 scheme approximates the Caputo derivative of order ``alpha`` by
differentiating the piecewise-linear interpolant of the samples.  On a
uniform grid this yields the weights ``b_j = (j+1)^(1-alpha) - j^(1-alpha)``.
The two-level variant used by the parallel-in-time solver keeps the history
on a coarse grid of step ``dT`` while the current interval is resolved with
a fine step ``dt = dT/m``; the cross terms then need the same weight
function at the fractional indices ``q/m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FractionalWeights",
    "TimeGrids",
    "caputo_power",
    "discrete_caputo_coarse",
    "discrete_caputo_hybrid",
    "gamma_2_minus",
    "l1_weight",
    "weights_for",
]

# relative tolerance for the coarse/fine continuity check of the hybrid operator
CONTINUITY_RTOL = 1e-9


def _check_alpha(alpha):
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha}")


def _check_t_final(t_final):
    if not 0.0 < t_final < math.inf:
        raise ValueError(f"final time must be positive and finite, got {t_final}")


def _check_interval(a, b):
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"invalid interval [{a}, {b}]: the ends must be finite with a < b")


def _is_integer(count):
    """A Python or numpy integer; ``bool`` and floats are not counts."""
    return isinstance(count, (int, np.integer)) and not isinstance(count, bool)


def gamma_2_minus(alpha):
    """Gamma(2 - alpha), evaluated on the log scale."""
    return math.exp(math.lgamma(2.0 - alpha))


def _step_factor(width, alpha):
    """``width^alpha Gamma(2 - alpha)``, the factor of ``f`` in an L1 step of ``width``."""
    return width**alpha * gamma_2_minus(alpha)


def _weight(x, alpha):
    """``b_x = (x+1)^(1-alpha) - x^(1-alpha)`` for a float or an array ``x``, unchecked.

    ``alpha == 1`` short-circuits the power formula (which degenerates to
    ``0^0``): ``b_0 = 1`` and every other weight is exactly zero, so the
    backward-difference limit holds without round-off.
    """
    if alpha == 1.0:
        return (x == 0) * 1.0
    e = 1.0 - alpha
    return (x + 1.0) ** e - x ** e


def l1_weight(x, alpha):
    """L1 weight ``b_x`` for a finite real index ``x >= 0``; see :func:`_weight`."""
    if not 0 <= x < math.inf:
        raise ValueError(f"weight index must be nonnegative and finite, got {x}")
    _check_alpha(alpha)
    return _weight(x, alpha)


@dataclass(frozen=True)
class TimeGrids:
    """Nested uniform time grids.

    ``nt`` coarse intervals of width ``dT = t_final/nt``, each subdivided
    into ``m`` fine steps of width ``dt = dT/m``.  Fine node ``(n, r)``
    sits at ``n*dT + r*dt``; ``(n, m)`` coincides with coarse node ``n+1``.
    """

    t_final: float
    nt: int
    m: int

    def __post_init__(self):
        _check_t_final(self.t_final)
        counts = (self.nt, self.m)
        if not all(_is_integer(c) and c >= 1 for c in counts):
            raise ValueError(f"grid counts nt and m must be positive integers, got {counts}")

    @property
    def dT(self):
        return self.t_final / self.nt

    @property
    def dt(self):
        return self.dT / self.m

    @property
    def total_fine(self):
        return self.nt * self.m

    def fine_node(self, n, r):
        return n * self.dT + r * self.dt


class FractionalWeights:
    """Memoized L1 weights for one fixed order.

    The one cache is the weight grids: lookups of ``b_{q/denom}`` for
    ``q = 0..count-1`` share one read-only array per ``denom`` that grows
    on demand.  A solve's fine marches ask for the time grid's whole
    ``b_{q/m}`` range, before they allocate their states; growth at least
    doubles the grid for callers that grow it a step at a time, such as the
    truncation study's ``discrete_caputo_*`` loop.  Forked workers inherit
    the grids as they were at fork time and keep what they add.
    """

    __slots__ = ("alpha", "_grids")

    def __init__(self, alpha):
        _check_alpha(alpha)
        self.alpha = float(alpha)
        self._grids = {}

    def on_grid(self, denom, count):
        """Array of ``b_{q/denom}`` for ``q = 0..count-1`` (read-only)."""
        if not all(_is_integer(c) and c >= 1 for c in (denom, count)):
            raise ValueError(
                f"denominator and count must be positive integers, got {(denom, count)}")
        arr = self._grids.get(denom)
        if arr is None or arr.shape[0] < count:
            size = max(count, 64, 0 if arr is None else 2 * arr.shape[0])
            new = _weight(np.arange(size, dtype=float) / denom, self.alpha)
            new.setflags(write=False)
            self._grids[denom] = new
            arr = new
        return arr[:count]

    def fine_rows(self, m):
        """Iterator over the per-substep weight rows for marching one interval.

        Row ``r = 1..m`` is ``_telescoped(b, r-1)`` of length ``r``: entry 0
        multiplies the interval start, entry ``j`` the ``j``-th fine state.
        Every row but its first entry is a suffix of one telescoped tail,
        built here, so each row is built as the march reaches it and a
        march holds O(m) floats of weights.
        """
        b = self.on_grid(1, m)
        tail = _telescoped(b, m - 1)[1:]
        return (np.concatenate((b[r - 1 : r], tail[m - r :])) for r in range(1, m + 1))


def _telescoped(b, n):
    """L1 history weights ``[b_n, b_{n-1} - b_n, ..., b_0 - b_1]`` of nodes ``0..n``."""
    w = np.empty(n + 1)
    w[0] = b[n]
    if n:
        w[1:] = b[n - 1 :: -1] - b[n:0:-1]
    return w


@lru_cache(maxsize=16)
def weights_for(alpha):
    """Process-wide weight table for one order, shared across solver runs."""
    return FractionalWeights(alpha)


def discrete_caputo_coarse(history, dT, alpha):
    """Discrete Caputo derivative at the last node of a uniform grid.

    ``history`` holds the samples ``y(0), y(dT), ..., y((n+1) dT)``; the
    operator evaluates at the final time.  Summation uses exact (fsum)
    accumulation with the most recent, largest-weight terms last.
    """
    h = np.asarray(history, dtype=float)
    if h.ndim != 1 or h.shape[0] < 2:
        raise ValueError("history must hold at least two samples")
    if not 0 < dT < math.inf:
        raise ValueError("step must be positive and finite")
    _check_alpha(alpha)
    n = h.shape[0] - 2
    b = weights_for(alpha).on_grid(1, n + 2)
    terms = [*(-_telescoped(b, n) * h[: n + 1]), h[n + 1]]
    return math.fsum(terms) / dT ** alpha / gamma_2_minus(alpha)


def discrete_caputo_hybrid(coarse_history, fine_values, grids, alpha):
    """Discrete Caputo derivative at fine node ``(n, r)`` with coarse history.

    ``coarse_history`` holds ``y`` at coarse nodes ``0..n``; ``fine_values``
    holds ``y`` at fine nodes ``(n, 0)..(n, r)`` of the current interval.
    The history before the interval is differenced with the coarse step and
    fractional-index weights; the current interval uses the plain fine-grid
    weights.  For ``n == 0`` the coarse part is empty and the operator
    reduces to :func:`discrete_caputo_coarse` on the fine grid.
    """
    ch = np.asarray(coarse_history, dtype=float)
    fv = np.asarray(fine_values, dtype=float)
    if ch.ndim != 1 or ch.shape[0] < 1:
        raise ValueError("coarse history must hold the nodes 0..n")
    if fv.ndim != 1 or fv.shape[0] < 2:
        raise ValueError("fine values must hold at least nodes (n,0) and (n,1)")
    n = ch.shape[0] - 1
    r = fv.shape[0] - 1
    m = grids.m
    if not 1 <= r <= m:
        raise ValueError(f"fine index r={r} outside 1..{m}")
    if abs(fv[0] - ch[n]) > CONTINUITY_RTOL * max(1.0, abs(ch[n])):
        raise ValueError("fine_values[0] must equal the last coarse history entry")
    _check_alpha(alpha)

    wt = weights_for(alpha)
    bi = wt.on_grid(1, r + 1)
    terms = [*(-_telescoped(bi, r - 1) * fv[:r]), fv[r]]
    fine_part = math.fsum(terms) / grids.dt ** alpha

    coarse_part = 0.0
    if n >= 1:
        bq = wt.on_grid(m, n * m + 1)
        # bq[r::m][k] = b_{k + r/m}, telescoped like the plain weights
        ct = [*(-_telescoped(bq[r::m], n - 1) * ch[:n]), bq[r] * ch[n]]
        coarse_part = math.fsum(ct) / grids.dT ** alpha

    return (coarse_part + fine_part) / gamma_2_minus(alpha)


def caputo_power(exponent, alpha, t):
    """Analytic Caputo derivative of ``t**exponent`` (oracle for tests).

    ``d^alpha t^p = Gamma(p+1)/Gamma(p+1-alpha) * t^(p-alpha)`` for
    ``p > 0``; constants are annihilated.  ``t`` is a time, so ``t >= 0``;
    both are finite.
    """
    _check_alpha(alpha)
    if not 0 <= exponent < math.inf:
        raise ValueError(f"power must be finite and nonnegative, got {exponent}")
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if exponent == 0:
        return 0.0
    ratio = math.exp(math.lgamma(exponent + 1.0) - math.lgamma(exponent + 1.0 - alpha))
    return ratio * t ** (exponent - alpha)
