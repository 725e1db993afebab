"""Chebyshev collocation on an interval.

Provides the collocation nodes, the first and second differentiation
matrices scaled to a physical interval, Clenshaw-Curtis quadrature weights
for discrete norms, and assembly of the quasilinear diffusion operator
with homogeneous Dirichlet boundary values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoefficientError
from .l1 import _check_interval, _is_integer

__all__ = [
    "SpectralOperator",
    "assemble_diffusion",
    "build_operator",
    "clenshaw_curtis_weights",
    "l2_norm",
]


def clenshaw_curtis_weights(degree):
    """Quadrature weights for the ``degree + 1`` collocation nodes on [-1, 1].

    Exact for polynomials up to the collocation degree; the weights sum
    to the interval length 2.
    """
    if not (_is_integer(degree) and degree >= 1):
        raise ValueError(f"degree must be an integer >= 1 (two quadrature nodes), got {degree!r}")
    n = degree
    j = np.arange(n + 1)
    ks = np.arange(1, n // 2 + 1)
    bcoef = np.where(2 * ks == n, 0.5, 1.0) * (2.0 / (4.0 * ks**2 - 1.0))
    w = (2.0 / n) * (1.0 - np.cos(2.0 * np.pi * np.outer(j, ks) / n) @ bcoef)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Collocation operator on ``[a, b]``.

    ``nodes`` run from ``b`` down to ``a``; ``d1`` and ``d2`` differentiate
    nodal values; ``quad_weights`` integrate them.  All arrays are read-only,
    so one instance can be shared freely across threads.
    """

    degree: int
    a: float
    b: float
    nodes: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    quad_weights: np.ndarray

    @property
    def interior_size(self):
        return self.degree - 1

    @property
    def interior_nodes(self):
        return self.nodes[1:-1]


def build_operator(degree, a, b):
    """Build the collocation operator of the given polynomial degree on ``[a, b]``.

    Off-diagonal entries of the differentiation matrix follow the classical
    ``c_i/c_j`` formula on the reference nodes ``cos(j pi / degree)``; the
    diagonal is the negative row sum, which enforces the zero-derivative-of-
    constants identity to round-off.  The reference matrix is scaled by
    ``2/(b - a)``, so physical-interval operators are exact rescalings of
    the reference one.  ``degree`` follows the count rule ``l1._is_integer``
    and ``[a, b]`` the interval rule ``l1._check_interval``.
    """
    if not (_is_integer(degree) and degree >= 2):
        raise ValueError(f"degree must be an integer >= 2 so interior nodes exist, got {degree!r}")
    _check_interval(a, b)
    j = np.arange(degree + 1)
    xi = np.cos(np.pi * j / degree)
    csign = np.where((j == 0) | (j == degree), 2.0, 1.0) * (-1.0) ** j
    diff = xi[:, None] - xi[None, :]
    np.fill_diagonal(diff, 1.0)
    d1 = (csign[:, None] / csign[None, :]) / diff
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    d1 *= 2.0 / (b - a)
    d2 = d1 @ d1
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * xi
    qw = clenshaw_curtis_weights(degree) * (0.5 * (b - a))
    for arr in (nodes, d1, d2, qw):
        arr.setflags(write=False)
    return SpectralOperator(degree=degree, a=float(a), b=float(b),
                            nodes=nodes, d1=d1, d2=d2, quad_weights=qw)


def assemble_diffusion(op, state, t, problem):
    """Interior matrix of ``v -> D1 diag(D(x, t, u)) D1 v``.

    ``state`` holds the interior nodal values of ``u``; the Dirichlet
    boundary values are zero, which is also what the coefficient sees at
    the two boundary nodes.  The coefficient is evaluated on the full grid,
    since the product sums over every node, but only the interior rows of
    ``D1`` and its interior columns enter the product, so the interior
    block is the only matrix built.  It is a fresh array that the caller
    may overwrite.  A 2-D ``state`` is a stack of states, with ``t`` a
    scalar or a column of one time per state; it gives a stack of matrices,
    or one matrix that broadcasts over the stack when the coefficient has
    no stack axis (a scalar or one value per node).
    """
    state = np.asarray(state, dtype=float)
    if state.ndim not in (1, 2) or state.shape[-1] != op.interior_size:
        raise ValueError(
            f"state must hold {op.interior_size} interior values, got shape {state.shape}"
        )
    full = np.zeros(state.shape[:-1] + op.nodes.shape)
    full[..., 1:-1] = state
    dv = np.asarray(problem.diffusion(op.nodes, t, full), dtype=float)
    if dv.shape != full.shape:
        dv = np.broadcast_to(dv, full.shape[full.ndim - max(dv.ndim, 1):])
    if not np.isfinite(dv).all():
        bad = int(np.flatnonzero(~np.isfinite(dv))[0] % op.nodes.size)
        raise CoefficientError(bad, "diffusion coefficient is not finite")
    return (op.d1[1:-1] * dv[..., None, :]) @ op.d1[:, 1:-1]


def l2_norm(op, values):
    """Discrete L2 norm of an interior nodal vector.

    Clenshaw-Curtis weighted, with the (zero) boundary entries omitted.
    """
    v = np.asarray(values, dtype=float)
    return math.sqrt(float(np.dot(op.quad_weights[1:-1], np.square(v))))
