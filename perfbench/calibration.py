"""Host-speed calibration for the end-to-end solve costs.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes, and a 30-second run mostly sees one such phase, so
medians of raw solve times differ by up to a third between runs.  The
benchmark therefore times this fixed kernel right before and after every
solve and reports each solve's cost in units of the kernel's time (mean
of the two neighbours).  The kernel uses numpy and scipy only, never
parafrac, so a change to parafrac moves the costs exactly as it moves the
raw times; only the host's drift cancels.

The kernel mimics the solvers' mix: a small collocation-style assembly,
a growing history contraction and a small dense LU solve per step, all
driven from a Python loop.
"""

from time import perf_counter

import numpy as np
from scipy.linalg import lu_factor, lu_solve

SIZE = 15
STEPS = 2500


class Calibration:
    """Callable that runs the kernel once and returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.d1 = rng.standard_normal((SIZE + 2, SIZE + 2)) / SIZE
        self.hist = rng.standard_normal((STEPS, SIZE))
        self.weights = rng.standard_normal(STEPS)
        self.eye = np.eye(SIZE)

    def __call__(self):
        x = np.zeros(SIZE)
        full = np.zeros(SIZE + 2)
        start = perf_counter()
        for k in range(1, STEPS + 1):
            full[1:-1] = x
            a = ((self.d1 * (1.0 + full)) @ self.d1)[1:-1, 1:-1]
            rhs = self.weights[:k] @ self.hist[:k]
            lu = lu_factor(self.eye - 1e-3 * a, check_finite=False)
            x = lu_solve(lu, rhs, check_finite=False)
        return perf_counter() - start
