"""Problem data for the subdiffusion solvers and the builtin registry.

A problem couples the interval, the final time, the fractional order, and
three callbacks: ``diffusion(x, t, u)``, ``source(x, t, u)`` and
``initial(x)``.  Callbacks must broadcast over numpy arrays (scalar return
values are broadcast by the solvers).  Builtins are module-level functions
so problem objects stay picklable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .l1 import _check_alpha, _check_interval, _check_t_final

__all__ = ["ProblemSpec", "get_problem", "registry_names"]

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """Initial-boundary value problem on ``[a, b] x (0, t_final]``.

    Homogeneous Dirichlet boundary values are imposed, so ``initial`` must
    vanish at both endpoints.  When ``d_minus`` is set, the diffusion
    coefficient is probed at setup and must stay at or above it (uniform
    ellipticity check).
    """

    a: float
    b: float
    t_final: float
    alpha: float
    diffusion: Callable
    source: Callable
    initial: Callable
    name: str = "custom"
    d_minus: Optional[float] = None

    def __post_init__(self):
        _check_interval(self.a, self.b)
        _check_t_final(self.t_final)
        _check_alpha(self.alpha)
        for endpoint in (self.a, self.b):
            if abs(float(self.initial(endpoint))) > BOUNDARY_TOL:
                raise ValueError(
                    "initial data must vanish at the boundary "
                    f"(got {self.initial(endpoint)} at x={endpoint})"
                )
        if self.d_minus is not None:
            self._check_coercivity()

    def _check_coercivity(self):
        if not self.d_minus > 0:
            raise ValueError("d_minus must be positive")
        x = np.linspace(self.a, self.b, 33)
        u0 = np.broadcast_to(np.asarray(self.initial(x), dtype=float), x.shape)
        probes_u = {0.0, float(u0.min()), float(u0.max())}
        for t in np.linspace(0.0, self.t_final, 5):
            for uval in probes_u:
                d = np.broadcast_to(
                    np.asarray(self.diffusion(x, float(t), np.full_like(x, uval)), dtype=float),
                    x.shape,
                )
                if (d < self.d_minus).any():
                    raise ValueError(
                        f"diffusion drops below d_minus={self.d_minus} on probe points"
                    )


# builtin coefficient functions (module level: picklable, array-safe)

def one_plus_u(x, t, u):
    return 1.0 + u


def unit_coefficient(x, t, u):
    return 1.0


def decaying_sine_source(x, t, u):
    return np.sin(np.pi * x) * np.exp(-t)


def zero_source(x, t, u):
    return 0.0


def quartic_bump(x):
    return x**4 * (1.0 - x) ** 4


def sine_bump(x):
    return np.sin(np.pi * x)


def zero_initial(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _paper42():
    # quasilinear benchmark: D = 1 + u, f = sin(pi x) e^-t, u0 = x^4 (1-x)^4
    return ProblemSpec(0.0, 1.0, 1.0, 0.5, one_plus_u, decaying_sine_source,
                       quartic_bump, name="paper42", d_minus=0.5)


def _linear_heat():
    return ProblemSpec(0.0, 1.0, 1.0, 0.5, unit_coefficient, decaying_sine_source,
                       sine_bump, name="linear-heat", d_minus=0.9)


def _constant_d():
    return ProblemSpec(0.0, 1.0, 1.0, 0.5, unit_coefficient, zero_source,
                       quartic_bump, name="constant-D", d_minus=0.9)


def _zero():
    return ProblemSpec(0.0, 1.0, 1.0, 0.5, one_plus_u, zero_source,
                       zero_initial, name="zero")


_REGISTRY = {
    "paper42": _paper42,
    "linear-heat": _linear_heat,
    "constant-D": _constant_d,
    "zero": _zero,
}


def registry_names():
    return sorted(_REGISTRY)


def get_problem(name, alpha=None, t_final=None):
    """Instantiate a builtin problem, optionally overriding order and horizon."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; builtins: {', '.join(registry_names())}"
        ) from None
    problem = factory()
    overrides = {}
    if alpha is not None:
        overrides["alpha"] = float(alpha)
    if t_final is not None:
        overrides["t_final"] = float(t_final)
    if overrides:
        problem = dataclasses.replace(problem, **overrides)
    return problem
