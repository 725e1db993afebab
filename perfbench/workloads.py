"""The benchmark's workloads: one fixed solver configuration each.

Every workload runs the same three solves per round on one
``(problem, operator, grids)`` triple: the full-history fine reference,
parareal at ``threads = nproc`` (given the reference) and parareal at
``threads = 1``.  ``accuracy_target`` is the final-node L2 error against
the reference that counts as matched accuracy.  Each target sits between
the converged parareal error and the error of the last iterate above it,
with a margin on both sides, so it picks the same iterate on every run of
unchanged code; see README.md for the seed values.
"""

from __future__ import annotations

from dataclasses import dataclass

TOL = 1e-10
K_MAX = 25


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    degree: int
    nt: int
    m: int
    accuracy_target: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quasilinear-8k", "paper42", 16, 256, 32, 2.0e-6,
            "canonical paper42 run; cost is the 2*nt*k per-step coarse_step calls "
            "and their interpreter overhead",
        ),
        Workload(
            "long-history-16k", "paper42", 8, 32, 512, 4.0e-5,
            "long histories, tiny matrices: history contractions dominate, few "
            "coarse steps, and two threads are GIL-bound",
        ),
        Workload(
            "wide-linear-2k", "linear-heat", 64, 64, 32, 1.6e-4,
            "constant D with 63x63 dense solves and O(n^3) assembly; threads "
            "scale and the step matrix repeats every step",
        ),
    )
}
