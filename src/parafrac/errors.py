"""Exception types shared across the solver modules.

Each failure pickles with its location and message, so that a worker
process of the parallel stage can send it back to the caller.
"""


class ParafracError(Exception):
    """Base class for runtime failures of the solvers."""


class SolverFailure(ParafracError):
    """A dense time-step solve failed (singular or badly pivoted system).

    ``step`` identifies where the system was assembled: the coarse step
    index, or a ``(interval, substep)`` pair inside a fine sweep.
    """

    def __init__(self, step, message):
        super().__init__(f"{message} (step {step})")
        self.step = step
        self.message = message

    def __reduce__(self):
        return type(self), (self.step, self.message)


class CoefficientError(ParafracError):
    """A coefficient callback produced a non-finite value at a grid node."""

    def __init__(self, node_index, message):
        super().__init__(f"{message} (node {node_index})")
        self.node_index = node_index
        self.message = message

    def __reduce__(self):
        return type(self), (self.node_index, self.message)


class DivergenceError(ParafracError):
    """The parareal iteration produced a non-finite or exploding state."""

    def __init__(self, iteration, interval, message):
        super().__init__(f"{message} (iteration {iteration}, node {interval})")
        self.iteration = iteration
        self.interval = interval
        self.message = message

    def __reduce__(self):
        return type(self), (self.iteration, self.interval, self.message)
