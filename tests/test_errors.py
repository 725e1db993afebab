"""Solver failures survive pickling with their location and message."""

import pickle

from parafrac import CoefficientError, DivergenceError, SolverFailure


def round_trip(exc):
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    return copy


def test_solver_failure_round_trip():
    copy = round_trip(SolverFailure((5, 2), "non-finite solution in fine sweep"))
    assert copy.step == (5, 2)
    assert copy.message == "non-finite solution in fine sweep"


def test_coefficient_error_round_trip():
    copy = round_trip(CoefficientError(7, "diffusion is not finite"))
    assert copy.node_index == 7
    assert copy.message == "diffusion is not finite"


def test_divergence_error_round_trip():
    copy = round_trip(DivergenceError(3, 11, "state norm exceeds divergence guard"))
    assert (copy.iteration, copy.interval) == (3, 11)
    assert copy.message == "state norm exceeds divergence guard"
