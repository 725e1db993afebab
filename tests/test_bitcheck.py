"""The archive comparison of ``tools/bitcheck.py``."""

import importlib.util
import io
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py"
_SPEC = importlib.util.spec_from_file_location("bitcheck", _PATH)
bitcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitcheck)


def _archive(**arrays):
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    buf.seek(0)
    return np.load(buf)


def test_equal_archives_report_the_count(capsys):
    arrays = dict(x=np.array([1.0, np.nan]), n=np.array(3), outcome=np.array("ok"))
    assert bitcheck.compare(_archive(**arrays), _archive(**arrays)) == 0
    assert capsys.readouterr().out == "3 arrays np.array_equal (1 of them failure outcomes)\n"


def test_every_difference_is_reported(capsys):
    old = _archive(x=np.array([1.0, 2.0]), y=np.array([0.0]), s=np.array("ok"),
                   shape=np.zeros(2), same=np.ones(3), gone=np.zeros(1))
    new = _archive(x=np.array([1.0, 2.5]), y=np.array([-1.0]), s=np.array("SolverFailure"),
                   shape=np.zeros(3), same=np.ones(3), added=np.zeros(1))
    assert bitcheck.compare(old, new) == 6
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "ONLY IN CHANGE added",
        "ONLY IN PARENT gone",
        "MISMATCH x: largest absolute difference 0.5",
        "MISMATCH y: largest absolute difference 1.0",
        "MISMATCH s: ok vs SolverFailure",
        "MISMATCH shape: shapes (2,) vs (3,)",
        "4 of 5 common arrays differ; 2 names on one side only",
    ]
