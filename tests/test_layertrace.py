"""The benchmark's outside-in trace still finds every layer it patches.

``perfbench/layertrace.py`` wraps solver attributes by name, so renaming
one (say ``FractionalWeights.fine_rows``) breaks the benchmark.  This
checks it in seconds, where ``perfbench/selftest.py`` takes a minute.
"""

from pathlib import Path

import numpy as np

import parafrac.l1 as l1
import parafrac.parareal as parareal
import parafrac.stepping as stepping
from parafrac import TimeGrids, parareal_solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (parareal, stepping, l1.FractionalWeights)


def _attributes():
    return [(owner, dict(vars(owner))) for owner in OWNERS]


def test_installed_wraps_and_restores(monkeypatch, op8, paper42):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace

    grids = TimeGrids(1.0, 4, 4)
    plain, _ = parareal_solve(paper42, op8, grids, k_max=3)
    before = _attributes()
    recorder = layertrace.Recorder()
    with layertrace.installed(recorder):
        patched = [name for owner, attrs in before for name, value in attrs.items()
                   if vars(owner)[name] is not value]
        (traced, _), spans = recorder.solve_span(
            "par", layertrace.SOLVE_PARAREAL, parareal_solve, paper42, op8, grids, k_max=3)
    assert {"fine_rows", "on_grid", "fine_sweep_intervals", "coarse_step", "np"} <= set(patched)
    assert {"l1.fine_rows", "l1.on_grid", "parareal.fine_sweep",
            "spectral.assemble_diffusion"} <= {span[1] for span in spans}
    assert np.array_equal(traced.states, plain.states)
    for (owner, attrs), (_, now) in zip(before, _attributes()):
        assert now.keys() == attrs.keys()
        for name, value in attrs.items():
            assert now[name] is value, (owner, name)
