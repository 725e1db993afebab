"""The promised public surface: the package's exported names and every CLI header row."""

import pytest

import parafrac
from parafrac.cli import main

EXPORTED = {
    "BoundParams", "CoefficientError", "DivergenceError", "FractionalWeights",
    "LipschitzConstants", "ParafracError", "PararealIterate", "PararealReport",
    "ProblemSpec", "SolverFailure", "SpectralOperator", "TimeGrids",
    "assemble_diffusion", "build_operator", "caputo_power", "chain_fine", "coarse_step",
    "discrete_caputo_coarse", "discrete_caputo_hybrid", "double_sum_bound",
    "double_sum_exact", "exactness_check", "fine_propagate", "get_problem",
    "gronwall_brute", "gronwall_closed", "initial_state", "iteration_error_bound",
    "l1_weight", "l2_norm", "lipschitz_coarse", "lipschitz_fine", "parareal_solve",
    "registry_names", "run_coarse", "run_fine_sequential", "single_sum_bound",
    "single_sum_exact",
}


def test_exported_names():
    assert set(parafrac.__all__) == EXPORTED
    assert all(hasattr(parafrac, name) for name in EXPORTED)


GRID = ["--problem", "zero", "--nt", "2", "--m", "1", "--n", "4", "--threads", "1"]


@pytest.mark.parametrize("argv, header", [
    (["solve", *GRID], "n,t,l2_norm,min,max"),
    (["parareal", *GRID], "k,max_diff,wall_time_cumulative"),
    (["parareal", *GRID, "--reference"], "k,max_diff,err_vs_fine,wall_time_cumulative"),
    (["bench", "--problem", "zero", "--n", "4", "--m", "2", "--sweep", "4", "--reps", "1",
      "--threads", "1"],
     "dof,nt,m,degree,threads,wall_time_fine,wall_time_parareal,speedup,iterations_used,"
     "final_diff,peak_alloc_bytes_fine_approx,peak_alloc_bytes_parareal_approx"),
    (["bounds", "--n", "2"], "k,double_sum,double_bound,single_sum,single_bound"),
    (["truncation", "--m", "2", "--sweep", "4,8", "--function", "const"],
     "nt,dt,region,n,r,t,abs_error"),
])
def test_csv_header_rows(tmp_path, argv, header):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == header
