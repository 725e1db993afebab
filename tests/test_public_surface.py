"""The promised public surface: the package's exported names, every CLI command's
flags and header row, and the README's command-line examples."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

import parafrac
from parafrac.cli import build_parser, main

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


GRID = ["--problem", "zero", "--nt", "2", "--m", "1", "--n", "4"]


@pytest.mark.parametrize("argv, header", [
    (["solve", *GRID], "n,t,l2_norm,min,max"),
    (["parareal", *GRID, "--threads", "1"], "k,max_diff,wall_time_cumulative"),
    (["parareal", *GRID, "--threads", "1", "--reference"],
     "k,max_diff,err_vs_fine,wall_time_cumulative"),
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


# every command also takes --config and --out
FLAGS = {
    "solve": "--problem --alpha --nt --m --n --solver",
    "parareal": "--problem --alpha --nt --m --n --tol --kmax --threads --reference",
    "bench": "--problem --alpha --m --n --tol --kmax --threads --sweep --reps",
    "bounds": "--b --c --n",
    "truncation": "--alpha --m --sweep --function",
}


def test_command_flags():
    commands = next(a.choices for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    got = {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
           for name, p in commands.items()}
    assert got == {name: {"--config", "--out", *flags.split()} for name, flags in FLAGS.items()}


def test_readme_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("parafrac ")]
    assert sorted(shlex.split(line)[1] for line in lines) == sorted(FLAGS)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
