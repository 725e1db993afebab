"""CLI contract: config round trip, CSV outputs, exit codes."""

import csv
import dataclasses

import pytest

from parafrac.cli import RunConfig, main, parse_config_text
from parafrac.harness import bench_point


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


# one line per RunConfig field, each at its default
DEFAULT_TEXT = """[run]
problem = paper42
alpha =
t_final =
nt = 8
m = 4
degree = 16
tol = 1e-10
kmax = 20
threads =
out =
sweep =
reference = false
solver = fine
reps = 3
function = mixed
bound_a = 1.0
bound_b = 1.1
bound_c = 1.001
bound_n = 10
"""


class TestConfig:
    def test_round_trip_defaults(self):
        keys = [line.split(" =")[0] for line in DEFAULT_TEXT.splitlines()[1:]]
        assert keys == [f.name for f in dataclasses.fields(RunConfig)]
        assert RunConfig(**parse_config_text(DEFAULT_TEXT)) == RunConfig()

    def test_round_trip_custom(self):
        text = ("[run]\nproblem = linear-heat\nalpha = 0.7\nnt = 16\nm = 8\nn = 12\n"
                "tol = 1e-8\nkmax = 5\nthreads = 3\nout = x.csv\nsweep = 64,128\n"
                "reference = true\nsolver = coarse\nreps = 2\nfunction = root\n")
        cfg = RunConfig(problem="linear-heat", alpha=0.7, nt=16, m=8, degree=12,
                        tol=1e-8, kmax=5, threads=3, out="x.csv", sweep=(64, 128),
                        reference=True, solver="coarse", reps=2, function="root")
        assert RunConfig(**parse_config_text(text)) == cfg

    def test_round_trip_every_field(self):
        text = """[run]
problem = linear-heat
alpha = 0.7
t_final = 2.5
nt = 16
m = 8
degree = 12
tol = 1e-8
kmax = 5
threads = 3
out = x.csv
sweep = 64, 128
reference = yes
solver = coarse
reps = 2
function = root
bound_a = 0.5
bound_b = 1.3
bound_c = 1.02
bound_n = 7
"""
        cfg = RunConfig(problem="linear-heat", alpha=0.7, t_final=2.5, nt=16, m=8, degree=12,
                        tol=1e-8, kmax=5, threads=3, out="x.csv", sweep=(64, 128),
                        reference=True, solver="coarse", reps=2, function="root",
                        bound_a=0.5, bound_b=1.3, bound_c=1.02, bound_n=7)
        fields = dataclasses.fields(RunConfig)
        assert len(fields) == 19
        assert all(getattr(cfg, f.name) != f.default for f in fields)
        assert RunConfig(**parse_config_text(text)) == cfg

    def test_empty_values_and_n_alias(self):
        # an empty optional value is None, an empty sweep the empty tuple,
        # and the flag name n sets degree
        text = "[run]\nt_final =\nthreads =\nout =\nsweep =\nn = 24\n"
        assert parse_config_text(text) == {"t_final": None, "threads": None, "out": None,
                                           "sweep": (), "degree": 24}

    @pytest.mark.parametrize("word, value", [
        ("1", True), ("true", True), ("YES", True), ("On", True),
        ("0", False), ("False", False), ("no", False), ("OFF", False),
    ])
    def test_boolean_spellings(self, word, value):
        assert parse_config_text(f"[run]\nreference = {word}\n") == {"reference": value}

    def test_other_boolean_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            parse_config_text("[run]\nreference = maybe\n")

    def test_empty_required_value_rejected(self):
        with pytest.raises(ValueError, match="nt"):
            parse_config_text("[run]\nnt =\n")
        assert parse_config_text("[run]\nalpha =\n") == {"alpha": None}

    def test_percent_kept_literal(self):
        assert parse_config_text("[run]\nout = r%.csv\n") == {"out": "r%.csv"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("[run]\nwibble = 3\n")

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("nt = 3\n")


class TestConfigErrors:
    @pytest.mark.parametrize("line", ["reference = maybe", "tol ="])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"[run]\n{line}\n")
        code = main(["parareal", "--config", str(cfg_path), "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command, setting", [
        ("parareal", "tol = 0"), ("solve", "solver = magic"), ("truncation", "function = nope"),
    ])
    def test_bad_setting_stops_its_user(self, tmp_path, monkeypatch, capsys, command, setting):
        # each setting is checked by the code that uses it, before any CSV; the grid
        # settings are config keys, since truncation takes no flag for them
        monkeypatch.chdir(tmp_path)
        grid = "problem = zero\nnt = 2\nm = 1\nn = 4\n"
        (tmp_path / "run.cfg").write_text(f"[run]\n{grid}{setting}\n")
        assert main([command, "--config", "run.cfg"]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error:") and setting.split(" =")[0] in last
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestDefaultOutput:
    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "zero", "--nt", "2", "--m", "1", "--n", "4"],
        ["parareal", "--problem", "zero", "--nt", "2", "--m", "1", "--n", "4"],
        ["bench", "--problem", "zero", "--n", "4", "--m", "2", "--sweep", "4",
         "--reps", "1", "--threads", "1"],
        ["bounds", "--n", "2"],
        ["truncation", "--m", "2", "--sweep", "4,8", "--function", "const"],
    ])
    def test_writes_command_csv(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        path = tmp_path / f"{argv[0]}.csv"
        _, rows = read_csv(path)
        assert f"wrote {argv[0]}.csv ({len(rows)} rows)" in capsys.readouterr().err


class TestSolveCommand:
    def test_zero_problem_all_zero(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main(["solve", "--problem", "zero", "--nt", "4", "--m", "2",
                     "--n", "8", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["n", "t", "l2_norm", "min", "max"]
        assert len(rows) == 5
        assert all(float(row[2]) == 0.0 for row in rows)

    def test_m1_fine_equals_coarse(self, tmp_path):
        fine_out = tmp_path / "fine.csv"
        coarse_out = tmp_path / "coarse.csv"
        args = ["solve", "--problem", "paper42", "--nt", "8", "--m", "1", "--n", "8"]
        assert main(args + ["--out", str(fine_out), "--solver", "fine"]) == 0
        assert main(args + ["--out", str(coarse_out), "--solver", "coarse"]) == 0
        _, fine_rows = read_csv(fine_out)
        _, coarse_rows = read_csv(coarse_out)
        for fr, cr in zip(fine_rows, coarse_rows):
            for a, b in zip(fr, cr):
                assert abs(float(a) - float(b)) <= 1e-12

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[run]\nproblem = zero\nnt = 4\nm = 2\nn = 8\n")
        out = tmp_path / "out.csv"
        code = main(["solve", "--config", str(cfg_path), "--nt", "6", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 7  # flag wins over the config file


class TestPararealCommand:
    def test_single_interval_converges_immediately(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["parareal", "--problem", "paper42", "--nt", "1", "--m", "4",
                     "--n", "8", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["k", "max_diff", "wall_time_cumulative"]
        assert len(rows) >= 1

    def test_tolerance_honored(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["parareal", "--problem", "paper42", "--nt", "8", "--m", "4",
                     "--n", "8", "--tol", "1e-10", "--threads", "2", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[-1][1]) < 1e-10

    def test_reference_column(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["parareal", "--problem", "paper42", "--nt", "4", "--m", "2",
                     "--n", "8", "--reference", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["k", "max_diff", "err_vs_fine", "wall_time_cumulative"]
        assert all(float(row[2]) >= 0.0 for row in rows)


class TestBenchCommand:
    def test_sweep_required(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        for sweep in ([], ["--sweep", ","]):
            assert main(["bench", *sweep, "--out", str(out)]) == 2
            assert "sweep" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("flag", [["--tol", "0"], ["--kmax", "0"], ["--threads", "0"]])
    def test_parareal_settings_checked_before_any_solve(self, tmp_path, monkeypatch, capsys,
                                                        flag):
        import parafrac.harness as harness

        calls = []
        monkeypatch.setattr(harness, "run_fine_sequential",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "b.csv"
        assert main(["bench", "--problem", "zero", "--n", "4", "--m", "2", "--sweep", "8",
                     "--reps", "1", *flag, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:")
        assert calls == [] and not out.exists()

    def test_small_sweep(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["bench", "--problem", "paper42", "--n", "8", "--m", "4",
                     "--sweep", "16,32", "--reps", "1", "--threads", "1",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "dof"
        assert "peak_alloc_bytes_fine_approx" in header
        assert len(rows) == 2
        assert all(float(row[7]) > 0.0 for row in rows)  # speedup column


    def test_t_final_from_config(self, tmp_path, monkeypatch):
        import parafrac.harness as harness

        built = []
        get_problem = harness.get_problem

        def recording_get_problem(*args, **kwargs):
            built.append(get_problem(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(harness, "get_problem", recording_get_problem)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[run]\nt_final = 2\n")
        assert main(["bench", "--config", str(cfg_path), "--problem", "zero", "--n", "4",
                     "--m", "2", "--sweep", "8", "--reps", "1", "--threads", "1",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert [p.t_final for p in built] == [2.0]

    def test_integer_columns_match_bench_point(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bench", "--problem", "paper42", "--n", "8", "--m", "4",
                     "--sweep", "18,40", "--reps", "1", "--threads", "1",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        columns = ("dof", "nt", "m", "degree", "threads", "iterations_used")
        fields = ("dof", "nt", "m", "degree", "threads", "iterations")
        for dof, row in zip((18, 40), rows):
            rec = bench_point("paper42", dof, degree=8, m=4, threads=1, reps=1)
            got = [int(row[header.index(c)]) for c in columns]
            assert got == [getattr(rec, f) for f in fields]


class TestBoundsCommand:
    def test_table_consistency(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--a", "1.0", "--b", "1.1", "--c", "1.001",
                     "--n", "10", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["k", "double_sum", "double_bound", "single_sum", "single_bound"]
        assert len(rows) == 11
        for row in rows:
            k = int(row[0])
            dsum, dbound, ssum, sbound = map(float, row[1:])
            assert dbound >= dsum - 1e-12
            assert sbound >= ssum - 1e-12
            if k >= 10:
                assert ssum == 0.0 and sbound == 0.0

    def test_depth_one(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--n", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert float(row[2]) >= float(row[1]) - 1e-12


class TestBadSweepOrDepth:
    @pytest.mark.parametrize("argv", [
        ["bounds", "--n", "-1"],
        ["truncation", "--m", "2", "--sweep", "3"],
        ["bounds", "--b", "nan"],
        # grid counts and degrees, checked by the owners that use them
        ["solve", "--nt", "0"],
        ["truncation", "--m", "0"],
        ["bench", "--sweep", "64", "--n", "1"],
    ])
    def test_exits_2_without_csv(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("setting", ["bound_n = 0", "bound_n = 513", "bound_c = nan"])
    def test_bad_bound_setting_stops_bounds(self, tmp_path, capsys, setting):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"[run]\n{setting}\n")
        out = tmp_path / "b.csv"
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out)]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error:")
        assert setting.split(" =")[0] in last
        assert not out.exists()

    def test_grid_settings_do_not_stop_bounds(self, tmp_path):
        # bounds builds no operator and no grid, so their settings are not its concern
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[run]\nn = 1\nnt = 0\n")
        out = tmp_path / "b.csv"
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 11

    def test_bound_and_parareal_settings_do_not_stop_solve(self, tmp_path):
        # solve runs no parareal and builds no bound table
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[run]\nbound_n = 0\ntol = 0\nthreads = 0\n")
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", str(cfg_path), "--problem", "zero", "--nt", "2",
                     "--m", "1", "--n", "4", "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 3

    @pytest.mark.parametrize("argv", [
        ["truncation", "--m", "2", "--sweep", "4,8", "--function", "const"],
        ["solve", "--problem", "zero", "--nt", "2", "--m", "1", "--n", "4"],
        ["parareal", "--problem", "zero", "--nt", "2", "--m", "1", "--n", "4"],
    ])
    def test_infinite_final_time_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("[run]\nt_final = inf\n")
        assert main([*argv, "--config", "run.cfg"]) == 2
        assert "final time" in capsys.readouterr().err.splitlines()[-1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestTruncationCommand:
    def test_constant_family_zero_errors(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["truncation", "--alpha", "0.5", "--m", "2", "--sweep", "4,8",
                     "--function", "const", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["nt", "dt", "region", "n", "r", "t", "abs_error"]
        assert len(rows) == 4 * 2 + 8 * 2
        assert all(float(row[-1]) <= 1e-12 for row in rows)

    def test_orders_reported(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["truncation", "--alpha", "0.5", "--m", "2", "--sweep", "8,16",
                     "--function", "root", "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "fitted order n2plus" in err

    def test_t_final_from_config(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[run]\nt_final = 2\n")
        out = tmp_path / "t.csv"
        assert main(["truncation", "--config", str(cfg_path), "--m", "2", "--sweep", "4,8",
                     "--function", "const", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert max(float(row[header.index("t")]) for row in rows) == 2.0


class TestDeterministicOutput:
    def test_quasilinear_example_runs(self, tmp_path):
        out = tmp_path / "p42.csv"
        code = main(["solve", "--problem", "paper42", "--nt", "8", "--m", "2",
                     "--n", "8", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 9
        assert float(rows[-1][2]) > 0.0

    def test_csv_bytes_reproducible(self, tmp_path):
        # no timing columns in solve/bounds output, so reruns are identical
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(["solve", "--problem", "paper42", "--nt", "6", "--m", "2",
                         "--n", "8", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        for path in paths:
            assert main(["bounds", "--n", "8", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_entry_point_installed(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import parafrac

        # the child imports the same package as this process, also when the
        # source tree is on the path only through the pytest configuration
        src = str(Path(parafrac.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "parafrac.cli", "solve", "--problem", "zero",
             "--nt", "2", "--m", "1", "--n", "4", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestDiagnostics:
    def test_threads_printed_at_startup(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        main(["parareal", "--problem", "zero", "--nt", "2", "--m", "1", "--n", "4",
              "--out", str(out)])
        assert "threads=" in capsys.readouterr().err

    def test_default_threads_follow_cpu_affinity(self, tmp_path, monkeypatch, capsys):
        # one coarse interval is one block, so the default thread count starts no worker
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        argv = ["parareal", "--problem", "zero", "--nt", "1", "--m", "1", "--n", "4",
                "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 0
        assert "threads=1\n" in capsys.readouterr().err
        # without an affinity call the host's CPU count stands in
        monkeypatch.delattr(os, "sched_getaffinity")
        assert main(argv) == 0
        assert "threads=64\n" in capsys.readouterr().err

    def test_invalid_precondition_single_line(self, tmp_path, capsys):
        code = main(["solve", "--nt", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(err_lines) == 1

    def test_unknown_problem_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--problem", "mystery"])  # argparse choice failure
        assert exit_info.value.code == 2
