"""CLI contract: config round trip, CSV outputs, exit codes."""

import csv

import pytest

from parafrac.cli import RunConfig, emit_config, main, parse_config_text


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestConfig:
    def test_round_trip_defaults(self):
        cfg = RunConfig()
        assert RunConfig(**parse_config_text(emit_config(cfg))) == cfg

    def test_round_trip_custom(self):
        cfg = RunConfig(problem="linear-heat", alpha=0.7, nt=16, m=8, degree=12,
                        tol=1e-8, kmax=5, threads=3, out="x.csv", sweep=(64, 128),
                        reference=True, solver="coarse", reps=2, function="root")
        assert RunConfig(**parse_config_text(emit_config(cfg))) == cfg

    def test_emit_is_idempotent(self):
        cfg = RunConfig(alpha=0.3, sweep=(32,))
        once = emit_config(cfg)
        again = emit_config(RunConfig(**parse_config_text(once)))
        assert once == again

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("[run]\nwibble = 3\n")

    def test_missing_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("nt = 3\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(nt=0).validate()
        with pytest.raises(ValueError):
            RunConfig(tol=0.0).validate()
        with pytest.raises(ValueError):
            RunConfig(solver="magic").validate()


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
        assert main(["bench", "--out", str(tmp_path / "b.csv")]) == 2
        assert "sweep" in capsys.readouterr().err

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
        out = tmp_path / "s.csv"
        main(["solve", "--problem", "zero", "--nt", "2", "--m", "1", "--n", "4",
              "--out", str(out)])
        assert "threads=" in capsys.readouterr().err

    def test_invalid_precondition_single_line(self, tmp_path, capsys):
        code = main(["solve", "--nt", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
        assert len(err_lines) == 1

    def test_unknown_problem_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--problem", "mystery"])  # argparse choice failure
        assert exit_info.value.code == 2
