"""End-to-end checks of the command line entry points.

Everything goes through ``main(argv)`` so exit codes and stream separation
are exercised the same way the console script sees them.
"""

import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasesync
from phasesync.cli import main
from phasesync.experiment import TRIAL_COLUMNS
from phasesync.model import PhaseVector
from phasesync.serialize import read_instance, read_phase_vector, write_phase_vector

from test_serialize import poison_instance_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in data]


class TestSolve:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", "24", "--sigma", "0.3", "--seed", "5")
        assert code == 0
        rows = parse_table(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == "24"
        assert row["tight"] == "true"
        assert row["unique"] == "true"
        assert float(row["runtime_ms"]) > 0.0
        for col in TRIAL_COLUMNS:
            assert col in row

    def test_nonconvergence_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--n", "60", "--sigma", "8",
                               "--seed", "2", "--max-iters", "4")
        assert code == 2
        rows = parse_table(out)
        assert rows[0]["converged"] == "false"

    @pytest.mark.parametrize("sigma", ["1e160", "1e200"])
    def test_eigensolver_failure_exit_code(self, capsys, sigma):
        # ||C||_F overflows, so the values-only solve of C is refused before
        # it runs: the failure is reported, not raised, and no row is written.
        with np.errstate(over="ignore"):
            code, out, err = run_cli(capsys, "solve", "--n", "20", "--sigma", sigma,
                                     "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("eigensolver failure: ")

    def test_overflowing_norm_raises_no_warning(self, capsys):
        # The same failure with every warning an error: the overflow of
        # ||C||_F is read without a numpy warning, and stderr holds one line.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "solve", "--n", "20", "--sigma", "1e160",
                                     "--seed", "1")
        assert code == 3
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("eigensolver failure: ")

    def test_dump_files(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        code, _, _ = run_cli(capsys, "solve", "--n", "12", "--sigma", "0.4", "--seed", "3",
                             "--dump-instance", str(inst_path), "--dump-x", str(x_path))
        assert code == 0
        inst = read_instance(inst_path)
        x = read_phase_vector(x_path)
        assert inst.n == 12
        assert x.n == 12

    def test_max_iters_below_one_rejected(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--n", "8", "--sigma", "0.3", "--seed", "1",
                                 "--max-iters", "0")
        assert code == 1
        assert not out
        assert "max_iters" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "solve", "--n", "16", "--sigma", "0.5", "--seed", "7")
        _, out2, _ = run_cli(capsys, "solve", "--n", "16", "--sigma", "0.5", "--seed", "7")
        # runtime_ms varies run to run; everything before it must not.
        head1 = out1.rsplit(",", 1)[0]
        head2 = out2.rsplit(",", 1)[0]
        assert head1 == head2


class TestCertify:
    def test_round_trip(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        run_cli(capsys, "solve", "--n", "20", "--sigma", "0.3", "--seed", "11",
                "--dump-instance", str(inst_path), "--dump-x", str(x_path))
        code, out, _ = run_cli(capsys, "certify", "--instance", str(inst_path),
                               "--x", str(x_path))
        assert code == 0
        row = parse_table(out)[0]
        assert row["tight"] == "true"
        assert row["unique"] == "true"
        assert float(row["second_eig"]) > 0.0

    def test_planted_vector_not_critical_under_noise(self, capsys, tmp_path):
        # z itself is not a critical point once noise is present, so the
        # residual gate should fail even though z is near the optimum.
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        run_cli(capsys, "solve", "--n", "20", "--sigma", "0.8", "--seed", "4",
                "--dump-instance", str(inst_path), "--dump-x", str(x_path))
        inst = read_instance(inst_path)
        write_phase_vector(inst.z, x_path)
        code, out, _ = run_cli(capsys, "certify", "--instance", str(inst_path),
                               "--x", str(x_path))
        assert code == 0
        row = parse_table(out)[0]
        assert row["tight"] == "false"

    def test_round_trip_without_scipy(self, tmp_path):
        # A None entry in sys.modules makes every scipy import fail, so the
        # package must run on numpy alone.
        script = f"""
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, {str(Path(phasesync.__file__).parents[1])!r})
from phasesync.cli import main
inst, x = {str(tmp_path / "inst.txt")!r}, {str(tmp_path / "x.txt")!r}
codes = [main(["solve", "--n", "30", "--sigma", "0.5", "--seed", "2",
               "--dump-instance", inst, "--dump-x", x]),
         main(["certify", "--instance", inst, "--x", x])]
loaded = [m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None]
print(json.dumps([codes, loaded]))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert loaded == []

    @pytest.mark.parametrize("argv", [("--n", "20", "--sigma", "0.3", "--seed", "11"),
                                      ("--n", "60", "--sigma", "8", "--seed", "2"),
                                      ("--n", "60", "--sigma", "8", "--seed", "2",
                                       "--max-iters", "4"),
                                      ("--n", "40", "--sigma", "10", "--seed", "0",
                                       "--max-iters", "1")])
    def test_certify_row_matches_the_solve_row(self, capsys, tmp_path, argv):
        # certify on a solve's dumps prints the numbers and flags of that
        # solve's row, string for string: a row proved by a factorization,
        # rows decided by eigenvalues (past the budget or not) and a budget
        # exit refuted by a diagonal entry of S.
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        _, out, _ = run_cli(capsys, "solve", *argv, "--dump-instance", str(inst_path),
                            "--dump-x", str(x_path))
        solved = parse_table(out)[0]
        code, out, _ = run_cli(capsys, "certify", "--instance", str(inst_path),
                               "--x", str(x_path))
        assert code == 0
        certified = parse_table(out)[0]
        assert [certified[c] for c in ("residual", "min_eig", "second_eig", "tight", "unique")] == [
            solved[c] for c in ("residual", "min_eig_S", "second_eig_S", "tight", "unique")]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "certify", "--instance", str(tmp_path / "no.txt"),
                               "--x", str(tmp_path / "no2.txt"))
        assert code == 1
        assert err.strip()

    def test_truncated_instance_clean_exit(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        run_cli(capsys, "solve", "--n", "6", "--sigma", "0.3", "--seed", "2",
                "--dump-instance", str(inst_path), "--dump-x", str(x_path))
        lines = inst_path.read_text().splitlines()
        inst_path.write_text("\n".join(lines[:4]) + "\n")
        code, _, err = run_cli(capsys, "certify", "--instance", str(inst_path),
                               "--x", str(x_path))
        assert code == 1
        assert "missing 'W' line" in err

    def test_previous_layout_clean_exit(self, capsys, tmp_path):
        # The layout that stored C beside W: a size header and matrix blocks.
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        write_phase_vector(PhaseVector(np.ones(2)), x_path)
        blocks = ["W", "2", "0 0 1 0", "1 0 0 0", "C", "2", "1 0 1 0", "1 0 1 0"]
        inst_path.write_text("\n".join(["n 2", "sigma 1", "seed 0", "z 1 0 1 0"] + blocks) + "\n")
        code, out, err = run_cli(capsys, "certify", "--instance", str(inst_path),
                                 "--x", str(x_path))
        assert code == 1
        assert not out
        assert "phasesync-instance 2" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_estimate_clean_exit(self, capsys, tmp_path, bad):
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        run_cli(capsys, "solve", "--n", "6", "--sigma", "0.3", "--seed", "2",
                "--dump-instance", str(inst_path), "--dump-x", str(x_path))
        lines = x_path.read_text().splitlines()
        toks = lines[1].split()
        toks[2] = bad
        x_path.write_text(lines[0] + "\n" + " ".join(toks) + "\n")
        code, out, err = run_cli(capsys, "certify", "--instance", str(inst_path),
                                 "--x", str(x_path))
        assert code == 1
        assert not out
        assert "unit modulus" in err

    def test_non_finite_instance_clean_exit(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        run_cli(capsys, "solve", "--n", "6", "--sigma", "0.3", "--seed", "2",
                "--dump-instance", str(inst_path), "--dump-x", str(x_path))
        poison_instance_file(inst_path)
        code, out, err = run_cli(capsys, "certify", "--instance", str(inst_path),
                                 "--x", str(x_path))
        assert code == 1
        assert not out
        assert "NaN or infinite" in err

    def test_eigensolver_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        from phasesync import certificate
        from phasesync.hermitian import EigensolverError

        def fail(*args, **kwargs):
            raise EigensolverError("no convergence")

        # The planted z of a noisy instance misses the residual gate, so no
        # factorization proves its verdict and the eigenvalues of S decide.
        inst_path = tmp_path / "inst.txt"
        x_path = tmp_path / "x.txt"
        run_cli(capsys, "solve", "--n", "8", "--sigma", "0.3", "--seed", "6",
                "--dump-instance", str(inst_path), "--dump-x", str(x_path))
        write_phase_vector(read_instance(inst_path).z, x_path)
        monkeypatch.setattr(certificate, "smallest_eigvals", fail)
        code, out, err = run_cli(capsys, "certify", "--instance", str(inst_path),
                                 "--x", str(x_path))
        assert code == 3
        row = parse_table(out)[0]
        assert row["tight"] == "false"
        assert row["unique"] == "false"
        assert "eigensolver failure: no convergence" in err


class TestGrid:
    CFG = """
case = {case}
n_values = 8 10
sigma_list = 0.2 0.5
reps = 2
seed_base = 3
workers = 1
out = {out}
"""

    def test_complex_grid(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        cfg = tmp_path / "g.cfg"
        cfg.write_text(self.CFG.format(case="complex", out=out))
        code, stdout, stderr = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 0
        assert out.exists()
        assert str(out) in stderr
        rows = parse_table(stdout)
        assert len(rows) == 4
        assert {r["n"] for r in rows} == {"8", "10"}

    def test_grid_rejects_real_config(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        cfg = tmp_path / "g.cfg"
        cfg.write_text(self.CFG.format(case="real", out=out))
        code, _, err = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 1
        assert "real" in err

    def test_real_grid(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        cfg = tmp_path / "g.cfg"
        cfg.write_text(self.CFG.format(case="real", out=out).replace(
            "n_values = 8 10", "n_values = 20"))
        code, stdout, _ = run_cli(capsys, "real-grid", "--config", str(cfg))
        assert code == 0
        rows = parse_table(stdout)
        assert len(rows) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sigma_rejected_before_any_trial(self, capsys, tmp_path, bad):
        out = tmp_path / "g.csv"
        cfg = tmp_path / "g.cfg"
        cfg.write_text(self.CFG.format(case="real", out=out).replace(
            "sigma_list = 0.2 0.5", f"sigma_list = 0.5 {bad}"))
        code, stdout, err = run_cli(capsys, "real-grid", "--config", str(cfg))
        assert code == 1
        assert "finite" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_grad_tol_rejected_before_any_trial(self, capsys, tmp_path, bad):
        # grad_tol is a solver constant: the key is unknown, whatever its value.
        out = tmp_path / "g.csv"
        cfg = tmp_path / "g.cfg"
        cfg.write_text(self.CFG.format(case="complex", out=out) + f"grad_tol = {bad}\n")
        code, stdout, err = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 1
        assert "grad_tol" in err
        assert stdout == ""
        assert not out.exists()

    def test_eigensolver_failure_exit_code(self, capsys, tmp_path):
        out = tmp_path / "g.csv"
        cfg = tmp_path / "g.cfg"
        cfg.write_text(self.CFG.format(case="complex", out=out).replace("0.2 0.5", "1e200"))
        with np.errstate(over="ignore"):
            code, stdout, err = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 3
        assert stdout == ""
        assert err.startswith("eigensolver failure: ")


class TestCurves:
    def test_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--nmin", "81", "--nmax", "81",
                               "--points", "1")
        assert code == 0
        row = parse_table(out)[0]
        assert float(row["sigma_proved"]) == pytest.approx(1.0 / 6.0)
        assert float(row["sigma_lo"]) == pytest.approx(3.0)

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        code, out, _ = run_cli(capsys, "curves", "--nmin", "10", "--nmax", "1000",
                               "--points", "7", "--out", str(path))
        assert code == 0
        assert out == ""
        rows = parse_table(path.read_text())
        assert len(rows) == 7


class TestCheckNoise:
    def test_columns_and_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "check-noise", "--n", "60", "--trials", "40",
                               "--seed", "1")
        assert code == 0
        # The header is TailStats' field order, pinned here column by column.
        assert out.splitlines()[0] == (
            "n,trials,opnorm_exceed_freq,opnorm_threshold,opnorm_prob_bound,"
            "inf_exceed_freq,inf_threshold,inf_prob_bound")
        row = parse_table(out)[0]
        assert row["n"] == "60"
        assert row["trials"] == "40"
        assert float(row["opnorm_threshold"]) == pytest.approx(3.0 * math.sqrt(60))
        assert float(row["opnorm_prob_bound"]) == pytest.approx(math.exp(-30.0))
        assert 0.0 <= float(row["inf_exceed_freq"]) <= 1.0


class TestTopLevel:
    def test_no_args_is_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_is_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_value_clean_exit(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--n", "1", "--sigma", "0.1", "--seed", "0")
        assert code == 1
        assert err.strip()
