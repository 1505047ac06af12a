import csv
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from phasesync.experiment import (AGG_COLUMNS, CURVE_COLUMNS, TRIAL_COLUMNS,
                                  ConfigError, GridConfig,
                                  curve_values, emit_curves, parse_grid_config,
                                  run_grid, run_real_trial, run_trial,
                                  run_trial_detailed, trial_csv_row, write_curves)
from phasesync import experiment, model
from phasesync.certificate import build_certificate
from phasesync.hermitian import quad_form
from phasesync.model import PhaseVector, assemble_instance, trial_seed
from phasesync.z2 import random_signs, real_certificate, sample_real_wigner


def _write_config(tmp_path, text):
    path = tmp_path / "grid.cfg"
    path.write_text(text)
    return path


BASE_CFG = """
# smoke grid
case = complex
n_values = 10, 15
sigma_list = 0.1, 0.5
reps = 2
seed_base = 7
workers = 1
out = {out}
"""


class TestConfigParsing:
    def test_minimal(self, tmp_path):
        out = tmp_path / "g.csv"
        cfg = parse_grid_config(_write_config(tmp_path, BASE_CFG.format(out=out)))
        assert cfg.case == "complex"
        assert cfg.n_values == (10, 15)
        assert cfg.sigmas == (0.1, 0.5)
        assert cfg.reps == 2
        assert cfg.seed_base == 7
        assert cfg.out == str(out)

    def test_sigma_range(self, tmp_path):
        text = """
case = real
n_values = 50
sigma_min = 0.5
sigma_max = 2.0
sigma_count = 4
reps = 1
out = g.csv
"""
        cfg = parse_grid_config(_write_config(tmp_path, text))
        assert len(cfg.sigmas) == 4
        assert cfg.sigmas[0] == pytest.approx(0.5)
        assert cfg.sigmas[-1] == pytest.approx(2.0)
        # geometric spacing: constant ratio
        r = cfg.sigmas[1] / cfg.sigmas[0]
        assert cfg.sigmas[2] / cfg.sigmas[1] == pytest.approx(r)

    def test_solver_and_tolerance_keys(self, tmp_path):
        text = BASE_CFG.format(out="g.csv") + """
grad_tol = 1e-9
max_iters = 1234
max_escapes = 2
"""
        cfg = parse_grid_config(_write_config(tmp_path, text))
        assert cfg.solver.grad_tol == 1e-9
        assert cfg.solver.max_iters == 1234
        assert cfg.solver.max_escapes == 2
        # The certificate gates and the curvature floor are fixed constants,
        # not config keys.
        for line in ("residual_tol = 1e-8", "psd_tol = -1e-13", "rank_tol = 1e-7",
                     "escape_tol = 1e-10"):
            bad = _write_config(tmp_path, BASE_CFG.format(out="g.csv") + line + "\n")
            with pytest.raises(ConfigError, match="unknown key"):
                parse_grid_config(bad)

    def test_unknown_key_rejected(self, tmp_path):
        text = BASE_CFG.format(out="g.csv") + "bogus = 1\n"
        with pytest.raises(ConfigError):
            parse_grid_config(_write_config(tmp_path, text))

    def test_duplicate_key_rejected(self, tmp_path):
        text = BASE_CFG.format(out="g.csv") + "reps = 3\n"
        with pytest.raises(ConfigError):
            parse_grid_config(_write_config(tmp_path, text))

    def test_both_sigma_forms_rejected(self, tmp_path):
        text = BASE_CFG.format(out="g.csv") + "sigma_min = 0.1\nsigma_max = 1\nsigma_count = 3\n"
        with pytest.raises(ConfigError):
            parse_grid_config(_write_config(tmp_path, text))

    def test_partial_sigma_range_rejected(self, tmp_path):
        text = """
case = complex
n_values = 10
sigma_min = 0.1
sigma_max = 1.0
reps = 1
out = g.csv
"""
        with pytest.raises(ConfigError):
            parse_grid_config(_write_config(tmp_path, text))

    def test_missing_n_values_rejected(self, tmp_path):
        text = "case = complex\nsigma_list = 0.5\nreps = 1\nout = g.csv\n"
        with pytest.raises(ConfigError):
            parse_grid_config(_write_config(tmp_path, text))

    def test_bad_case_rejected(self, tmp_path):
        text = BASE_CFG.format(out="g.csv").replace("case = complex", "case = quartz")
        with pytest.raises(ConfigError):
            parse_grid_config(_write_config(tmp_path, text))

    def test_bad_solver_value_rejected(self, tmp_path):
        text = BASE_CFG.format(out="g.csv") + "grad_tol = -1\n"
        with pytest.raises(ConfigError):
            parse_grid_config(_write_config(tmp_path, text))

    def test_comment_and_blank_lines_ignored(self, tmp_path):
        text = "\n# header\n\n" + BASE_CFG.format(out="g.csv") + "\n# trailing\n"
        cfg = parse_grid_config(_write_config(tmp_path, text))
        assert cfg.reps == 2


class TestTrialRecords:
    def test_complex_trial_fields(self):
        rec = run_trial(30, 0.3, seed=11)
        assert rec.case == "complex"
        assert rec.n == 30
        assert rec.sigma == 0.3
        assert rec.seed == 11
        assert rec.converged
        assert rec.tight and rec.unique
        assert rec.cost_x >= rec.cost_z - 1e-9
        assert rec.grad_norm <= 1e-10 * 30
        assert 0.0 <= rec.l2_err <= 12.0 * 0.3 + 1e-6
        assert rec.runtime_ms > 0.0

    def test_detailed_variant_exposes_instance(self):
        rec, inst, solver_rep = run_trial_detailed(20, 0.4, seed=3)
        assert inst.n == 20
        assert np.array_equal(solver_rep.x.vec, solver_rep.x.vec)
        assert rec.cost_x == pytest.approx(solver_rep.cost)

    def test_real_trial_fields(self):
        rec = run_real_trial(40, 1.0, seed=5)
        assert rec.case == "real"
        assert rec.converged
        assert rec.beat_planted
        assert rec.cost_x == rec.cost_z
        assert rec.grad_norm == pytest.approx(2.0 * rec.residual)
        assert rec.tight

    def test_real_trial_assembles_no_data_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a real trial must not assemble C")

        for module in (model, experiment):
            monkeypatch.setattr(module, "assemble_instance", refuse)
        rec = run_real_trial(40, 1.0, seed=5)
        assert rec.tight and rec.discordant

    @pytest.mark.parametrize("n, sigma, seed", [(40, 1.0, 5), (60, 4.0, 8), (25, 0.0, 2)])
    def test_real_trial_cost_is_planted_quadratic_form(self, n, sigma, seed):
        rec = run_real_trial(n, sigma, seed)
        z = PhaseVector(random_signs(n, seed).vec)
        assert z.vec.dtype == np.float64
        inst = assemble_instance(z, sample_real_wigner(n, seed), sigma, seed)
        assert rec.cost_z == pytest.approx(quad_form(inst.C, z.vec), rel=1e-14, abs=0.0)

    def test_real_trial_strong_noise_not_tight(self):
        rec = run_real_trial(40, 12.0, seed=6)
        assert not rec.tight
        assert not rec.unique

    def test_csv_row_formatting(self):
        rec = run_trial(10, 0.2, seed=1)
        row = trial_csv_row(rec)
        assert len(row) == len(TRIAL_COLUMNS)
        as_dict = dict(zip(TRIAL_COLUMNS, row))
        assert as_dict["case"] == "complex"
        assert as_dict["n"] == "10"
        assert as_dict["tight"] in ("true", "false")
        # floats use repr-exact decimal formatting
        assert float(as_dict["cost_x"]) == rec.cost_x

    def test_runtime_not_in_schema(self):
        assert "runtime_ms" not in TRIAL_COLUMNS

    def test_same_seed_same_record(self):
        a = run_trial(15, 0.6, seed=9)
        b = run_trial(15, 0.6, seed=9)
        assert trial_csv_row(a) == trial_csv_row(b)


def _digest(mat):
    return hashlib.blake2b(np.ascontiguousarray(mat).view(np.uint8), digest_size=8).hexdigest()


def _watch_eigensolves(monkeypatch, fail=()):
    """Wrap ``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh``: log
    ``(name, digest)`` for every matrix either is given, and fail with
    LinAlgError in the ones named in ``fail``. Returns the log."""
    log = []
    for name in ("eigh", "eigvalsh"):
        def watched(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            log.append((_name, _digest(a)))
            if _name in fail:
                raise np.linalg.LinAlgError("injected failure")
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, watched)
    return log


class TestEigensolves:
    # The noise-norm event is decided by Cholesky factorizations, so W is
    # never decomposed, and a verdict reads eigenvalues only, so S gets a
    # values-only solve.
    def test_complex_trial_decomposes_c_and_s_once_each(self, monkeypatch):
        n, sigma, seed = 12, 0.3, 5
        rec, inst, rep = run_trial_detailed(n, sigma, seed)
        assert rep.escapes == 0
        s = build_certificate(inst.C, rep.x)
        log = _watch_eigensolves(monkeypatch)
        again = run_trial(n, sigma, seed)
        assert log == [("eigh", _digest(inst.C.mat)), ("eigvalsh", _digest(s.mat))]
        assert trial_csv_row(again) == trial_csv_row(rec)

    def test_real_trial_decomposes_s_once(self, monkeypatch):
        n, sigma, seed = 12, 0.5, 5
        s = real_certificate(random_signs(n, seed), sample_real_wigner(n, seed), sigma)
        log = _watch_eigensolves(monkeypatch)
        run_real_trial(n, sigma, seed)
        assert log == [("eigvalsh", _digest(s.mat))]

    def test_certificate_eigensolver_failure_is_in_band(self, monkeypatch):
        # C decomposes; the certificate's values-only solve fails. The trial
        # reports the failure as not tight instead of raising.
        n, sigma, seed = 12, 0.3, 5
        _watch_eigensolves(monkeypatch, fail={"eigvalsh"})
        rec = run_trial(n, sigma, seed)
        assert not rec.tight and not rec.unique
        assert math.isnan(rec.min_eig_S)
        _, _, rep = run_trial_detailed(n, sigma, seed)
        assert rep.converged and rep.escapes == 0
        assert "injected failure" in rep.certificate.error


class TestRunGrid:
    def _config(self, tmp_path, **kw):
        defaults = dict(case="complex", n_values=(8, 10), sigmas=(0.2, 0.4),
                        reps=2, seed_base=13, workers=1,
                        out=str(tmp_path / "g.csv"))
        defaults.update(kw)
        return GridConfig(**defaults)

    def test_writes_both_files(self, tmp_path):
        cfg = self._config(tmp_path)
        aggs = run_grid(cfg)
        assert Path(cfg.out).exists()
        assert Path(cfg.out).with_suffix(".agg.csv").exists()
        assert len(aggs) == 4

    def test_trial_count_and_header(self, tmp_path):
        cfg = self._config(tmp_path)
        run_grid(cfg)
        with open(cfg.out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRIAL_COLUMNS)
        assert len(rows) == 1 + 2 * 2 * 2

    def test_seeds_follow_trial_index(self, tmp_path):
        cfg = self._config(tmp_path)
        run_grid(cfg)
        with open(cfg.out, newline="") as fh:
            reader = csv.DictReader(fh)
            seeds = [int(r["seed"]) for r in reader]
        expected = [trial_seed(13, k) for k in range(8)]
        assert seeds == expected

    def test_aggregate_consistency(self, tmp_path):
        cfg = self._config(tmp_path, n_values=(12,), sigmas=(0.3,), reps=5)
        aggs = run_grid(cfg)
        assert len(aggs) == 1
        agg = aggs[0]
        with open(cfg.out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        frac = sum(r["tight"] == "true" for r in rows) / len(rows)
        assert agg.frac_tight == pytest.approx(frac)
        mean_l2 = sum(float(r["l2_err"]) for r in rows) / len(rows)
        assert agg.mean_l2 == pytest.approx(mean_l2)

    def test_real_case_grid(self, tmp_path):
        cfg = self._config(tmp_path, case="real", n_values=(30,), sigmas=(0.5, 8.0), reps=3)
        aggs = run_grid(cfg)
        weak = next(a for a in aggs if a.sigma == 0.5)
        strong = next(a for a in aggs if a.sigma == 8.0)
        assert weak.frac_tight == 1.0
        assert strong.frac_tight == 0.0

    def test_worker_count_invariance(self, tmp_path):
        solo = self._config(tmp_path, out=str(tmp_path / "solo.csv"))
        duo = self._config(tmp_path, out=str(tmp_path / "duo.csv"), workers=2)
        run_grid(solo)
        run_grid(duo)
        assert Path(solo.out).read_bytes() == Path(duo.out).read_bytes()
        assert (Path(solo.out).with_suffix(".agg.csv").read_bytes()
                == Path(duo.out).with_suffix(".agg.csv").read_bytes())

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        run_grid(cfg)
        first = Path(cfg.out).read_bytes()
        run_grid(cfg)
        assert Path(cfg.out).read_bytes() == first

    def test_agg_header(self, tmp_path):
        cfg = self._config(tmp_path, n_values=(8,), sigmas=(0.2,), reps=1)
        run_grid(cfg)
        with open(Path(cfg.out).with_suffix(".agg.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(AGG_COLUMNS)


class TestCurves:
    def test_values_at_landmark_size(self):
        proved, lo, hi, real = curve_values(81)
        assert proved == pytest.approx(3.0 / 18.0)
        assert lo == pytest.approx(3.0)
        assert hi == pytest.approx(math.sqrt(2.0 * math.pi ** 2 * 81 / 3.0))
        assert real == pytest.approx(math.sqrt(81 / (2.0 * math.log(81))))

    def test_ordering(self):
        # The proved threshold sits far below the conjectured window.
        for n in (16, 100, 1000, 10**5):
            proved, lo, hi, _ = curve_values(n)
            assert proved < lo < hi

    def test_emit_range_and_monotone(self):
        rows = emit_curves(10, 1000, 12)
        assert len(rows) == 12
        ns = [r[0] for r in rows]
        assert ns[0] == 10 and ns[-1] == 1000
        assert ns == sorted(ns)
        proved = [r[1] for r in rows]
        assert proved == sorted(proved)

    def test_write_curves(self, tmp_path):
        path = tmp_path / "curves.csv"
        with open(path, "w") as fh:
            write_curves(emit_curves(10, 100, 5), fh)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CURVE_COLUMNS)
        assert len(rows) == 6

    def test_emit_validation(self):
        with pytest.raises(ValueError):
            emit_curves(100, 10, 5)
        with pytest.raises(ValueError):
            emit_curves(10, 100, 0)
        assert len(emit_curves(10, 100, 1)) == 1


class TestGridConfigValidation:
    def test_rejects_zero_reps(self, tmp_path):
        with pytest.raises(ConfigError):
            GridConfig(case="complex", n_values=(10,), sigmas=(0.1,), reps=0,
                       seed_base=0, workers=1, out=str(tmp_path / "g.csv"))

    def test_rejects_negative_sigma(self, tmp_path):
        with pytest.raises(ConfigError):
            GridConfig(case="complex", n_values=(10,), sigmas=(-0.1,), reps=1,
                       seed_base=0, workers=1, out=str(tmp_path / "g.csv"))

    def test_rejects_tiny_n(self, tmp_path):
        with pytest.raises(ConfigError):
            GridConfig(case="complex", n_values=(1,), sigmas=(0.1,), reps=1,
                       seed_base=0, workers=1, out=str(tmp_path / "g.csv"))
