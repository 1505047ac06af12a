import csv
import dataclasses
import hashlib
import math
import platform
import resource
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phasesync.experiment import (AGG_COLUMNS, CURVE_COLUMNS, TRIAL_COLUMNS,
                                  ConfigError, GridConfig,
                                  curve_values, emit_curves, parse_grid_config,
                                  run_grid, run_real_trial, run_trial,
                                  run_trial_detailed, trial_csv_row, write_curves)
from phasesync import certificate, experiment, hermitian, model
from phasesync.certificate import RANK_TOL
from phasesync.model import assemble_instance, random_signal, sample_wigner, trial_seed
from phasesync.solver import solve_second_order
from phasesync.z2 import random_signs, sample_real_wigner

from reference import (build_certificate, certify_by_eigvalsh, eigenvalue_verdict, quad_form,
                       real_certificate, verdict_at)


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
        text = BASE_CFG.format(out="g.csv") + "max_iters = 1234\n"
        cfg = parse_grid_config(_write_config(tmp_path, text))
        assert cfg.max_iters == 1234
        assert parse_grid_config(_write_config(tmp_path, BASE_CFG.format(out="g.csv"))
                                 ).max_iters == 500
        # The solver's tolerance and the certificate gates are fixed
        # constants, not config keys, and the solver has no escape settings.
        for line in ("grad_tol = 1e-9", "max_escapes = 2", "residual_tol = 1e-8",
                     "psd_tol = -1e-13", "rank_tol = 1e-7", "escape_tol = 1e-10"):
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
        text = BASE_CFG.format(out="g.csv") + "max_iters = 0\n"
        with pytest.raises(ConfigError, match="max_iters"):
            parse_grid_config(_write_config(tmp_path, text))
        # A real trial runs no solver, so a real config has no budget to set.
        text = "case = real\nn_values = 20\nsigma_list = 0.5 3\nmax_iters = 7\n"
        with pytest.raises(ConfigError, match="max_iters"):
            parse_grid_config(_write_config(tmp_path, text))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_grad_tol_rejected(self, tmp_path, bad):
        # grad_tol is a solver constant: the key is unknown, whatever its value.
        text = BASE_CFG.format(out="g.csv") + f"grad_tol = {bad}\n"
        with pytest.raises(ConfigError, match="grad_tol"):
            parse_grid_config(_write_config(tmp_path, text))

    def test_comment_and_blank_lines_ignored(self, tmp_path):
        text = "\n# header\n\n" + BASE_CFG.format(out="g.csv") + "\n# trailing\n"
        cfg = parse_grid_config(_write_config(tmp_path, text))
        assert cfg.reps == 2

    def test_defaults_come_from_grid_config(self, tmp_path):
        # A key the file leaves out takes GridConfig's default, the values
        # the README's config table lists.
        text = "n_values = 10 15\nsigma_list = 0.1 0.5\n"
        cfg = parse_grid_config(_write_config(tmp_path, text))
        assert cfg == GridConfig(n_values=(10, 15), sigmas=(0.1, 0.5))
        assert cfg == GridConfig(case="complex", n_values=(10, 15), sigmas=(0.1, 0.5), reps=1,
                                 seed_base=0, workers=1, out="grid.csv", max_iters=500)


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
        assert np.array_equal(inst.W.mat, sample_wigner(20, 3).mat)
        assert np.array_equal(inst.z.vec, random_signal(20, 3).vec)
        alone = solve_second_order(inst.C, signal=inst.z)
        assert solver_rep.x.vec.tobytes() == alone.x.vec.tobytes()
        assert rec.cost_x == solver_rep.cost == alone.cost

    @pytest.mark.parametrize("n, sigma, seed", [(20, 0.4, 3), (60, 2.0, 11), (25, 8.0, 4)])
    def test_complex_trial_cost_is_planted_quadratic_form(self, n, sigma, seed):
        # The solver evaluates z* C z for its planted restart; the record
        # takes that value, which must be the quadratic form bit for bit.
        rec, inst, solver_rep = run_trial_detailed(n, sigma, seed=seed)
        assert rec.cost_z == solver_rep.planted_cost == quad_form(inst.C, inst.z.vec)

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
        z = random_signs(n, seed)
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
    LinAlgError on the matrices whose digests are in ``fail``. Returns the
    log."""
    log = []
    for name in ("eigh", "eigvalsh"):
        def watched(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            log.append((_name, _digest(a)))
            if _digest(a) in fail:
                raise np.linalg.LinAlgError("injected failure")
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, watched)
    return log


def _fail_proof(monkeypatch):
    """Make the certificate proof's Cholesky factorization fail, and only it:
    the noise-norm gate factorizes as usual. Returns the shapes of the
    matrices the proof was given."""
    cholesky = np.linalg.cholesky
    injected = []

    def failing(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == certificate.__name__:
            injected.append(a.shape)
            raise np.linalg.LinAlgError("injected failure")
        return cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    return injected


class TestEigensolves:
    # The noise-norm event is decided by Cholesky factorizations, so W is
    # never decomposed, and so is a verdict where a diagonal entry of S
    # refutes it or a factorization proves it; otherwise a verdict reads
    # eigenvalues only, so S gets a values-only solve. C gets one values-only
    # solve too: the spectral start comes from a linear solve.
    def test_unique_complex_trial_decomposes_c_only(self, monkeypatch):
        n, sigma, seed = 12, 0.3, 5
        rec, inst, rep = run_trial_detailed(n, sigma, seed)
        assert rec.unique and rep.escapes == 0
        log = _watch_eigensolves(monkeypatch)
        again = run_trial(n, sigma, seed)
        assert log == [("eigvalsh", _digest(inst.C.mat))]
        assert trial_csv_row(again) == trial_csv_row(rec)

    def test_unique_complex_trial_runs_no_eigh(self, monkeypatch):
        # No eigenvector of C is computed by an eigensolver: the shift and
        # the top eigenvalue come from one eigvalsh, the spectral start from
        # one linear solve, and the verdict from a factorization.
        n, sigma, seed = 100, 1.0, 2
        rec, inst, rep = run_trial_detailed(n, sigma, seed)
        assert rec.unique and rep.escapes == 0
        log = _watch_eigensolves(monkeypatch)
        solves = []
        solve = np.linalg.solve

        def watched(a, b, *args, **kwargs):
            solves.append(a.shape)
            return solve(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", watched)
        again = run_trial(n, sigma, seed)
        assert log == [("eigvalsh", _digest(inst.C.mat))]
        assert solves == [(n, n)]
        assert trial_csv_row(again) == trial_csv_row(rec)

    def test_complex_trial_decomposes_c_and_s_once_each(self, monkeypatch, decisions):
        # Not tight: S has a negative eigenvalue, so the proof's factorization
        # fails and S gets its values-only solve. Nothing else is factorized:
        # two Cholesky factorizations for the noise-norm gate, one for the
        # proof attempt.
        n, sigma, seed = 12, 3.0, 1
        rec, inst, rep = run_trial_detailed(n, sigma, seed)
        assert not rec.tight and rep.converged and rep.escapes == 0
        [(_, s)] = decisions
        log = _watch_eigensolves(monkeypatch)
        factorized = []
        cholesky = np.linalg.cholesky

        def watched(a, *args, **kwargs):
            factorized.append(a.shape)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", watched)
        again = run_trial(n, sigma, seed)
        assert log == [("eigvalsh", _digest(inst.C.mat)), ("eigvalsh", _digest(s))]
        assert factorized == [(n, n)] * 3
        assert trial_csv_row(again) == trial_csv_row(rec)

    @pytest.mark.parametrize("trial, n, dtype, most", [
        (lambda: run_trial(200, 15.0, 0, max_iters=30), 200, np.complex128, 4.6),
        (lambda: run_real_trial(400, 7.0, 5), 400, np.float64, 3.5),
    ], ids=["complex", "real"])
    def test_eigvalsh_row_solves_s_where_it_was_formed(self, monkeypatch, trial, n, dtype,
                                                       most):
        # A row that eigvalsh(S) decides solves S in the buffer decide formed
        # it in, with no copy: its traced peak, in n x n arrays of the trial's
        # dtype, stays under the bound (one more array of S would exceed it).
        solved = []

        def counted(s, k, _solve=certificate.smallest_eigvals):
            solved.append(s.shape)
            return _solve(s, k)

        monkeypatch.setattr(certificate, "smallest_eigvals", counted)
        trial()
        tracemalloc.start()
        try:
            rec = trial()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rec.tight and solved == [(n, n)] * 2
        assert peak <= most * n * n * np.dtype(dtype).itemsize

    def test_unique_real_trial_runs_no_eigensolve(self, monkeypatch):
        # The Cholesky factorization proves the verdict by itself.
        n, sigma, seed = 12, 0.5, 5
        log = _watch_eigensolves(monkeypatch)
        rec = run_real_trial(n, sigma, seed)
        assert rec.tight and rec.unique
        assert log == []

    def test_real_trial_beyond_threshold_decomposes_s_once(self, monkeypatch, decisions):
        # Past the threshold, yet every diagonal entry of S is positive, so
        # nothing refutes the verdict, and T does not factorize: S gets its
        # one values-only solve.
        n, sigma, seed = 12, 2.0, 1
        log = _watch_eigensolves(monkeypatch)
        rec = run_real_trial(n, sigma, seed)
        assert not rec.tight
        [(report, s)] = decisions
        assert report.diag_min > 0.0
        assert log == [("eigvalsh", _digest(s))]

    def test_refuted_real_trial_runs_no_eigensolve(self, monkeypatch, decisions):
        # Far past the threshold a diagonal entry of S is negative.
        n, sigma, seed = 40, 12.0, 6
        log = _watch_eigensolves(monkeypatch)
        rec = run_real_trial(n, sigma, seed)
        assert not rec.tight and not rec.unique
        [(report, s)] = decisions
        assert s is None and report.diag_min < 0.0
        assert log == []

    def test_certificate_eigensolver_failure_is_in_band(self, monkeypatch, decisions):
        # C gets its values-only solve; the proof's factorization and then
        # the values-only solve of the certificate S fail. The trial reports
        # the failure as not tight instead of raising.
        n, sigma, seed = 12, 0.3, 5
        injected = _fail_proof(monkeypatch)
        run_trial(n, sigma, seed)
        [(_, s)] = decisions
        _watch_eigensolves(monkeypatch, fail={_digest(s)})
        rec = run_trial(n, sigma, seed)
        assert injected == [(n, n), (n, n)]
        assert not rec.tight and not rec.unique
        assert math.isnan(rec.min_eig_S)
        _, _, rep = run_trial_detailed(n, sigma, seed)
        assert rep.converged and rep.escapes == 0
        assert "injected failure" in rep.certificate.error


class TestPlantedProof:
    """The factorization that proves a trial agrees with the eigenvalue
    verdict it replaces, and gives way to it when it fails: at the planted
    signs of a real trial, and at the solver's estimate in a complex one."""

    @staticmethod
    def _eig_verdict(n, sigma, seed):
        z = random_signs(n, seed)
        s = real_certificate(z, sample_real_wigner(n, seed), sigma)
        return s, verdict_at(s.mat, z.vec)

    @staticmethod
    def _assert_fallback(report, s, ref, ref_s):
        # A verdict no proof decided is the eigenvalue verdict on the S that
        # decide formed, field for field, with the reference's flags; that
        # S is the reference certificate to rounding.
        assert report == eigenvalue_verdict(s, report.residual)
        assert (report.tight, report.unique) == (ref.tight, ref.unique)
        slack = 4 * np.finfo(float).eps * np.abs(ref_s.mat).max()
        assert np.abs(s - ref_s.mat).max() <= slack

    def test_matches_eigenvalue_verdict_across_the_threshold(self, monkeypatch, decisions):
        # Every kind of row agrees with the eigenvalue verdict on tight and
        # unique. A proved row carries lower bounds on the eigenvalues and a
        # refuted row upper bounds, within the eigensolver's own rounding;
        # neither runs an eigensolve.
        kinds = set()
        for n in (20, 60, 200):
            threshold = math.sqrt(n / (2 * math.log(n)))
            for factor in (0.5, 0.9, 1.1, 2.0):
                for seed in range(3):
                    sigma = factor * threshold
                    with monkeypatch.context() as m:
                        log = _watch_eigensolves(m)
                        rec = run_real_trial(n, sigma, seed)
                    report, s = decisions[-1]
                    ref_s, ref = self._eig_verdict(n, sigma, seed)
                    assert (rec.tight, rec.unique) == (ref.tight, ref.unique)
                    assert (rec.min_eig_S, rec.second_eig_S, rec.residual) == (
                        report.min_eig, report.second_eig, report.residual)
                    slack = n * np.finfo(float).eps * np.linalg.norm(ref_s.mat)
                    if s is None and rec.tight:
                        kinds.add("proved")
                        assert rec.unique and log == []
                        assert rec.second_eig_S <= ref.second_eig + slack
                        assert rec.min_eig_S <= ref.min_eig + slack
                    elif s is None:
                        kinds.add("refuted")
                        assert log == []
                        assert rec.second_eig_S >= ref.second_eig - slack
                        assert rec.min_eig_S >= ref.min_eig - slack
                    else:
                        kinds.add("eigvalsh")
                        assert log == [("eigvalsh", _digest(s))]
                        self._assert_fallback(report, s, ref, ref_s)
        assert kinds == {"proved", "refuted", "eigvalsh"}

    def test_complex_proof_matches_eigenvalue_verdict_across_the_edge(self, decisions):
        # sigma on both sides of the conjectured edge sqrt(n) / 3. A proved
        # verdict bounds the eigenvalues of S at the solver's estimate; any
        # other verdict is the eigenvalue verdict on the S decide formed.
        unique, proved = set(), set()
        for n in (20, 60, 200):
            for factor in (0.5, 0.9, 1.1, 2.0):
                for seed in range(3):
                    sigma = factor * math.sqrt(n) / 3.0
                    rec, inst, rep = run_trial_detailed(n, sigma, seed)
                    report, s = decisions[-1]
                    assert rep.certificate is report
                    ref_s = build_certificate(inst.C, rep.x)
                    ref = certify_by_eigvalsh(inst.C, rep.x)
                    assert (rec.tight, rec.unique) == (ref.tight, ref.unique)
                    unique.add(rec.unique)
                    proved.add(s is None)
                    if s is None:
                        slack = n * np.finfo(float).eps * np.linalg.norm(ref_s.mat)
                        assert rec.unique
                        assert rec.second_eig_S <= ref.second_eig + slack
                        assert rec.min_eig_S <= ref.min_eig + slack
                    else:
                        self._assert_fallback(report, s, ref, ref_s)
        assert unique == {True, False}
        assert proved == {True, False}

    @pytest.mark.parametrize("n, sigma, seed", [(12, 0.5, 5), (60, 1.0, 3), (12, 2.0, 1)])
    def test_failed_factorization_falls_back_to_the_eigenvalue_record(
            self, monkeypatch, decisions, n, sigma, seed):
        # Only the certificate's factorization fails; the noise-norm gate's
        # factorizations run as usual. The last trial is past the threshold
        # with a positive diagonal, so its own factorization fails too; where
        # a diagonal entry refutes the verdict, the factorization is not even
        # tried (see the test below). The residual is ||S z|| through T
        # either way, so only the eigenvalue columns change.
        plain = run_real_trial(n, sigma, seed)
        injected = _fail_proof(monkeypatch)
        rec = run_real_trial(n, sigma, seed)
        report, s = decisions[-1]
        ref_s, ref = self._eig_verdict(n, sigma, seed)
        self._assert_fallback(report, s, ref, ref_s)
        expected = dataclasses.replace(
            plain, min_eig_S=report.min_eig, second_eig_S=report.second_eig,
            tight=report.tight, unique=report.unique)
        assert injected == [(n, n)]
        assert trial_csv_row(rec) == trial_csv_row(expected)
        # A trial whose factorization fails by itself keeps its record.
        assert plain.unique or trial_csv_row(rec) == trial_csv_row(plain)

    def test_nonpositive_diagonal_skips_the_factorization(self, monkeypatch, decisions):
        # A diagonal entry of T = S + z z^T - tau I at or below 0 puts the
        # matching entry of S below -1, which refutes the verdict before any
        # factorization is tried. The record carries the upper bounds.
        n, sigma, seed = 40, 12.0, 6
        z = random_signs(n, seed).vec
        w = sample_real_wigner(n, seed).mat
        assert np.min((n - RANK_TOL * n) + sigma * (z * (w @ z))) <= 0.0
        calls = []
        cholesky = np.linalg.cholesky

        def watched(a, *args, **kwargs):
            calls.append(sys._getframe(1).f_globals["__name__"])
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", watched)
        rec = run_real_trial(n, sigma, seed)
        # Only the noise-norm gate factorizes.
        assert set(calls) == {hermitian.__name__}
        [(report, s)] = decisions
        ref_s, ref = self._eig_verdict(n, sigma, seed)
        assert s is None and not ref.tight and not report.tight and not report.unique
        slack = n * np.finfo(float).eps * np.linalg.norm(ref_s.mat)
        assert report.min_eig >= ref.min_eig - slack
        assert report.second_eig >= ref.second_eig - slack
        assert report.diag_min == pytest.approx(ref.diag_min, abs=slack)
        assert (rec.min_eig_S, rec.second_eig_S, rec.residual) == (
            report.min_eig, report.second_eig, report.residual)


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

    def test_failed_trial_leaves_whole_cells(self, tmp_path, monkeypatch):
        calls = []

        def fail_third(*args, _trial=experiment.run_trial, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("injected trial failure")
            return _trial(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_trial", fail_third)
        cfg = self._config(tmp_path)
        with pytest.raises(RuntimeError, match="injected trial failure"):
            run_grid(cfg)
        with open(cfg.out, newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 2
        with open(Path(cfg.out).with_suffix(".agg.csv"), newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        run_grid(cfg)
        first = Path(cfg.out).read_bytes()
        run_grid(cfg)
        assert Path(cfg.out).read_bytes() == first

    def test_creates_missing_output_directories(self, tmp_path, monkeypatch):
        nested = tmp_path / "a" / "b" / "g.csv"
        run_grid(self._config(tmp_path, case="real", n_values=(8,), sigmas=(0.2,), reps=1,
                              out=str(nested)))
        assert nested.exists() and nested.with_suffix(".agg.csv").exists()
        # A bare file name writes to the working directory.
        monkeypatch.chdir(tmp_path)
        run_grid(self._config(tmp_path, case="real", n_values=(8,), sigmas=(0.2,), reps=1,
                              out="bare.csv"))
        assert (tmp_path / "bare.csv").exists()

    def test_agg_header(self, tmp_path):
        cfg = self._config(tmp_path, n_values=(8,), sigmas=(0.2,), reps=1)
        run_grid(cfg)
        with open(Path(cfg.out).with_suffix(".agg.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(AGG_COLUMNS)


# Sizes at which OpenBLAS splits the work between threads on two cores, so
# that its rounding depends on the thread count.
THREADED_GRIDS = (("complex", 200), ("real", 400))


class TestBlasThreads:
    def _config(self, tmp_path, case, n, name):
        return GridConfig(case=case, n_values=(n,), sigmas=(1.0, 5.0), reps=2, seed_base=5,
                          workers=1, out=str(tmp_path / f"{case}-{name}.csv"))

    def test_csv_independent_of_caller_blas_threads(self, tmp_path, openblas_threads):
        _, set_threads = openblas_threads
        for threads in (2, 1):
            set_threads(threads)
            for case, n in THREADED_GRIDS:
                run_grid(self._config(tmp_path, case, n, f"t{threads}"))
        for case, _ in THREADED_GRIDS:
            for suffix in (".csv", ".agg.csv"):
                assert ((tmp_path / f"{case}-t2{suffix}").read_bytes()
                        == (tmp_path / f"{case}-t1{suffix}").read_bytes()), (case, suffix)

    def test_trials_run_on_one_thread_and_caller_count_restored(self, tmp_path, monkeypatch,
                                                                openblas_threads):
        get_threads, set_threads = openblas_threads
        seen = []

        def watched(*args, _trial=experiment.run_real_trial, **kwargs):
            seen.append(get_threads())
            return _trial(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_real_trial", watched)
        set_threads(2)
        run_grid(self._config(tmp_path, "real", 20, "watched"))
        assert seen == [1, 1, 1, 1]
        assert get_threads() == 2

    def test_caller_thread_count_restored_after_a_trial_raises(self, tmp_path, monkeypatch,
                                                                openblas_threads):
        get_threads, set_threads = openblas_threads

        def fail(*args, **kwargs):
            raise RuntimeError("injected trial failure")

        monkeypatch.setattr(experiment, "run_real_trial", fail)
        set_threads(2)
        with pytest.raises(RuntimeError, match="injected trial failure"):
            run_grid(self._config(tmp_path, "real", 20, "failed"))
        assert get_threads() == 2


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="malloc thresholds are set through glibc's mallopt only")
class TestFreedMemory:
    def test_grid_trials_reuse_freed_memory(self, tmp_path):
        # At n = 400 each real trial frees several 1.3 MB arrays; returned to
        # the kernel, they cost about 3,000 minor faults per trial when the
        # next trial touches them again.
        cfg = GridConfig(case="real", n_values=(400,), sigmas=(2.0, 8.0), reps=2,
                         workers=1, out=str(tmp_path / "r.csv"))
        run_grid(cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_grid(cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 4 < 100
        assert experiment._keep_freed_memory()


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
