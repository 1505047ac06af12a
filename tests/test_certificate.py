import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync import certificate
from phasesync.certificate import PSD_TOL, RANK_TOL, RESIDUAL_TOL, certify
from phasesync.hermitian import cholesky_charge
from phasesync.model import PhaseVector, assemble_instance, random_signal, sample_wigner
from phasesync.solver import solve_second_order
from phasesync.z2 import random_signs, sample_real_wigner

from reference import (build_certificate, certify_by_eigvalsh, eigenvalue_verdict,
                       jacobi_eigvalsh, quad_form, real_certificate, riemannian_grad)


def _instance(n, sigma, seed):
    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    return assemble_instance(z, w, sigma, seed)


def _solved(n, sigma, seed):
    inst = _instance(n, sigma, seed)
    rep = solve_second_order(inst.C, None, signal=inst.z)
    return inst, rep


class TestBuildCertificate:
    def test_structure_off_diagonal_and_diagonal(self):
        inst = _instance(8, 0.6, 1)
        x = random_signal(8, 2)
        s = build_certificate(inst.C, x)
        off = s.mat + inst.C.mat
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() <= 1e-14
        w = inst.C.mat @ x.vec
        expect_diag = (w * x.vec.conj()).real - np.diag(inst.C.mat).real
        assert np.abs(np.diag(s.mat).real - expect_diag).max() <= 1e-12

    def test_sum_with_data_is_diagonal(self):
        inst = _instance(10, 1.2, 3)
        x = random_signal(10, 4)
        s = build_certificate(inst.C, x)
        total = s.mat + inst.C.mat
        off_mask = ~np.eye(10, dtype=bool)
        assert np.abs(total[off_mask]).max() <= 1e-14

    @given(st.integers(0, 2**31 - 1))
    def test_quadratic_form_at_base_point_vanishes(self, seed):
        # x* S x = 0 identically, critical point or not: the diagonal of S
        # is built to cancel x* C x exactly.
        inst = _instance(7, 0.9, seed)
        x = random_signal(7, seed + 1)
        s = build_certificate(inst.C, x)
        assert abs(quad_form(s, x.vec)) <= 1e-10 * 7

    @given(st.integers(0, 2**31 - 1))
    def test_residual_is_half_gradient_norm(self, seed):
        # S x is the tangent gradient over two: its radial part cancels by
        # the same diagonal construction. The projected gradient and the
        # closed form 2 S x agree entrywise, not just in norm.
        inst = _instance(7, 1.1, seed)
        x = random_signal(7, seed + 2)
        s = build_certificate(inst.C, x)
        sx = np.linalg.norm(s.mat @ x.vec)
        g = riemannian_grad(inst.C, x)
        assert 2.0 * sx == pytest.approx(np.linalg.norm(g), rel=1e-10, abs=1e-12)
        budget = 1e-12 * np.linalg.norm(inst.C.mat) * np.sqrt(7)
        assert np.abs(g - 2.0 * (s.mat @ x.vec)).max() <= budget

    def test_size_mismatch(self):
        inst = _instance(6, 0.5, 5)
        with pytest.raises(ValueError):
            build_certificate(inst.C, random_signal(7, 0))


class TestCertifyNoiseless:
    def test_planted_point_certifies_rank_n_minus_1(self):
        # certify proves the verdict and reports lower bounds; the exact
        # eigenvalues come from the eigenvalue verdict on the same S.
        inst = _instance(30, 0.0, 11)
        report = certify(inst.C, inst.z)
        assert report.tight
        assert report.unique
        assert report.residual <= 1e-9 * 30
        assert report.error is None
        ref = certify_by_eigvalsh(inst.C, inst.z)
        assert ref.tight and ref.unique
        assert abs(ref.min_eig) <= 1e-12 * 30
        assert ref.second_eig == pytest.approx(30.0, rel=1e-9)
        assert report.min_eig <= ref.min_eig + 1e-12 * 30
        assert report.second_eig <= ref.second_eig

    def test_spectrum_matches_jacobi_oracle(self):
        inst = _instance(8, 0.0, 13)
        s = build_certificate(inst.C, inst.z)
        ref = jacobi_eigvalsh(np.asarray(s.mat))
        # Exact spectrum of n I - z z* (restricted off the diagonal shift):
        # one zero and n - 1 copies of n, up to rounding.
        assert abs(ref[0]) <= 1e-12 * 8
        assert np.abs(ref[1:] - 8.0).max() <= 1e-10
        report = certify_by_eigvalsh(inst.C, inst.z)
        assert report.min_eig == pytest.approx(ref[0], abs=1e-10)
        assert report.second_eig == pytest.approx(ref[1], abs=1e-10)


class TestCertifySolved:
    def test_theorem_regime_certifies(self):
        n = 100
        sigma = 0.5 * n**0.25 / 18.0
        inst, rep = _solved(n, sigma, 17)
        assert rep.converged
        report = certify(inst.C, rep.x)
        assert report.tight
        assert report.unique
        assert report.diag_min >= -1e-10

    def test_diag_min_near_one_at_weak_noise(self):
        # S_ii = x* C x row contribution minus 1; at the optimum of a weakly
        # noisy instance each row holds roughly n - 1 aligned unit terms.
        inst, rep = _solved(50, 0.1, 19)
        report = certify(inst.C, rep.x)
        assert report.diag_min >= 0.5 * 50

    def test_deep_noise_fails_psd(self):
        # sigma far above sqrt(n): the relaxation is no longer tight at the
        # solver's point, so the certificate must go indefinite.
        inst, rep = _solved(30, 10.0, 23)
        report = certify(inst.C, rep.x)
        assert not report.tight
        assert report.min_eig < 0.0

    def test_noncritical_point_fails_residual(self):
        inst = _instance(40, 0.3, 29)
        far = random_signal(40, 999)
        report = certify(inst.C, far)
        assert report.residual > 1e-9 * 40
        assert not report.tight
        assert not report.unique


def _certificates(n):
    # Complex certificates at solved points and real ones at the planted
    # signs, each at one sigma inside and one beyond its transition.
    for factor in (0.1, 1.0):
        inst, rep = _solved(n, factor * math.sqrt(n), n)
        yield build_certificate(inst.C, rep.x), rep.x.vec
    for factor in (0.5, 2.0):
        z = random_signs(n, n)
        sigma = factor * math.sqrt(n / (2.0 * math.log(n)))
        yield real_certificate(z, sample_real_wigner(n, n), sigma), z.vec


class TestValuesOnlyVerdict:
    def test_matches_verdict_from_eigenpairs(self, monkeypatch, decisions):
        # decide's eigenvalue fallback computes no eigenvector, and decides as
        # one made on the two bottom eigenpairs of a full eigendecomposition
        # would. An infinite rounding charge lets neither a diagonal entry
        # refute nor a factorization prove, so every certificate reaches it.
        def no_eigenvectors(*args, **kwargs):
            raise AssertionError("the verdict computed eigenvectors")

        seen = set()
        for n in (20, 60, 200):
            for s, kernel in _certificates(n):
                ref = np.linalg.eigh(s.mat)[0][:2]
                t = s.mat + np.outer(kernel, kernel.conj()) - RANK_TOL * n * np.eye(n)
                with monkeypatch.context() as m:
                    m.setattr(np.linalg, "eigh", no_eigenvectors)
                    m.setattr(certificate, "cholesky_charge", lambda n, trace: math.inf)
                    report, formed = _decided(decisions, kernel, t, s.mat @ kernel)
                assert formed is not None
                tight = bool(report.residual <= RESIDUAL_TOL * n and ref[0] >= PSD_TOL * n)
                unique = bool(tight and ref[1] >= RANK_TOL * n)
                assert (report.tight, report.unique) == (tight, unique)
                gap = 1e-12 * n * max(1.0, float(np.linalg.norm(s.mat)))
                assert abs(report.min_eig - ref[0]) <= gap
                assert abs(report.second_eig - ref[1]) <= gap
                seen.add((np.iscomplexobj(s.mat), tight, unique))
        for cplx in (False, True):
            assert {(cplx, False, False), (cplx, True, True)} <= seen


def _decided(decisions, x, t, e):
    # decide's report, with the S its eigenvalues were read from (None where
    # a factorization proved it or a diagonal entry refuted it).
    certificate.decide(x, t, e)
    return decisions[-1]


class TestDecide:
    """The one trial verdict on certificates with a known spectrum."""

    @staticmethod
    def _tilted(theta, mu):
        # S = sum_k mu_k q_k q_k^T with mu_1 = 0, where q_1 is the unit vector
        # x / 2, x = (1, 1, 1, 1), tilted by theta, so S x is small but not 0.
        n = 4
        x = np.ones(n)
        m = np.column_stack([x, np.random.default_rng(3).normal(size=(n, n - 1))])
        q, _ = np.linalg.qr(m)
        q[:, 0] *= np.sign(q[0, 0])
        c, s = np.cos(theta), np.sin(theta)
        q[:, :2] = q[:, :2] @ np.array([[c, -s], [s, c]])
        return q @ np.diag([0.0, *mu]) @ q.T, x

    @staticmethod
    def _decide(decisions, s_mat, x):
        n = x.size
        return _decided(decisions, x, s_mat + np.outer(x, x) - RANK_TOL * n * np.eye(n),
                        s_mat @ x)

    def test_bound_holds_where_its_correction_decides(self, decisions):
        # With lambda_2 just above tau, the Kato-Temple correction
        # r^2 / (tau - rho) outweighs rho: the bound is negative, under the
        # true lambda_1 = 0, and still clears PSD_TOL * n.
        n = 4
        s_mat, x = self._tilted(1e-3, (5e-8, 6e-8, 7e-8))
        report, s = self._decide(decisions, s_mat, x)
        assert s is None and report.tight and report.unique
        rho = float(x @ s_mat @ x) / n
        assert PSD_TOL * n <= report.min_eig < 0.0 < rho
        assert report.second_eig == RANK_TOL * n < 5e-8
        assert report.residual == pytest.approx(np.linalg.norm(s_mat @ x), rel=1e-12)

    def test_failed_proofs_fall_back_to_the_eigenvalues_of_s(self, decisions):
        # The bound misses its gate; lambda_2 is below tau, so T does not
        # factorize. Either way S = T - x x* + tau I is formed, S to rounding,
        # and the verdict is the eigenvalue verdict on it with ||S x||.
        for theta, mu in ((1e-2, (5e-8, 6e-8, 7e-8)), (1e-4, (3e-8, 6e-8, 7e-8))):
            s_mat, x = self._tilted(theta, mu)
            report, s = self._decide(decisions, s_mat, x)
            assert s is not None
            assert np.abs(s - s_mat).max() <= 1e-15
            assert report == eigenvalue_verdict(s, float(np.linalg.norm(s_mat @ x)))

    def test_nonpositive_diagonal_skips_the_factorization(self, monkeypatch, decisions):
        # S = T - x x* + tau I has the diagonal entry -1 + tau: the verdict is
        # refuted with no factorization and no eigensolve, T is left as it
        # was, and the report carries the eigenvalues of S's principal
        # submatrix [[-1 + tau, -1], [-1, tau]].
        def refuse(*args, **kwargs):
            raise AssertionError("a refuted verdict factorized or decomposed")

        for name in ("cholesky", "eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        x = np.ones(4)
        t = np.diag([1.0, 0.0, 1.0, 1.0])
        tau = RANK_TOL * 4
        s_mat = t - np.outer(x, x) + tau * np.eye(4)
        work = t.copy()
        report, s = _decided(decisions, x, work, s_mat @ x)
        assert s is None and not report.tight and not report.unique
        assert np.array_equal(work, t)
        assert report.diag_min == -1.0 + tau
        assert report.min_eig == pytest.approx(tau - 0.5 - math.sqrt(1.25), abs=1e-15)
        assert report.second_eig == pytest.approx(tau - 0.5 + math.sqrt(1.25), abs=1e-15)
        monkeypatch.undo()
        lam = np.linalg.eigvalsh(s_mat)
        assert report.min_eig >= lam[0] and report.second_eig >= lam[1]

    def test_factorization_is_charged_its_rounding(self, decisions):
        # T = delta I + beta 1 1^T with delta below the rounding charge c is
        # stored exactly, with smallest eigenvalue delta: a plain
        # factorization of T succeeds, yet it proves nothing, so the verdict
        # falls back to the eigenvalues of S. Just above c the proof holds.
        # x = 1 is the top eigenvector, and beta makes S = T - x x* + tau I
        # annihilate it to rounding, so the diagonal of S, about tau, refutes
        # nothing.
        n = 4
        x = np.ones(n)
        tau = RANK_TOL * n
        beta = (n - tau) / n
        ulp = np.spacing(beta)
        c = cholesky_charge(n, n * (beta + ulp))
        for delta, proved in ((ulp * round(c / 2.0 / ulp), False),
                              (ulp * round(4.0 * c / ulp), True)):
            t = delta * np.eye(n) + beta * np.ones((n, n))
            assert np.diag(t)[0] - beta == delta
            np.linalg.cholesky(t)
            s_mat = t - np.outer(x, x) + tau * np.eye(n)
            report, s = _decided(decisions, x, t, s_mat @ x)
            assert (s is None) == proved
            if proved:
                assert report.tight and report.unique and report.second_eig == tau
            else:
                assert report == eigenvalue_verdict(s, float(np.linalg.norm(s_mat @ x)))

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_refuted_eigenvalues_bound_those_of_s_from_above(self, decisions, n):
        # Random S = P A P with P = I - x x* / n, so S x = 0, shifted down on
        # one diagonal entry: refuted, and by Cauchy interlacing min_eig and
        # second_eig are at least the two smallest eigenvalues of S.
        rng = np.random.default_rng(n)
        for cplx in (False, True):
            x = np.exp(2j * np.pi * rng.random(n)) if cplx else rng.choice([-1.0, 1.0], n)
            a = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if cplx else 0.0)
            p = np.eye(n) - np.outer(x, x.conj()) / n
            s_mat = p @ (a + a.conj().T) @ p
            s_mat[0, 0] -= 2.0 * n
            t = s_mat + np.outer(x, x.conj()) - RANK_TOL * n * np.eye(n)
            report, s = _decided(decisions, x, t, s_mat @ x)
            lam = np.linalg.eigvalsh(s_mat)
            assert s is None and not report.tight and not report.unique
            assert report.diag_min == pytest.approx(np.min(np.diag(s_mat).real), abs=1e-12)
            slack = 1e-13 * n * np.abs(s_mat).max()
            assert report.min_eig >= lam[0] - slack
            assert report.second_eig >= lam[1] - slack


class TestCertifyValidation:
    def test_unique_implies_tight(self):
        for seed in range(6):
            inst, rep = _solved(20, 1.0, seed)
            report = certify(inst.C, rep.x)
            assert not report.unique or report.tight

    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.4, 2.0]))
    @settings(max_examples=18)
    def test_report_is_phase_invariant(self, seed, sigma):
        inst, rep = _solved(15, sigma, seed)
        rotated = PhaseVector(rep.x.vec * np.exp(2.1j))
        a = certify(inst.C, rep.x)
        b = certify(inst.C, rotated)
        assert a.tight == b.tight
        assert a.unique == b.unique
        assert a.min_eig == pytest.approx(b.min_eig, abs=1e-10 * 15)
