import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync.certificate import (PSD_TOL, RANK_TOL, RESIDUAL_TOL, build_certificate, certify,
                                   decide, verdict)
from phasesync.hermitian import cholesky_charge
from phasesync.model import PhaseVector, assemble_instance, random_signal, sample_wigner
from phasesync.solver import solve_second_order
from phasesync.z2 import random_signs, sample_real_wigner

from reference import jacobi_eigvalsh, quad_form, real_certificate, riemannian_grad, verdict_at


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
        inst = _instance(30, 0.0, 11)
        report = certify(inst.C, inst.z)
        assert report.tight
        assert report.unique
        assert report.residual <= 1e-9 * 30
        assert abs(report.min_eig) <= 1e-12 * 30
        assert report.second_eig == pytest.approx(30.0, rel=1e-9)
        assert report.error is None

    def test_spectrum_matches_jacobi_oracle(self):
        inst = _instance(8, 0.0, 13)
        s = build_certificate(inst.C, inst.z)
        ref = jacobi_eigvalsh(np.asarray(s.mat))
        # Exact spectrum of n I - z z* (restricted off the diagonal shift):
        # one zero and n - 1 copies of n, up to rounding.
        assert abs(ref[0]) <= 1e-12 * 8
        assert np.abs(ref[1:] - 8.0).max() <= 1e-10
        report = certify(inst.C, inst.z)
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
    def test_matches_verdict_from_eigenpairs(self, monkeypatch):
        # The verdict computes no eigenvector, and decides as one made on the
        # two bottom eigenpairs of a full eigendecomposition would.
        def no_eigenvectors(*args, **kwargs):
            raise AssertionError("the verdict computed eigenvectors")

        seen = set()
        for n in (20, 60, 200):
            for s, kernel in _certificates(n):
                ref = np.linalg.eigh(s.mat)[0][:2]
                with monkeypatch.context() as m:
                    m.setattr(np.linalg, "eigh", no_eigenvectors)
                    report = verdict_at(s, kernel)
                tight = bool(report.residual <= RESIDUAL_TOL * n and ref[0] >= PSD_TOL * n)
                unique = bool(tight and ref[1] >= RANK_TOL * n)
                assert (report.tight, report.unique) == (tight, unique)
                gap = 1e-12 * n * max(1.0, float(np.linalg.norm(s.mat)))
                assert abs(report.min_eig - ref[0]) <= gap
                assert abs(report.second_eig - ref[1]) <= gap
                seen.add((np.iscomplexobj(s.mat), tight, unique))
        for cplx in (False, True):
            assert {(cplx, False, False), (cplx, True, True)} <= seen


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
    def _decide(s_mat, x):
        n = x.size
        return decide(x, s_mat + np.outer(x, x) - RANK_TOL * n * np.eye(n), s_mat @ x)

    def test_bound_holds_where_its_correction_decides(self):
        # With lambda_2 just above tau, the Kato-Temple correction
        # r^2 / (tau - rho) outweighs rho: the bound is negative, under the
        # true lambda_1 = 0, and still clears PSD_TOL * n.
        n = 4
        s_mat, x = self._tilted(1e-3, (5e-8, 6e-8, 7e-8))
        report, s = self._decide(s_mat, x)
        assert s is None and report.tight and report.unique
        rho = float(x @ s_mat @ x) / n
        assert PSD_TOL * n <= report.min_eig < 0.0 < rho
        assert report.second_eig == RANK_TOL * n < 5e-8
        assert report.residual == pytest.approx(np.linalg.norm(s_mat @ x), rel=1e-12)

    def test_failed_proofs_fall_back_to_the_eigenvalues_of_s(self):
        # The bound misses its gate; lambda_2 is below tau, so T does not
        # factorize. Either way S = T - x x* + tau I is formed, S to rounding,
        # and the verdict is the eigenvalue verdict on it with ||S x||.
        for theta, mu in ((1e-2, (5e-8, 6e-8, 7e-8)), (1e-4, (3e-8, 6e-8, 7e-8))):
            s_mat, x = self._tilted(theta, mu)
            report, s = self._decide(s_mat, x)
            assert s is not None
            assert np.abs(s.mat - s_mat).max() <= 1e-15
            assert report == verdict(s, float(np.linalg.norm(s_mat @ x)))

    def test_nonpositive_diagonal_skips_the_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("T factorized despite a nonpositive diagonal")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        x = np.ones(4)
        t = np.diag([1.0, 0.0, 1.0, 1.0])
        report, s = decide(x, t.copy(), np.zeros(4))
        assert s is not None and not report.tight
        assert np.array_equal(s.mat, t - np.outer(x, x) + RANK_TOL * 4 * np.eye(4))

    def test_factorization_is_charged_its_rounding(self):
        # T = diag(delta, 1, 1, 1) with delta below the rounding charge c:
        # a plain factorization of T succeeds, yet it proves nothing, so the
        # verdict falls back. Just above c the proof holds.
        x = np.ones(4)
        c = cholesky_charge(4, 3.0)
        for delta, proved in ((c / 2.0, False), (4.0 * c, True)):
            t = np.diag([delta, 1.0, 1.0, 1.0])
            np.linalg.cholesky(t)
            report, s = decide(x, t, np.zeros(4))
            assert (s is None) == proved
            assert report.tight == report.unique == proved


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
