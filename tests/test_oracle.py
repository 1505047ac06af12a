"""Checks for the small-n exhaustive solvers.

The brute-force routines are themselves oracles for the main solver, so the
tests here lean on structure instead: known closed-form optima, gauge pinning,
and agreement between the two enumeration paths where both apply.
"""

import numpy as np
import pytest

from phasesync.model import assemble_instance, random_signal, sample_wigner
from phasesync.z2 import random_signs, sample_real_wigner

from oracle import _angle_derivatives, _polish, brute_force_qp, brute_force_real
from reference import aligned, quad_form


def _instance(n, sigma, seed):
    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    return assemble_instance(z, w, sigma, seed)


class TestBruteForceQP:
    def test_noiseless_recovers_signal(self):
        inst = _instance(3, 0.0, 0)
        x, value, _ = brute_force_qp(inst.C)
        assert value == pytest.approx(9.0, abs=1e-9)
        assert np.linalg.norm(aligned(x, inst.z.vec) - inst.z.vec) <= 1e-6

    def test_first_coordinate_pinned(self):
        inst = _instance(4, 0.7, 1)
        x, _, _ = brute_force_qp(inst.C)
        assert x[0] == pytest.approx(1.0 + 0.0j, abs=1e-9)

    def test_value_is_attained(self):
        inst = _instance(3, 0.5, 2)
        x, value, _ = brute_force_qp(inst.C)
        assert quad_form(inst.C, x) == pytest.approx(value, rel=1e-12)

    def test_refinement_improves_on_grid(self):
        inst = _instance(3, 0.4, 3)
        _, coarse, _ = brute_force_qp(inst.C, k=16, refine=False)
        _, polished, _ = brute_force_qp(inst.C, k=16, refine=True)
        assert polished >= coarse - 1e-12

    def test_identity_matrix_everything_optimal(self):
        eye = np.eye(3, dtype=complex)
        from phasesync.hermitian import HermitianMatrix
        _, value, _ = brute_force_qp(HermitianMatrix(eye))
        assert value == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("n, sigma, seed", [(3, 0.5, 6), (4, 1.0, 7), (5, 0.8, 8),
                                                (6, 1.5, 9)])
    def test_polish_converges_to_a_critical_point(self, n, sigma, seed):
        inst = _instance(n, sigma, seed)
        x, value, converged = brute_force_qp(inst.C)
        assert converged
        assert x[0] == 1.0
        w = inst.C.mat @ x
        riemannian = 2.0 * w - 2.0 * (w * x.conj()).real * x
        assert np.linalg.norm(riemannian) <= 1e-12 * n
        assert value == pytest.approx(quad_form(inst.C, x), rel=1e-14)

    def test_polish_reports_an_exhausted_budget(self):
        # From a coarse grid point, zero Newton steps cannot reach 1e-12.
        inst = _instance(4, 0.9, 2)
        x0, _, _ = brute_force_qp(inst.C, k=8, refine=False)
        _, converged = _polish(inst.C.mat, x0, 1e-12, max_iters=0)
        assert not converged
        _, converged = _polish(inst.C.mat, x0, 1e-12)
        assert converged

    def test_angle_derivatives_match_finite_differences(self):
        inst = _instance(5, 1.2, 10)
        rng = np.random.default_rng(11)
        theta = rng.uniform(-np.pi, np.pi, size=5)
        f, grad, hess = _angle_derivatives(inst.C.mat, theta)
        h = 1e-5
        eye = np.eye(5)
        fd_grad = np.array([(_angle_derivatives(inst.C.mat, theta + h * e)[0]
                             - _angle_derivatives(inst.C.mat, theta - h * e)[0]) / (2 * h)
                            for e in eye])
        fd_hess = np.array([(_angle_derivatives(inst.C.mat, theta + h * e)[1]
                             - _angle_derivatives(inst.C.mat, theta - h * e)[1]) / (2 * h)
                            for e in eye])
        assert np.abs(grad - fd_grad).max() <= 1e-6 * max(1.0, abs(f))
        assert np.abs(hess - fd_hess).max() <= 1e-6 * max(1.0, abs(f))
        assert np.abs(hess - hess.T).max() <= 1e-13

    def test_rejects_oversize(self):
        inst = _instance(8, 0.1, 4)
        with pytest.raises(ValueError):
            brute_force_qp(inst.C)

    def test_deterministic(self):
        inst = _instance(4, 0.9, 5)
        x1, v1, _ = brute_force_qp(inst.C, k=24)
        x2, v2, _ = brute_force_qp(inst.C, k=24)
        assert v1 == v2
        assert np.array_equal(x1, x2)

    def test_beats_planted_signal(self):
        # The global optimum can only score at or above the planted vector.
        for seed in range(5):
            inst = _instance(3, 0.8, seed)
            _, value, _ = brute_force_qp(inst.C)
            assert value >= quad_form(inst.C, inst.z.vec) - 1e-9


class TestBruteForceReal:
    def test_noiseless_recovers_signs(self):
        z = random_signs(10, 0)
        c = np.outer(z.vec.real, z.vec.real).astype(complex)
        np.fill_diagonal(c, 1.0)
        from phasesync.hermitian import HermitianMatrix
        s, value = brute_force_real(HermitianMatrix(c))
        assert value == pytest.approx(100.0)
        assert abs(np.dot(s.vec.real, z.vec.real)) == 10

    def test_first_sign_pinned(self):
        z = random_signs(8, 1)
        w = sample_real_wigner(8, 1)
        inst = assemble_instance_real(z.vec.real, w.mat.real, 0.5)
        s, _ = brute_force_real(inst)
        assert s.vec[0] == 1.0 + 0.0j

    def test_agrees_with_complex_enumeration_on_real_input(self):
        # With k a multiple of 2 the complex grid contains every sign vector,
        # so on a real matrix the real optimum cannot exceed the complex one.
        z = random_signs(4, 2)
        w = sample_real_wigner(4, 2)
        inst = assemble_instance_real(z.vec.real, w.mat.real, 0.4)
        _, real_val = brute_force_real(inst)
        _, cplx_val, _ = brute_force_qp(inst, k=32)
        assert cplx_val >= real_val - 1e-9

    def test_value_attained(self):
        z = random_signs(12, 3)
        w = sample_real_wigner(12, 3)
        inst = assemble_instance_real(z.vec.real, w.mat.real, 1.0)
        s, value = brute_force_real(inst)
        assert quad_form(inst, s.vec) == pytest.approx(value, rel=1e-12)

    def test_rejects_oversize(self):
        w = sample_real_wigner(24, 4)
        inst = assemble_instance_real(np.ones(24), w.mat.real, 0.1)
        with pytest.raises(ValueError):
            brute_force_real(inst)

    def test_chunked_path_matches_small_path(self):
        # n = 18 forces several chunks of the 2^17 enumeration; verify against
        # an independent argmax over explicitly generated candidates.
        rng = np.random.default_rng(9)
        n = 18
        a = rng.normal(size=(n, n))
        c = ((a + a.T) / 2.0).astype(complex)
        from phasesync.hermitian import HermitianMatrix
        h = HermitianMatrix(c)
        s, value = brute_force_real(h)
        direct = -np.inf
        m = h.mat.real
        for bits in range(2 ** (n - 1)):
            v = np.empty(n)
            v[0] = 1.0
            for i in range(1, n):
                v[i] = 1.0 if (bits >> (i - 1)) & 1 else -1.0
            direct = max(direct, float(v @ m @ v))
        assert value == pytest.approx(direct, rel=1e-12)


def assemble_instance_real(z, w, sigma):
    from phasesync.hermitian import HermitianMatrix
    c = np.outer(z, z) + sigma * w
    np.fill_diagonal(c, 1.0)
    return HermitianMatrix(c.astype(complex))
