"""Geometry of the torus: the reference derivatives of ``-x* C x``, the
reference retraction, and global phase alignment. Tangent vectors are plain
ambient arrays."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasesync.metrics import AlignmentError, align_global_phase
from phasesync.model import PhaseVector, assemble_instance, random_signal, sample_wigner
from reference import (hessian_vec, min_phase_distance, project_tangent, quad_form, real_inner,
                       retract, riemannian_grad)


def _point(n, seed):
    return random_signal(n, seed)


def _data(n, seed, sigma=0.8):
    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    return assemble_instance(z, w, sigma, seed).C


def _raw_vec(n, seed):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 23], dtype=np.uint64)))
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _objective(data, pv):
    return -quad_form(data, pv.vec)


class TestTangentVector:
    # A tangent vector is a plain array with no radial part; the reference
    # projection is how the tests make one.
    def test_accepts_projected(self):
        x = _point(6, 1)
        t = project_tangent(x, _raw_vec(6, 1))
        assert t.shape == (6,)
        assert np.abs((t * x.vec.conj()).real).max() <= 1e-12

    def test_rejects_radial(self):
        x = _point(4, 2)
        assert np.abs(project_tangent(x, 2.5 * x.vec)).max() <= 1e-15

    def test_rejects_shape_mismatch(self):
        x = _point(4, 2)
        with pytest.raises(ValueError):
            project_tangent(x, np.zeros(5, dtype=complex))


class TestProjection:
    @given(st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        x = _point(8, seed)
        v = _raw_vec(8, seed)
        once = project_tangent(x, v)
        twice = project_tangent(x, once)
        assert np.abs(once - twice).max() <= 1e-12 * max(1.0, np.abs(v).max())

    @given(st.integers(0, 2**31 - 1))
    def test_orthogonal_complement(self, seed):
        # v - P(v) is radial: orthogonal to every tangent vector.
        x = _point(8, seed)
        v = _raw_vec(8, seed)
        p = project_tangent(x, v)
        radial = v - p
        u = project_tangent(x, _raw_vec(8, seed + 1))
        budget = 1e-10 * np.linalg.norm(v) * max(1.0, np.linalg.norm(u))
        assert abs(real_inner(radial, u)) <= budget

    @given(st.integers(0, 2**31 - 1))
    def test_nonexpansive(self, seed):
        x = _point(8, seed)
        v = _raw_vec(8, seed)
        assert np.linalg.norm(project_tangent(x, v)) <= np.linalg.norm(v) + 1e-12

    def test_entrywise_formula(self):
        x = _point(5, 9)
        v = _raw_vec(5, 9)
        p = project_tangent(x, v)
        for i in range(5):
            expect = v[i] - (v[i] * x.vec[i].conj()).real * x.vec[i]
            assert abs(p[i] - expect) < 1e-15 * max(1.0, abs(v[i]))


class TestRetraction:
    def test_stays_on_torus(self):
        x = _point(10, 3)
        t = project_tangent(x, _raw_vec(10, 3))
        y = retract(x.vec, t, 0.3)
        assert np.abs(np.abs(y.vec) - 1.0).max() <= 1e-12

    def test_zero_step_fixes_point(self):
        # A zero step renormalizes x itself, which moves it by rounding only.
        x = _point(10, 4)
        t = project_tangent(x, _raw_vec(10, 4))
        y = retract(x.vec, t, 0.0)
        assert np.abs(y.vec - x.vec).max() <= 1e-15

    def test_second_order_agreement_with_line(self):
        # ||R(x, t v) - (x + t v)|| = O(t^2): the exponent read off two step
        # sizes must land near 2, and the constant is bounded by ||v||^2.
        x = _point(12, 5)
        t = project_tangent(x, _raw_vec(12, 5))
        gaps = {}
        for step in (1e-2, 1e-3):
            y = retract(x.vec, t, step)
            gaps[step] = np.linalg.norm(y.vec - (x.vec + step * t))
            assert gaps[step] <= step**2 * np.linalg.norm(t) ** 2
        exponent = np.log(gaps[1e-2] / gaps[1e-3]) / np.log(10.0)
        assert 1.9 <= exponent <= 2.1

    def test_degenerate_entry_rejected(self):
        # No tangent step meets a degenerate entry: for d = i x o theta,
        # |x_i + s d_i|^2 = 1 + s^2 theta_i^2. Even a huge step comes back to
        # the torus, and the unit-modulus check of its PhaseVector holds.
        x = PhaseVector(np.array([1.0 + 0j, 1.0 + 0j]))
        y = retract(x.vec, np.array([1j, -1j]), 1e3)
        assert np.abs(np.abs(y.vec) - 1.0).max() <= 1e-12


class TestGradient:
    def test_gradient_is_tangent(self):
        data = _data(9, 0)
        x = _point(9, 1)
        g = riemannian_grad(data, x)
        radial = (g * x.vec.conj()).real
        assert np.abs(radial).max() <= 1e-10 * max(1.0, np.abs(g).max())

    def test_finite_difference_directional(self):
        data = _data(9, 2)
        x = _point(9, 3)
        g = riemannian_grad(data, x)
        step = 1e-6
        for k in range(10):
            v = project_tangent(x, _raw_vec(9, 100 + k))
            if np.linalg.norm(v) < 1e-12:
                continue
            fp = _objective(data, retract(x.vec, v, step))
            fm = _objective(data, retract(x.vec, v, -step))
            fd = (fp - fm) / (2.0 * step)
            ip = real_inner(g, v)
            assert abs(fd - ip) <= 1e-6 * max(1.0, abs(ip))

    def test_vanishes_at_planted_optimum_noiseless(self):
        z = random_signal(14, 8)
        w = sample_wigner(14, 8)
        data = assemble_instance(z, w, 0.0, 8).C
        g = riemannian_grad(data, z)
        assert np.linalg.norm(g) <= 1e-12 * 14

    @given(st.integers(0, 2**31 - 1))
    def test_phase_equivariance(self, seed):
        # Rotating the point rotates the gradient: norms must agree.
        data = _data(7, seed)
        x = _point(7, seed + 1)
        xr = PhaseVector(x.vec * np.exp(1.3j))
        g = riemannian_grad(data, x)
        gr = riemannian_grad(data, xr)
        assert np.linalg.norm(gr) == pytest.approx(np.linalg.norm(g),
                                                       rel=1e-10, abs=1e-12)


class TestHessian:
    def test_output_is_tangent(self):
        data = _data(8, 4)
        x = _point(8, 5)
        v = project_tangent(x, _raw_vec(8, 6))
        h = hessian_vec(data, x, v)
        radial = (h * x.vec.conj()).real
        assert np.abs(radial).max() <= 1e-10 * max(1.0, np.abs(h).max())

    def test_symmetry_of_bilinear_form(self):
        data = _data(8, 7)
        x = _point(8, 8)
        u = project_tangent(x, _raw_vec(8, 9))
        v = project_tangent(x, _raw_vec(8, 10))
        left = real_inner(u, hessian_vec(data, x, v))
        right = real_inner(v, hessian_vec(data, x, u))
        assert left == pytest.approx(right, rel=1e-9, abs=1e-9)

    def test_finite_difference_of_gradient(self):
        data = _data(9, 11)
        x = _point(9, 12)
        step = 1e-5
        for k in range(5):
            v = project_tangent(x, _raw_vec(9, 200 + k))
            if np.linalg.norm(v) < 1e-12:
                continue
            unit = v / np.linalg.norm(v)
            hv = hessian_vec(data, x, unit)
            gp = riemannian_grad(data, retract(x.vec, unit, step))
            gm = riemannian_grad(data, retract(x.vec, unit, -step))
            # Transport the neighboring gradients back by projection.
            fd = (project_tangent(x, gp) - project_tangent(x, gm)) / (2.0 * step)
            rel = np.linalg.norm(fd - hv) / max(1.0, np.linalg.norm(hv))
            assert rel <= 1e-5

    def test_linearity(self):
        data = _data(7, 13)
        x = _point(7, 14)
        u = project_tangent(x, _raw_vec(7, 15))
        v = project_tangent(x, _raw_vec(7, 16))
        lhs = hessian_vec(data, x, 2.0 * u - 0.5 * v)
        rhs = 2.0 * hessian_vec(data, x, u) - 0.5 * hessian_vec(data, x, v)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


class TestAlignment:
    def test_alignment_minimizes_distance(self):
        z = _point(10, 20)
        x = _point(10, 21)
        aligned = align_global_phase(x, z)
        got = np.linalg.norm(aligned.vec - z.vec)
        ref = min_phase_distance(np.asarray(x.vec), np.asarray(z.vec))
        assert got <= ref + 1e-6

    def test_correlation_becomes_real_nonnegative(self):
        z = _point(10, 22)
        x = _point(10, 23)
        aligned = align_global_phase(x, z)
        corr = complex(np.vdot(z.vec, aligned.vec))
        assert corr.real >= 0.0
        assert abs(corr.imag) <= 1e-10 * max(1.0, abs(corr))

    def test_idempotent_once_aligned(self):
        z = _point(6, 24)
        x = _point(6, 25)
        a1 = align_global_phase(x, z)
        a2 = align_global_phase(a1, z)
        assert np.abs(a1.vec - a2.vec).max() <= 1e-12

    def test_orthogonal_raises(self):
        z = PhaseVector(np.array([1.0 + 0j, 1.0 + 0j]))
        x = PhaseVector(np.array([1.0 + 0j, -1.0 + 0j]))
        with pytest.raises(AlignmentError):
            align_global_phase(x, z)

    @given(st.floats(-10.0, 10.0))
    def test_invariant_to_input_phase(self, theta):
        z = _point(8, 26)
        x = _point(8, 27)
        a = align_global_phase(x, z)
        b = align_global_phase(PhaseVector(x.vec * np.exp(1j * theta)), z)
        assert np.abs(a.vec - b.vec).max() <= 1e-9
