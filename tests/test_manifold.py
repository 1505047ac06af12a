import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasesync.hermitian import quad_form
from phasesync.manifold import (AlignmentError, TangentVector, align_global_phase,
                                hessian_vec, project_tangent, retract, riemannian_grad)
from phasesync.model import PhaseVector, assemble_instance, random_signal, sample_wigner

from reference import min_phase_distance, real_inner


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
    def test_accepts_projected(self):
        x = _point(6, 1)
        t = project_tangent(x, _raw_vec(6, 1))
        assert t.n == 6
        assert not t.dir.flags.writeable

    def test_rejects_radial(self):
        x = _point(4, 2)
        with pytest.raises(ValueError, match="not tangent"):
            TangentVector(x, x.vec.copy())

    def test_rejects_shape_mismatch(self):
        x = _point(4, 2)
        with pytest.raises(ValueError):
            TangentVector(x, np.zeros(5, dtype=complex))


class TestProjection:
    @given(st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        x = _point(8, seed)
        v = _raw_vec(8, seed)
        once = project_tangent(x, v)
        twice = project_tangent(x, once.dir)
        assert np.abs(once.dir - twice.dir).max() <= 1e-12 * max(1.0, np.abs(v).max())

    @given(st.integers(0, 2**31 - 1))
    def test_orthogonal_complement(self, seed):
        # v - P(v) is radial: orthogonal to every tangent vector.
        x = _point(8, seed)
        v = _raw_vec(8, seed)
        p = project_tangent(x, v)
        radial = v - p.dir
        u = project_tangent(x, _raw_vec(8, seed + 1))
        assert abs(real_inner(radial, u.dir)) <= 1e-10 * np.linalg.norm(v) * max(1.0, u.norm())

    @given(st.integers(0, 2**31 - 1))
    def test_nonexpansive(self, seed):
        x = _point(8, seed)
        v = _raw_vec(8, seed)
        assert project_tangent(x, v).norm() <= np.linalg.norm(v) + 1e-12

    def test_entrywise_formula(self):
        x = _point(5, 9)
        v = _raw_vec(5, 9)
        p = project_tangent(x, v)
        for i in range(5):
            expect = v[i] - (v[i] * x.vec[i].conj()).real * x.vec[i]
            assert abs(p.dir[i] - expect) < 1e-15 * max(1.0, abs(v[i]))


class TestRetraction:
    def test_stays_on_torus(self):
        x = _point(10, 3)
        t = project_tangent(x, _raw_vec(10, 3))
        y = retract(x, t, 0.3)
        assert np.abs(np.abs(y.vec) - 1.0).max() <= 1e-12

    def test_zero_step_fixes_point(self):
        x = _point(10, 4)
        t = project_tangent(x, _raw_vec(10, 4))
        y = retract(x, t, 0.0)
        assert np.array_equal(y.vec, x.vec)

    def test_second_order_agreement_with_line(self):
        # ||R(x, t v) - (x + t v)|| = O(t^2): the exponent read off two step
        # sizes must land near 2, and the constant is bounded by ||v||^2.
        x = _point(12, 5)
        t = project_tangent(x, _raw_vec(12, 5))
        gaps = {}
        for step in (1e-2, 1e-3):
            y = retract(x, t, step)
            gaps[step] = np.linalg.norm(y.vec - (x.vec + step * t.dir))
            assert gaps[step] <= step**2 * t.norm() ** 2
        exponent = np.log(gaps[1e-2] / gaps[1e-3]) / np.log(10.0)
        assert 1.9 <= exponent <= 2.1

    def test_degenerate_entry_rejected(self):
        # A non-tangent direction can null out an entry; build one through
        # the raw constructor bypass by using a tangent direction scaled so
        # x + t v stays clear, then check the validation on the nearly-zero
        # case via a crafted base/direction pair.
        x = PhaseVector(np.array([1.0 + 0j, 1.0 + 0j]))
        t = TangentVector(x, np.array([1j, -1j]))
        # |1 + s*1j| never vanishes for tangent directions; the degenerate
        # branch needs a direction with a radial component, which the type
        # forbids. So the error path is only reachable through step sizes
        # that overflow to zero modulus numerically; verify the guard stays
        # silent on honest input instead.
        y = retract(x, t, 1e3)
        assert np.abs(np.abs(y.vec) - 1.0).max() <= 1e-12

    def test_base_mismatch_rejected(self):
        x = _point(4, 6)
        other = _point(4, 7)
        t = project_tangent(x, _raw_vec(4, 6))
        with pytest.raises(ValueError, match="different point"):
            retract(other, t, 0.1)


class TestGradient:
    def test_gradient_is_tangent(self):
        data = _data(9, 0)
        x = _point(9, 1)
        g = riemannian_grad(data, x)
        radial = (g.dir * x.vec.conj()).real
        assert np.abs(radial).max() <= 1e-10 * max(1.0, np.abs(g.dir).max())

    def test_finite_difference_directional(self):
        data = _data(9, 2)
        x = _point(9, 3)
        g = riemannian_grad(data, x)
        step = 1e-6
        for k in range(10):
            v = project_tangent(x, _raw_vec(9, 100 + k))
            if v.norm() < 1e-12:
                continue
            fp = _objective(data, retract(x, v, step))
            fm = _objective(data, retract(x, v, -step))
            fd = (fp - fm) / (2.0 * step)
            ip = real_inner(g.dir, v.dir)
            assert abs(fd - ip) <= 1e-6 * max(1.0, abs(ip))

    def test_vanishes_at_planted_optimum_noiseless(self):
        z = random_signal(14, 8)
        w = sample_wigner(14, 8)
        data = assemble_instance(z, w, 0.0, 8).C
        g = riemannian_grad(data, z)
        assert g.norm() <= 1e-12 * 14

    @given(st.integers(0, 2**31 - 1))
    def test_phase_equivariance(self, seed):
        # Rotating the point rotates the gradient: norms must agree.
        data = _data(7, seed)
        x = _point(7, seed + 1)
        xr = PhaseVector(x.vec * np.exp(1.3j))
        g = riemannian_grad(data, x)
        gr = riemannian_grad(data, xr)
        assert gr.norm() == pytest.approx(g.norm(), rel=1e-10, abs=1e-12)


class TestHessian:
    def test_output_is_tangent(self):
        data = _data(8, 4)
        x = _point(8, 5)
        v = project_tangent(x, _raw_vec(8, 6))
        h = hessian_vec(data, x, v)
        radial = (h.dir * x.vec.conj()).real
        assert np.abs(radial).max() <= 1e-10 * max(1.0, np.abs(h.dir).max())

    def test_symmetry_of_bilinear_form(self):
        data = _data(8, 7)
        x = _point(8, 8)
        u = project_tangent(x, _raw_vec(8, 9))
        v = project_tangent(x, _raw_vec(8, 10))
        left = real_inner(u.dir, hessian_vec(data, x, v).dir)
        right = real_inner(v.dir, hessian_vec(data, x, u).dir)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-9)

    def test_finite_difference_of_gradient(self):
        data = _data(9, 11)
        x = _point(9, 12)
        step = 1e-5
        for k in range(5):
            v = project_tangent(x, _raw_vec(9, 200 + k))
            if v.norm() < 1e-12:
                continue
            unit = TangentVector(x, v.dir / v.norm())
            hv = hessian_vec(data, x, unit)
            gp = riemannian_grad(data, retract(x, unit, step))
            gm = riemannian_grad(data, retract(x, unit, -step))
            # Transport the neighboring gradients back by projection.
            fd = (project_tangent(x, gp.dir).dir - project_tangent(x, gm.dir).dir) / (2.0 * step)
            rel = np.linalg.norm(fd - hv.dir) / max(1.0, np.linalg.norm(hv.dir))
            assert rel <= 1e-5

    def test_linearity(self):
        data = _data(7, 13)
        x = _point(7, 14)
        u = project_tangent(x, _raw_vec(7, 15))
        v = project_tangent(x, _raw_vec(7, 16))
        comb = TangentVector(x, 2.0 * u.dir - 0.5 * v.dir)
        lhs = hessian_vec(data, x, comb).dir
        rhs = 2.0 * hessian_vec(data, x, u).dir - 0.5 * hessian_vec(data, x, v).dir
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
