import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasesync.hermitian import (HermitianMatrix, extreme_eigs, norm_at_most,
                                 operator_norm, quad_form, symmetrize)
from phasesync.model import sample_wigner
from phasesync.z2 import sample_real_wigner

from reference import jacobi_eigvalsh, power_opnorm, quad_form_loops


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 17], dtype=np.uint64)))


def _random_hermitian(n, seed, scale=1.0):
    rng = _rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix(scale * (m + m.conj().T) / 2.0)


def _random_symmetric(n, seed):
    m = _rng(seed).normal(size=(n, n))
    return HermitianMatrix((m + m.T) / 2.0)


class TestHermitianMatrix:
    def test_construction_forces_real_diagonal_and_readonly(self):
        m = np.array([[1.0 + 1e-14j, 2.0 - 1.0j], [2.0 + 1.0j, -3.0 + 0j]])
        h = HermitianMatrix(m)
        assert np.all(np.diag(h.mat).imag == 0.0)
        assert not h.mat.flags.writeable
        assert h.n == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_dtype_follows_input(self):
        real = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        cplx = HermitianMatrix(np.array([[2.0, 1.0j], [-1.0j, 0.0]]))
        assert real.mat.dtype == np.float64
        assert cplx.mat.dtype == np.complex128
        assert not real.mat.flags.writeable
        assert not cplx.mat.flags.writeable

    def test_symmetrize_applies_the_same_dtype_rule(self):
        inputs = (np.array([[1, 2], [2, 1]]),
                  np.array([[1.0, 2.0], [0.0, 1.0]]),
                  np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))
        for m in inputs:
            h = symmetrize(m)
            assert h.mat.dtype == HermitianMatrix(h.mat).mat.dtype
            assert h.mat.dtype == (np.complex128 if np.iscomplexobj(m) else np.float64)

    def test_rejects_asymmetric_real(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, dtype, bad):
        # A NaN pair is symmetric and compares false, so only an explicit
        # finiteness test catches it. It must run before any arithmetic:
        # halving a complex inf would warn before the rejection.
        m = np.zeros((3, 3), dtype=dtype)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            HermitianMatrix(m)
        with pytest.raises(ValueError, match="NaN or infinite"):
            symmetrize(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3), dtype=complex))

    def test_asymmetry_scales_with_magnitude(self):
        # 1e-9 asymmetry on entries of size 1e6 is within the relative gate.
        big = 1e6 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        big[0, 1] += 1e-9
        HermitianMatrix(big)

    def test_symmetrize_handles_arbitrary_square_input(self):
        m = np.array([[0.0, 1.0 + 1.0j], [0.0, 0.0]], dtype=complex)
        h = symmetrize(m)
        expected = (m + m.conj().T) / 2.0
        assert np.allclose(h.mat, expected)

    @given(st.integers(0, 2**31 - 1))
    def test_symmetrize_idempotent(self, seed):
        rng = _rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        once = symmetrize(m)
        twice = symmetrize(once.mat)
        assert np.array_equal(once.mat, twice.mat)


class TestExtremeEigs:
    def test_matches_jacobi_oracle(self):
        for seed in range(8):
            n = 3 + seed
            h = _random_hermitian(n, seed)
            ref = jacobi_eigvalsh(h.mat)
            got = extreme_eigs(h, n, 0).values
            assert np.abs(np.asarray(got) - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_extreme_selection_matches_full_spectrum(self):
        h = _random_hermitian(12, 3)
        full = jacobi_eigvalsh(h.mat)
        got = extreme_eigs(h, 2, 3)
        assert np.allclose(got.values[:2], full[:2], atol=1e-10)
        assert np.allclose(got.values[2:], full[-3:], atol=1e-10)
        assert list(got.values) == sorted(got.values)

    def test_diag_matrix_exact(self):
        d = np.array([-5.0, -1.0, 0.0, 2.0, 7.0])
        h = HermitianMatrix(np.diag(d).astype(complex))
        got = extreme_eigs(h, 1, 1)
        assert got.values[0] == pytest.approx(-5.0, abs=1e-12)
        assert got.values[1] == pytest.approx(7.0, abs=1e-12)

    def test_vectors_unit_norm_and_residuals_small(self):
        h = _random_hermitian(9, 11)
        got = extreme_eigs(h, 2, 2)
        norms = np.linalg.norm(got.vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.all(got.residuals <= 1e-9 * 9 * max(1.0, np.linalg.norm(h.mat)))

    def test_zero_requests_allowed(self):
        h = _random_hermitian(4, 0)
        got = extreme_eigs(h, 0, 0)
        assert got.values.size == 0
        assert got.vectors.shape == (4, 0)

    def test_count_validation(self):
        h = _random_hermitian(4, 0)
        with pytest.raises(ValueError):
            extreme_eigs(h, 3, 2)
        with pytest.raises(ValueError):
            extreme_eigs(h, -1, 0)

    @pytest.mark.parametrize("path", ["dense"])
    def test_real_symmetric_matches_complex_cast(self, path):
        # Real input runs the real LAPACK routines and returns real vectors;
        # its spectrum agrees with that of the complex128 cast.
        n = 60
        h = _random_symmetric(n, 4)
        as_complex = HermitianMatrix(h.mat.astype(np.complex128))
        scale = n * max(1.0, float(np.linalg.norm(h.mat)))
        got = extreme_eigs(h, 2, 2)
        ref = extreme_eigs(as_complex, 2, 2)
        assert got.vectors.dtype == np.float64
        assert ref.vectors.dtype == np.complex128
        assert np.all(got.residuals <= 1e-10 * scale)
        assert np.abs(got.values - ref.values).max() <= 1e-12 * scale
        assert extreme_eigs(h, 0, 0).vectors.dtype == np.float64

    @given(st.integers(0, 2**31 - 1), st.floats(-3.0, 3.0))
    def test_shift_invariance(self, seed, shift):
        # Adding s I shifts every eigenvalue by exactly s.
        h = _random_hermitian(5, seed)
        shifted = HermitianMatrix(h.mat + shift * np.eye(5))
        base = extreme_eigs(h, 1, 1).values
        moved = extreme_eigs(shifted, 1, 1).values
        assert np.allclose(np.asarray(moved), np.asarray(base) + shift, atol=1e-9)


class TestOperatorNorm:
    def test_matches_power_iteration(self):
        for seed in (0, 1, 2):
            h = _random_hermitian(30, seed)
            ref = power_opnorm(np.asarray(h.mat), seed=seed)
            assert operator_norm(h) == pytest.approx(ref, rel=1e-8)

    def test_rank_one(self):
        v = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3.0)
        h = HermitianMatrix(4.0 * np.outer(v, v.conj()))
        assert operator_norm(h) == pytest.approx(4.0, abs=1e-10)

    @given(st.integers(0, 2**31 - 1))
    def test_dominates_row_column_entries(self, seed):
        h = _random_hermitian(6, seed)
        assert operator_norm(h) >= np.abs(h.mat).max() - 1e-9


class TestNormAtMost:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n", [2, 3, 12, 25, 60])
    def test_matches_eigensolver_decision(self, kind, n):
        sample = sample_real_wigner if kind == "real" else sample_wigner
        for seed in range(3):
            h = sample(n, seed)
            norm = operator_norm(h)
            bounds = [3.0 * np.sqrt(n), 0.01 * np.sqrt(n)]
            bounds += [norm * (1.0 + s * r) for r in (1e-9, 1e-6) for s in (-1.0, 1.0)]
            for bound in bounds:
                assert norm_at_most(h, bound) == (norm <= bound), (seed, bound / norm)


class TestQuadForm:
    def test_matches_loop_oracle(self):
        for seed in range(5):
            rng = _rng(100 + seed)
            h = _random_hermitian(7, seed)
            v = rng.normal(size=7) + 1j * rng.normal(size=7)
            ref = quad_form_loops(np.asarray(h.mat), v)
            assert abs(ref.imag) < 1e-10
            assert quad_form(h, v) == pytest.approx(ref.real, rel=1e-12, abs=1e-12)

    def test_identity_gives_norm_squared(self):
        h = HermitianMatrix(np.eye(5, dtype=complex))
        v = np.arange(5) + 1j
        assert quad_form(h, v) == pytest.approx(float(np.vdot(v, v).real))

    def test_dimension_mismatch(self):
        h = _random_hermitian(4, 0)
        with pytest.raises(ValueError):
            quad_form(h, np.ones(5, dtype=complex))

    @given(st.integers(0, 2**31 - 1))
    def test_real_valued_on_random_inputs(self, seed):
        rng = _rng(seed)
        h = _random_hermitian(5, seed, scale=10.0)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        q = quad_form(h, v)
        assert isinstance(q, float)
        # Rayleigh quotient lies within the spectrum.
        eig = extreme_eigs(h, 1, 1)
        nsq = float(np.vdot(v, v).real)
        assert eig.values[0] * nsq - 1e-9 <= q <= eig.values[1] * nsq + 1e-9
