import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasesync.hermitian import (EigensolverError, HermitianMatrix, cholesky_charge,
                                 extreme_eigs, norm_at_most, smallest_eigvals)
from phasesync.model import REAL_WIGNER_STREAM, WIGNER_STREAM, philox_stream, sample_wigner
from phasesync.z2 import sample_real_wigner

from reference import jacobi_eigvalsh, operator_norm, power_opnorm, quad_form, quad_form_loops


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

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_exact_input_stored_as_its_average_in_a_private_copy(self, dtype):
        # An exactly Hermitian input skips the averaging pass; the stored
        # matrix must still be the average bit for bit, and the caller's
        # array must stay writable and unchanged.
        rng = _rng(17)
        a = rng.normal(size=(30, 30)).astype(dtype)
        if dtype == np.complex128:
            a = a + 1j * rng.normal(size=(30, 30))
        m = a + a.conj().T
        np.fill_diagonal(m, np.diag(m).real)
        before = m.copy()
        h = HermitianMatrix(m)
        average = (before + before.conj().T) / 2.0
        assert h.mat.tobytes() == average.tobytes()
        assert m.flags.writeable
        assert m.tobytes() == before.tobytes()
        assert not np.shares_memory(h.mat, m)

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

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(np.zeros((2, 3), dtype=complex))

    def test_asymmetry_scales_with_magnitude(self):
        # 1e-9 asymmetry on entries of size 1e6 is within the relative gate.
        big = 1e6 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        big[0, 1] += 1e-9
        HermitianMatrix(big)


def _triangle_copy(upper, n):
    # The construction the samplers used before HermitianMatrix.from_upper:
    # triu_indices, W + W^H, then the constructor.
    w = np.zeros((n, n), dtype=upper.dtype)
    w[np.triu_indices(n, k=1)] = upper
    return HermitianMatrix(w + w.conj().T)


class TestFromUpper:
    @pytest.mark.parametrize("case, n", [("real", n) for n in (2, 3, 25, 100, 401)]
                             + [("complex", n) for n in (2, 5, 50, 201)])
    def test_samplers_match_the_triangle_copy_bit_for_bit(self, case, n):
        seed = 7 * n + 1
        if case == "real":
            rng = philox_stream(seed, REAL_WIGNER_STREAM)
            want = _triangle_copy(rng.normal(0.0, 1.0, size=n * (n - 1) // 2), n)
            got = sample_real_wigner(n, seed)
        else:
            rng = philox_stream(seed, WIGNER_STREAM)
            m = n * (n - 1) // 2
            upper = rng.normal(0.0, np.sqrt(0.5), size=m) + 1j * rng.normal(0.0, np.sqrt(0.5), size=m)
            want = _triangle_copy(upper, n)
            got = sample_wigner(n, seed)
        assert got.mat.dtype == want.mat.dtype
        assert got.mat.tobytes() == want.mat.tobytes()
        assert not got.mat.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_upper_triangle_round_trips(self, dtype):
        upper = _rng(3).normal(size=10).astype(dtype)
        if dtype == np.complex128:
            upper += 1j * _rng(4).normal(size=10)
        h = HermitianMatrix.from_upper(upper)
        assert h.n == 5 and h.mat.dtype == dtype
        assert np.array_equal(h.mat, h.mat.conj().T)
        assert np.array_equal(np.diag(h.mat), np.zeros(5))
        assert np.array_equal(h.mat[np.triu_indices(5, k=1)], upper)
        assert np.array_equal(h.mat, _triangle_copy(upper, 5).mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries_like_the_constructor(self, bad):
        upper = np.ones(6)
        upper[4] = bad
        with pytest.raises(ValueError, match="NaN or infinite") as direct:
            HermitianMatrix.from_upper(upper)
        with pytest.raises(ValueError) as built:
            _triangle_copy(upper, 4)
        assert str(direct.value) == str(built.value)


class TestExtremeEigs:
    def test_matches_jacobi_oracle(self):
        for seed in range(8):
            n = 3 + seed
            h = _random_hermitian(n, seed)
            ref = jacobi_eigvalsh(h.mat)
            got = np.array([extreme_eigs(h, index)[0] for index in (0, -1)])
            assert np.abs(got - ref[[0, -1]]).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_extreme_selection_matches_full_spectrum(self):
        h = _random_hermitian(12, 3)
        full = jacobi_eigvalsh(h.mat)
        assert extreme_eigs(h, 0)[0] == pytest.approx(full[0], abs=1e-10)
        assert extreme_eigs(h, -1)[0] == pytest.approx(full[-1], abs=1e-10)

    def test_diag_matrix_exact(self):
        d = np.array([-5.0, -1.0, 0.0, 2.0, 7.0])
        h = HermitianMatrix(np.diag(d).astype(complex))
        assert extreme_eigs(h, 0)[0] == pytest.approx(-5.0, abs=1e-12)
        assert extreme_eigs(h, -1)[0] == pytest.approx(7.0, abs=1e-12)

    def test_vectors_unit_norm_and_residuals_small(self):
        h = _random_hermitian(9, 11)
        for index in (0, -1):
            value, vec = extreme_eigs(h, index)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            residual = np.linalg.norm(h.mat @ vec - value * vec)
            assert residual <= 1e-9 * 9 * max(1.0, np.linalg.norm(h.mat))

    def test_residual_gate(self, monkeypatch):
        # A vector that is not an eigenvector misses the gate; a LAPACK
        # failure is reported as an eigensolver error.
        h = _random_hermitian(8, 5)
        eigh = np.linalg.eigh

        def perturbed(a, *args, **kwargs):
            vals, vecs = eigh(a, *args, **kwargs)
            vecs[:, 0] = np.roll(vecs[:, 0], 1)
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(EigensolverError, match="residual"):
            extreme_eigs(h, 0)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match="did not converge"):
            extreme_eigs(h, -1)

    @pytest.mark.parametrize("path", ["dense"])
    def test_real_symmetric_matches_complex_cast(self, path):
        # Real input runs the real LAPACK routines and returns real vectors;
        # its spectrum agrees with that of the complex128 cast.
        n = 60
        h = _random_symmetric(n, 4)
        as_complex = HermitianMatrix(h.mat.astype(np.complex128))
        scale = n * max(1.0, float(np.linalg.norm(h.mat)))
        for index in (0, -1):
            value, vec = extreme_eigs(h, index)
            ref_value, ref_vec = extreme_eigs(as_complex, index)
            assert vec.dtype == np.float64
            assert ref_vec.dtype == np.complex128
            assert np.linalg.norm(h.mat @ vec - value * vec) <= 1e-10 * scale
            assert abs(value - ref_value) <= 1e-12 * scale

    @given(st.integers(0, 2**31 - 1), st.floats(-3.0, 3.0))
    def test_shift_invariance(self, seed, shift):
        # Adding s I shifts every eigenvalue by exactly s.
        h = _random_hermitian(5, seed)
        shifted = HermitianMatrix(h.mat + shift * np.eye(5))
        for index in (0, -1):
            assert extreme_eigs(shifted, index)[0] == pytest.approx(
                extreme_eigs(h, index)[0] + shift, abs=1e-9)


class TestSmallestEigvals:
    @pytest.mark.parametrize("make", [_random_hermitian, _random_symmetric])
    def test_matches_extreme_eigs(self, make):
        for n in (1, 7, 40):
            h = make(n, n)
            scale = n * max(1.0, float(np.linalg.norm(h.mat)))
            got = smallest_eigvals(h.mat, min(n, 2))
            ref = np.linalg.eigh(h.mat)[0][:min(n, 2)]
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * scale
            assert abs(got[0] - extreme_eigs(h, 0)[0]) <= 1e-12 * scale
        assert smallest_eigvals(make(5, 0).mat, 0).size == 0

    def test_count_validation(self):
        h = _random_hermitian(4, 0)
        with pytest.raises(ValueError):
            smallest_eigvals(h.mat, 5)
        with pytest.raises(ValueError):
            smallest_eigvals(h.mat, -1)

    @pytest.mark.parametrize("index", [0, 1, -1])
    def test_shifted_eigenvalue_fails_the_gate(self, monkeypatch, index):
        # One eigenvalue moved by far more than rounding no longer reproduces
        # the trace, whichever one it is and whether it is returned or not.
        h = _random_hermitian(30, 2)
        eigvalsh = np.linalg.eigvalsh

        def shifted(a, *args, **kwargs):
            vals = eigvalsh(a, *args, **kwargs)
            vals[index] += 1e-3
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
        with pytest.raises(EigensolverError, match="misses tr H"):
            smallest_eigvals(h.mat, 2)

    def test_nan_fails_the_gate(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def poisoned(a, *args, **kwargs):
            vals = eigvalsh(a, *args, **kwargs)
            vals[-1] = np.nan
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", poisoned)
        with pytest.raises(EigensolverError):
            smallest_eigvals(_random_symmetric(10, 1).mat, 2)

    def test_lapack_failure_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(EigensolverError, match="did not converge"):
            smallest_eigvals(_random_hermitian(6, 3).mat, 2)

    @pytest.mark.parametrize("make", [_random_symmetric, _random_hermitian])
    def test_overflowing_norm_is_refused_before_the_solve(self, monkeypatch, make):
        # Finite entries near 1e160 whose squares overflow: ||H||_F is read
        # without a numpy warning, and no eigvalsh runs.
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a matrix with an infinite norm")

        h = HermitianMatrix(1e160 * make(20, 4).mat)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError, match="overflows"):
                smallest_eigvals(h.mat, 2)


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

    def test_factorization_is_charged_its_rounding(self):
        # ||H|| = 1 against bound = 1 + delta, with delta below the rounding
        # charge of bound I - H: a plain factorization of bound I - H
        # succeeds, but proves nothing, so the answer is false.
        h = HermitianMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        delta = 4.0 * np.finfo(float).eps
        bound = 1.0 + delta
        assert 0.0 < delta < cholesky_charge(4, 4.0 * bound - 1.0)
        np.linalg.cholesky(bound * np.eye(4) - h.mat)
        assert not norm_at_most(h, bound)
        assert norm_at_most(h, 1.0 + 1e-12)


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
        bottom, top = extreme_eigs(h, 0)[0], extreme_eigs(h, -1)[0]
        nsq = float(np.vdot(v, v).real)
        assert bottom * nsq - 1e-9 <= q <= top * nsq + 1e-9
