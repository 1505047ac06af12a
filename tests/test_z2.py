import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync.hermitian import HermitianMatrix, extreme_eigs
from phasesync.model import PhaseVector
from phasesync.z2 import planted_verdict, random_signs, sample_real_wigner

from reference import jacobi_eigvalsh, real_certificate, verdict_at


class TestSignSignal:
    # The signs are a float64 PhaseVector; planted_verdict alone insists on
    # exact signs, since its closed form needs z_i^2 = 1 exactly.
    def test_random_signs_are_float64_phase_vector(self):
        v = random_signs(40, 7)
        assert isinstance(v, PhaseVector)
        assert v.n == 40
        assert v.vec.dtype == np.float64
        assert np.all((v.vec == 1.0) | (v.vec == -1.0))
        assert not v.vec.flags.writeable

    def test_planted_verdict_rejects_inexact_signs(self):
        z = np.ones(8)
        z[3] = 1.0 - 2.0 ** -44
        near = PhaseVector(z)  # within the unit-modulus tolerance
        with pytest.raises(ValueError, match="exactly"):
            planted_verdict(near, sample_real_wigner(8, 1), 1.0)
        # Entries off the unit circle never reach it: PhaseVector refuses them.
        for bad in ([1.0, 0.5], [1.0, 0.0]):
            with pytest.raises(ValueError, match="unit modulus"):
                PhaseVector(np.array(bad))

    def test_planted_verdict_rejects_complex_signs(self):
        z = PhaseVector(random_signs(8, 1).vec + 0j)
        assert z.vec.dtype == np.complex128
        with pytest.raises(ValueError, match="float64"):
            planted_verdict(z, sample_real_wigner(8, 1), 1.0)


class TestSampling:
    def test_random_signs_deterministic_and_binary(self):
        a = random_signs(50, 3)
        b = random_signs(50, 3)
        assert np.array_equal(a.vec, b.vec)
        assert set(np.unique(a.vec)) <= {-1.0, 1.0}
        # Both signs should actually occur at this size.
        assert len(np.unique(a.vec)) == 2

    def test_real_wigner_symmetric_zero_diag_real(self):
        w = sample_real_wigner(30, 7)
        assert w.mat.dtype == np.float64
        assert np.all(w.mat.imag == 0.0)
        assert np.all(np.diag(w.mat) == 0.0)
        assert np.array_equal(w.mat, w.mat.T)

    def test_real_wigner_unit_variance(self):
        w = sample_real_wigner(120, 11)
        iu = np.triu_indices(120, k=1)
        vals = w.mat[iu].real
        assert abs(vals.var() - 1.0) < 10.0 / math.sqrt(vals.size)

    def test_independent_of_complex_streams(self):
        from phasesync.model import sample_wigner
        wr = sample_real_wigner(10, 5)
        wc = sample_wigner(10, 5)
        assert not np.allclose(wr.mat.real, wc.mat.real)


class TestRealCertificate:
    def test_matches_closed_form_at_all_ones(self):
        # For z = 1 the certificate reduces to n I - 1 1^T + sigma L where
        # L is the graph-Laplacian-like matrix diag(W 1) - W. The reduction
        # is an algebraic identity, so equality is exact entry by entry.
        n, sigma = 25, 1.7
        w = sample_real_wigner(n, 2)
        ones = PhaseVector(np.ones(n))
        s = real_certificate(ones, w, sigma)
        w1 = (w.mat @ np.ones(n)).real
        ref = (n * np.eye(n) - np.ones((n, n))).astype(np.complex128) \
            + sigma * (np.diag(w1).astype(np.complex128) - w.mat)
        assert np.array_equal(s.mat, ref)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.5, 3.0, 12.0]))
    @settings(max_examples=20)
    def test_annihilates_signal_for_any_draw(self, seed, sigma):
        z = random_signs(12, seed)
        w = sample_real_wigner(12, seed)
        s = real_certificate(z, w, sigma)
        assert np.linalg.norm(s.mat @ z.vec) <= 1e-10 * 12

    def test_gauge_covariance(self):
        # Flipping signs conjugates the certificate by the flip matrix, so
        # the spectrum cannot depend on z beyond the noise interaction.
        n, sigma = 10, 0.8
        w = sample_real_wigner(n, 9)
        z = random_signs(n, 9)
        s = real_certificate(z, w, sigma)
        d = np.diag(z.vec)
        w_flipped = type(w)(d @ w.mat @ d)
        ones = PhaseVector(np.ones(n))
        s_ref = real_certificate(ones, w_flipped, sigma)
        got = np.sort(np.linalg.eigvalsh(s.mat))
        ref = np.sort(np.linalg.eigvalsh(s_ref.mat))
        assert np.abs(got - ref).max() <= 1e-10 * n

    def test_sigma_zero_spectrum(self):
        n = 15
        z = random_signs(n, 4)
        w = sample_real_wigner(n, 4)
        s = real_certificate(z, w, 0.0)
        vals = jacobi_eigvalsh(np.asarray(s.mat))
        assert abs(vals[0]) <= 1e-12 * n
        assert np.abs(vals[1:] - n).max() <= 1e-10 * n

    def test_rejects_complex_noise(self):
        from phasesync.model import sample_wigner
        z = random_signs(8, 1)
        wc = sample_wigner(8, 1)
        with pytest.raises(ValueError, match="real"):
            real_certificate(z, wc, 1.0)

    @pytest.mark.parametrize("form", [real_certificate, planted_verdict])
    def test_complex_typed_real_noise_rejected(self, form):
        # Only float64 noise is accepted, even when a complex-typed matrix
        # has zero imaginary parts; the certificate is float64 too.
        n, sigma = 20, 1.3
        z = random_signs(n, 3)
        w = sample_real_wigner(n, 3)
        assert real_certificate(z, w, sigma).mat.dtype == np.float64
        with pytest.raises(ValueError, match="real float64"):
            form(z, HermitianMatrix(w.mat.astype(np.complex128)), sigma)

    def test_rejects_negative_sigma(self):
        z = random_signs(8, 1)
        w = sample_real_wigner(8, 1)
        with pytest.raises(ValueError):
            real_certificate(z, w, -0.5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    @pytest.mark.parametrize("form", [real_certificate, planted_verdict])
    def test_rejects_non_finite_sigma_by_name(self, form, sigma):
        # Caught before any product with W, so no RuntimeWarning and no
        # NaN-entry error from the certificate matrix.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sigma must be finite"):
                form(random_signs(8, 1), sample_real_wigner(8, 1), sigma)

    def test_planted_verdict_validates_like_real_certificate(self):
        from phasesync.model import sample_wigner
        z = random_signs(8, 1)
        with pytest.raises(ValueError, match="real"):
            planted_verdict(z, sample_wigner(8, 1), 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            planted_verdict(z, sample_real_wigner(8, 1), -0.5)
        with pytest.raises(ValueError, match="sizes"):
            planted_verdict(z, sample_real_wigner(9, 1), 1.0)


def _recovery(z, w, sigma):
    # The shared certificate verdict at the planted signs: tight means the
    # relaxation recovers z z^T exactly.
    return verdict_at(real_certificate(z, w, sigma).mat, z.vec)


class TestRecoveryCheck:
    def test_min_eig_matches_direct_eigensolve(self):
        z = random_signs(40, 21)
        w = sample_real_wigner(40, 21)
        check = _recovery(z, w, 2.0)
        s = real_certificate(z, w, 2.0)
        ref = extreme_eigs(s, 0)[0]
        assert check.min_eig == pytest.approx(ref, abs=1e-12)
        assert check.tight == (check.min_eig >= -1e-14 * 40)

    def test_weak_noise_recovers(self):
        z = random_signs(60, 5)
        w = sample_real_wigner(60, 5)
        check = _recovery(z, w, 0.5)
        assert check.tight

    def test_strong_noise_fails(self):
        z = random_signs(60, 6)
        w = sample_real_wigner(60, 6)
        threshold = math.sqrt(60 / (2 * math.log(60)))
        check = _recovery(z, w, 4.0 * threshold)
        assert not check.tight
        assert check.min_eig < 0.0

    def test_transition_bracket(self):
        # Around sigma = sqrt(n / (2 log n)) the verdict flips: comfortably
        # below, recovery; comfortably above, failure. This is the sharp
        # threshold the real-case grid sweeps across.
        n = 200
        threshold = math.sqrt(n / (2 * math.log(n)))
        below = above = 0
        trials = 12
        for seed in range(trials):
            z = random_signs(n, seed)
            w = sample_real_wigner(n, seed)
            if _recovery(z, w, 0.6 * threshold).tight:
                below += 1
            if _recovery(z, w, 1.8 * threshold).tight:
                above += 1
        assert below == trials
        assert above == 0

    def test_verdicts_match_complex_arithmetic(self):
        # The complex128 cast of S runs the same verdict in complex
        # arithmetic; it is the reference for the float64 verdicts.
        outcomes = set()
        for n in (20, 60):
            threshold = math.sqrt(n / (2 * math.log(n)))
            for seed in range(4):
                z = random_signs(n, seed)
                w = sample_real_wigner(n, seed)
                for factor in (0.5, 0.9, 1.1, 2.0):
                    s = real_certificate(z, w, factor * threshold)
                    got = verdict_at(s.mat, z.vec)
                    ref = verdict_at(s.mat.astype(np.complex128), z.vec)
                    assert (got.tight, got.unique) == (ref.tight, ref.unique)
                    outcomes.add(got.tight)
        assert outcomes == {True, False}
