import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasesync.hermitian import HermitianMatrix
from phasesync.model import (PhaseVector, SyncInstance, assemble_instance,
                             is_discordant, noise_tail_stats, philox_stream,
                             random_signal, sample_wigner, trial_seed)

from reference import operator_norm, power_opnorm


class TestStreams:
    def test_same_key_reproduces(self):
        a = philox_stream(123, 1).normal(size=8)
        b = philox_stream(123, 1).normal(size=8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = philox_stream(123, 0).normal(size=8)
        b = philox_stream(123, 1).normal(size=8)
        assert not np.array_equal(a, b)

    def test_trial_seed_deterministic_and_spread(self):
        s1 = trial_seed(42, 0)
        s2 = trial_seed(42, 0)
        assert s1 == s2
        seeds = {trial_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_trial_seed_rejects_negative(self):
        with pytest.raises(ValueError):
            trial_seed(-1, 0)


class TestPhaseVector:
    def test_accepts_unit_modulus(self):
        v = np.exp(1j * np.linspace(0, 5, 7))
        pv = PhaseVector(v)
        assert pv.n == 7
        assert not pv.vec.flags.writeable

    def test_rejects_off_circle(self):
        v = np.exp(1j * np.linspace(0, 5, 7))
        v[3] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="unit modulus"):
            PhaseVector(v)

    def test_dtype_follows_input(self):
        assert PhaseVector(np.array([1.0, -1.0, 1.0])).vec.dtype == np.float64
        assert PhaseVector([1, -1]).vec.dtype == np.float64
        assert PhaseVector(np.array([1.0, -1.0], dtype=complex)).vec.dtype == np.complex128
        assert PhaseVector(np.exp(1j * np.linspace(0, 5, 7))).vec.dtype == np.complex128

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="unit modulus"):
            PhaseVector([1.0, bad])
        with pytest.raises(ValueError, match="unit modulus"):
            PhaseVector(np.array([1.0, complex(bad, 0.0)]))

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            PhaseVector(np.zeros(0, dtype=complex))
        with pytest.raises(ValueError):
            PhaseVector(np.ones((2, 2), dtype=complex))


class TestRandomSignal:
    def test_shape_and_modulus(self):
        z = random_signal(50, 7)
        assert z.n == 50
        assert np.abs(np.abs(z.vec) - 1.0).max() <= 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            random_signal(1, 0)

    def test_phases_cover_circle(self):
        z = random_signal(4000, 3)
        angles = np.angle(z.vec)
        # Crude uniformity check: each quadrant gets a fair share.
        counts, _ = np.histogram(angles, bins=4, range=(-np.pi, np.pi))
        assert counts.min() > 800


class TestSampleWigner:
    def test_hermitian_zero_diag(self):
        w = sample_wigner(40, 11)
        assert np.array_equal(w.mat, w.mat.conj().T)
        assert np.all(np.diag(w.mat) == 0.0)

    def test_entry_statistics(self):
        # Off-diagonal entries are standard complex Gaussian: unit variance
        # split evenly between the parts.
        w = sample_wigner(120, 5)
        iu = np.triu_indices(120, k=1)
        re = w.mat[iu].real
        im = w.mat[iu].imag
        m = re.size
        tol = 5.0 / math.sqrt(m)
        assert abs(re.var() - 0.5) < tol
        assert abs(im.var() - 0.5) < tol
        assert abs(re.mean()) < tol
        assert abs(im.mean()) < tol

    def test_deterministic_in_seed(self):
        assert np.array_equal(sample_wigner(10, 9).mat, sample_wigner(10, 9).mat)
        assert not np.array_equal(sample_wigner(10, 9).mat, sample_wigner(10, 10).mat)

    def test_opnorm_scales_like_two_sqrt_n(self):
        # Semicircle edge: ||W|| concentrates near 2 sqrt(n).
        n = 150
        w = sample_wigner(n, 2)
        nrm = power_opnorm(np.asarray(w.mat), seed=2)
        assert 1.6 * math.sqrt(n) < nrm < 2.4 * math.sqrt(n)


class TestAssembleInstance:
    def test_decomposition_to_working_precision(self):
        z = random_signal(12, 3)
        w = sample_wigner(12, 3)
        inst = assemble_instance(z, w, 0.7, 3)
        assert np.all(np.diag(inst.C.mat) == 1.0)
        off = inst.C.mat - (np.outer(z.vec, z.vec.conj()) + 0.7 * w.mat)
        np.fill_diagonal(off, 0.0)
        # The constructor re-symmetrizes, which can move entries by an ulp.
        assert np.abs(off).max() <= 1e-14

    def test_rejects_negative_sigma(self):
        z = random_signal(5, 0)
        w = sample_wigner(5, 0)
        with pytest.raises(ValueError):
            assemble_instance(z, w, -0.1, 0)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            assemble_instance(random_signal(5, 0), sample_wigner(6, 0), 1.0, 0)

    def test_data_matrix_cannot_be_passed_in(self):
        z = random_signal(6, 1)
        w = sample_wigner(6, 1)
        inst = assemble_instance(z, w, 1.0, 1)
        with pytest.raises(TypeError):
            SyncInstance(z=z, sigma=1.0, W=w, seed=1, C=inst.C)

    def test_constructor_derives_the_same_data_matrix(self):
        z = random_signal(9, 4)
        w = sample_wigner(9, 4)
        inst = SyncInstance(z=z, sigma=0.8, W=w, seed=4)
        assert inst.n == 9
        assert np.array_equal(inst.C.mat, assemble_instance(z, w, 0.8, 4).C.mat)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan])
    def test_constructor_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            SyncInstance(z=random_signal(5, 0), sigma=sigma, W=sample_wigner(5, 0), seed=0)

    def test_rejects_nonzero_noise_diagonal(self):
        w = np.array(sample_wigner(5, 0).mat)
        w[2, 2] = 0.5
        with pytest.raises(ValueError, match="zero diagonal"):
            assemble_instance(random_signal(5, 0), HermitianMatrix(w), 1.0, 0)

    @given(st.integers(0, 2**31 - 1))
    def test_sigma_zero_is_rank_one_plus_identity_diag(self, seed):
        z = random_signal(8, seed)
        w = sample_wigner(8, seed)
        inst = assemble_instance(z, w, 0.0, seed)
        expect = np.outer(z.vec, z.vec.conj())
        np.fill_diagonal(expect, 1.0)
        assert np.abs(inst.C.mat - expect).max() <= 1e-15


class TestDiscordance:
    def test_report_fields_consistent(self):
        z = random_signal(60, 4)
        w = sample_wigner(60, 4)
        rep = is_discordant(w, z)
        assert rep.opnorm_bound == pytest.approx(3.0 * math.sqrt(60))
        assert rep.inf_bound == pytest.approx(3.0 * math.sqrt(60 * math.log(60)))
        assert rep.discordant == (rep.opnorm_ok and rep.inf_Wz <= rep.inf_bound)
        assert rep.opnorm_ok == (operator_norm(w) <= rep.opnorm_bound)

    def test_norms_match_direct_computation(self):
        z = random_signal(25, 8)
        w = sample_wigner(25, 8)
        rep = is_discordant(w, z)
        assert rep.inf_Wz == pytest.approx(float(np.abs(w.mat @ z.vec).max()), rel=1e-12)
        assert operator_norm(w) == pytest.approx(power_opnorm(np.asarray(w.mat), seed=8), rel=1e-7)

    def test_constant_knobs(self):
        z = random_signal(30, 1)
        w = sample_wigner(30, 1)
        strict = is_discordant(w, z, opnorm_const=0.01, inf_const=0.01)
        assert not strict.discordant

    def test_opnorm_gate_flips_at_the_norm(self):
        n = 40
        z = random_signal(n, 6)
        w = sample_wigner(n, 6)
        assert is_discordant(w, z).inf_Wz <= 3.0 * math.sqrt(n * math.log(n))
        c = operator_norm(w) / math.sqrt(n)
        below = is_discordant(w, z, opnorm_const=c * (1.0 - 1e-9))
        above = is_discordant(w, z, opnorm_const=c * (1.0 + 1e-9))
        assert not below.opnorm_ok and not below.discordant
        assert above.opnorm_ok and above.discordant

    @given(st.integers(0, 2**31 - 1))
    def test_phase_invariance_of_opnorm_event(self, seed):
        # Rotating the signal leaves ||W|| untouched and only rephases W z
        # entries... the sup norm of W z is not invariant, but the opnorm
        # side must be identical.
        z = random_signal(12, seed)
        w = sample_wigner(12, seed)
        a = is_discordant(w, z)
        zr = PhaseVector(z.vec * np.exp(0.7j))
        b = is_discordant(w, zr)
        assert a.opnorm_ok == b.opnorm_ok
        assert b.inf_Wz == pytest.approx(a.inf_Wz, rel=1e-12)


class TestNoiseTails:
    def test_typical_draws_are_discordant(self):
        stats = noise_tail_stats(80, 60, seed_base=123)
        assert stats.opnorm_exceed_freq == 0.0
        assert stats.inf_exceed_freq <= 0.05
        assert stats.opnorm_prob_bound == pytest.approx(math.exp(-40.0))
        assert stats.inf_prob_bound == pytest.approx(2.0 * 80 ** -1.25)
        assert stats.opnorm_threshold == pytest.approx(3.0 * math.sqrt(80))
        assert stats.inf_threshold == pytest.approx(3.0 * math.sqrt(80 * math.log(80)))

    def test_tiny_constants_always_exceed(self):
        stats = noise_tail_stats(30, 10, seed_base=5, opnorm_const=0.01, inf_const=0.01)
        assert stats.opnorm_exceed_freq == 1.0
        assert stats.inf_exceed_freq == 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            noise_tail_stats(30, 0, seed_base=0)
