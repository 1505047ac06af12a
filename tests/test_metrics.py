import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync.manifold import AlignmentError
from phasesync.metrics import (evaluate_bounds, l2_error, linf_error,
                               sufficient_noise_condition, tightness_threshold)
from phasesync.model import (PhaseVector, assemble_instance, is_discordant, random_signal,
                             sample_wigner)
from phasesync.solver import solve_second_order

from reference import min_phase_distance


def _instance(n, sigma, seed):
    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    return assemble_instance(z, w, sigma, seed)


class TestL2Error:
    def test_zero_at_same_point(self):
        z = random_signal(30, 1)
        assert l2_error(z, z) <= 1e-6

    def test_phase_invariant(self):
        z = random_signal(30, 2)
        rotated = PhaseVector(z.vec * np.exp(0.456j))
        assert l2_error(rotated, z) <= 1e-6

    @given(st.integers(0, 2**31 - 1))
    def test_matches_grid_scan_alignment(self, seed):
        x = random_signal(9, seed)
        z = random_signal(9, seed + 1)
        got = l2_error(x, z)
        ref = min_phase_distance(np.asarray(x.vec), np.asarray(z.vec))
        assert got == pytest.approx(ref, abs=1e-3)

    @given(st.integers(0, 2**31 - 1))
    def test_identity_with_correlation(self, seed):
        # l2^2 = 2 (n - |z* x|) by expanding the aligned distance.
        x = random_signal(11, seed)
        z = random_signal(11, seed + 2)
        corr = abs(np.vdot(z.vec, x.vec))
        assert l2_error(x, z) ** 2 == pytest.approx(2.0 * (11 - corr), abs=1e-9)

    def test_orthogonal_gives_sqrt_2n(self):
        z = PhaseVector(np.ones(4, dtype=complex))
        x = PhaseVector(np.array([1.0, -1.0, 1.0, -1.0], dtype=complex))
        assert l2_error(x, z) == pytest.approx(math.sqrt(8.0), abs=1e-12)


class TestLinfError:
    def test_zero_at_rotated_copy(self):
        z = random_signal(12, 3)
        rotated = PhaseVector(z.vec * np.exp(-1.1j))
        assert linf_error(rotated, z) <= 1e-12

    def test_bounded_by_l2(self):
        x = random_signal(15, 4)
        z = random_signal(15, 5)
        assert linf_error(x, z) <= l2_error(x, z) + 1e-9

    def test_orthogonal_raises(self):
        z = PhaseVector(np.ones(2, dtype=complex))
        x = PhaseVector(np.array([1.0, -1.0], dtype=complex))
        with pytest.raises(AlignmentError):
            linf_error(x, z)


class TestThresholds:
    def test_tightness_threshold_values(self):
        assert tightness_threshold(81 * 81 * 81 * 81) == pytest.approx(81.0 / 18.0)
        assert tightness_threshold(16) == pytest.approx(2.0 / 18.0)

    def test_threshold_implies_sufficient_condition(self):
        # The simple n^(1/4)/18 rule is strictly inside the sharp condition
        # across the desk-scale range.
        for n in (16, 50, 200, 1000, 10**6):
            sigma = tightness_threshold(n)
            assert sufficient_noise_condition(n, sigma)

    def test_sufficient_condition_fails_at_large_sigma(self):
        for n in (16, 100, 400):
            assert not sufficient_noise_condition(n, math.sqrt(n))

    def test_sufficient_condition_monotone_in_sigma(self):
        n = 100
        values = [sufficient_noise_condition(n, s) for s in np.linspace(0.01, 3.0, 40)]
        # Once it fails it stays failed.
        first_false = values.index(False) if False in values else len(values)
        assert all(not v for v in values[first_false:])


def _bounds(inst, point):
    return evaluate_bounds(inst.z, inst.W, inst.sigma, point)


class TestEvaluateBounds:
    def test_sigma_zero_all_flags_true(self):
        inst = _instance(40, 0.0, 6)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        bounds = _bounds(inst, rep.x)
        assert bounds.l2_err <= 1e-4
        assert bounds.lemma2_bound == 0.0
        assert bounds.lemma2_ok
        assert bounds.lemma3_ok
        assert bounds.suff_cond_ok
        assert bounds.thm_threshold_ok

    def test_moderate_noise_bounds_hold(self):
        n = 100
        sigma = tightness_threshold(n)
        inst = _instance(n, sigma, 7)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        bounds = _bounds(inst, rep.x)
        # The bounds are in force on this trial.
        assert is_discordant(inst.W, inst.z).discordant and rep.beat_planted
        assert bounds.lemma2_ok
        assert bounds.lemma3_ok
        assert bounds.wx_ok
        assert bounds.l2_err <= 12.0 * sigma
        assert bounds.linf_err <= 6.0 * (math.sqrt(math.log(n)) + 29.0 * sigma) * sigma / math.sqrt(n) + 1e-6

    def test_bound_values(self):
        inst = _instance(50, 0.4, 8)
        bounds = _bounds(inst, inst.z)
        assert bounds.lemma2_bound == pytest.approx(4.8)
        assert bounds.lemma3_bound == pytest.approx(
            6.0 * (math.sqrt(math.log(50)) + 29.0 * 0.4) * 0.4 / math.sqrt(50))
        assert bounds.wx_bound == pytest.approx(
            36.0 * 0.4 * math.sqrt(50) + 3.0 * math.sqrt(50 * math.log(50)))
        assert bounds.wx_inf == pytest.approx(float(np.abs(inst.W.mat @ inst.z.vec).max()))

    def test_correlation_field(self):
        inst = _instance(25, 0.5, 11)
        bounds = _bounds(inst, inst.z)
        assert bounds.correlation == pytest.approx(25.0, rel=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_flags_consistent_with_measurements(self, seed):
        inst = _instance(15, 1.0, seed)
        x = random_signal(15, seed + 3)
        bounds = _bounds(inst, x)
        assert bounds.lemma2_ok == (bounds.l2_err <= bounds.lemma2_bound + 1e-6 * math.sqrt(15))
        assert bounds.lemma3_ok == (bounds.linf_err <= bounds.lemma3_bound + 1e-6)
        assert bounds.wx_ok == (bounds.wx_inf <= bounds.wx_bound + 1e-6)

    def test_size_mismatch(self):
        inst = _instance(10, 0.5, 13)
        with pytest.raises(ValueError):
            _bounds(inst, random_signal(11, 0))
        with pytest.raises(ValueError):
            evaluate_bounds(inst.z, sample_wigner(11, 0), 0.5, inst.z)
