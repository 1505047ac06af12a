import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync import model
from phasesync.experiment import curve_values
from phasesync.hermitian import HermitianMatrix
from phasesync.metrics import evaluate_bounds, sufficient_noise_condition, tightness_threshold
from phasesync.model import (PhaseVector, assemble_instance, is_discordant, random_signal,
                             sample_wigner)
from phasesync.solver import solve_second_order

from reference import min_phase_distance


def _instance(n, sigma, seed):
    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    return assemble_instance(z, w, sigma, seed)


def _errors(x, z):
    # evaluate_bounds on a noiseless instance: only l2_err, linf_err and
    # correlation depend on x.
    return evaluate_bounds(z, HermitianMatrix(np.zeros((z.n, z.n), complex)), 0.0, x)


class TestL2Error:
    def test_zero_at_same_point(self):
        z = random_signal(30, 1)
        assert _errors(z, z).l2_err <= 1e-6

    @given(st.floats(-10.0, 10.0))
    def test_phase_invariant(self, theta):
        # Both errors see no global phase of the estimate: a rotated copy of
        # z is at distance 0, and a rotated x is as far from z as x is.
        z = random_signal(30, 2)
        x = random_signal(30, 3)
        rotated = PhaseVector(x.vec * np.exp(1j * theta))
        assert _errors(PhaseVector(z.vec * np.exp(1j * theta)), z).l2_err <= 1e-6
        a, b = _errors(x, z), _errors(rotated, z)
        assert a.l2_err == pytest.approx(b.l2_err, abs=1e-9)
        assert a.linf_err == pytest.approx(b.linf_err, abs=1e-9)

    @given(st.integers(0, 2**31 - 1))
    def test_matches_grid_scan_alignment(self, seed):
        x = random_signal(9, seed)
        z = random_signal(9, seed + 1)
        got = _errors(x, z).l2_err
        ref = min_phase_distance(np.asarray(x.vec), np.asarray(z.vec))
        assert got == pytest.approx(ref, abs=1e-3)

    @given(st.integers(0, 2**31 - 1))
    def test_identity_with_correlation(self, seed):
        # l2^2 = 2 (n - |z* x|) by expanding the aligned distance.
        x = random_signal(11, seed)
        z = random_signal(11, seed + 2)
        corr = abs(np.vdot(z.vec, x.vec))
        got = _errors(x, z)
        assert got.correlation == pytest.approx(corr, abs=1e-12)
        assert got.l2_err ** 2 == pytest.approx(2.0 * (11 - corr), abs=1e-9)

    def test_orthogonal_gives_sqrt_2n(self):
        z = PhaseVector(np.ones(4, dtype=complex))
        x = PhaseVector(np.array([1.0, -1.0, 1.0, -1.0], dtype=complex))
        assert _errors(x, z).l2_err == math.sqrt(8.0)


class TestLinfError:
    def test_zero_at_rotated_copy(self):
        z = random_signal(12, 3)
        rotated = PhaseVector(z.vec * np.exp(-1.1j))
        assert _errors(rotated, z).linf_err <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    def test_matches_grid_scan_alignment(self, seed):
        # The entrywise error is taken at the phase that minimizes the l2
        # distance, found here by scanning the circle.
        x = random_signal(9, seed)
        z = random_signal(9, seed + 1)
        thetas = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
        dist = np.linalg.norm(x.vec[None, :] * np.exp(1j * thetas)[:, None] - z.vec, axis=1)
        best = x.vec * np.exp(1j * thetas[np.argmin(dist)])
        assert _errors(x, z).linf_err == pytest.approx(np.abs(best - z.vec).max(), abs=1e-3)

    def test_bounded_by_l2(self):
        x = random_signal(15, 4)
        z = random_signal(15, 5)
        got = _errors(x, z)
        assert got.linf_err <= got.l2_err + 1e-9

    def test_orthogonal_gives_the_diameter(self):
        # An orthogonal estimate has no preferred phase: the entrywise error
        # is the diameter 2 of the circle, and the l2 error is sqrt(2 n).
        for n in (2, 4):
            z = PhaseVector(np.ones(n, dtype=complex))
            x = PhaseVector(np.resize([1.0 + 0j, -1.0 + 0j], n))
            got = _errors(x, z)
            assert got.correlation == 0.0
            assert got.l2_err == math.sqrt(2.0 * n)
            assert got.linf_err == 2.0


class TestThresholds:
    def test_tightness_threshold_values(self):
        assert tightness_threshold(81 * 81 * 81 * 81) == pytest.approx(81.0 / 18.0)
        assert tightness_threshold(16) == pytest.approx(2.0 / 18.0)
        assert curve_values(16)[0] == tightness_threshold(16)

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

    def test_wx_bound_reads_the_discordance_constants(self, monkeypatch):
        # wx_bound is ||W|| <= OPNORM_CONST sqrt(n) times the lemma-2 distance
        # 12 sigma, plus INF_CONST sqrt(n log n): the two events is_discordant
        # gates on, so the two move together.
        n, sigma = 50, 0.4
        inst = _instance(n, sigma, 8)
        bounds = _bounds(inst, inst.z)
        assert bounds.wx_bound == 36.0 * sigma * math.sqrt(n) + 3.0 * math.sqrt(n * math.log(n))
        for consts in ((0.01, 0.01), (30.0, 7.0)):
            monkeypatch.setattr(model, "OPNORM_CONST", consts[0])
            monkeypatch.setattr(model, "INF_CONST", consts[1])
            disc = is_discordant(inst.W, inst.z)
            bounds = _bounds(inst, inst.z)
            assert bounds.wx_bound == pytest.approx(
                12.0 * sigma * disc.opnorm_bound + disc.inf_bound, rel=1e-14)
            # At the plant, W x is W z, whose norm is the second event.
            assert bounds.wx_ok == disc.discordant == (consts[0] == 30.0)

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
