import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync import solver
from phasesync.certificate import CertTolerances, build_certificate, certify, verdict
from phasesync.hermitian import EigensolverError, HermitianMatrix, quad_form
from phasesync.manifold import align_global_phase, hessian_vec, real_inner
from phasesync.model import PhaseVector, assemble_instance, random_signal, sample_wigner
from phasesync.solver import (SolverOptions, _negative_curvature, solve_second_order,
                              spectral_init)


def _instance(n, sigma, seed):
    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    return assemble_instance(z, w, sigma, seed)


def _saddle_pair():
    # x = (1, 1) is a first-order critical point of x* C x for this C, with
    # value 0; the maximizers are (1, -1) and its phase orbit, with value 4.
    data = HermitianMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex))
    x = PhaseVector(np.array([1.0 + 0j, 1.0 + 0j]))
    return data, x


class TestOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.grad_tol == 1e-10
        assert opts.max_iters == 500
        assert opts.escape_tol == 1e-10
        assert opts.max_escapes == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolverOptions(escape_tol=-1.0)
        with pytest.raises(ValueError):
            SolverOptions(max_escapes=-1)


class TestSpectralInit:
    def test_unit_modulus_output(self):
        inst = _instance(40, 1.0, 5)
        x0 = spectral_init(inst.C)
        assert np.abs(np.abs(x0.vec) - 1.0).max() <= 1e-12

    def test_correlates_with_planted_signal(self):
        # At sigma = 1 the leading eigenvector carries most of the signal.
        # Recorded over several seeds; the assertion is intentionally loose.
        corrs = []
        for seed in range(20):
            inst = _instance(100, 1.0, seed)
            x0 = spectral_init(inst.C)
            corrs.append(abs(np.vdot(inst.z.vec, x0.vec)) / 100.0)
        print(f"spectral init correlations at n=100 sigma=1: "
              f"min {min(corrs):.3f} mean {np.mean(corrs):.3f}")
        assert min(corrs) >= 0.8

    def test_tiny_entries_pinned_to_one(self):
        # Leading eigenvector (1, 0, ...) pattern: second coordinate carries
        # no phase information and must come out as exactly 1.
        data = HermitianMatrix(np.diag([5.0, 1.0]).astype(complex))
        x0 = spectral_init(data)
        assert x0.vec[1] == 1.0 + 0j


class TestNoiselessExactness:
    def test_from_planted_point_zero_iterations(self):
        inst = _instance(20, 0.0, 7)
        rep = solve_second_order(inst.C, inst.z, signal=inst.z)
        assert rep.converged
        assert rep.iterations == 0
        assert rep.escapes == 0
        assert np.array_equal(rep.x.vec, inst.z.vec)
        assert rep.cost == pytest.approx(400.0, rel=1e-12)
        assert rep.beat_planted is True

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15)
    def test_from_random_start(self, seed):
        inst = _instance(20, 0.0, seed)
        x0 = random_signal(20, seed + 10**6)
        rep = solve_second_order(inst.C, x0, signal=inst.z)
        assert rep.converged
        corr = abs(np.vdot(inst.z.vec, rep.x.vec))
        assert 2.0 * (20.0 - corr) <= 1e-8 * 20.0


class TestModerateNoise:
    def test_converges_and_certifies_against_planted(self):
        inst = _instance(60, 0.5, 3)
        rep = solve_second_order(inst.C, spectral_init(inst.C), signal=inst.z)
        assert rep.converged
        assert rep.grad_norm <= 1e-10 * 60
        assert rep.beat_planted is True
        assert rep.cost >= quad_form(inst.C, inst.z.vec) - 1e-9

    def test_iteration_budget_reported_not_raised(self):
        inst = _instance(50, 3.0, 9)
        rep = solve_second_order(inst.C, spectral_init(inst.C), signal=inst.z,
                                 opts=SolverOptions(max_iters=2))
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.grad_norm > 1e-10 * 50

    def test_monotone_cost_across_budgets(self):
        # The power iteration never decreases the objective, so cost as a
        # function of the iteration budget must be nondecreasing.
        inst = _instance(40, 2.0, 12)
        x0 = spectral_init(inst.C)
        costs = []
        for budget in (1, 2, 4, 8, 16, 32, 64):
            rep = solve_second_order(inst.C, x0, opts=SolverOptions(max_iters=budget))
            costs.append(rep.cost)
        diffs = np.diff(costs)
        assert np.all(diffs >= -1e-9 * 40 * 40)

    def test_phase_equivariance_of_solution(self):
        inst = _instance(16, 0.5, 21)
        x0 = spectral_init(inst.C)
        base = solve_second_order(inst.C, x0, signal=inst.z)
        rotated_start = PhaseVector(x0.vec * np.exp(0.9j))
        other = solve_second_order(inst.C, rotated_start, signal=inst.z)
        aligned = align_global_phase(other.x, base.x)
        assert np.linalg.norm(aligned.vec - base.x.vec) <= 1e-6 * np.sqrt(16)


class TestRestartFromPlanted:
    def test_high_noise_cost_never_below_planted(self):
        # Deep in the noisy regime the first stationary point can score below
        # the planted signal; the restart rule guarantees the report does not.
        for seed in range(5):
            inst = _instance(30, 6.0, seed)
            rep = solve_second_order(inst.C, spectral_init(inst.C), signal=inst.z,
                                     opts=SolverOptions(max_iters=20000))
            if rep.converged:
                assert rep.beat_planted is True
                assert rep.cost >= quad_form(inst.C, inst.z.vec) - 1e-12 * 30 * 30

    def test_no_signal_means_no_beat_flag(self):
        inst = _instance(10, 0.5, 4)
        rep = solve_second_order(inst.C, spectral_init(inst.C))
        assert rep.beat_planted is None

    def test_beat_flag_compares_with_planted_cost(self):
        # A converged solve from the spectral start beats the plant; one power
        # step from a random start does not.
        n = 40
        inst = _instance(n, 0.5, 14)
        planted = quad_form(inst.C, inst.z.vec)
        flags = []
        for x0, max_iters in ((spectral_init(inst.C), 500), (random_signal(n, 999), 1)):
            rep = solve_second_order(inst.C, x0, signal=inst.z,
                                     opts=SolverOptions(max_iters=max_iters))
            assert rep.beat_planted == (rep.cost >= planted - 1e-12 * n * n)
            flags.append(rep.beat_planted)
        assert flags == [True, False]


def _escape_direction(data, point):
    # The solver's escape decision: the values-only verdict on the
    # certificate, then its bottom eigenvector only below -escape_tol * n.
    s = build_certificate(data, point)
    if verdict(s, point.vec, CertTolerances()).min_eig >= -1e-10 * data.n:
        return None
    return _negative_curvature(data, point, s)


class TestEscape:
    def test_direction_at_engineered_saddle(self):
        data, x = _saddle_pair()
        d = _escape_direction(data, x)
        assert d is not None
        assert d.norm() == pytest.approx(1.0, abs=1e-12)
        curv = real_inner(d.dir, hessian_vec(data, x, d).dir)
        assert curv < -1.0

    def test_none_at_global_optimum(self):
        data, _ = _saddle_pair()
        opt = PhaseVector(np.array([1.0 + 0j, -1.0 + 0j]))
        assert _escape_direction(data, opt) is None
        assert solve_second_order(data, opt).escapes == 0

    def test_solver_escapes_saddle_to_optimum(self):
        data, x = _saddle_pair()
        rep = solve_second_order(data, x)
        assert rep.converged
        assert rep.escapes >= 1
        assert rep.cost == pytest.approx(4.0, abs=1e-9)

    def test_escape_cap_respected(self):
        data, x = _saddle_pair()
        rep = solve_second_order(data, x, opts=SolverOptions(max_escapes=0))
        # With escapes disabled the saddle is declared converged at cost 0.
        assert rep.converged
        assert rep.escapes == 0
        assert rep.cost == pytest.approx(0.0, abs=1e-12)

    def test_escape_eigensolve_failure_is_in_band(self, monkeypatch):
        # The verdict sees the saddle from eigenvalues alone; the solve for
        # the escape eigenvector then fails. No escape is tried and nothing
        # is raised: the report keeps the verdict, not tight.
        data, x = _saddle_pair()
        extreme_eigs_ = solver.extreme_eigs

        def fail_on_certificate(h, *args):
            if h is not data:
                raise EigensolverError("injected failure")
            return extreme_eigs_(h, *args)

        monkeypatch.setattr(solver, "extreme_eigs", fail_on_certificate)
        rep = solve_second_order(data, x)
        assert rep.converged and rep.escapes == 0
        assert rep.cost == pytest.approx(0.0, abs=1e-12)
        assert rep.certificate.error is None
        assert rep.certificate.min_eig < -1e-10 * data.n
        assert not rep.certificate.tight and not rep.certificate.unique

    def test_orthogonal_start_noiseless(self):
        # A start orthogonal to the planted signal lands on the zero-gradient
        # plateau of the rank-one objective; only the escape logic moves it.
        z = PhaseVector(np.ones(4, dtype=complex))
        w = sample_wigner(4, 0)
        inst = assemble_instance(z, w, 0.0, 0)
        x0 = PhaseVector(np.array([1.0, -1.0, 1.0, -1.0], dtype=complex))
        rep = solve_second_order(inst.C, x0)
        assert rep.converged
        corr = abs(np.vdot(z.vec, rep.x.vec))
        assert 2.0 * (4.0 - corr) <= 1e-8 * 4.0


class TestSharedDecompositions:
    """The solver decomposes C once for its shift and its spectral start; each
    certificate S gets one values-only solve for its verdict and escape test,
    and an eigenvector solve only to escape."""

    def test_default_start_is_spectral_init(self):
        inst = _instance(40, 1.0, 5)
        x0 = spectral_init(inst.C)
        # A tolerance this loose declares the start itself critical, and with
        # escapes off the solver returns it untouched.
        rep = solve_second_order(inst.C, None, opts=SolverOptions(grad_tol=1e6, max_escapes=0))
        assert rep.iterations == 0
        assert np.array_equal(rep.x.vec, x0.vec)
        for opts in (SolverOptions(max_iters=1), SolverOptions()):
            a = solve_second_order(inst.C, None, signal=inst.z, opts=opts)
            b = solve_second_order(inst.C, x0, signal=inst.z, opts=opts)
            assert a.iterations == b.iterations
            assert np.array_equal(a.x.vec, b.x.vec)

    def test_certificate_of_converged_run(self):
        inst = _instance(60, 0.5, 3)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        assert rep.converged and rep.escapes == 0
        assert rep.certificate == certify(inst.C, rep.x)
        assert rep.certificate.tight and rep.certificate.unique

    def test_certificate_of_unconverged_run(self):
        inst = _instance(50, 3.0, 9)
        rep = solve_second_order(inst.C, None, signal=inst.z, opts=SolverOptions(max_iters=1))
        assert not rep.converged
        assert rep.certificate == certify(inst.C, rep.x)
        assert not rep.certificate.tight

    def test_certificate_after_escape(self):
        data, x = _saddle_pair()
        rep = solve_second_order(data, x)
        assert rep.escapes >= 1
        assert rep.certificate == certify(data, rep.x)
        assert rep.certificate.tight and rep.certificate.unique

    def test_certificate_with_escape_cap_spent(self):
        data, x = _saddle_pair()
        rep = solve_second_order(data, x, opts=SolverOptions(max_escapes=0))
        assert rep.certificate == certify(data, rep.x)
        assert not rep.certificate.tight

    def test_certificate_with_nondefault_tolerances(self):
        inst = _instance(60, 0.5, 3)
        default = solve_second_order(inst.C, None, signal=inst.z).certificate
        assert default.unique
        # A rank gate above the second eigenvalue flips uniqueness.
        tolerances = CertTolerances(residual_tol=1e-8, psd_tol=-1e-12,
                                    rank_tol=2.0 * default.second_eig / 60)
        rep = solve_second_order(inst.C, None, signal=inst.z, tolerances=tolerances)
        assert rep.certificate == certify(inst.C, rep.x, tolerances)
        assert rep.certificate.tight and not rep.certificate.unique

    def test_rejects_one_by_one(self):
        data = HermitianMatrix(np.array([[1.0 + 0j]]))
        with pytest.raises(ValueError):
            solve_second_order(data, PhaseVector(np.array([1.0 + 0j])))


class TestReportInvariants:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.2, 1.0, 2.0]))
    @settings(max_examples=20)
    def test_converged_respects_tolerance(self, seed, sigma):
        inst = _instance(25, sigma, seed)
        rep = solve_second_order(inst.C, spectral_init(inst.C), signal=inst.z)
        if rep.converged:
            assert rep.grad_norm <= 1e-10 * 25
        assert rep.iterations <= 500
        assert rep.escapes <= 5
        assert np.abs(np.abs(rep.x.vec) - 1.0).max() <= 1e-12
