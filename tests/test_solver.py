import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesync import certificate, solver
from phasesync.certificate import certify
from phasesync.hermitian import HermitianMatrix, smallest_eigvals
from phasesync.model import PhaseVector, assemble_instance, random_signal, sample_wigner
from phasesync.solver import _round_phases, _spectrum, _top_vector, solve_second_order

from reference import (aligned, build_certificate, certify_by_eigvalsh, eigenvalue_verdict,
                       hessian_vec, power_iterates, quad_form)


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


def _first_order_point(seed):
    # x has random phases, S = P A P with P = I - x x*/n and A random
    # Hermitian, and C = -S. Then C x = 0: x is a first-order critical point
    # of x* C x whose certificate is S itself.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    x = np.exp(2j * np.pi * rng.random(n))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    p = np.eye(n) - np.outer(x, x.conj()) / n
    return HermitianMatrix(-(p @ (a + a.conj().T) @ p)), PhaseVector(x)


def _shallow_diagonal_saddle():
    # C = -S at x = 1, where S 1 = 0 and S has the eigenvalue -1 on
    # (0, 1, -1, 0), but its smallest diagonal entry is only -4e-11, below
    # the floor PSD_TOL * n: the diagonal refutes tightness, with a 2 x 2
    # upper bound of about -4e-11 on min_eig(S).
    n = 4
    u = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    v = np.array([0.0, 1.0, 1.0, -2.0]) / math.sqrt(6.0)
    s = 10.0 * np.outer(v, v) - np.outer(u, u)
    eps = -1e-11 * n
    s[0, 0] = eps
    s[0, 3] = s[3, 0] = -eps
    s[3, 3] += eps
    return HermitianMatrix(-s.astype(complex)), PhaseVector(np.ones(n, dtype=complex))


def _tangent_hessian_min_eig(data, point):
    # Smallest eigenvalue of H = Re(diag(xbar) S diag(x)): half the Hessian
    # of -x* C x in the tangent coordinates theta of i x o theta, assembled
    # from hessian_vec as the entries <i x_j e_j, Hess(i x_k e_k)> / 2.
    basis = 1j * np.diag(point.vec)
    cols = np.column_stack([
        hessian_vec(data, point, basis[:, k])
        for k in range(point.n)
    ])
    h = (basis.conj().T @ cols).real / 2.0
    return float(np.linalg.eigvalsh((h + h.T) / 2.0)[0])


class TestOptions:
    def test_defaults(self):
        # max_iters is the one value a caller sets; the rest are constants.
        assert solver.GRAD_TOL == 1e-10
        assert solver.MAX_ITERS == 500
        assert inspect.signature(solve_second_order).parameters["max_iters"].default == 500

    def test_validation(self):
        inst = _instance(6, 0.5, 1)
        for bad in (0, -1, math.nan):
            with pytest.raises(ValueError, match="max_iters"):
                solve_second_order(inst.C, max_iters=bad)


def _watch(monkeypatch, name):
    # Record the shape of every matrix numpy.linalg.<name> is given.
    calls = []
    fn = getattr(np.linalg, name)

    def watched(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, watched)
    return calls


def _eigh_start(data):
    # The spectral start from a dense eigendecomposition.
    return _round_phases(np.linalg.eigh(data.mat)[1][:, -1])


def _spectral_start(data):
    # The start solve_second_order takes when given none: the phases of the
    # inverse-iteration vector at the top eigenvalue of one values-only solve.
    return _round_phases(_top_vector(data, _spectrum(data)[1]))


class TestSpectralInit:
    @pytest.mark.parametrize("n, sigma, seed", [(10, 0.5, 1), (50, 2.0, 4), (200, 1.0, 3),
                                                (200, 15.0, 8), (400, 25.0, 2)])
    def test_matches_the_eigh_start_up_to_global_phase(self, monkeypatch, n, sigma, seed):
        # A nondegenerate C: one values-only solve and one linear solve give
        # eigh's start, rotated by a global phase, and nothing else runs.
        inst = _instance(n, sigma, seed)
        ref = _eigh_start(inst.C)
        eigh, eigvalsh, solve = (_watch(monkeypatch, name) for name in ("eigh", "eigvalsh", "solve"))
        x0 = _spectral_start(inst.C)
        assert (eigh, eigvalsh, solve) == ([], [(n, n)], [(n, n)])
        monkeypatch.undo()
        assert np.abs(aligned(x0.vec, ref.vec) - ref.vec).max() <= 1e-10

    def test_noiseless_top_eigenvalue_is_not_taken_exactly(self, monkeypatch):
        # sigma = 0: C = z z* and C - n I is singular. The solve runs just
        # above the computed top eigenvalue, so it meets no singular pivot,
        # and the start is z up to a global phase.
        n = 50
        inst = _instance(n, 0.0, 6)
        eigh = _watch(monkeypatch, "eigh")
        x0 = _spectral_start(inst.C)
        assert eigh == []
        assert np.abs(aligned(x0.vec, inst.z.vec) - inst.z.vec).max() <= 1e-10

    def test_ones_orthogonal_to_the_top_eigenvector(self, monkeypatch):
        # n = 2, z = (1, -1), sigma = 0: C = [[1, -1], [-1, 1]] and the
        # all-ones right-hand side is its bottom eigenvector. That solve misses
        # the residual gate and the dense eigensolve decides instead.
        z = PhaseVector(np.array([1.0 + 0j, -1.0 + 0j]))
        inst = assemble_instance(z, sample_wigner(2, 0), 0.0, 0)
        eigh = _watch(monkeypatch, "eigh")
        x0 = _spectral_start(inst.C)
        assert eigh == [(2, 2)]
        monkeypatch.undo()
        assert np.abs(aligned(x0.vec, z.vec) - z.vec).max() <= 1e-12
        rep = solve_second_order(inst.C, None, signal=z)
        assert rep.converged and rep.cost == pytest.approx(4.0, abs=1e-12)
        assert rep.certificate.tight and rep.certificate.unique

    def test_degenerate_top_eigenvalue(self, monkeypatch):
        # C = I: every unit vector is a top eigenvector, so the solve's own
        # vector passes the gate and its phases are the start.
        n = 6
        data = HermitianMatrix(np.eye(n, dtype=complex))
        eigh = _watch(monkeypatch, "eigh")
        x0 = _spectral_start(data)
        assert eigh == []
        assert np.allclose(x0.vec, x0.vec[0], rtol=0.0, atol=1e-15)

    def test_one_by_one_is_rejected_before_any_solve(self, monkeypatch):
        data = HermitianMatrix(np.array([[1.0 + 0j]]))
        calls = [_watch(monkeypatch, name) for name in ("eigh", "eigvalsh", "solve")]
        with pytest.raises(ValueError):
            solve_second_order(data)
        assert calls == [[], [], []]

    def test_unit_modulus_output(self):
        inst = _instance(40, 1.0, 5)
        x0 = _spectral_start(inst.C)
        assert np.abs(np.abs(x0.vec) - 1.0).max() <= 1e-12

    def test_correlates_with_planted_signal(self):
        # At sigma = 1 the leading eigenvector carries most of the signal.
        # Recorded over several seeds; the assertion is intentionally loose.
        corrs = []
        for seed in range(20):
            inst = _instance(100, 1.0, seed)
            x0 = _spectral_start(inst.C)
            corrs.append(abs(np.vdot(inst.z.vec, x0.vec)) / 100.0)
        print(f"spectral init correlations at n=100 sigma=1: "
              f"min {min(corrs):.3f} mean {np.mean(corrs):.3f}")
        assert min(corrs) >= 0.8

    def test_tiny_entries_pinned_to_one(self):
        # Leading eigenvector (1, 0, ...) pattern: second coordinate carries
        # no phase information and must come out as exactly 1.
        data = HermitianMatrix(np.diag([5.0, 1.0]).astype(complex))
        x0 = _spectral_start(data)
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
        rep = solve_second_order(inst.C, None, signal=inst.z)
        assert rep.converged
        assert rep.grad_norm <= 1e-10 * 60
        assert rep.beat_planted is True
        assert rep.cost >= quad_form(inst.C, inst.z.vec) - 1e-9

    def test_iteration_budget_reported_not_raised(self):
        inst = _instance(50, 3.0, 9)
        rep = solve_second_order(inst.C, None, signal=inst.z, max_iters=2)
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.grad_norm > 1e-10 * 50

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    def test_iterates_match_the_plain_power_loop_bit_for_bit(self, monkeypatch, sigma):
        # The loop forms C + shift I once, reads the gradient norm off the
        # product it steps with, fills preallocated arrays in place and masks
        # its phase divide with the small-modulus guard; none of this may
        # change a bit of any iterate or of the gradient norm. The shift comes
        # from the solver's own values-only solve of C.
        n = 30
        inst = _instance(n, sigma, 17)
        x0 = _spectral_start(inst.C)
        shift = max(0.0, -float(smallest_eigvals(inst.C.mat, 1)[0]))
        monkeypatch.setattr(solver, "GRAD_TOL", 1e-300)
        for budget in (1, 7, 40):
            rep = solve_second_order(inst.C, x0, max_iters=budget)
            x, grad_norm = power_iterates(inst.C.mat, x0.vec, shift, budget)
            assert rep.iterations == budget
            assert rep.x.vec.tobytes() == x.tobytes()
            assert rep.grad_norm == grad_norm

    def test_restart_iterates_match_the_plain_power_loop_bit_for_bit(self):
        # The start is first-order critical with cost 0 and the plant costs
        # more, so the restart fires at once and the whole budget goes to the
        # ascent from the plant; the jump to the plant is not a step.
        data, x0 = _first_order_point(7)
        rng = np.random.default_rng(107)
        z = PhaseVector(np.exp(2j * np.pi * rng.random(data.n)))
        shift = _spectrum(data)[0]
        converged_at = solve_second_order(data, x0, signal=z).iterations
        for budget in (1, 2, 7, converged_at):
            rep = solve_second_order(data, x0, signal=z, max_iters=budget)
            x, grad_norm = power_iterates(data.mat, z.vec, shift, budget)
            assert rep.iterations == budget
            assert rep.x.vec.tobytes() == x.tobytes()
            assert rep.grad_norm == grad_norm
        assert rep.converged

    def test_guarded_step_matches_the_plain_power_loop_bit_for_bit(self, monkeypatch):
        # min_eig(C) = 0 and ((C + shift I) x)_1 = 0, so the first step leaves
        # x_1 at its previous phase through the small-modulus guard; the
        # gradient is not zero, so the step runs.
        data = HermitianMatrix(np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, 1.0], [0.0, 1.0, 1.0]],
                                        dtype=complex))
        x0 = PhaseVector(np.array([1.0, 1.0, 1.0j]))
        shift = max(0.0, -float(smallest_eigvals(data.mat, 1)[0]))
        shifted = data.mat + shift * np.eye(3)
        assert abs((shifted @ x0.vec)[0]) <= 1e-14
        monkeypatch.setattr(solver, "GRAD_TOL", 1e-300)
        for budget in (1, 5):
            rep = solve_second_order(data, x0, max_iters=budget)
            x, grad_norm = power_iterates(data.mat, x0.vec, shift, budget)
            assert rep.x.vec.tobytes() == x.tobytes()
            assert rep.grad_norm == grad_norm
        monkeypatch.undo()
        assert solve_second_order(data, x0, max_iters=1).x.vec[0] == 1.0

    def test_monotone_cost_across_budgets(self):
        # The power iteration never decreases the objective, so cost as a
        # function of the iteration budget must be nondecreasing.
        inst = _instance(40, 2.0, 12)
        costs = []
        for budget in (1, 2, 4, 8, 16, 32, 64):
            rep = solve_second_order(inst.C, None, max_iters=budget)
            costs.append(rep.cost)
        diffs = np.diff(costs)
        assert np.all(diffs >= -1e-9 * 40 * 40)

    def test_phase_equivariance_of_solution(self):
        inst = _instance(16, 0.5, 21)
        x0 = _spectral_start(inst.C)
        base = solve_second_order(inst.C, x0, signal=inst.z)
        rotated_start = PhaseVector(x0.vec * np.exp(0.9j))
        other = solve_second_order(inst.C, rotated_start, signal=inst.z)
        assert np.linalg.norm(aligned(other.x.vec, base.x.vec) - base.x.vec) <= 1e-6 * np.sqrt(16)


class TestRestartFromPlanted:
    def test_high_noise_cost_never_below_planted(self):
        # Deep in the noisy regime the first stationary point can score below
        # the planted signal; the restart rule guarantees the report does not.
        for seed in range(5):
            inst = _instance(30, 6.0, seed)
            rep = solve_second_order(inst.C, None, signal=inst.z, max_iters=20000)
            if rep.converged:
                assert rep.beat_planted is True
                assert rep.cost >= quad_form(inst.C, inst.z.vec) - 1e-12 * 30 * 30

    def test_no_signal_means_no_beat_flag(self):
        inst = _instance(10, 0.5, 4)
        rep = solve_second_order(inst.C, None)
        assert rep.beat_planted is None
        assert rep.planted_cost is None

    def test_beat_flag_compares_with_planted_cost(self):
        # A converged solve from the spectral start beats the plant; one power
        # step from a random start does not.
        n = 40
        inst = _instance(n, 0.5, 14)
        planted = quad_form(inst.C, inst.z.vec)
        flags = []
        for x0, max_iters in ((None, 500), (random_signal(n, 999), 1)):
            rep = solve_second_order(inst.C, x0, signal=inst.z, max_iters=max_iters)
            assert rep.beat_planted == (rep.cost >= planted - 1e-12 * n * n)
            flags.append(rep.beat_planted)
        assert flags == [True, False]


def _assert_decided_like_certify(data, rep, decisions):
    # The run's last decision is its verdict, with the flags of the
    # eigenvalue verdict. Where a diagonal entry of S refuted it, its
    # eigenvalues bound those of S from above within their rounding.
    # Otherwise no proof held, and it is the eigenvalue verdict on the S it
    # formed, field for field; that S is the certificate at x to rounding.
    report, s = decisions[-1]
    assert rep.certificate is report
    ref = certify_by_eigvalsh(data, rep.x)
    assert (report.tight, report.unique) == (ref.tight, ref.unique)
    b = build_certificate(data, rep.x).mat
    if s is None:
        assert not report.tight
        slack = data.n * np.finfo(float).eps * np.linalg.norm(b)
        assert report.min_eig >= ref.min_eig - slack
        assert report.second_eig >= ref.second_eig - slack
        return
    assert report == eigenvalue_verdict(s, report.residual)
    assert np.abs(s - b).max() <= 4 * np.finfo(float).eps * np.abs(b).max()


def _assert_proved_like_certify(data, rep):
    # A verdict proved by factorization has the flags of the eigenvalue
    # verdict, and its min_eig and second_eig bound the eigenvalues of S
    # within their rounding.
    ref = certify_by_eigvalsh(data, rep.x)
    cert = rep.certificate
    assert (cert.tight, cert.unique) == (ref.tight, ref.unique)
    slack = data.n * np.finfo(float).eps * np.linalg.norm(build_certificate(data, rep.x).mat)
    assert cert.min_eig <= ref.min_eig + slack
    assert cert.second_eig <= ref.second_eig + slack


def _plateau_start():
    # sigma = 0 and z = 1: C is all ones, and the start (1, -1, 1, -1) is
    # orthogonal to z, a first-order point on the zero-gradient plateau of
    # the rank-one objective.
    z = PhaseVector(np.ones(4, dtype=complex))
    inst = assemble_instance(z, sample_wigner(4, 0), 0.0, 0)
    return inst.C, PhaseVector(np.array([1.0, -1.0, 1.0, -1.0], dtype=complex))


_SADDLES = {"pair": _saddle_pair(), "shallow_diagonal": _shallow_diagonal_saddle(),
            "plateau": _plateau_start(),
            **{f"first_order_{seed}": _first_order_point(seed) for seed in (723, 150, 1855)}}


class TestFirstOrderExit:
    """The solver stops at a first-order point and takes no step along
    negative curvature. Started at a strict saddle, it returns the saddle
    itself, converged, with its verdict: not tight, with certify's flags."""

    @pytest.mark.parametrize("name", sorted(_SADDLES))
    def test_saddle_start_is_returned_with_its_verdict(self, name, decisions):
        data, x0 = _SADDLES[name]
        assert _tangent_hessian_min_eig(data, x0) < -1e-3 * data.n
        rep = solve_second_order(data, x0)
        assert rep.converged and rep.iterations == 0 and rep.escapes == 0
        assert np.array_equal(rep.x.vec, x0.vec)
        assert len(decisions) == 1
        _assert_decided_like_certify(data, rep, decisions)
        assert not rep.certificate.tight and not rep.certificate.unique
        if name == "shallow_diagonal":
            # A converged row the diagonal refutes keeps the refutation's
            # upper bounds: S is never formed, and min_eig is the 2 x 2 bound
            # -4e-11, not the eigenvalue -1.
            assert decisions[-1][1] is None
            assert rep.certificate.min_eig == pytest.approx(-4e-11, rel=1e-3)


class TestEscape:
    """The solver has no escape step: its escape count is zero, as under an
    escape cap of zero, and a saddle start is declared converged in place."""

    def test_escape_cap_respected(self):
        data, x = _saddle_pair()
        rep = solve_second_order(data, x)
        # With no escapes the saddle is declared converged at cost 0.
        assert rep.converged
        assert rep.escapes == 0
        assert rep.cost == pytest.approx(0.0, abs=1e-12)


class TestSharedDecompositions:
    """The solver takes its shift and its spectral start from one values-only
    solve of C and one linear solve, without decomposing C. At its exit a
    diagonal entry of S refutes the verdict or a Cholesky factorization
    proves it where it can; otherwise the certificate S gets one values-only
    solve. Every exit, the budget included, takes that verdict."""

    def test_default_start_is_spectral_init(self, monkeypatch):
        inst = _instance(40, 1.0, 5)
        x0 = _spectral_start(inst.C)
        # A tolerance this loose declares the start itself critical, and the
        # solver returns it untouched.
        monkeypatch.setattr(solver, "GRAD_TOL", 1e6)
        rep = solve_second_order(inst.C, None)
        assert rep.iterations == 0
        assert np.array_equal(rep.x.vec, x0.vec)
        monkeypatch.undo()
        for max_iters in (1, solver.MAX_ITERS):
            a = solve_second_order(inst.C, None, signal=inst.z, max_iters=max_iters)
            b = solve_second_order(inst.C, x0, signal=inst.z, max_iters=max_iters)
            assert a.iterations == b.iterations
            assert np.array_equal(a.x.vec, b.x.vec)

    def test_certificate_of_converged_run(self):
        inst = _instance(60, 0.5, 3)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        assert rep.converged and rep.escapes == 0
        _assert_proved_like_certify(inst.C, rep)
        assert rep.certificate.tight and rep.certificate.unique

    def test_certificate_of_unconverged_run(self, decisions):
        inst = _instance(50, 3.0, 9)
        rep = solve_second_order(inst.C, None, signal=inst.z, max_iters=1)
        assert not rep.converged
        assert len(decisions) == 1
        _assert_decided_like_certify(inst.C, rep, decisions)
        assert not rep.certificate.tight

    def test_certificate_with_escape_cap_spent(self, decisions):
        # No escape is ever taken, so the saddle pair exits as a run whose
        # escape budget is spent: one decision, certify's flags, not tight.
        data, x = _saddle_pair()
        rep = solve_second_order(data, x)
        assert len(decisions) == 1
        _assert_decided_like_certify(data, rep, decisions)
        assert not rep.certificate.tight

    def test_no_exit_builds_a_certificate_of_its_own(self, monkeypatch, decisions):
        # Every exit takes its verdict from one certify call on the data and
        # the point it returns, and from the one decision that call makes: a
        # converged run, one that spends its budget and one that stops at a
        # saddle.
        calls = []

        def watched(data, point):
            calls.append((data, point))
            return certify(data, point)

        monkeypatch.setattr(solver, "certify", watched)
        inst = _instance(50, 3.0, 9)
        saddle = _saddle_pair()
        for (data, x0), kwargs, converged in (
                ((inst.C, None), {"signal": inst.z}, True),
                ((inst.C, None), {"signal": inst.z, "max_iters": 1}, False),
                (saddle, {}, True)):
            calls.clear()
            decisions.clear()
            rep = solve_second_order(data, x0, **kwargs)
            assert rep.converged == converged and rep.escapes == 0
            [(seen, point)] = calls
            assert seen is data and point is rep.x
            [(report, _)] = decisions
            assert rep.certificate is report

    def test_refutation_changes_no_iterate(self, monkeypatch, decisions):
        # A solve whose verdict comes from eigvalsh(S) takes the same steps to
        # the same x with the same flags: from the saddle pair and from
        # random first-order saddles, which a diagonal entry of S refutes,
        # and at a budget exit.
        recording = certificate.decide

        def eigenvalues_only(x, t, e):
            # S = T - x x* + tau I, whatever its diagonal.
            d = np.diagonal(t).real - (x * x.conj()).real + certificate.RANK_TOL * x.size
            t -= np.outer(x, x.conj())
            np.fill_diagonal(t, d)
            return eigenvalue_verdict(t, float(np.linalg.norm(e)))

        inst = _instance(50, 3.0, 9)
        cases = [(*_saddle_pair(), {}), (*_shallow_diagonal_saddle(), {}),
                 (inst.C, None, {"signal": inst.z, "max_iters": 1}),
                 *((*_first_order_point(seed), {}) for seed in (723, 150, 1855))]
        for data, x0, kwargs in cases:
            monkeypatch.setattr(certificate, "decide", recording)
            a = solve_second_order(data, x0, **kwargs)
            monkeypatch.setattr(certificate, "decide", eigenvalues_only)
            b = solve_second_order(data, x0, **kwargs)
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            assert np.array_equal(a.x.vec, b.x.vec)
            assert (a.certificate.tight, a.certificate.unique) == (
                b.certificate.tight, b.certificate.unique)
        assert any(s is None and not report.tight for report, s in decisions)

    def test_rejects_one_by_one(self):
        data = HermitianMatrix(np.array([[1.0 + 0j]]))
        with pytest.raises(ValueError):
            solve_second_order(data, PhaseVector(np.array([1.0 + 0j])))


class TestCertifyMatchesTheSolve:
    """``certify`` on the point a solve returns gives that solve's report, by
    dataclass equality, at every kind of exit and for every way a verdict is
    decided: a stored estimate certifies to the bits of its trial row."""

    @staticmethod
    def _assert_certify_matches(data, rep):
        assert certify(data, rep.x) == rep.certificate

    def test_proved_row(self, decisions):
        inst = _instance(60, 0.5, 3)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        assert rep.converged and rep.certificate.unique
        assert decisions[-1][1] is None
        self._assert_certify_matches(inst.C, rep)

    def test_eigvalsh_row(self, decisions):
        inst = _instance(200, 15.0, 0)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        assert decisions[-1][1] is not None and not rep.certificate.tight
        self._assert_certify_matches(inst.C, rep)

    def test_budget_exit(self):
        inst = _instance(200, 15.0, 0)
        rep = solve_second_order(inst.C, None, signal=inst.z, max_iters=30)
        assert not rep.converged and rep.iterations == 30
        self._assert_certify_matches(inst.C, rep)

    def test_exit_after_the_planted_restart(self):
        # The start is first-order critical with cost 0 and the plant costs
        # more, so every power step comes after the restart.
        data, x0 = _first_order_point(7)
        rng = np.random.default_rng(107)
        z = PhaseVector(np.exp(2j * np.pi * rng.random(data.n)))
        rep = solve_second_order(data, x0, signal=z)
        assert rep.converged and rep.iterations > 0 and rep.beat_planted
        self._assert_certify_matches(data, rep)

    def test_diagonal_refuted_saddle(self, decisions):
        data, x0 = _SADDLES["shallow_diagonal"]
        rep = solve_second_order(data, x0)
        assert rep.converged and not rep.certificate.tight
        assert decisions[-1][1] is None
        self._assert_certify_matches(data, rep)


class TestGradientNorm:
    """The loop reads the gradient norm off its power product as
    ``2 ||Im(y o xbar)||``, ``y = (C + lam I) x``; in exact arithmetic that is
    ``2 ||Re(w o xbar) o x - w||`` with ``w = C x``, and the verdict's
    residual is ``||S x||``. Both must agree with those definitions within
    rounding at every kind of exit."""

    @staticmethod
    def _assert_same_gradient(data, rep):
        # g = (n + 4) eps is a gamma_{n+4}. The products with C + lam I and
        # with C, and the few entrywise operations after them, each err by at
        # most a few g times the row sums of |C| + lam I per entry (those of
        # |S| are at most three times those of |C|).
        n = data.n
        c, x = data.mat, rep.x.vec
        g = (n + 4) * np.finfo(float).eps
        bound = 16 * g * np.linalg.norm(np.abs(c).sum(axis=1) + _spectrum(data)[0])
        w = c @ x
        gradient = 2.0 * (w * x.conj()).real * x - 2.0 * w
        assert abs(rep.grad_norm - np.linalg.norm(gradient)) <= bound
        residual = np.linalg.norm(build_certificate(data, rep.x).mat @ x)
        assert abs(rep.certificate.residual - residual) <= bound

    def test_converged_exit(self):
        inst = _instance(60, 0.5, 3)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        assert rep.converged and rep.iterations > 0
        self._assert_same_gradient(inst.C, rep)

    def test_budget_exit(self):
        inst = _instance(50, 3.0, 9)
        for budget in (1, 30):
            rep = solve_second_order(inst.C, None, signal=inst.z, max_iters=budget)
            assert not rep.converged and rep.iterations == budget
            self._assert_same_gradient(inst.C, rep)

    def test_exit_after_the_planted_restart(self):
        # The start is first-order critical with cost 0 and the plant costs
        # more, so the restart fires at once: every power step comes after it.
        data, x0 = _first_order_point(7)
        rng = np.random.default_rng(107)
        z = PhaseVector(np.exp(2j * np.pi * rng.random(data.n)))
        assert quad_form(data, z.vec) > 1.0
        rep = solve_second_order(data, x0, signal=z)
        assert rep.converged and rep.iterations > 0 and rep.beat_planted
        self._assert_same_gradient(data, rep)


class TestReportInvariants:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.2, 1.0, 2.0, 8.0, 15.0]))
    @settings(max_examples=20)
    def test_converged_respects_tolerance(self, seed, sigma):
        # sigma = 8 and 15 (the benchmark's largest) are far past tightness at
        # n = 25, where the ascent can stop at a local optimum. With no
        # escape step, every converged solve from the spectral start must
        # still be second-order critical.
        inst = _instance(25, sigma, seed)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        if rep.converged:
            assert rep.grad_norm <= 1e-10 * 25
            assert _tangent_hessian_min_eig(inst.C, rep.x) >= -1e-10 * 25
        assert rep.iterations <= 500
        assert rep.escapes == 0
        assert np.abs(np.abs(rep.x.vec) - 1.0).max() <= 1e-12
