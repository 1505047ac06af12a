"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` to see them
live) and then asserts, so a red line and a red test always travel together.
The stochastic criteria pin their seeds; the frequencies they check sit far
enough from the thresholds that the binomial noise at these trial counts is
negligible.
"""

import math
import time
from pathlib import Path

import numpy as np

from phasesync.certificate import build_certificate, certify
from phasesync.experiment import (GridConfig, aggregate_path, run_grid, run_real_trial,
                                  run_trial, run_trial_detailed)
from phasesync.hermitian import HermitianMatrix
from phasesync.metrics import l2_error
from phasesync.model import (PhaseVector, assemble_instance, noise_tail_stats,
                             random_signal, sample_wigner, trial_seed)
from phasesync.solver import solve_second_order

from oracle import brute_force_qp
from reference import project_tangent, quad_form, retract, riemannian_grad, tangent_hessian


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_noiseless_exactness():
    t0 = time.perf_counter()
    worst_dist = 0.0
    worst_lam1 = 0.0
    worst_lam2_gap = 0.0
    all_cert = True
    for n in (2, 5, 10, 50, 200):
        z = random_signal(n, 1000 + n)
        inst = assemble_instance(z, sample_wigner(n, 1000 + n), 0.0, 1000 + n)
        rep = solve_second_order(inst.C, None, signal=inst.z)
        corr = abs(np.vdot(inst.z.vec, rep.x.vec))
        worst_dist = max(worst_dist, 2.0 * (n - corr) / n)
        cert = certify(inst.C, rep.x)
        all_cert = all_cert and cert.tight and cert.unique
        worst_lam1 = max(worst_lam1, abs(cert.min_eig) / n)
        worst_lam2_gap = max(worst_lam2_gap, abs(cert.second_eig - n) / n)
    elapsed = time.perf_counter() - t0
    ok = (worst_dist <= 1e-8 and all_cert and worst_lam1 <= 1e-12
          and worst_lam2_gap <= 1e-9 and elapsed < 5.0)
    _report(1, "noiseless exactness", ok,
            f"dist/n {worst_dist:.2e}, |eig1|/n {worst_lam1:.2e}, "
            f"|eig2-n|/n {worst_lam2_gap:.2e}, {elapsed:.1f}s")


def test_criterion_2_theorem_regime_tightness():
    t0 = time.perf_counter()
    n, trials = 100, 100
    sigma = n ** 0.25 / 18.0
    both = 0
    violations = 0
    checked = 0
    for k in range(trials):
        rec = run_trial(n, sigma, trial_seed(2024, k))
        if rec.tight and rec.unique:
            both += 1
        if rec.discordant and rec.beat_planted:
            checked += 1
            if rec.l2_err > 12.0 * sigma or not rec.lemma3_ok:
                violations += 1
    elapsed = time.perf_counter() - t0
    frac = both / trials
    ok = frac >= 0.95 and violations == 0 and elapsed < 120.0
    _report(2, "theorem-regime tightness", ok,
            f"sigma {sigma:.4f}, tight&unique {frac:.2f}, "
            f"bound violations {violations}/{checked}, {elapsed:.1f}s")


def test_criterion_3_tightness_beyond_theorem():
    t0 = time.perf_counter()
    n, sigma, trials = 100, 2.0, 100
    tight = sum(run_trial(n, sigma, trial_seed(3030, k)).tight for k in range(trials))
    elapsed = time.perf_counter() - t0
    frac = tight / trials
    band = 2.0 * math.sqrt(max(frac * (1.0 - frac), 1e-4) / trials)
    ok = frac >= 0.90 and elapsed < 180.0
    _report(3, "empirical tightness at sigma=2", ok,
            f"frac_tight {frac:.2f} +- {band:.2f} (2-sigma), {elapsed:.1f}s")


def test_criterion_4_real_recovery_transition():
    t0 = time.perf_counter()
    n, trials = 300, 100
    thr = math.sqrt(n / (2.0 * math.log(n)))
    low = sum(run_real_trial(n, 0.8 * thr, trial_seed(4004, k)).tight
              for k in range(trials)) / trials
    high = sum(run_real_trial(n, 1.5 * thr, trial_seed(4014, k)).tight
               for k in range(trials)) / trials
    elapsed = time.perf_counter() - t0
    ok = low >= 0.90 and high <= 0.50 and elapsed < 120.0
    _report(4, "real recovery transition", ok,
            f"freq {low:.2f} at 0.8x, {high:.2f} at 1.5x threshold "
            f"{thr:.2f}, {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    counterexamples = 0
    certified = 0
    unconverged = 0
    for n in (3, 4):
        for sigma in (0.2, 0.5, 1.0):
            for k in range(50):
                seed = trial_seed(50_000 + 10 * n, k)
                rec, inst, srep = run_trial_detailed(n, sigma, seed)
                if not rec.unique:
                    continue
                certified += 1
                bx, _, converged = brute_force_qp(inst.C)
                if not converged:
                    unconverged += 1
                dist = l2_error(srep.x, PhaseVector(bx))
                worst = max(worst, dist / math.sqrt(n))
                if dist > 1e-6 * math.sqrt(n):
                    counterexamples += 1
    elapsed = time.perf_counter() - t0
    ok = counterexamples == 0 and unconverged == 0 and certified > 0 and elapsed < 300.0
    _report(5, "oracle equivalence", ok,
            f"{certified} certified trials, worst dist/sqrt(n) {worst:.2e}, "
            f"counterexamples {counterexamples}, unconverged oracle polishes "
            f"{unconverged}, {elapsed:.1f}s")


def test_criterion_6_derivative_correctness():
    # The derivatives of the descent functional -x* C x: the gradient 2 S x
    # (twice the e = S x of the solver's exits, whose norm its power steps
    # read off Im((C + lam I) x o xbar); see
    # test_solver.py::TestGradientNorm) and the Hessian along v = i x o theta,
    # i x o (2 H theta) with the tangent Hessian H = Re(diag(xbar) S diag(x))
    # read off the certificate. The references are finite differences of the
    # cost and of the projected ambient gradient, along the retraction.
    t0 = time.perf_counter()
    n = 7
    rng = np.random.default_rng(606)
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(20):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        c = HermitianMatrix((a + a.conj().T) / 2.0)
        x = PhaseVector(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
        theta = ((rng.normal(size=n) + 1j * rng.normal(size=n)) * x.vec.conj()).imag
        v = 1j * x.vec * theta
        s = build_certificate(c, x)

        grad = 2.0 * (s.mat @ x.vec)
        h = 1e-6
        plus = -quad_form(c, retract(x.vec, v, h).vec)
        minus = -quad_form(c, retract(x.vec, v, -h).vec)
        fd_dir = (plus - minus) / (2.0 * h)
        exact_dir = float(np.real(np.vdot(grad, v)))
        worst_g = max(worst_g, abs(fd_dir - exact_dir) / max(1.0, abs(exact_dir)))

        hv = 1j * x.vec * (2.0 * (tangent_hessian(x.vec, s).mat @ theta))
        h2 = 1e-5
        gp = riemannian_grad(c, retract(x.vec, v, h2))
        gm = riemannian_grad(c, retract(x.vec, v, -h2))
        fd_hv = project_tangent(x, (gp - gm) / (2.0 * h2))
        worst_h = max(worst_h,
                      float(np.linalg.norm(fd_hv - hv))
                      / max(1.0, float(np.linalg.norm(hv))))
    elapsed = time.perf_counter() - t0
    ok = worst_g <= 1e-6 and worst_h <= 1e-6
    _report(6, "derivative correctness", ok,
            f"grad rel {worst_g:.2e}, hess rel {worst_h:.2e}, {elapsed:.1f}s")


def test_criterion_7_noise_model_tails():
    t0 = time.perf_counter()
    stats = noise_tail_stats(100, 1000, 70707)
    elapsed = time.perf_counter() - t0
    inf_cap = 2.0 * 100 ** -1.25 + 0.01
    ok = (stats.inf_exceed_freq <= inf_cap
          and stats.opnorm_exceed_freq <= 0.005
          and elapsed < 120.0)
    _report(7, "noise-model tails", ok,
            f"inf freq {stats.inf_exceed_freq:.4f} <= {inf_cap:.4f}, "
            f"opnorm freq {stats.opnorm_exceed_freq:.4f} <= 0.005, {elapsed:.1f}s")


def test_criterion_8_determinism_across_workers(tmp_path):
    t0 = time.perf_counter()
    kw = dict(case="complex", n_values=(10, 15, 20), sigmas=(0.2, 0.6, 1.0),
              reps=5, seed_base=808)
    solo = GridConfig(workers=1, out=str(tmp_path / "solo.csv"), **kw)
    quad = GridConfig(workers=4, out=str(tmp_path / "quad.csv"), **kw)
    run_grid(solo)
    run_grid(quad)
    same_trials = (Path(solo.out).read_bytes() == Path(quad.out).read_bytes())
    same_aggs = (Path(solo.out).with_suffix(".agg.csv").read_bytes()
                 == Path(quad.out).with_suffix(".agg.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = same_trials and same_aggs
    _report(8, "worker-count determinism", ok,
            f"trials identical {same_trials}, aggregates identical {same_aggs}, "
            f"{elapsed:.1f}s")


def test_criterion_8_determinism_across_workers_where_blas_threads(tmp_path):
    # Criterion 8 runs at n <= 20, where OpenBLAS never threads. At these n it
    # does, so the pool's workers must run trials on the same single BLAS
    # thread as the serial loop for the outputs to agree.
    t0 = time.perf_counter()
    same = []
    for case, n in (("complex", 200), ("real", 400)):
        kw = dict(case=case, n_values=(n,), sigmas=(1.0, 5.0), reps=2, seed_base=5)
        solo = GridConfig(workers=1, out=str(tmp_path / f"{case}-solo.csv"), **kw)
        duo = GridConfig(workers=2, out=str(tmp_path / f"{case}-duo.csv"), **kw)
        run_grid(solo)
        run_grid(duo)
        for a, b in ((solo.out, duo.out), (aggregate_path(solo.out), aggregate_path(duo.out))):
            same.append(Path(a).read_bytes() == Path(b).read_bytes())
    elapsed = time.perf_counter() - t0
    _report(8, "worker-count determinism at threaded sizes", all(same),
            f"complex n=200 and real n=400 trials and aggregates identical {same}, "
            f"{elapsed:.1f}s")
