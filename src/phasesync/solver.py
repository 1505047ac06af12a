"""Second-order ascent for the torus-constrained quadratic objective.

The solver maximizes ``x* C x`` over unit-modulus vectors and answers, for
the point it returns, the question every trial asks: is the dual certificate
``S = Re diag(C x xbar) - C`` positive semidefinite? It converges, certifies
once, and escapes only along a tangent direction of negative curvature:

* one decomposition of ``C`` gives both the shift ``lam = max(0,
  -min_eig(C))`` and, when no start is given, the spectral start (the phases
  of the top eigenvector, exactly :func:`spectral_init`);
* projected power iterations on ``C + lam I`` map ``x`` to the entrywise
  phase of ``(C + lam I) x``; each never decreases the objective
  (majorize-minimize argument). First-order convergence is declared when the
  Riemannian gradient norm falls below ``grad_tol * n``;
* a one-time restart from the planted signal, when one is supplied and the
  first stationary point found scores below it; converged runs therefore
  always report a cost at least that of the plant;
* at a first-order point ``S`` is built and ``certificate.verdict`` decides
  on its eigenvalues alone. Tangent vectors there are ``i x o theta`` with
  ``theta`` real, on which the Hessian's quadratic form is exactly
  ``2 theta^T H theta``, ``H = Re(diag(xbar) S diag(x))`` (Boumal 2016,
  "Nonconvex phase synchronization"), so ``min_eig(H) >= min_eig(S)``. Only
  when ``min_eig(S) < -ESCAPE_TOL * n`` is ``H`` formed and decomposed (one
  real eigensolve). If ``min_eig(H)`` is below that floor too, its
  eigenvector gives a unit tangent direction of curvature ``2 min_eig(H)``;
  a backtracking step along it strictly increases the cost, and the ascent
  resumes. Otherwise the point is second-order critical. The floor also
  keeps the global-phase kernel ``H 1 = 0`` from being taken as a
  direction. Escapes are counted and capped.

The report carries the certificate verdict of the returned point: the one
made at the last check, or, when the run ended without one (iteration budget
spent, or escape cap reached), a :func:`certify` of the final point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .certificate import CertificateReport, build_certificate, certify, verdict
from .hermitian import EigensolverError, HermitianMatrix, extreme_eigs
from .manifold import PhaseVector, TangentVector, retract

logger = logging.getLogger(__name__)

# Entry moduli below this are left at their previous phase during a power
# step; the phase of a zero is undefined.
PHASE_FLOOR = 1e-14

# Cost slack for "matched or beat the planted signal", scaled by n^2 (the
# magnitude of the cost itself).
BEAT_COST_SLACK = 1e-12

# Curvature floor, scaled by n: a first-order point escapes only along a
# Hessian eigenvalue below -ESCAPE_TOL * n, and the certificate eigenvalue
# must be below it first.
ESCAPE_TOL = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`solve_second_order`.

    ``grad_tol`` scales with n before use: first-order convergence is
    ``grad_norm <= grad_tol * n``. ``max_iters`` caps power steps and
    ``max_escapes`` caps escapes from saddles. The curvature floor is the
    fixed ``ESCAPE_TOL``.
    """

    grad_tol: float = 1e-10
    max_iters: int = 500
    max_escapes: int = 5

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.max_escapes < 0:
            raise ValueError(f"max_escapes must be nonnegative, got {self.max_escapes}")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a solve.

    ``iterations`` counts power steps; escapes and the optional restart are
    tracked separately. ``beat_planted`` is None when no planted signal was
    supplied, otherwise it records ``cost >= planted cost - BEAT_COST_SLACK n^2``.
    ``converged`` implies ``grad_norm <= grad_tol * n``. ``certificate`` is
    the verdict on ``x``, exactly what :func:`certify` reports.
    """

    x: PhaseVector
    cost: float
    grad_norm: float
    iterations: int
    escapes: int
    beat_planted: bool | None
    converged: bool
    certificate: CertificateReport


def _grad_dir(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Gradient of g(x) = -x* C x given w = C x: the tangent part of -2w.
    return 2.0 * (w * x.conj()).real * x - 2.0 * w


def _round_phases(v: np.ndarray) -> PhaseVector:
    # Entrywise phases; entries below 1e-12 in modulus carry no usable phase
    # and become 1.
    a = np.abs(v)
    tiny = a < 1e-12
    return PhaseVector(np.where(tiny, 1.0 + 0.0j, v / np.where(tiny, 1.0, a)))


def spectral_init(data: HermitianMatrix) -> PhaseVector:
    """Entrywise phases of the leading eigenvector.

    Entries of the eigenvector with modulus below 1e-12 are replaced by 1,
    since they carry no usable phase information. This is the start
    :func:`solve_second_order` takes when given none.
    """
    return _round_phases(extreme_eigs(data, 0, 1).vectors[:, 0])


def _negative_curvature(point: PhaseVector, s: HermitianMatrix) -> TangentVector | None:
    # ``s`` is the certificate at ``point``; the escape direction is
    # ``i x o theta`` for the bottom eigenvector theta of the tangent Hessian H.
    x = point.vec
    h = HermitianMatrix((x.conj()[:, None] * s.mat * x[None, :]).real)
    eig = extreme_eigs(h, 1, 0)
    if eig.values[0] >= -ESCAPE_TOL * point.n:
        return None
    return TangentVector(point, 1j * x * eig.vectors[:, 0])


def _escape_step(data: HermitianMatrix, point: PhaseVector, direction: TangentVector,
                 cost0: float) -> np.ndarray | None:
    # Backtracking line search along a negative-curvature direction. Strict
    # increase is guaranteed for small steps; give up after 60 halvings.
    step = 1.0
    for _ in range(60):
        cand = retract(point, direction, step)
        cost = float(np.vdot(cand.vec, data.mat @ cand.vec).real)
        if cost > cost0:
            return np.asarray(cand.vec)
        step /= 2.0
    return None


def solve_second_order(
    data: HermitianMatrix,
    x0: PhaseVector | None = None,
    signal: PhaseVector | None = None,
    opts: SolverOptions = SolverOptions(),
) -> SolverReport:
    """Run the full ascent from ``x0``, or from the spectral start when it is
    None; see the module docstring for the pieces. The returned verdict
    needs ``n >= 2``. An eigensolver failure on the certificate is reported
    in the verdict's ``error``; no escape is tried then, nor when the solve
    on ``H`` for the escape direction fails. Non-convergence within
    ``max_iters`` power steps is reported, not raised."""
    if x0 is not None and data.n != x0.n:
        raise ValueError("matrix and starting point sizes disagree")
    if signal is not None and signal.n != data.n:
        raise ValueError("matrix and signal sizes disagree")

    n = data.n
    cmat = data.mat
    tol = opts.grad_tol * n
    extremes = extreme_eigs(data, 1, 1)
    shift = max(0.0, -float(extremes.values[0]))
    if x0 is None:
        x0 = _round_phases(extremes.vectors[:, 1])

    cost_z = None
    if signal is not None:
        cost_z = float(np.vdot(signal.vec, cmat @ signal.vec).real)

    x = x0.vec.copy()
    iterations = 0
    escapes = 0
    restarted = False
    converged = False
    cert = None

    while True:
        w = cmat @ x
        gn = float(np.linalg.norm(_grad_dir(w, x)))
        if gn <= tol:
            cost_x = float(np.vdot(x, w).real)
            if signal is not None and not restarted and cost_x < cost_z:
                x = signal.vec.copy()
                restarted = True
                continue
            if escapes < opts.max_escapes:
                point = PhaseVector(x)
                s = build_certificate(data, point)
                report = verdict(s, point.vec)
                direction = None
                if report.error is None and report.min_eig < -ESCAPE_TOL * n:
                    try:
                        direction = _negative_curvature(point, s)
                    except EigensolverError as exc:
                        logger.warning("no escape tried: %s", exc)
                if direction is not None:
                    moved = _escape_step(data, point, direction, cost_x)
                    if moved is not None:
                        x = moved
                        escapes += 1
                        continue
                    logger.warning("negative curvature found but no ascent step succeeded")
                # Kept only here, where x stays put: a verdict on a point the
                # ascent then left would not be the verdict on its result.
                cert = report
            converged = True
            break
        if iterations >= opts.max_iters:
            break
        y = w + shift * x
        a = np.abs(y)
        safe = a > PHASE_FLOOR
        x = np.where(safe, y / np.where(safe, a, 1.0), x)
        iterations += 1

    final = PhaseVector(x)
    if cert is None:
        cert = certify(data, final)
    w = cmat @ final.vec
    grad_norm = float(np.linalg.norm(_grad_dir(w, final.vec)))
    cost = float(np.vdot(final.vec, w).real)
    beat = None
    if signal is not None:
        beat = bool(cost >= cost_z - BEAT_COST_SLACK * n * n)
    if not converged:
        logger.warning("no convergence in %d power steps (grad norm %.3e, tol %.3e)",
                       iterations, grad_norm, tol)
    return SolverReport(
        x=final, cost=cost, grad_norm=grad_norm,
        iterations=iterations, escapes=escapes,
        beat_planted=beat, converged=converged, certificate=cert,
    )
