"""Second-order ascent for the torus-constrained quadratic objective.

The solver maximizes ``x* C x`` over unit-modulus vectors and answers, for
the point it returns, the question every trial asks: is the dual certificate
``S = Re diag(C x xbar) - C`` positive semidefinite?

The torus carries the metric ``Re(u* v)``. A tangent vector at ``x`` has zero
radial part ``Re(v_i xbar_i)`` in every entry, so it is ``i x o theta`` with
``theta`` real, and the retraction renormalizes ``x + t v`` entrywise, which
agrees with the exponential map to second order. Along ``i x o theta`` the
Hessian's quadratic form of ``-x* C x`` is exactly ``2 theta^T H theta``,
``H = Re(diag(xbar) S diag(x))`` (Boumal 2016, "Nonconvex phase
synchronization"), so ``min_eig(H) >= min_eig(S)``. The pieces:

* one gated values-only solve of ``C`` gives the shift ``lam = max(0,
  -min_eig(C))`` and the top eigenvalue; when no start is given, one step of
  inverse iteration just above that eigenvalue gives the top eigenvector,
  whose phases are the spectral start. No eigendecomposition of ``C`` is
  formed;
* projected power iterations map ``x`` to the entrywise phase of
  ``y = (C + lam I) x``, one product with a matrix formed once per start;
  each never decreases the objective (majorize-minimize argument).
  First-order convergence is declared when the Riemannian gradient norm,
  ``2 ||Im(y o xbar)||``, falls below ``GRAD_TOL * n``;
* a one-time restart from the planted signal, when one is supplied and the
  first stationary point found scores below it; converged runs therefore
  always report a cost at least that of the plant;
* at a first-order point ``certificate.decide`` gives the verdict, from the
  half gradient ``e = S x``, formed at the exit: refuted by a diagonal entry
  of ``S``, with upper bounds on its eigenvalues; proved tight and unique by
  one Cholesky factorization; or else decided on the eigenvalues of ``S``,
  which it returns. A proved point is the global optimum and needs no escape
  test; a refuted one that may still escape is decided on the eigenvalues of
  ``S`` after all, since the test needs ``min_eig(S)``, not a bound on it.
  Only when ``min_eig(S) < -ESCAPE_TOL * n`` is ``H`` formed; a Cholesky
  factorization of ``H + ESCAPE_TOL * n I`` then proves that no escape
  exists, and only when it fails is ``H`` decomposed (one real eigensolve).
  If ``min_eig(H)`` is below the floor, its eigenvector gives a unit tangent
  direction of curvature ``2 min_eig(H)``; a backtracking step along it
  strictly increases the cost, and the ascent resumes. Otherwise the point
  is second-order critical. The floor also keeps the global-phase kernel
  ``H 1 = 0`` from being taken as a direction. At most ``MAX_ESCAPES``
  escapes are taken.

Every exit (convergence, the iteration budget, the escape cap) ends with
that verdict on the point it returns, and the report carries it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .certificate import RANK_TOL, CertificateReport, certificate_matrix, decide, verdict
from .hermitian import (EIG_RESIDUAL_TOL, EigensolverError, HermitianMatrix, extreme_eigs,
                        smallest_eigvals)
from .model import PhaseVector

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

# First-order convergence: the Riemannian gradient norm is at most
# GRAD_TOL * n.
GRAD_TOL = 1e-10

# The power-step budget of a solve unless its caller gives another one.
MAX_ITERS = 500

# Escapes from saddles per solve; a point reached by the last one is returned
# with its verdict and no escape test.
MAX_ESCAPES = 5


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a solve.

    ``iterations`` counts power steps; escapes and the optional restart are
    tracked separately. ``planted_cost`` and ``beat_planted`` are None when
    no planted signal was supplied; otherwise they are the planted cost
    ``z* C z`` and whether ``cost >= planted_cost - BEAT_COST_SLACK n^2``.
    ``converged`` implies ``grad_norm <= GRAD_TOL * n``; ``grad_norm``, read
    off the last power step, is ``2 ||S x||`` up to rounding. ``certificate``
    is the verdict of ``certificate.decide`` on ``x``: its ``residual`` is
    ``||S x||``, and ``min_eig`` and ``second_eig`` are eigenvalues of ``S``,
    or bounds on them where a factorization proved the verdict.
    """

    x: PhaseVector
    cost: float
    grad_norm: float
    iterations: int
    escapes: int
    planted_cost: float | None
    beat_planted: bool | None
    converged: bool
    certificate: CertificateReport


def _round_phases(v: np.ndarray) -> PhaseVector:
    # Entrywise phases; entries below 1e-12 in modulus carry no usable phase
    # and become 1.
    a = np.abs(v)
    tiny = a < 1e-12
    return PhaseVector(np.where(tiny, 1.0 + 0.0j, v / np.where(tiny, 1.0, a)))


def _top_vector(data: HermitianMatrix, top: float) -> np.ndarray:
    # One step of inverse iteration (Parlett, "The Symmetric Eigenvalue
    # Problem"): solve (C - theta I) v = 1 just above the computed top
    # eigenvalue, at theta = top + eps ||C||_F, and gate the unit v as
    # ``extreme_eigs`` gates an eigenpair. The solve amplifies the top
    # component by about 1 / (theta - top), so a wider offset costs accuracy;
    # theta = top exactly can meet an exactly singular pivot. When the solve
    # fails or misses the gate (the all-ones vector orthogonal to the top
    # eigenvector, say) the dense eigensolve decides.
    n = data.n
    scale = max(1.0, float(np.linalg.norm(data.mat)))
    shifted = data.mat.copy()
    shifted[np.diag_indices(n)] -= top + np.finfo(float).eps * scale
    try:
        v = np.linalg.solve(shifted, np.ones(n, dtype=shifted.dtype))
    except np.linalg.LinAlgError:
        pass
    else:
        v /= np.linalg.norm(v)
        if np.linalg.norm(data.mat @ v - top * v) <= EIG_RESIDUAL_TOL * n * scale:
            return v
    return extreme_eigs(data, -1)[1]


def _spectrum(data: HermitianMatrix) -> tuple[float, float]:
    # The shift max(0, -min_eig(C)) and the top eigenvalue of C, from one
    # gated values-only solve.
    vals = smallest_eigvals(data, data.n)
    return max(0.0, -float(vals[0])), float(vals[-1])


def _tangent_hessian(x: np.ndarray, s: HermitianMatrix) -> HermitianMatrix:
    # H = Re(diag(xbar) S diag(x)) for the certificate ``s`` at ``x``: the
    # Hessian of -x* C x at x along i x o theta is i x o (2 H theta).
    return HermitianMatrix((x.conj()[:, None] * s.mat * x[None, :]).real)


def _negative_curvature(point: PhaseVector, s: HermitianMatrix) -> np.ndarray | None:
    # ``s`` is the certificate at ``point``; the escape direction is
    # ``i x o theta`` for the bottom eigenvector theta of the tangent Hessian H.
    # A Cholesky factorization of H + ESCAPE_TOL n I proves that there is
    # none without the eigensolve.
    x = point.vec
    n = point.n
    h = _tangent_hessian(x, s)
    try:
        np.linalg.cholesky(h.mat + ESCAPE_TOL * n * np.eye(n))
    except np.linalg.LinAlgError:
        pass
    else:
        return None
    value, theta = extreme_eigs(h, 0)
    if value >= -ESCAPE_TOL * n:
        return None
    return 1j * x * theta


def _retract(x: np.ndarray, d: np.ndarray, step: float) -> PhaseVector:
    # Entrywise renormalization of x + step d. For a tangent d = i x o theta,
    # |x_i + step d_i|^2 = 1 + step^2 theta_i^2, so no entry vanishes.
    y = x + step * d
    return PhaseVector(y / np.abs(y))


def _escape_step(data: HermitianMatrix, point: PhaseVector, direction: np.ndarray,
                 cost0: float) -> np.ndarray | None:
    # Backtracking line search along a negative-curvature direction. Strict
    # increase is guaranteed for small steps; give up after 60 halvings.
    step = 1.0
    for _ in range(60):
        cand = _retract(point.vec, direction, step)
        cost = float(np.vdot(cand.vec, data.mat @ cand.vec).real)
        if cost > cost0:
            return np.asarray(cand.vec)
        step /= 2.0
    return None


def solve_second_order(
    data: HermitianMatrix,
    x0: PhaseVector | None = None,
    signal: PhaseVector | None = None,
    max_iters: int = MAX_ITERS,
) -> SolverReport:
    """Run the full ascent from ``x0``, or from the spectral start when it is
    None; see the module docstring for the pieces. The returned verdict
    needs ``n >= 2``. An eigensolver failure on the certificate is reported
    in the verdict's ``error``; no escape is tried then, nor when the solve
    on ``H`` for the escape direction fails. Non-convergence within
    ``max_iters`` power steps (at least 1) is reported, not raised."""
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if x0 is not None and data.n != x0.n:
        raise ValueError("matrix and starting point sizes disagree")
    if signal is not None and signal.n != data.n:
        raise ValueError("matrix and signal sizes disagree")

    n = data.n
    if n < 2:
        raise ValueError(f"the verdict needs n >= 2, got a {n} x {n} matrix")
    cmat = data.mat
    tol = GRAD_TOL * n
    shift, top = _spectrum(data)
    if x0 is None:
        x0 = _round_phases(_top_vector(data, top))

    cost_z = None
    if signal is not None:
        cost_z = float(np.vdot(signal.vec, cmat @ signal.vec).real)

    def work(v):
        # A copy of the iterate, C + lam I (every exit builds T in it) and the
        # arrays a power step fills in place: y, xbar, y o xbar and r = |y|.
        # Set up once per starting point (the start, the plant, an escape).
        v = np.array(v, dtype=np.result_type(cmat, v))
        c = cmat.astype(v.dtype)
        c[np.diag_indices(n)] += shift
        return v, c, *(np.empty_like(v) for _ in range(3)), np.empty(v.shape)

    x, cshift, y, xc, yx, r = work(x0.vec)
    iterations = 0
    escapes = 0
    restarted = False

    while True:
        np.matmul(cshift, x, out=y)
        # Half the Riemannian gradient of -x* C x is e = S x, and |e_i| =
        # |Im((C x)_i xbar_i)| = |Im(y_i xbar_i)| as lam |x_i|^2 is real.
        b = np.multiply(y, np.conjugate(x, out=xc), out=yx).imag
        gn = 2.0 * math.sqrt(b.dot(b))
        converged = gn <= tol
        if not converged and iterations < max_iters:
            np.abs(y, out=r)
            # The guard for entries without a usable phase, only when one
            # exists: those keep their previous phase.
            if np.minimum.reduce(r) > PHASE_FLOOR:
                np.divide(y, r, out=x)
            else:
                np.divide(y, r, out=x, where=r > PHASE_FLOOR)
            iterations += 1
            continue
        w = cmat @ x
        cost = float(np.vdot(x, w).real)
        if converged and signal is not None and not restarted and cost < cost_z:
            x, cshift, y, xc, yx, r = work(signal.vec)
            restarted = True
            continue
        # Every exit decides the verdict on its x, from e = S x and T = x x* - C
        # with diagonal a - Re diag(C) + |x|^2 - tau, built in the buffer of
        # C + lam I. A converged point below the escape cap first tries to
        # leave along negative curvature; the verdict on a point it leaves is
        # dropped. Its escape test needs min_eig(S), not a refutation's bound.
        a = (w * xc).real
        t = np.outer(x, xc, out=cshift)
        t -= cmat
        np.fill_diagonal(t, a - np.diagonal(cmat).real + (x.real * x.real + x.imag * x.imag)
                         - RANK_TOL * n)
        cert, s = decide(x, t, a * x - w)
        may_escape = converged and escapes < MAX_ESCAPES
        if may_escape and s is None and not cert.tight:
            s = certificate_matrix(x, t)
            cert = verdict(s, cert.residual)
        if may_escape and cert.error is None and cert.min_eig < -ESCAPE_TOL * n:
            point = PhaseVector(x)
            try:
                direction = _negative_curvature(point, s)
            except EigensolverError as exc:
                logger.warning("no escape tried: %s", exc)
                direction = None
            if direction is not None:
                moved = _escape_step(data, point, direction, cost)
                if moved is not None:
                    x, cshift, y, xc, yx, r = work(moved)
                    escapes += 1
                    continue
                logger.warning("negative curvature found but no ascent step succeeded")
        break

    beat = None
    if signal is not None:
        beat = bool(cost >= cost_z - BEAT_COST_SLACK * n * n)
    if not converged:
        logger.warning("no convergence in %d power steps (grad norm %.3e, tol %.3e)",
                       iterations, gn, tol)
    return SolverReport(
        x=PhaseVector(x), cost=cost, grad_norm=gn,
        iterations=iterations, escapes=escapes,
        planted_cost=cost_z, beat_planted=beat, converged=converged, certificate=cert,
    )
