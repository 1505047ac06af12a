"""Projected power ascent for the torus-constrained quadratic objective.

The solver maximizes ``x* C x`` over unit-modulus vectors, stops at a
first-order critical point, and answers, for the point it returns, the
question every trial asks: is the dual certificate
``S = Re diag(C x xbar) - C`` positive semidefinite? If it is, ``x`` is the
global optimum, however the ascent reached it; if not, the verdict says so
for that ``x``. The pieces:

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
* at the returned point ``certificate.certify`` gives the verdict, the
  same call that certifies a stored estimate: refuted by a diagonal entry of
  ``S``, with upper bounds on its eigenvalues; proved tight and unique by
  one Cholesky factorization; or else decided on the eigenvalues of ``S``.

No step leaves a saddle along negative curvature. From the spectral start
the ascent does not stop at one in practice: first-order methods avoid
strict saddles from almost every start (Lee et al. 2019), and at low noise
every second-order critical point is global (Boumal 2016, "Nonconvex phase
synchronization"). A saddle that is reached anyway is reported converged
and not tight, which is true of that point.

Every exit (convergence, the iteration budget) ends with that verdict on the
point it returns, and the report carries it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .certificate import CertificateReport, certify
from .hermitian import EIG_RESIDUAL_TOL, HermitianMatrix, extreme_eigs, smallest_eigvals
from .model import PhaseVector

logger = logging.getLogger(__name__)

# Entry moduli below this are left at their previous phase during a power
# step; the phase of a zero is undefined.
PHASE_FLOOR = 1e-14

# Cost slack for "matched or beat the planted signal", scaled by n^2 (the
# magnitude of the cost itself).
BEAT_COST_SLACK = 1e-12

# First-order convergence: the Riemannian gradient norm is at most
# GRAD_TOL * n.
GRAD_TOL = 1e-10

# The power-step budget of a solve unless its caller gives another one.
MAX_ITERS = 500


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a solve.

    ``iterations`` counts power steps; the optional restart is not counted.
    ``escapes`` is always 0: the solver takes no escape steps, and the field
    stays because the benchmark's tracer (``perfbench/tracing.py``) reads it.
    ``planted_cost`` and ``beat_planted`` are None when no planted signal was
    supplied; otherwise they are the planted cost ``z* C z`` and whether
    ``cost >= planted_cost - BEAT_COST_SLACK n^2``. ``converged`` implies
    ``grad_norm <= GRAD_TOL * n``; ``grad_norm``, read off the last power
    step, is ``2 ||S x||`` up to rounding. ``certificate`` is
    ``certificate.certify(data, x)``: its ``residual`` is ``||S x||``, and
    ``min_eig`` and ``second_eig`` are eigenvalues of ``S``, or bounds on them
    where a factorization proved the verdict or a diagonal entry refuted it.
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
    vals = smallest_eigvals(data.mat, data.n)
    return max(0.0, -float(vals[0])), float(vals[-1])


def solve_second_order(
    data: HermitianMatrix,
    x0: PhaseVector | None = None,
    signal: PhaseVector | None = None,
    max_iters: int = MAX_ITERS,
) -> SolverReport:
    """Run the ascent from ``x0``, or from the spectral start when it is
    None, to a first-order point; see the module docstring for the pieces.
    The returned verdict needs ``n >= 2``. An eigensolver failure on the
    certificate is reported in the verdict's ``error``. Non-convergence
    within ``max_iters`` power steps (at least 1) is reported, not raised."""
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
        # A copy of the iterate, C + lam I and the arrays a power step fills
        # in place: y, xbar, y o xbar and r = |y|.
        # Set up once per starting point (the start and the plant).
        v = np.array(v, dtype=np.result_type(cmat, v))
        c = cmat.astype(v.dtype)
        c[np.diag_indices(n)] += shift
        return v, c, *(np.empty_like(v) for _ in range(3)), np.empty(v.shape)

    x, cshift, y, xc, yx, r = work(x0.vec)
    iterations = 0
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
        break

    # Every exit takes certify's verdict on its x. The power loop's arrays go
    # first, so C + lam I is freed before certify forms its own n x n T.
    del cshift, y, xc, yx, r, b, w
    point = PhaseVector(x)
    cert = certify(data, point)

    beat = None
    if signal is not None:
        beat = bool(cost >= cost_z - BEAT_COST_SLACK * n * n)
    if not converged:
        logger.warning("no convergence in %d power steps (grad norm %.3e, tol %.3e)",
                       iterations, gn, tol)
    return SolverReport(
        x=point, cost=cost, grad_norm=gn,
        iterations=iterations, escapes=0,
        planted_cost=cost_z, beat_planted=beat, converged=converged, certificate=cert,
    )
