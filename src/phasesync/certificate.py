"""Dual certificate for the unit-diagonal semidefinite relaxation.

At a first-order critical point ``x`` of the torus-constrained quadratic
objective, the Hermitian matrix ``S = Re diag(C x xbar) - C`` satisfies
``S x = 0`` and ``S + C`` diagonal by construction. If ``S`` is also positive
semidefinite, ``x x*`` solves the relaxation ``max tr(C X)`` over unit
diagonal PSD matrices, so the estimator is globally optimal (tight). If in
addition the second smallest eigenvalue is strictly positive, ``S`` has rank
``n - 1`` and ``x x*`` is the unique solution.

Every verdict comes from :func:`decide`, from the cheapest certificate: a
diagonal entry of ``S`` below the floor refutes tightness, one Cholesky
factorization proves tightness and uniqueness, and only when neither holds
do the two smallest eigenvalues of ``S`` decide, from one values-only solve.
:func:`certify`, the public entry point, assembles what :func:`decide` asks
for from ``C`` and ``x``. The solver calls it at the point it returns, so a
stored estimate certifies to the bits of the report of the solve that found
it; ``z2.planted_verdict`` assembles the real certificate at the planted
signs from ``W`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import EigensolverError, HermitianMatrix, cholesky_charge, smallest_eigvals
from .model import PhaseVector

# Certificate gates, each scaled by n; see :class:`CertificateReport`.
RESIDUAL_TOL = 1e-9
PSD_TOL = -1e-14
RANK_TOL = 1e-8


@dataclass(frozen=True)
class CertificateReport:
    """Spectral verdict on a candidate optimum.

    ``tight`` means the certificate residual ``||S x||`` is below
    ``RESIDUAL_TOL * n`` and the smallest eigenvalue clears ``PSD_TOL * n``
    (a slightly negative floor that absorbs eigensolver rounding).
    ``unique`` additionally requires the second eigenvalue to clear
    ``RANK_TOL * n``, certifying rank ``n - 1``. ``diag_min`` is the smallest
    diagonal entry of ``S``, a cheap necessary sanity value: at any
    second-order critical point it should not be substantially negative.
    ``error`` carries an eigensolver failure note; both flags are false then.
    Only a report that :func:`decide` took from the spectrum of ``S`` carries
    its eigenvalues. A proved one carries lower bounds: ``min_eig`` under the
    smallest and ``RANK_TOL * n`` under the second. A refuted one carries
    upper bounds on both, the eigenvalues of a 2 x 2 submatrix of ``S``.
    """

    residual: float
    min_eig: float
    second_eig: float
    diag_min: float
    tight: bool
    unique: bool
    error: str | None = None


def decide(x: np.ndarray, t: np.ndarray, e: np.ndarray) -> CertificateReport:
    """The verdict on the certificate ``S`` at the unit-modulus candidate
    ``x``.

    ``t`` is ``T = S + x x* - tau I`` (``tau = RANK_TOL * n``), writable, with
    a real diagonal, and ``e`` is ``S x``. The cheapest certificate decides.
    Refuted: the smallest diagonal entry ``d_i`` of ``S`` plus its charge,
    ``cholesky_charge(n + 1, sum_j |T_ij| + n + 2)`` for the rounding of a
    row sum of ``T`` or of ``C = x x* - T``, is below ``PSD_TOL * n``.
    Neither flag holds, ``t`` is left as it was, and ``min_eig`` and
    ``second_eig`` are the eigenvalues of the principal submatrix of ``S`` on
    ``i`` and the next smallest entry: upper bounds, by Cauchy interlacing.
    Proved: the diagonal of ``T`` is positive, ``||e||`` clears
    ``RESIDUAL_TOL * n``, and ``T - c I`` factorizes, with the charge ``c``
    of :func:`cholesky_charge`. So ``T`` is positive definite (Rump 2006),
    and interlacing under the rank-one update gives
    ``lambda_2(S) >= lambda_1(S + x x*) > tau``. The Kato-Temple inequality
    at ``x / sqrt(n)``, with ``rho = x* e / n`` (below ``tau`` by the
    residual gate) and ``r^2 = ||e - rho x||^2 / n``, bounds
    ``lambda_1(S) >= rho - r^2 / (tau - rho)``; if that clears
    ``PSD_TOL * n``, both flags hold, with the bound as ``min_eig`` and
    ``tau`` as ``second_eig``. Otherwise ``S = T - x x* + tau I`` is formed
    in the buffer of ``t``, and its two smallest eigenvalues, from one gated
    values-only solve (:func:`~phasesync.hermitian.smallest_eigvals`), face
    the gates of :class:`CertificateReport` with the residual ``||e||``. An
    eigensolver failure is reported in-band, in ``error``, with both flags
    false. ``diag_min`` is ``d_i`` throughout.
    """
    n = x.size
    tau = RANK_TOL * n
    diag = np.diagonal(t).real.copy()
    residual = float(np.linalg.norm(e))
    d = diag - (x * x.conj()).real + tau
    i, floor = np.argmin(d), PSD_TOL * n
    # Only a negative entry pays for its charge: other rows allocate nothing.
    if d[i] < floor and d[i] + cholesky_charge(n + 1, np.sum(np.abs(t[i])) + n + 2.0) < floor:
        i, j = np.argpartition(d, 1)[:2]
        mid = (d[i] + d[j]) / 2.0
        rad = math.hypot((d[i] - d[j]) / 2.0, abs(t[i, j] - x[i] * np.conj(x[j])))
        return CertificateReport(residual, float(mid - rad), float(mid + rad), float(d[i]),
                                 tight=False, unique=False)
    if np.min(diag) > 0.0 and residual <= RESIDUAL_TOL * n:
        np.fill_diagonal(t, diag - cholesky_charge(n, float(np.sum(diag))))
        try:
            np.linalg.cholesky(t)
        except np.linalg.LinAlgError:
            pass
        else:
            rho = float(np.vdot(x, e).real) / n
            min_eig = rho - float(np.sum(np.abs(e - rho * x) ** 2)) / n / (tau - rho)
            if min_eig >= floor:
                return CertificateReport(residual, min_eig, tau, float(d[i]),
                                         tight=True, unique=True)
    # The diagonal of S is d, whatever the proof attempt left on that of T.
    t -= np.outer(x, x.conj())
    np.fill_diagonal(t, d)
    try:
        min_eig, second_eig = (float(v) for v in smallest_eigvals(t, 2))
    except EigensolverError as exc:
        return CertificateReport(residual, math.nan, math.nan, float(d[i]),
                                 tight=False, unique=False, error=str(exc))
    tight = bool(residual <= RESIDUAL_TOL * n and min_eig >= floor)
    return CertificateReport(residual, min_eig, second_eig, float(d[i]),
                             tight=tight, unique=bool(tight and second_eig >= tau))


def certify(data: HermitianMatrix, point: PhaseVector) -> CertificateReport:
    """The verdict of :func:`decide` on the certificate of ``C = data`` at
    ``x = point``. With ``w = C x`` and ``a = Re(w o xbar)``, it is given
    ``T = x x* - C`` with the diagonal ``a - Re diag(C) + |x|^2 - tau`` and
    the half gradient ``e = S x = a o x - w``. The solver calls this at the
    point it returns, so a stored estimate gets its solve's report bit for
    bit."""
    if data.n != point.n:
        raise ValueError("matrix and point sizes disagree")
    n, c, x = data.n, data.mat, point.vec
    w = c @ x
    xc = x.conj()
    a = (w * xc).real
    t = np.outer(x, xc)
    t -= c
    np.fill_diagonal(t, a - np.diagonal(c).real + (x.real * x.real + x.imag * x.imag)
                     - RANK_TOL * n)
    return decide(x, t, a * x - w)
