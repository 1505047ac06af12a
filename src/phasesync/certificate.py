"""Dual certificate for the unit-diagonal semidefinite relaxation.

At a first-order critical point ``x`` of the torus-constrained quadratic
objective, the Hermitian matrix ``S = Re diag(C x xbar) - C`` satisfies
``S x = 0`` and ``S + C`` diagonal by construction. If ``S`` is also positive
semidefinite, ``x x*`` solves the relaxation ``max tr(C X)`` over unit
diagonal PSD matrices, so the estimator is globally optimal (tight). If in
addition the second smallest eigenvalue is strictly positive, ``S`` has rank
``n - 1`` and ``x x*`` is the unique solution.

:func:`verdict` makes that test for any certificate from its eigenvalues,
and :func:`certify`, the public entry point, runs it on a stored estimate.
Every trial's verdict comes from :func:`decide` instead: one Cholesky
factorization that proves tightness and uniqueness without an eigensolve,
and :func:`verdict` only when the proof fails. The solver calls it at its
own estimate, and ``z2.planted_verdict`` at the planted signs of the real
case.
"""

from __future__ import annotations

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
    A report proved by :func:`decide` carries bounds instead of
    eigenvalues: ``min_eig`` is a lower bound on the smallest and
    ``second_eig`` the floor ``RANK_TOL * n`` under the second.
    """

    residual: float
    min_eig: float
    second_eig: float
    diag_min: float
    tight: bool
    unique: bool
    error: str | None = None


def build_certificate(data: HermitianMatrix, point: PhaseVector) -> HermitianMatrix:
    """Assemble ``S = Re diag(C x xbar) - C`` without forming ``x x*``:
    off the diagonal ``S = -C``, and ``S_ii = Re((C x)_i xbar_i) - C_ii``."""
    if data.n != point.n:
        raise ValueError("matrix and point sizes disagree")
    x = point.vec
    w = data.mat @ x
    s = -data.mat
    np.fill_diagonal(s, (w * x.conj()).real - np.diag(data.mat).real)
    return HermitianMatrix(s)


def verdict(s: HermitianMatrix, residual: float) -> CertificateReport:
    """Test tightness and uniqueness of a certificate ``s`` whose residual
    ``||S x||`` at its candidate ``x`` is ``residual``, against the fixed
    gates ``RESIDUAL_TOL``, ``PSD_TOL`` and ``RANK_TOL`` (see
    :class:`CertificateReport`). They read eigenvalues only, from one
    values-only solve (:func:`smallest_eigvals`). Eigensolver failure is
    reported in-band via ``error`` with both flags false."""
    n = s.n
    diag_min = float(np.min(np.diag(s.mat).real))
    try:
        min_eig, second_eig = (float(v) for v in smallest_eigvals(s, 2))
    except EigensolverError as exc:
        return CertificateReport(
            residual=residual, min_eig=float("nan"), second_eig=float("nan"),
            diag_min=diag_min, tight=False, unique=False, error=str(exc),
        )
    tight = bool(residual <= RESIDUAL_TOL * n and min_eig >= PSD_TOL * n)
    unique = bool(tight and second_eig >= RANK_TOL * n)
    return CertificateReport(
        residual=residual, min_eig=min_eig, second_eig=second_eig,
        diag_min=diag_min, tight=tight, unique=unique,
    )


def decide(x: np.ndarray, t: np.ndarray, e: np.ndarray
           ) -> tuple[CertificateReport, HermitianMatrix | None]:
    """The verdict on the certificate ``S`` at the unit-modulus candidate
    ``x``, and ``S`` itself unless a proof decided it.

    ``t`` is ``T = S + x x* - tau I`` (``tau = RANK_TOL * n``), writable, with
    a real diagonal, and ``e`` is ``S x``. When every diagonal entry of ``T``
    is positive and ``||e||`` clears ``RESIDUAL_TOL * n``, ``T - c I`` is
    factorized with the rounding charge ``c`` of :func:`cholesky_charge`.
    Success proves ``T`` positive definite (Rump 2006), and interlacing under
    the rank-one update gives ``lambda_2(S) >= lambda_1(S + x x*) > tau``.
    The Kato-Temple inequality at ``x / sqrt(n)``, with Rayleigh quotient
    ``rho = x* e / n`` (below ``tau`` by the residual gate) and residual
    ``r^2 = ||e - rho x||^2 / n``, bounds
    ``lambda_1(S) >= rho - r^2 / (tau - rho)``. If that bound clears
    ``PSD_TOL * n`` the point is proved tight and unique: the report carries
    the bound as ``min_eig``, ``tau`` as ``second_eig`` and
    ``min(diag T) + tau - 1``, the smallest diagonal entry of ``S`` to
    rounding, as ``diag_min``. Otherwise ``S = T - x x* + tau I`` is formed
    in ``t``'s own buffer and :func:`verdict` decides on its eigenvalues,
    with the residual ``||e||``.
    """
    n = x.size
    tau = RANK_TOL * n
    diag = np.diagonal(t).real.copy()
    residual = float(np.linalg.norm(e))
    if np.min(diag) > 0.0 and residual <= RESIDUAL_TOL * n:
        np.fill_diagonal(t, diag - cholesky_charge(n, float(np.sum(diag))))
        try:
            np.linalg.cholesky(t)
        except np.linalg.LinAlgError:
            pass
        else:
            rho = float(np.vdot(x, e).real) / n
            min_eig = rho - float(np.sum(np.abs(e - rho * x) ** 2)) / n / (tau - rho)
            if min_eig >= PSD_TOL * n:
                return CertificateReport(
                    residual=residual, min_eig=min_eig, second_eig=tau,
                    diag_min=float(np.min(diag)) + tau - 1.0, tight=True, unique=True,
                ), None
    t -= np.outer(x, x.conj())
    np.fill_diagonal(t, diag - (x * x.conj()).real + tau)
    s = HermitianMatrix(t)
    return verdict(s, residual), s


def certify(data: HermitianMatrix, point: PhaseVector) -> CertificateReport:
    """Build the certificate at ``point`` and test tightness and uniqueness."""
    s = build_certificate(data, point)
    return verdict(s, float(np.linalg.norm(s.mat @ point.vec)))
