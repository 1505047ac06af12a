"""Dual certificate for the unit-diagonal semidefinite relaxation.

At a first-order critical point ``x`` of the torus-constrained quadratic
objective, the Hermitian matrix ``S = Re diag(C x xbar) - C`` satisfies
``S x = 0`` and ``S + C`` diagonal by construction. If ``S`` is also positive
semidefinite, ``x x*`` solves the relaxation ``max tr(C X)`` over unit
diagonal PSD matrices, so the estimator is globally optimal (tight). If in
addition the second smallest eigenvalue is strictly positive, ``S`` has rank
``n - 1`` and ``x x*`` is the unique solution.

:func:`verdict` makes that test for any certificate from its eigenvalues,
and :func:`certify`, the public entry point, runs it. The trial paths try
:func:`proved_verdict` first: one Cholesky factorization that proves
tightness and uniqueness without an eigensolve, with :func:`verdict` run
only when the proof fails. ``z2.planted_verdict`` does so at the planted
signs of the real case, and the solver at its own estimate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .hermitian import EigensolverError, HermitianMatrix, smallest_eigvals
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
    A report from :func:`proved_verdict` carries bounds instead of
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


def verdict(s: HermitianMatrix, kernel: np.ndarray) -> CertificateReport:
    """Test tightness and uniqueness of a certificate ``s`` built at the
    candidate ``kernel``, which ``s`` should annihilate, against the fixed
    gates ``RESIDUAL_TOL``, ``PSD_TOL`` and ``RANK_TOL`` (see
    :class:`CertificateReport`). They read eigenvalues only, from one
    values-only solve (:func:`smallest_eigvals`). Eigensolver failure is
    reported in-band via ``error`` with both flags false."""
    n = s.n
    residual = float(np.linalg.norm(s.mat @ kernel))
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


def proved_verdict(kernel: np.ndarray, diag: np.ndarray,
                   assemble: Callable[[], tuple[np.ndarray, np.ndarray]]
                   ) -> CertificateReport | None:
    """Tight-and-unique verdict on the certificate ``S`` at the unit-modulus
    candidate ``kernel`` (``x``), proved by one Cholesky factorization, or
    None when the proof fails.

    With ``tau = RANK_TOL * n``, let ``T = S + x x* - tau I``; ``diag`` is its
    diagonal, and ``assemble()`` returns ``T`` itself with ``e = S x``. A
    diagonal entry at or below 0 shows that ``T`` is not positive definite,
    so nothing is assembled then. If ``T`` factorizes, it is positive
    definite (Rump 2006, "Verification of positive definiteness"), and
    interlacing under the rank-one update gives
    ``lambda_2(S) >= lambda_1(S + x x*) > tau``. The Kato-Temple inequality at
    the unit vector ``x / sqrt(n)``, with Rayleigh quotient ``rho = x* e / n``
    and residual ``r^2 = ||e - rho x||^2 / n``, then bounds
    ``lambda_1(S) >= rho - r^2 / (tau - rho)``. The proof holds when the
    residual ``||e||`` clears ``RESIDUAL_TOL * n`` (which keeps ``rho`` below
    ``tau``), the factorization succeeds and that bound clears
    ``PSD_TOL * n``. The report then carries the bound as ``min_eig`` and
    the proved floor ``tau`` as ``second_eig``, not the eigenvalues
    themselves, and ``diag_min`` is ``min(diag) + tau - 1``, the smallest
    diagonal entry of ``S`` to rounding. A failed proof decides nothing:
    the caller runs :func:`verdict`.
    """
    n = kernel.size
    tau = RANK_TOL * n
    if not np.min(diag) > 0.0:
        return None
    t, e = assemble()
    residual = float(np.linalg.norm(e))
    if residual > RESIDUAL_TOL * n:
        return None
    try:
        np.linalg.cholesky(t)
    except np.linalg.LinAlgError:
        return None
    # |rho| <= ||e|| / sqrt(n) <= RESIDUAL_TOL sqrt(n) < tau, as Kato-Temple
    # requires.
    rho = float(np.vdot(kernel, e).real) / n
    min_eig = rho - float(np.sum(np.abs(e - rho * kernel) ** 2)) / n / (tau - rho)
    if min_eig < PSD_TOL * n:
        return None
    return CertificateReport(
        residual=residual, min_eig=min_eig, second_eig=tau,
        diag_min=float(np.min(diag)) + tau - 1.0, tight=True, unique=True,
    )


def certify(data: HermitianMatrix, point: PhaseVector) -> CertificateReport:
    """Build the certificate at ``point`` and test tightness and uniqueness."""
    return verdict(build_certificate(data, point), point.vec)
