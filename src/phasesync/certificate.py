"""Dual certificate for the unit-diagonal semidefinite relaxation.

At a first-order critical point ``x`` of the torus-constrained quadratic
objective, the Hermitian matrix ``S = Re diag(C x xbar) - C`` satisfies
``S x = 0`` and ``S + C`` diagonal by construction. If ``S`` is also positive
semidefinite, ``x x*`` solves the relaxation ``max tr(C X)`` over unit
diagonal PSD matrices, so the estimator is globally optimal (tight). If in
addition the second smallest eigenvalue is strictly positive, ``S`` has rank
``n - 1`` and ``x x*`` is the unique solution. :func:`verdict` makes that
test for any certificate; in the real case, ``z2.planted_verdict`` proves it
by a factorization first and calls :func:`verdict` only when that fails.
"""

from __future__ import annotations

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


def certify(data: HermitianMatrix, point: PhaseVector) -> CertificateReport:
    """Build the certificate at ``point`` and test tightness and uniqueness."""
    return verdict(build_certificate(data, point), point.vec)
