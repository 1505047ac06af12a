"""Dense Hermitian matrices and the spectral primitives built on them.

A matrix keeps the number field of its input: real input is stored as a
real-symmetric float64 array and complex input as a complex128 array, so the
real sign problem runs real arithmetic and real LAPACK end to end.

Every eigenvalue the package reads comes from here: one dense,
backward-stable LAPACK solve at every n, gated before it is returned.
:func:`extreme_eigs` checks the residual of its eigenpair, and the
values-only :func:`smallest_eigvals` (all ``certificate.decide`` reads when
no cheaper certificate decides) checks that the spectrum reproduces the
trace and Frobenius norm. Whether a matrix is positive definite is decided
by a Cholesky factorization instead, a proof with no eigensolve (Rump 2006,
"Verification of positive definiteness"): :func:`norm_at_most` here, and
``certificate.decide``, each charged with its own rounding
(:func:`cholesky_charge`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Gate on the eigenpair residual of :func:`extreme_eigs` and on the trace and
# Frobenius errors of :func:`smallest_eigvals`, relative to ``n * max(1, ||H||_F)``.
EIG_RESIDUAL_TOL = 1e-9

# Acceptance tolerance for treating an input matrix as Hermitian, relative to
# its largest entry.
HERMITIAN_ATOL = 1e-12


class EigensolverError(RuntimeError):
    """An eigensolver failed to converge or missed its accuracy target."""


@dataclass(frozen=True)
class HermitianMatrix:
    """Immutable dense Hermitian matrix with an exactly real diagonal.

    The dtype follows the input: a complex-typed input is stored as
    complex128, any other as float64 (real symmetric). Construction averages
    the input with its conjugate transpose, forces the diagonal real, and
    marks a private copy read-only; the caller's array is never frozen or
    aliased. An exactly Hermitian input is copied without the averaging
    pass; :meth:`from_upper` skips even the copy. Inputs with a NaN or
    infinite entry, and inputs whose asymmetry exceeds ``HERMITIAN_ATOL``
    (relative to the largest entry magnitude), are rejected.
    """

    mat: np.ndarray

    def __post_init__(self):
        # The largest entry magnitude is checked finite before any arithmetic
        # on the entries: halving a complex inf raises an "invalid value"
        # warning, and a NaN pair would pass the asymmetry test.
        m = np.asarray(self.mat, np.complex128 if np.iscomplexobj(self.mat) else np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
        peak = float(np.max(np.abs(m)))
        if not np.isfinite(peak):
            raise ValueError("matrix has a NaN or infinite entry")
        scale = max(1.0, peak)
        asym = float(np.max(np.abs(m - m.conj().T)))
        if asym > HERMITIAN_ATOL * scale:
            raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e}")
        h = m.copy() if asym == 0.0 else (m + m.conj().T) / 2.0
        np.fill_diagonal(h, np.diag(h).real)
        h.setflags(write=False)
        object.__setattr__(self, "mat", h)

    @classmethod
    def from_upper(cls, upper: np.ndarray) -> HermitianMatrix:
        """The matrix with a zero diagonal and ``upper`` as its strict upper
        triangle, row by row: Hermitian by construction, so it is checked only
        for finite entries, and neither averaged nor copied."""
        u = np.asarray(upper, np.complex128 if np.iscomplexobj(upper) else np.float64)
        if not np.isfinite(u).all():
            raise ValueError("matrix has a NaN or infinite entry")
        n = (1 + math.isqrt(1 + 8 * u.size)) // 2
        w = np.zeros((n, n), u.dtype)
        mask = ~np.tri(n, dtype=bool)
        w[mask] = u
        w.T[mask] = u.conj()
        w.setflags(write=False)
        h = object.__new__(cls)
        object.__setattr__(h, "mat", w)
        return h

    @property
    def n(self) -> int:
        return self.mat.shape[0]


def extreme_eigs(h: HermitianMatrix, index: int) -> tuple[float, np.ndarray]:
    """The eigenpair at ``index`` (0, the smallest, or -1, the largest) of the
    ascending spectrum of ``h``.

    One dense ``numpy.linalg.eigh`` (a caller that reads no vector asks
    :func:`smallest_eigvals`). In the package only the solver's spectral
    start calls it, when its inverse-iteration vector fails the residual gate
    below. LAPACK's Hermitian eigensolver is backward stable: its values are
    exact for a matrix within a small multiple of ``eps ||H||`` of ``h``. The
    vector is unit-norm with the dtype of ``h.mat``: real for a
    real-symmetric matrix.
    Raises EigensolverError if LAPACK fails to converge, or the residual
    ``||H v - lam v||`` exceeds ``EIG_RESIDUAL_TOL * n * max(1, ||H||_F)``.
    """
    try:
        vals, vecs = np.linalg.eigh(h.mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigendecomposition failed: {exc}") from exc
    value, vec = float(vals[index]), vecs[:, index]
    residual = float(np.linalg.norm(h.mat @ vec - value * vec))
    allowed = EIG_RESIDUAL_TOL * h.n * max(1.0, float(np.linalg.norm(h.mat)))
    if residual > allowed:
        raise EigensolverError(
            f"eigenpair residual {residual:.3e} exceeds the allowed {allowed:.3e}"
        )
    return value, vec


def smallest_eigvals(mat: np.ndarray, k: int) -> np.ndarray:
    """Smallest ``k`` eigenvalues of the Hermitian array ``mat``, ascending,
    from one dense ``numpy.linalg.eigvalsh`` of its lower triangle, with no
    copy and no symmetry check: the backward-stable LAPACK reduction of
    :func:`extreme_eigs` without the eigenvector work. With no vector there
    is no residual, so the whole spectrum is gated instead: its sum and its
    2-norm must reproduce ``tr H`` and ``||H||_F`` within the residual gate's
    ``EIG_RESIDUAL_TOL * n * max(1, ||H||_F)`` (a NaN fails both). Raises
    ValueError for ``k`` outside ``0..n``, and EigensolverError if
    ``||H||_F`` overflows (before any solve: no spectrum could meet that
    gate), if LAPACK fails to converge or if the spectrum misses the gate."""
    n = mat.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"requested {k} eigenvalues from a {n} x {n} matrix")
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(mat))
    if not math.isfinite(fro):
        raise EigensolverError(f"||H||_F overflows to {fro}")
    try:
        vals = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigenvalue solve failed: {exc}") from exc
    allowed = EIG_RESIDUAL_TOL * n * max(1.0, fro)
    trace_err = abs(float(vals.sum()) - float(np.trace(mat).real))
    fro_err = abs(float(np.linalg.norm(vals)) - fro)
    if not (trace_err <= allowed and fro_err <= allowed):
        raise EigensolverError(f"spectrum misses tr H by {trace_err:.3e} or ||H||_F by "
                               f"{fro_err:.3e}, over the allowed {allowed:.3e}")
    return vals[:k]


def cholesky_charge(n: int, trace: float) -> float:
    """The shift ``c`` that makes a Cholesky factorization a proof: if the
    floating-point factorization of ``A - c I`` succeeds, with
    ``c = gamma_{n+1} / (1 - gamma_{n+1}) tr A`` and
    ``gamma_k = k u / (1 - k u)`` for the unit roundoff ``u``, the ``n x n``
    matrix ``A`` is positive definite (Demmel 1989, "On floating point errors
    in Cholesky"; Rump 2006, "Verification of positive definiteness").
    Without the shift, a factorization can succeed on a matrix whose
    smallest eigenvalue is within rounding of 0 or below it."""
    u = np.finfo(float).eps / 2.0
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    return gamma / (1.0 - gamma) * trace


def norm_at_most(h: HermitianMatrix, bound: float) -> bool:
    """Whether the spectral norm ``||H||`` is provably at most ``bound``.

    ``||H|| <= bound`` exactly when ``bound I - H`` and ``bound I + H`` are
    both positive semidefinite, so two Cholesky factorizations decide it
    without an eigensolve. Each factorizes the matrix less its rounding
    charge (:func:`cholesky_charge` of its trace), so success proves it
    positive definite. A false answer can therefore come only from an
    ``||H||`` within that charge, of order ``n eps ||H||``, of ``bound``
    (a zero ``H`` against a zero ``bound`` reads false).
    """
    n = h.n
    diag = np.diag_indices(n)
    for sign in (-1.0, 1.0):
        shifted = sign * h.mat
        shifted[diag] += bound
        shifted[diag] -= cholesky_charge(n, float(np.trace(shifted).real))
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
    return True
