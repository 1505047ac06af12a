"""Dense Hermitian matrices and the spectral primitives built on them.

A matrix keeps the number field of its input: real input is stored as a
real-symmetric float64 array and complex input as a complex128 array, so the
real sign problem runs real arithmetic and real LAPACK end to end while the
complex phase problem is unchanged.

Everything downstream (instance assembly, certificates, solver shifts) goes
through this module for eigenvalue work, so the accuracy contract lives here:
every eigenvalue comes from one dense, backward-stable LAPACK solve at every
n and passes a gate before it is returned, so callers never have to trust
the backend blindly: :func:`extreme_eigs` checks the residual of each
eigenpair, and the values-only :func:`smallest_eigvals` (all a verdict
reads) checks that the spectrum reproduces the trace and Frobenius norm.
Where a question is only whether a matrix is positive definite, a Cholesky
factorization answers it with a proof and no eigensolve (Rump 2006,
"Verification of positive definiteness"): :func:`norm_at_most` decides a
spectral-norm bound with two of them, and ``certificate.proved_verdict``
proves a trial's certificate verdict with one, real or complex, falling back
to :func:`smallest_eigvals` only when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Gate on each eigenpair residual of :func:`extreme_eigs` and on the trace and
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
    aliased. An exactly Hermitian input, such as a sampled noise matrix or a
    closed-form certificate, is its own average, so it is copied without the
    averaging pass. Inputs with a NaN or infinite entry, and
    inputs whose asymmetry exceeds ``HERMITIAN_ATOL`` (relative to the
    largest entry magnitude), are rejected; route asymmetric input through
    :func:`symmetrize` instead.
    """

    mat: np.ndarray

    def __post_init__(self):
        m, peak = _square_array(self.mat)
        scale = max(1.0, peak)
        asym = float(np.max(np.abs(m - m.conj().T)))
        if asym > HERMITIAN_ATOL * scale:
            raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e}")
        h = m.copy() if asym == 0.0 else (m + m.conj().T) / 2.0
        np.fill_diagonal(h, np.diag(h).real)
        h.setflags(write=False)
        object.__setattr__(self, "mat", h)

    @property
    def n(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class EigenResult:
    """Extreme eigenpairs of a Hermitian matrix.

    ``values`` are sorted ascending, ``vectors`` holds matching unit-norm
    columns, and ``residuals[j] = ||H v_j - values[j] v_j||_2``. Residuals are
    checked at construction time by :func:`extreme_eigs` against
    ``EIG_RESIDUAL_TOL * n * max(1, ||H||_F)``; a decomposition worse than
    that raises instead of returning.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        for name in ("values", "vectors", "residuals"):
            arr = np.asarray(getattr(self, name))
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _square_array(mat) -> tuple[np.ndarray, float]:
    # The one dtype rule: complex128 for complex-typed input, else float64.
    # Returns the array and its largest entry magnitude, checked finite before
    # any arithmetic on the entries: halving a complex inf raises an "invalid
    # value" warning, and a NaN pair would pass the asymmetry test.
    m = np.asarray(mat, dtype=np.complex128 if np.iscomplexobj(mat) else np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    peak = float(np.max(np.abs(m)))
    if not np.isfinite(peak):
        raise ValueError("matrix has a NaN or infinite entry")
    return m, peak


def symmetrize(mat) -> HermitianMatrix:
    """Average a square matrix with its conjugate transpose; the dtype rule
    and the rejection of NaN and infinite entries are those of
    :class:`HermitianMatrix`."""
    m, _ = _square_array(mat)
    return HermitianMatrix((m + m.conj().T) / 2.0)


def extreme_eigs(h: HermitianMatrix, k_small: int, k_large: int) -> EigenResult:
    """Smallest ``k_small`` and largest ``k_large`` eigenpairs of ``h``.

    Always one dense ``numpy.linalg.eigh``, at every n (a caller that reads
    no vector asks :func:`smallest_eigvals`). LAPACK's Hermitian eigensolver
    is backward stable: its values are exact for a matrix within
    a small multiple of ``eps ||H||`` of ``h``, which is what a verdict
    compared with the certificate's ``-1e-14 n`` floor needs. An iterative
    solver's Ritz value is only known to within its residual, and the
    residual gate below admits up to ``1e-9 n ||H||_F``, far above that floor.
    Values come back ascending: the small block first, then the large block.
    Vectors have the dtype of ``h.mat``: real for a real-symmetric matrix.

    Raises
    ------
    ValueError
        If the counts are negative or exceed ``n``.
    EigensolverError
        If LAPACK fails to converge, or a residual exceeds
        ``EIG_RESIDUAL_TOL * n * max(1, ||H||_F)``.
    """
    n = h.n
    if k_small < 0 or k_large < 0:
        raise ValueError("eigenpair counts must be nonnegative")
    k = k_small + k_large
    if k > n:
        raise ValueError(f"requested {k} eigenpairs from a {n} x {n} matrix")
    if k == 0:
        empty_v = np.zeros((n, 0), dtype=h.mat.dtype)
        return EigenResult(np.zeros(0), empty_v, np.zeros(0))

    try:
        vals, vecs = np.linalg.eigh(h.mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigendecomposition failed: {exc}") from exc
    idx = list(range(k_small)) + list(range(n - k_large, n))
    vals = vals[idx]
    vecs = vecs[:, idx]

    residuals = np.linalg.norm(h.mat @ vecs - vecs * vals[np.newaxis, :], axis=0)
    allowed = EIG_RESIDUAL_TOL * n * max(1.0, float(np.linalg.norm(h.mat)))
    worst = float(residuals.max())
    if worst > allowed:
        raise EigensolverError(
            f"eigenpair residual {worst:.3e} exceeds the allowed {allowed:.3e}"
        )
    return EigenResult(vals, vecs, residuals)


def smallest_eigvals(h: HermitianMatrix, k: int) -> np.ndarray:
    """Smallest ``k`` eigenvalues of ``h``, ascending, from one dense
    ``numpy.linalg.eigvalsh``: the backward-stable LAPACK reduction of
    :func:`extreme_eigs` without the eigenvector work. With no vector there
    is no residual, so the whole spectrum is gated instead: its sum and its
    2-norm must reproduce ``tr H`` and ``||H||_F`` within the residual gate's
    ``EIG_RESIDUAL_TOL * n * max(1, ||H||_F)`` (a NaN fails both). Raises
    ValueError for ``k`` outside ``0..n``, and EigensolverError if LAPACK
    fails to converge or the spectrum misses the gate."""
    n = h.n
    if not 0 <= k <= n:
        raise ValueError(f"requested {k} eigenvalues from a {n} x {n} matrix")
    try:
        vals = np.linalg.eigvalsh(h.mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigenvalue solve failed: {exc}") from exc
    fro = float(np.linalg.norm(h.mat))
    allowed = EIG_RESIDUAL_TOL * n * max(1.0, fro)
    trace_err = abs(float(vals.sum()) - float(np.trace(h.mat).real))
    fro_err = abs(float(np.linalg.norm(vals)) - fro)
    if not (trace_err <= allowed and fro_err <= allowed):
        raise EigensolverError(f"spectrum misses tr H by {trace_err:.3e} or ||H||_F by "
                               f"{fro_err:.3e}, over the allowed {allowed:.3e}")
    return vals[:k]


def norm_at_most(h: HermitianMatrix, bound: float) -> bool:
    """Whether the spectral norm ``||H||`` is at most ``bound``.

    ``||H|| <= bound`` exactly when ``bound I - H`` and ``bound I + H`` are
    both positive semidefinite, so two Cholesky factorizations decide it
    without an eigensolve (Rump 2006, "Verification of positive
    definiteness"). A factorization succeeds only on a positive definite
    matrix, and its backward error is of order ``n eps ||H||``, the same as
    that of the eigenvalues a dense eigensolver would compare; the two
    answers can differ only when ``||H||`` equals ``bound`` to within
    rounding (a zero ``H`` against a zero ``bound`` reads false).
    """
    diag = np.diag_indices(h.n)
    for sign in (-1.0, 1.0):
        shifted = sign * h.mat
        shifted[diag] += bound
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return False
    return True


def quad_form(h: HermitianMatrix, vec) -> float:
    """Real quadratic form v* H v.

    The imaginary part of the raw complex product is pure rounding noise for
    a Hermitian H; a diagnostic assert keeps it below
    1e-10 * ||H||_F * max(1, ||v||^2).
    """
    v = np.asarray(vec, dtype=np.complex128)
    if v.shape != (h.n,):
        raise ValueError(f"vector shape {v.shape} does not match matrix size {h.n}")
    q = complex(np.vdot(v, h.mat @ v))
    norm_sq = float(np.vdot(v, v).real)
    assert abs(q.imag) <= 1e-10 * max(1.0, float(np.linalg.norm(h.mat))) * max(1.0, norm_sq), (
        f"quadratic form has non-negligible imaginary part {q.imag:.3e}"
    )
    return q.real
