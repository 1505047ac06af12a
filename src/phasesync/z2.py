"""Sign synchronization over {+1, -1}.

The real analogue of the phase problem: recover a sign vector ``z`` from
``C = z z^T + sigma W`` with symmetric Gaussian noise. Here the planted
signal itself is the candidate optimum and its dual certificate has the
closed form

    S = n I - z z^T + sigma (diag(z o (W z)) - W),

so exact recovery by the semidefinite relaxation reduces to one spectral
fact: the relaxation recovers ``z z^T`` exactly, and uniquely, iff ``S`` is
positive semidefinite with rank ``n - 1``. :func:`planted_verdict` decides it
with one Cholesky factorization, and runs the eigenvalue verdict
``certificate.verdict`` (one ``eigvalsh`` of ``S``) only when the
factorization fails or is bound to fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import RANK_TOL, CertificateReport, proved_verdict, verdict
from .hermitian import HermitianMatrix
from .model import REAL_WIGNER_STREAM, SIGN_STREAM, philox_stream


@dataclass(frozen=True)
class SignVector:
    """Real vector with entries exactly +1 or -1."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"expected a nonempty 1-d vector, got shape {v.shape}")
        if not np.all((v == 1.0) | (v == -1.0)):
            raise ValueError("entries must be exactly +1 or -1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @property
    def n(self) -> int:
        return self.vec.size


def random_signs(n: int, seed: int) -> SignVector:
    """Uniform i.i.d. sign vector."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = philox_stream(seed, SIGN_STREAM)
    return SignVector(2.0 * rng.integers(0, 2, size=n).astype(np.float64) - 1.0)


def sample_real_wigner(n: int, seed: int) -> HermitianMatrix:
    """Symmetric noise draw with N(0, 1) off-diagonal entries and zero
    diagonal, stored as a real float64 matrix."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = philox_stream(seed, REAL_WIGNER_STREAM)
    iu = np.triu_indices(n, k=1)
    w = np.zeros((n, n), dtype=np.float64)
    w[iu] = rng.normal(0.0, 1.0, size=n * (n - 1) // 2)
    w = w + w.T
    return HermitianMatrix(w)


def _real_noise(signal: SignVector, noise: HermitianMatrix, sigma: float) -> np.ndarray:
    # The checks both certificate forms make; returns W.
    if noise.n != signal.n:
        raise ValueError("signal and noise sizes disagree")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if noise.mat.dtype != np.float64:
        raise ValueError(f"noise matrix must be real float64, got {noise.mat.dtype}")
    return noise.mat


def _assert_kernel(residual: float, n: int) -> None:
    assert residual <= 1e-10 * n, (
        f"certificate does not annihilate the signal: residual {residual:.3e}"
    )


def real_certificate(signal: SignVector, noise: HermitianMatrix, sigma: float) -> HermitianMatrix:
    """Closed-form dual certificate at the planted sign vector.

    Off the diagonal ``S = -z z^T - sigma W``; on it
    ``S_ii = n - 1 + sigma z_i (W z)_i``. The defining identity ``S z = 0``
    is asserted on every call (to ``1e-10 * n``): it holds for any signs,
    noise, and sigma, not just favorable draws. ``W`` must be real float64,
    and so is ``S``.
    """
    w = _real_noise(signal, noise, sigma)
    n = signal.n
    z = signal.vec
    wz = w @ z
    s = -np.outer(z, z) - sigma * w
    np.fill_diagonal(s, n - 1.0 + sigma * (z * wz))
    out = HermitianMatrix(s)
    _assert_kernel(float(np.linalg.norm(out.mat @ z)), n)
    return out


def planted_verdict(signal: SignVector, noise: HermitianMatrix, sigma: float) -> CertificateReport:
    """Exact-recovery verdict at the planted signs: the certificate
    verdict on :func:`real_certificate`, proved by
    ``certificate.proved_verdict`` where it can be.

    With ``tau = RANK_TOL * n``, the matrix the proof factorizes,
    ``T = S + z z^T - tau I = (n - tau) I + sigma diag(z o W z) - sigma W``,
    is one scaled copy of ``W``, and ``S z`` is evaluated through it. It is
    built only when its diagonal is positive. When the proof fails the
    report is exactly ``verdict(real_certificate(...), z)``, from one
    ``eigvalsh`` of ``S``. Validation and the kernel assert are those of
    :func:`real_certificate`.
    """
    w = _real_noise(signal, noise, sigma)
    n = signal.n
    z = signal.vec
    tau = RANK_TOL * n
    diag = (n - tau) + sigma * (z * (w @ z))

    def assemble():
        t = (-sigma) * w
        np.fill_diagonal(t, diag)
        e = t @ z - (n - tau) * z
        _assert_kernel(float(np.linalg.norm(e)), n)
        return t, e

    report = proved_verdict(z, diag, assemble)
    if report is not None:
        return report
    return verdict(real_certificate(signal, noise, sigma), z)
