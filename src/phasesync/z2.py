"""Sign synchronization over {+1, -1}.

The real analogue of the phase problem: recover a sign vector ``z`` from
``C = z z^T + sigma W`` with symmetric Gaussian noise. Here the planted
signal itself is the candidate optimum and its dual certificate has the
closed form

    S = n I - z z^T + sigma (diag(z o (W z)) - W),

so exact recovery by the semidefinite relaxation reduces to one spectral
fact: the relaxation recovers ``z z^T`` exactly, and uniquely, iff ``S`` is
positive semidefinite with rank ``n - 1``. :func:`planted_verdict` builds
the matrices ``certificate.decide`` asks for and lets it decide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import RANK_TOL, CertificateReport, decide
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


def planted_verdict(signal: SignVector, noise: HermitianMatrix, sigma: float) -> CertificateReport:
    """Exact-recovery verdict at the planted signs, from
    ``certificate.decide``.

    With ``tau = RANK_TOL * n``, the matrix ``decide`` is given,
    ``T = S + z z^T - tau I = (n - tau) I + sigma diag(z o W z) - sigma W``,
    is one scaled copy of ``W``, and ``S z`` is evaluated through it. The
    defining identity ``S z = 0`` is asserted on every call (to
    ``1e-10 * n``): it holds for any signs, noise and sigma, not just
    favorable draws. ``W`` must be real float64, and so is ``T``.
    """
    n = signal.n
    if noise.n != n:
        raise ValueError("signal and noise sizes disagree")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    w = noise.mat
    if w.dtype != np.float64:
        raise ValueError(f"noise matrix must be real float64, got {w.dtype}")
    z = signal.vec
    shift = n - RANK_TOL * n
    t = (-sigma) * w
    np.fill_diagonal(t, shift + sigma * (z * (w @ z)))
    e = t @ z - shift * z
    residual = float(np.linalg.norm(e))
    assert residual <= 1e-10 * n, (
        f"certificate does not annihilate the signal: residual {residual:.3e}"
    )
    return decide(z, t, e)[0]
