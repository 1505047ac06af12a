"""Sign synchronization over {+1, -1}.

The real analogue of the phase problem: recover a sign vector ``z`` from
``C = z z^T + sigma W`` with symmetric Gaussian noise; the signs are a
float64 :class:`~phasesync.model.PhaseVector`. Here the planted
signal itself is the candidate optimum and its dual certificate has the
closed form

    S = n I - z z^T + sigma (diag(z o (W z)) - W),

so exact recovery by the semidefinite relaxation reduces to one spectral
fact: the relaxation recovers ``z z^T`` exactly, and uniquely, iff ``S`` is
positive semidefinite with rank ``n - 1``. :func:`planted_verdict` builds
the matrices ``certificate.decide`` asks for and lets it decide.
"""

from __future__ import annotations

import numpy as np

from .certificate import RANK_TOL, CertificateReport, decide
from .hermitian import HermitianMatrix
from .model import REAL_WIGNER_STREAM, SIGN_STREAM, PhaseVector, philox_stream


def random_signs(n: int, seed: int) -> PhaseVector:
    """Uniform i.i.d. sign vector, as a float64 :class:`PhaseVector`."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = philox_stream(seed, SIGN_STREAM)
    return PhaseVector(2.0 * rng.integers(0, 2, size=n).astype(np.float64) - 1.0)


def sample_real_wigner(n: int, seed: int) -> HermitianMatrix:
    """Symmetric noise draw with N(0, 1) off-diagonal entries and zero
    diagonal, stored as a real float64 matrix."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = philox_stream(seed, REAL_WIGNER_STREAM)
    return HermitianMatrix.from_upper(rng.normal(0.0, 1.0, size=n * (n - 1) // 2))


def planted_verdict(signal: PhaseVector, noise: HermitianMatrix, sigma: float) -> CertificateReport:
    """Exact-recovery verdict at the planted signs, from
    ``certificate.decide``.

    With ``tau = RANK_TOL * n``, the matrix ``decide`` is given,
    ``T = S + z z^T - tau I = (n - tau) I + sigma diag(z o W z) - sigma W``,
    is one scaled copy of ``W``, and ``S z`` is evaluated through it. The
    defining identity ``S z = 0`` is asserted on every call (to
    ``1e-10 * n``): it holds for any signs, noise and sigma, not just
    favorable draws. ``W`` must be real float64, and so is ``T``. So must
    ``z``, with entries exactly +1 or -1: the closed form needs ``z_i^2 = 1``.
    """
    z = signal.vec
    if z.dtype != np.float64 or not np.all(np.abs(z) == 1.0):
        raise ValueError("signal must be float64 with entries exactly +1 or -1")
    n = signal.n
    if noise.n != n:
        raise ValueError("signal and noise sizes disagree")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    w = noise.mat
    if w.dtype != np.float64:
        raise ValueError(f"noise matrix must be real float64, got {w.dtype}")
    shift = n - RANK_TOL * n
    t = (-sigma) * w
    np.fill_diagonal(t, shift + sigma * (z * (w @ z)))
    e = t @ z - shift * z
    residual = float(np.linalg.norm(e))
    assert residual <= 1e-10 * n, (
        f"certificate does not annihilate the signal: residual {residual:.3e}"
    )
    return decide(z, t, e)
