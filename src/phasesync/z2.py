"""Sign synchronization over {+1, -1}.

The real analogue of the phase problem: recover a sign vector ``z`` from
``C = z z^T + sigma W`` with symmetric Gaussian noise. Here the planted
signal itself is the candidate optimum and its dual certificate has the
closed form

    S = n I - z z^T + sigma (diag(z o (W z)) - W),

so exact recovery by the semidefinite relaxation reduces to a single
eigenvalue computation: the relaxation recovers ``z z^T`` exactly iff
``S`` is positive semidefinite, which ``certificate.verdict`` decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def real_certificate(signal: SignVector, noise: HermitianMatrix, sigma: float) -> HermitianMatrix:
    """Closed-form dual certificate at the planted sign vector.

    Off the diagonal ``S = -z z^T - sigma W``; on it
    ``S_ii = n - 1 + sigma z_i (W z)_i``. The defining identity ``S z = 0``
    is asserted on every call (to ``1e-10 * n``): it holds for any signs,
    noise, and sigma, not just favorable draws. ``S`` is real float64; a
    complex-typed noise matrix is accepted when its imaginary parts are all
    zero, and its real part is used.
    """
    if noise.n != signal.n:
        raise ValueError("signal and noise sizes disagree")
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if np.iscomplexobj(noise.mat) and np.any(noise.mat.imag != 0.0):
        raise ValueError("noise matrix must be real")
    n = signal.n
    z = signal.vec
    w = noise.mat.real
    wz = w @ z
    s = -np.outer(z, z) - sigma * w
    np.fill_diagonal(s, n - 1.0 + sigma * (z * wz))
    out = HermitianMatrix(s)
    kernel_residual = float(np.linalg.norm(out.mat @ z))
    assert kernel_residual <= 1e-10 * n, (
        f"certificate does not annihilate the signal: residual {kernel_residual:.3e}"
    )
    return out

