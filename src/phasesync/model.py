"""Synthetic instance generation for phase estimation from pairwise data.

A planted instance is ``C = z z* + sigma W`` with unit diagonal forced, where
``z`` has unit-modulus entries and ``W`` is a Hermitian noise matrix with
standard complex Gaussian off-diagonal entries (real and imaginary parts each
N(0, 1/2)) and zero diagonal.

Randomness policy
-----------------
All sampling runs on the counter-based Philox generator, keyed by the pair
``(seed, stream)``. The stream index says what is being drawn (signal phases,
complex noise, real noise, signs), so one seed feeds several mutually
independent draws and any single draw can be reproduced without replaying the
others. Monte-Carlo drivers derive one seed per trial through
:func:`trial_seed`, which hashes ``(seed_base, trial_index)`` with
``numpy.random.SeedSequence``; trials are therefore independent of scheduling
order and of how many worker processes execute them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hermitian import HermitianMatrix, norm_at_most

SIGNAL_STREAM = 0
WIGNER_STREAM = 1
REAL_WIGNER_STREAM = 2
SIGN_STREAM = 3

# Entrywise tolerance for |x_i| - 1 when validating a phase vector.
UNIT_MODULUS_ATOL = 1e-12

# The constants of the two noise-regularity events the closed-form bounds
# assume: ||W|| <= OPNORM_CONST sqrt(n) and ||W z||_inf <= INF_CONST sqrt(n log n).
OPNORM_CONST = 3.0
INF_CONST = 3.0


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_seed(seed_base: int, trial_index: int) -> int:
    """Per-trial seed derived from a base seed and a trial index."""
    if seed_base < 0 or trial_index < 0:
        raise ValueError("seed_base and trial_index must be nonnegative")
    ss = np.random.SeedSequence([seed_base, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PhaseVector:
    """Vector with unit-modulus entries, a point on the torus. The dtype rule
    is that of :class:`HermitianMatrix`: complex128 for a complex-typed input,
    else float64, so a real sign vector stays real."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=np.complex128 if np.iscomplexobj(self.vec) else np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"expected a nonempty 1-d vector, got shape {v.shape}")
        drift = float(np.max(np.abs(np.abs(v) - 1.0)))
        if not drift <= UNIT_MODULUS_ATOL:
            raise ValueError(f"entries are not unit modulus: max deviation {drift:.3e}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    @property
    def n(self) -> int:
        return self.vec.size


@dataclass(frozen=True)
class SyncInstance:
    """Planted problem: signal ``z``, noise level ``sigma``, noise ``W`` and
    provenance seed.

    The data matrix ``C = z z* + sigma W``, with its diagonal set to exactly
    1, is derived here and nowhere else: it cannot be passed in, so an
    instance whose ``C`` disagrees with its parts cannot exist. Checked at
    construction: ``W`` has the size of ``z`` and an exactly zero diagonal,
    and ``0 <= sigma < inf``.
    """

    z: PhaseVector
    sigma: float
    W: HermitianMatrix
    seed: int
    C: HermitianMatrix = field(init=False)

    def __post_init__(self):
        if self.W.n != self.z.n:
            raise ValueError("signal and noise sizes disagree")
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if np.any(np.diag(self.W.mat) != 0.0):
            raise ValueError("noise matrix must have a zero diagonal")
        c = np.outer(self.z.vec, self.z.vec.conj()) + self.sigma * self.W.mat
        np.fill_diagonal(c, 1.0)
        object.__setattr__(self, "C", HermitianMatrix(c))

    @property
    def n(self) -> int:
        return self.z.n


@dataclass(frozen=True)
class DiscordanceReport:
    """Noise-regularity check. ``opnorm_ok`` is the decision
    ``||W|| <= opnorm_bound`` (the norm itself is never computed; see
    :func:`~phasesync.hermitian.norm_at_most`), ``inf_Wz`` the measured
    ``||W z||_inf`` against ``inf_bound``."""

    opnorm_ok: bool
    opnorm_bound: float
    inf_Wz: float
    inf_bound: float
    discordant: bool


@dataclass(frozen=True)
class TailStats:
    """Monte-Carlo exceedance frequencies for the two noise-norm events,
    with the matching analytic tail bounds."""

    n: int
    trials: int
    opnorm_exceed_freq: float
    opnorm_threshold: float
    opnorm_prob_bound: float
    inf_exceed_freq: float
    inf_threshold: float
    inf_prob_bound: float


def random_signal(n: int, seed: int) -> PhaseVector:
    """Unit-modulus vector with i.i.d. uniform phases."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = philox_stream(seed, SIGNAL_STREAM)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return PhaseVector(np.exp(1j * theta))


def sample_wigner(n: int, seed: int) -> HermitianMatrix:
    """Hermitian noise draw: off-diagonal entries standard complex Gaussian
    (real and imaginary parts N(0, 1/2) each), diagonal exactly zero."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = philox_stream(seed, WIGNER_STREAM)
    m = n * (n - 1) // 2
    upper = rng.normal(0.0, np.sqrt(0.5), size=m) + 1j * rng.normal(0.0, np.sqrt(0.5), size=m)
    return HermitianMatrix.from_upper(upper)


def assemble_instance(signal: PhaseVector, noise: HermitianMatrix, sigma: float, seed: int) -> SyncInstance:
    """The instance with data matrix ``C = z z* + sigma W``, diagonal exactly 1."""
    return SyncInstance(z=signal, sigma=float(sigma), W=noise, seed=seed)


def is_discordant(noise: HermitianMatrix, signal: PhaseVector) -> DiscordanceReport:
    """Check the two noise-regularity events the error bounds are conditioned
    on: ``||W|| <= OPNORM_CONST * sqrt(n)`` and
    ``||W z||_inf <= INF_CONST * sqrt(n log n)`` (natural log).

    The operator-norm event is decided by Cholesky factorizations of
    ``OPNORM_CONST * sqrt(n) * I -/+ W`` (:func:`norm_at_most`), without an
    eigensolve.
    """
    if noise.n != signal.n:
        raise ValueError("noise and signal sizes disagree")
    n = noise.n
    op_bound = OPNORM_CONST * math.sqrt(n)
    opnorm_ok = norm_at_most(noise, op_bound)
    inf_wz = float(np.max(np.abs(noise.mat @ signal.vec)))
    inf_bound = INF_CONST * math.sqrt(n * math.log(n))
    return DiscordanceReport(
        opnorm_ok=opnorm_ok,
        opnorm_bound=op_bound,
        inf_Wz=inf_wz,
        inf_bound=inf_bound,
        discordant=bool(opnorm_ok and inf_wz <= inf_bound),
    )


def noise_tail_stats(n: int, trials: int, seed_base: int) -> TailStats:
    """Empirical exceedance frequencies of the two regularity events over
    independent noise draws, next to the analytic tail bounds
    ``exp(-n/2)`` and ``2 n^(-5/4)``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    op_exceed = 0
    inf_exceed = 0
    for t in range(trials):
        seed = trial_seed(seed_base, t)
        z = random_signal(n, seed)
        w = sample_wigner(n, seed)
        rep = is_discordant(w, z)
        if not rep.opnorm_ok:
            op_exceed += 1
        if rep.inf_Wz > rep.inf_bound:
            inf_exceed += 1
    return TailStats(
        n=n,
        trials=trials,
        opnorm_exceed_freq=op_exceed / trials,
        opnorm_threshold=rep.opnorm_bound,
        opnorm_prob_bound=math.exp(-n / 2.0),
        inf_exceed_freq=inf_exceed / trials,
        inf_threshold=rep.inf_bound,
        inf_prob_bound=2.0 * n ** (-1.25),
    )
