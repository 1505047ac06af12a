"""Estimation errors and the closed-form bound checks, in one pass.

The errors of ``x`` against the planted ``z`` are taken up to a global
phase, from ``c = z* x``: the l2 error is ``sqrt(2 (n - |c|))``, and the
entrywise one is that of ``x exp(-i angle c)``, or the diameter 2 for an
orthogonal ``x`` (``c = 0``), which has no preferred phase.

The flags compare a measured error against its analytic bound with a small
additive arithmetic slack. The slack exists because the measured side is
itself a floating-point quantity: at sigma = 0 the true l2 error is zero but
the computed correlation |z* x| carries summation noise of order
n * sqrt(n) * eps, which the strict comparison "0 <= 0" would misread as a
bound violation. The slacks are far below any error the bounds could
meaningfully miss.

The bounds are conditional: they are in force on a trial whose noise draw is
discordant and whose estimate matches or beats the planted cost, the
``discordant`` and ``beat_planted`` columns every trial record carries. On a
trial where either is false, a false flag is not a defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .hermitian import HermitianMatrix
from .model import PhaseVector

# Additive arithmetic slack for the flag comparisons (see module docstring).
L2_FLAG_SLACK = 1e-6
LINF_FLAG_SLACK = 1e-6


@dataclass(frozen=True)
class BoundReport:
    """Measured errors next to their closed-form bounds.

    ``lemma2_bound`` is the aligned l2 bound ``12 sigma``; ``lemma3_bound``
    the entrywise bound ``6 (sqrt(log n) + 29 sigma) sigma / sqrt(n)``;
    ``wx_bound`` the noise-at-estimate bound
    ``12 OPNORM_CONST sigma sqrt(n) + INF_CONST sqrt(n log n)``, from the
    two noise events of ``model.is_discordant`` (36 and 3 with the paper's
    constants). Each ``*_ok`` flag records
    measured <= bound (plus arithmetic slack). The flags bind only on a trial
    that is ``discordant and beat_planted`` (see the module docstring).
    ``suff_cond_ok`` and ``thm_threshold_ok`` are the two noise-level
    conditions under which tightness is guaranteed (the sharp inequality and
    the simpler n^(1/4)-scale threshold).
    """

    l2_err: float
    linf_err: float
    correlation: float
    lemma2_bound: float
    lemma3_bound: float
    wx_inf: float
    wx_bound: float
    lemma2_ok: bool
    lemma3_ok: bool
    wx_ok: bool
    suff_cond_ok: bool
    thm_threshold_ok: bool


def sufficient_noise_condition(n: int, sigma: float) -> bool:
    """Sharp closed-form condition on (n, sigma) under which a discordant
    noise draw forces the certificate to be positive definite:
    sqrt(n) > 3 sigma (72 sigma / sqrt(n) + 1 + 12 sigma + sqrt(log n))."""
    rn = math.sqrt(n)
    return rn > 3.0 * sigma * (72.0 * sigma / rn + 1.0 + 12.0 * sigma + math.sqrt(math.log(n)))


def tightness_threshold(n: int) -> float:
    """Simpler noise threshold implying the sufficient condition:
    sigma up to n^(1/4) / 18."""
    return n ** 0.25 / 18.0


def evaluate_bounds(signal: PhaseVector, noise: HermitianMatrix, sigma: float,
                    point: PhaseVector) -> BoundReport:
    """Measure the errors of ``point`` against the planted ``signal`` and test
    every closed-form bound of the instance ``signal``, ``noise``, ``sigma``
    (the arguments of :func:`~phasesync.model.assemble_instance`)."""
    if point.n != signal.n or noise.n != signal.n:
        raise ValueError("point, signal and noise sizes disagree")
    n, x, z = signal.n, point.vec, signal.vec

    c = complex(np.vdot(z, x))
    corr = abs(c)
    # The radicand can go negative by rounding when x and z coincide.
    l2 = math.sqrt(max(0.0, 2.0 * (n - corr)))
    linf = float(np.max(np.abs(x * np.exp(-1j * np.angle(c)) - z))) if c != 0 else 2.0

    lemma2_bound = 12.0 * sigma
    lemma3_bound = 6.0 * (math.sqrt(math.log(n)) + 29.0 * sigma) * sigma / math.sqrt(n)
    wx_inf = float(np.max(np.abs(noise.mat @ x)))
    wx_bound = (12.0 * model.OPNORM_CONST * sigma * math.sqrt(n)
                + model.INF_CONST * math.sqrt(n * math.log(n)))

    return BoundReport(
        l2_err=l2,
        linf_err=linf,
        correlation=corr,
        lemma2_bound=lemma2_bound,
        lemma3_bound=lemma3_bound,
        wx_inf=wx_inf,
        wx_bound=wx_bound,
        lemma2_ok=bool(l2 <= lemma2_bound + L2_FLAG_SLACK * math.sqrt(n)),
        lemma3_ok=bool(linf <= lemma3_bound + LINF_FLAG_SLACK),
        wx_ok=bool(wx_inf <= wx_bound + LINF_FLAG_SLACK),
        suff_cond_ok=sufficient_noise_condition(n, sigma),
        thm_threshold_ok=bool(sigma <= tightness_threshold(n)),
    )
