"""Estimation-error metrics and the closed-form bound checks.

The flags compare a measured error against its analytic bound with a small
additive arithmetic slack. The slack exists because the measured side is
itself a floating-point quantity: at sigma = 0 the true l2 error is zero but
the computed correlation |z* x| carries summation noise of order
n * sqrt(n) * eps, which the strict comparison "0 <= 0" would misread as a
bound violation. The slacks are far below any error the bounds could
meaningfully miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import matvec, quad_form
from .manifold import align_global_phase
from .model import PhaseVector, SyncInstance, is_discordant

# Additive arithmetic slack for the flag comparisons (see module docstring).
L2_FLAG_SLACK = 1e-6
LINF_FLAG_SLACK = 1e-6

# Cost slack for "matched or beat the planted signal", scaled by n^2 (the
# magnitude of the cost itself).
BEAT_COST_SLACK = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """Measured errors next to their closed-form bounds.

    ``lemma2_bound`` is the aligned l2 bound ``12 sigma``; ``lemma3_bound``
    the entrywise bound ``6 (sqrt(log n) + 29 sigma) sigma / sqrt(n)``;
    ``wx_bound`` the noise-at-estimate bound
    ``36 sigma sqrt(n) + 3 sqrt(n log n)``. Each ``*_ok`` flag records
    measured <= bound (plus arithmetic slack). ``binding`` says whether the
    bounds are actually in force for this trial: they are conditional on a
    discordant noise draw and on the estimate matching or beating the planted
    cost, so on a non-binding trial a false flag is not a defect.
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
    binding: bool


def l2_error(point: PhaseVector, signal: PhaseVector) -> float:
    """Phase-aligned l2 distance, computed as sqrt(2 (n - |z* x|)).

    The radicand is clamped at zero: it can go negative by rounding when the
    two vectors coincide.
    """
    if point.n != signal.n:
        raise ValueError("point and signal sizes disagree")
    corr = abs(complex(np.vdot(signal.vec, point.vec)))
    return math.sqrt(max(0.0, 2.0 * (point.n - corr)))


def linf_error(point: PhaseVector, signal: PhaseVector) -> float:
    """Entrywise maximum error after optimal global phase alignment."""
    aligned = align_global_phase(point, signal)
    return float(np.max(np.abs(aligned.vec - signal.vec)))


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


def evaluate_bounds(
    instance: SyncInstance,
    point: PhaseVector,
    discordant: bool | None = None,
    beat_planted: bool | None = None,
) -> BoundReport:
    """Measure the errors of ``point`` against the planted signal and test
    every closed-form bound. ``discordant`` can be passed in when the caller
    already ran the noise-regularity check, and ``beat_planted`` when it
    already compared the cost of ``point`` with the planted cost (within
    ``BEAT_COST_SLACK * n^2``); None recomputes either."""
    if point.n != instance.n:
        raise ValueError("point size does not match instance")
    n = instance.n
    sigma = instance.sigma
    z = instance.z

    corr = abs(complex(np.vdot(z.vec, point.vec)))
    l2 = l2_error(point, z)
    if corr == 0.0:
        # Orthogonal estimate: no alignment exists, report the diameter.
        linf = 2.0
    else:
        linf = linf_error(point, z)

    lemma2_bound = 12.0 * sigma
    lemma3_bound = 6.0 * (math.sqrt(math.log(n)) + 29.0 * sigma) * sigma / math.sqrt(n)
    wx_inf = float(np.max(np.abs(matvec(instance.W, point.vec))))
    wx_bound = 36.0 * sigma * math.sqrt(n) + 3.0 * math.sqrt(n * math.log(n))

    if discordant is None:
        discordant = is_discordant(instance.W, z).discordant
    if beat_planted is None:
        cost_x = quad_form(instance.C, point.vec)
        cost_z = quad_form(instance.C, z.vec)
        beat_planted = cost_x >= cost_z - BEAT_COST_SLACK * n * n

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
        binding=bool(discordant and beat_planted),
    )
