"""Angular synchronization at desk scale: maximum-likelihood phase estimation
by Riemannian ascent, dual-certificate verification that the estimate solves
the semidefinite relaxation, and Monte-Carlo phase-transition experiments."""

from .certificate import CertificateReport, certify
from .hermitian import EigensolverError, HermitianMatrix, extreme_eigs
from .metrics import (BoundReport, evaluate_bounds, sufficient_noise_condition,
                      tightness_threshold)
from .model import (DiscordanceReport, PhaseVector, SyncInstance, TailStats,
                    assemble_instance, is_discordant, noise_tail_stats,
                    philox_stream, random_signal, sample_wigner, trial_seed)
from .solver import SolverReport, solve_second_order
from .z2 import SignVector, random_signs, sample_real_wigner

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CertificateReport", "DiscordanceReport",
    "EigensolverError", "HermitianMatrix", "PhaseVector", "SignVector",
    "SolverReport", "SyncInstance", "TailStats",
    "assemble_instance", "certify", "evaluate_bounds",
    "extreme_eigs", "is_discordant", "noise_tail_stats",
    "philox_stream", "random_signal", "random_signs",
    "sample_real_wigner", "sample_wigner", "solve_second_order",
    "sufficient_noise_condition", "tightness_threshold", "trial_seed",
]
