"""Angular synchronization at desk scale: maximum-likelihood phase estimation
by Riemannian ascent, dual-certificate verification that the estimate solves
the semidefinite relaxation, and Monte-Carlo phase-transition experiments."""

from .certificate import CertificateReport, build_certificate, certify
from .hermitian import EigensolverError, HermitianMatrix, extreme_eigs
from .manifold import AlignmentError, TangentVector, align_global_phase, retract
from .metrics import (BoundReport, evaluate_bounds, l2_error, linf_error,
                      sufficient_noise_condition, tightness_threshold)
from .model import (DiscordanceReport, PhaseVector, SyncInstance, TailStats,
                    assemble_instance, is_discordant, noise_tail_stats,
                    philox_stream, random_signal, sample_wigner, trial_seed)
from .solver import SolverOptions, SolverReport, solve_second_order
from .z2 import SignVector, random_signs, real_certificate, sample_real_wigner

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "BoundReport", "CertificateReport", "DiscordanceReport",
    "EigensolverError", "HermitianMatrix", "PhaseVector",
    "SignVector", "SolverOptions", "SolverReport", "SyncInstance", "TailStats",
    "TangentVector", "align_global_phase", "assemble_instance",
    "build_certificate", "certify", "evaluate_bounds", "extreme_eigs",
    "is_discordant", "l2_error", "linf_error", "noise_tail_stats",
    "philox_stream", "random_signal", "random_signs", "real_certificate", "retract",
    "sample_real_wigner", "sample_wigner",
    "solve_second_order", "sufficient_noise_condition",
    "tightness_threshold", "trial_seed",
]
