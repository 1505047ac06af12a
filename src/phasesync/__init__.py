"""Angular synchronization at desk scale: maximum-likelihood phase estimation
by Riemannian ascent, dual-certificate verification that the estimate solves
the semidefinite relaxation, and Monte-Carlo phase-transition experiments."""

from .certificate import CertificateReport, build_certificate, certify
from .hermitian import (EigenResult, EigensolverError, HermitianMatrix,
                        extreme_eigs, operator_norm, quad_form, symmetrize)
from .manifold import (AlignmentError, TangentVector, align_global_phase,
                       hessian_vec, project_tangent, retract, riemannian_grad)
from .metrics import (BoundReport, evaluate_bounds, l2_error, linf_error,
                      sufficient_noise_condition, tightness_threshold)
from .model import (DiscordanceReport, PhaseVector, SyncInstance, TailStats,
                    assemble_instance, is_discordant, noise_tail_stats,
                    philox_stream, random_signal, sample_wigner, trial_seed)
from .solver import SolverOptions, SolverReport, solve_second_order, spectral_init
from .z2 import SignVector, random_signs, real_certificate, sample_real_wigner

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "BoundReport", "CertificateReport", "DiscordanceReport",
    "EigenResult", "EigensolverError", "HermitianMatrix", "PhaseVector",
    "SignVector", "SolverOptions", "SolverReport", "SyncInstance", "TailStats",
    "TangentVector", "align_global_phase", "assemble_instance",
    "build_certificate", "certify", "evaluate_bounds",
    "extreme_eigs", "hessian_vec",
    "is_discordant", "l2_error", "linf_error", "noise_tail_stats",
    "operator_norm", "philox_stream", "project_tangent", "quad_form",
    "random_signal", "random_signs", "real_certificate", "retract",
    "riemannian_grad", "sample_real_wigner", "sample_wigner",
    "solve_second_order", "spectral_init", "sufficient_noise_condition",
    "symmetrize", "tightness_threshold", "trial_seed",
]
