"""Geometry of the product of unit circles embedded in C^n.

The metric is the real part of the ambient complex inner product. A tangent
vector at ``x`` has zero radial component in every coordinate:
``Re(v_i * conj(x_i)) = 0``. Retraction is entrywise renormalization of
``x + t v``, which agrees with the exponential map to second order.

The objective this geometry serves is ``g(x) = -x* C x``, minimized over the
torus; its gradient and Hessian-vector product are expressed through the
matrix ``S(x) = Re diag(C x xbar) - C`` that doubles as the dual certificate
at critical points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HermitianMatrix
from .model import PhaseVector

# Entrywise tolerance for the radial component of a tangent vector, applied
# relative to max(1, |dir_i|).
TANGENT_ATOL = 1e-10


class AlignmentError(ValueError):
    """Global phase alignment is undefined: the two vectors are orthogonal."""


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a torus point: base point plus a direction whose
    entrywise radial components vanish."""

    base: PhaseVector
    dir: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dir, dtype=np.complex128)
        if d.shape != (self.base.n,):
            raise ValueError(f"direction shape {d.shape} does not match base size {self.base.n}")
        radial = np.abs((d * self.base.vec.conj()).real)
        allowed = TANGENT_ATOL * np.maximum(1.0, np.abs(d))
        if np.any(radial > allowed):
            raise ValueError(f"direction is not tangent: max radial part {radial.max():.3e}")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "dir", d)

    @property
    def n(self) -> int:
        return self.base.n

    def norm(self) -> float:
        return float(np.linalg.norm(self.dir))


def real_inner(u, v) -> float:
    """Riemannian inner product: Re(u* v) on ambient representatives."""
    return float(np.vdot(np.asarray(u), np.asarray(v)).real)


def project_tangent(point: PhaseVector, vec) -> TangentVector:
    """Orthogonal projection onto the tangent space at ``point``:
    subtract from each entry its radial component ``Re(v_i xbar_i) x_i``."""
    v = np.asarray(vec, dtype=np.complex128)
    if v.shape != (point.n,):
        raise ValueError(f"vector shape {v.shape} does not match point size {point.n}")
    x = point.vec
    d = v - (v * x.conj()).real * x
    return TangentVector(point, d)


def retract(point: PhaseVector, tangent: TangentVector, step: float) -> PhaseVector:
    """Entrywise renormalization of ``x + step * dir``.

    Second-order accurate: the gap to the straight line ``x + step * dir``
    shrinks like ``step**2``. Raises if any entry of the perturbed point has
    modulus below 1e-14 (cannot happen for a genuinely tangent direction,
    where ``|x_i + t v_i|^2 = 1 + t^2 |v_i|^2``).
    """
    if tangent.base is not point and not np.array_equal(tangent.base.vec, point.vec):
        raise ValueError("tangent vector is based at a different point")
    if step == 0.0:
        return point
    y = point.vec + step * tangent.dir
    a = np.abs(y)
    if np.any(a < 1e-14):
        raise ValueError("retraction hit a degenerate (near-zero) entry")
    return PhaseVector(y / a)


def riemannian_grad(data: HermitianMatrix, point: PhaseVector) -> TangentVector:
    """Riemannian gradient of ``g(x) = -x* C x`` at ``point``: the tangent
    projection of the ambient gradient ``-2 C x``, which equals the closed
    form ``2 (Re diag(C x xbar) - C) x``."""
    if data.n != point.n:
        raise ValueError("matrix and point sizes disagree")
    return project_tangent(point, -2.0 * (data.mat @ point.vec))


def hessian_vec(data: HermitianMatrix, point: PhaseVector, tangent: TangentVector) -> TangentVector:
    """Riemannian Hessian of ``g(x) = -x* C x`` applied to a tangent vector:
    ``Proj_x(2 S v)`` with ``S = Re diag(C x xbar) - C``."""
    if data.n != point.n:
        raise ValueError("matrix and point sizes disagree")
    if tangent.base is not point and not np.array_equal(tangent.base.vec, point.vec):
        raise ValueError("tangent vector is based at a different point")
    x = point.vec
    d = tangent.dir
    r = ((data.mat @ x) * x.conj()).real
    s_times_d = r * d - data.mat @ d
    return project_tangent(point, 2.0 * s_times_d)


def align_global_phase(point: PhaseVector, reference: PhaseVector) -> PhaseVector:
    """Rotate ``point`` by the global phase that makes ``reference* point``
    real and nonnegative. Raises :class:`AlignmentError` when the two are
    exactly orthogonal, in which case no preferred phase exists."""
    if point.n != reference.n:
        raise ValueError("point and reference sizes disagree")
    corr = complex(np.vdot(reference.vec, point.vec))
    if corr == 0:
        raise AlignmentError("vectors are orthogonal, global phase is undefined")
    return PhaseVector(point.vec * np.exp(-1j * np.angle(corr)))
