"""Independent reference implementations used as test oracles.

Deliberately slow and simple: the Jacobi eigensolver touches none of the
LAPACK drivers the package routes through, the quadratic form is a plain
double loop, and the phase-distance scan brute-forces the global phase.
Values computed here are trusted because the algorithms are short enough to
audit by eye, not because they are fast. :func:`operator_norm` is the one
exception: a dense solve through the package, kept here because only tests
read a spectral norm (the package decides its norm bound by factorization).
The torus derivatives of ``g(x) = -x* C x`` (:func:`riemannian_grad`,
:func:`hessian_vec`, through :func:`project_tangent`) are written as
projections of ambient derivatives, independently of the certificate form
the solver evaluates. Tangent vectors are plain ambient arrays; :func:`retract`
moves along them, and :func:`tangent_hessian` is the Hessian in the real
coordinates of a tangent vector, read off the certificate.
:func:`real_certificate` is the closed form of the real certificate at the
planted signs, and :func:`build_certificate` the complex one at any point,
each built entry by entry rather than from the matrix the package's verdict
starts from. :func:`eigenvalue_verdict` holds the gates of
``certificate.decide``'s eigenvalue fallback on a certificate array, and
:func:`certify_by_eigvalsh` applies them to that complex certificate on every
row, where the package's proofs and refutations report bounds on the
eigenvalues. :func:`aligned` removes the global phase that no comparison of
two points on the torus can see.
"""

from __future__ import annotations

import numpy as np

from phasesync.certificate import PSD_TOL, RANK_TOL, RESIDUAL_TOL, CertificateReport
from phasesync.hermitian import HermitianMatrix, smallest_eigvals
from phasesync.model import PhaseVector


def jacobi_eigvalsh(mat: np.ndarray, sweeps: int = 100, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Each (p, q) rotation first rephases the pivot entry to be real, then
    applies the classical symmetric Jacobi angle. Converges quadratically;
    for the small matrices used in tests the result is accurate to machine
    precision. Returns eigenvalues sorted ascending.
    """
    a = np.array(mat, dtype=np.complex128)
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(sweeps):
        off = np.abs(a - np.diag(np.diag(a))).max() if n > 1 else 0.0
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale / n:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                alpha = np.angle(apq)
                if app == aqq:
                    phi = np.pi / 4.0
                else:
                    phi = 0.5 * np.arctan2(2.0 * abs(apq), app - aqq)
                c = np.cos(phi)
                s = np.sin(phi)
                r = np.eye(n, dtype=np.complex128)
                r[p, p] = c * np.exp(1j * alpha)
                r[p, q] = -s * np.exp(1j * alpha)
                r[q, p] = s
                r[q, q] = c
                a = r.conj().T @ a @ r
    vals = np.sort(np.diag(a).real)
    return vals


def operator_norm(h: HermitianMatrix) -> float:
    """Spectral norm, i.e. the largest eigenvalue magnitude, from the two
    extreme eigenvalues of one dense values-only solve."""
    vals = smallest_eigvals(h.mat, h.n)
    return float(max(abs(vals[0]), abs(vals[-1])))


def real_inner(u, v) -> float:
    """Riemannian inner product of the torus: Re(u* v) on ambient vectors."""
    return float(np.vdot(np.asarray(u), np.asarray(v)).real)


def quad_form(h: HermitianMatrix, vec) -> float:
    """Real quadratic form v* H v.

    The imaginary part of the raw complex product is pure rounding noise for
    a Hermitian H; a diagnostic assert keeps it below
    1e-10 * ||H||_F * max(1, ||v||^2).
    """
    v = np.asarray(vec, dtype=np.complex128)
    if v.shape != (h.n,):
        raise ValueError(f"vector shape {v.shape} does not match matrix size {h.n}")
    q = complex(np.vdot(v, h.mat @ v))
    norm_sq = float(np.vdot(v, v).real)
    assert abs(q.imag) <= 1e-10 * max(1.0, float(np.linalg.norm(h.mat))) * max(1.0, norm_sq), (
        f"quadratic form has non-negligible imaginary part {q.imag:.3e}"
    )
    return q.real


def project_tangent(point: PhaseVector, vec) -> np.ndarray:
    """Orthogonal projection onto the tangent space at ``point``:
    subtract from each entry its radial component ``Re(v_i xbar_i) x_i``."""
    v = np.asarray(vec, dtype=np.complex128)
    if v.shape != (point.n,):
        raise ValueError(f"vector shape {v.shape} does not match point size {point.n}")
    x = point.vec
    return v - (v * x.conj()).real * x


def retract(x: np.ndarray, d: np.ndarray, step: float) -> PhaseVector:
    """Entrywise renormalization of ``x + step d``, which agrees with the
    exponential map of the torus to second order. For a tangent
    ``d = i x o theta``, ``|x_i + step d_i|^2 = 1 + step^2 theta_i^2``, so no
    entry vanishes."""
    y = x + step * d
    return PhaseVector(y / np.abs(y))


def tangent_hessian(x: np.ndarray, s: HermitianMatrix) -> HermitianMatrix:
    """``H = Re(diag(xbar) S diag(x))`` for the certificate ``s`` at ``x``:
    the Hessian of ``-x* C x`` at ``x`` along ``i x o theta`` is
    ``i x o (2 H theta)``, so its quadratic form there is
    ``2 theta^T H theta`` (Boumal 2016, "Nonconvex phase synchronization")."""
    return HermitianMatrix((x.conj()[:, None] * s.mat * x[None, :]).real)


def riemannian_grad(data: HermitianMatrix, point: PhaseVector) -> np.ndarray:
    """Riemannian gradient of ``g(x) = -x* C x`` at ``point``: the tangent
    projection of the ambient gradient ``-2 C x``."""
    if data.n != point.n:
        raise ValueError("matrix and point sizes disagree")
    return project_tangent(point, -2.0 * (data.mat @ point.vec))


def hessian_vec(data: HermitianMatrix, point: PhaseVector, d) -> np.ndarray:
    """Riemannian Hessian of ``g(x) = -x* C x`` applied to a tangent vector
    ``d`` at ``point``: ``Proj_x(2 S d)`` with ``S = Re diag(C x xbar) - C``."""
    if data.n != point.n:
        raise ValueError("matrix and point sizes disagree")
    x = point.vec
    r = ((data.mat @ x) * x.conj()).real
    return project_tangent(point, 2.0 * (r * d - data.mat @ d))


def quad_form_loops(mat: np.ndarray, vec: np.ndarray) -> complex:
    """v* M v by explicit summation."""
    total = 0.0 + 0.0j
    n = vec.size
    for i in range(n):
        for j in range(n):
            total += np.conj(vec[i]) * mat[i, j] * vec[j]
    return total


def min_phase_distance(x: np.ndarray, z: np.ndarray, k: int = 20000) -> float:
    """min over theta of ||x e^{i theta} - z||_2, by grid scan."""
    thetas = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    best = np.inf
    for t in thetas:
        d = np.linalg.norm(x * np.exp(1j * t) - z)
        if d < best:
            best = d
    return float(best)


def power_opnorm(mat: np.ndarray, iters: int = 4000, seed: int = 0) -> float:
    """Spectral norm of a Hermitian matrix by power iteration on M^2
    (squaring makes the dominant magnitude unique up to sign)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 991], dtype=np.uint64)))
    n = mat.shape[0]
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    m2 = mat @ mat
    lam = 0.0
    for _ in range(iters):
        w = m2 @ v
        lam = float(np.vdot(v, w).real)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(max(lam, 0.0)))


def power_iterates(mat: np.ndarray, x: np.ndarray, shift: float, steps: int):
    """Projected power steps x <- phase((M + shift I) x), with ``M + shift I``
    formed once and entries of the product below 1e-14 in modulus left at
    their previous phase, and the gradient norm ``2 ||Im(y o conj(x))||``
    (``y = (M + shift I) x``) of the final iterate, reduced as ``2 sqrt(b.b)``."""
    m = mat.copy()
    np.fill_diagonal(m, np.diagonal(mat) + shift)
    for _ in range(steps):
        y = m @ x
        a = np.abs(y)
        safe = a > 1e-14
        x = np.where(safe, y / np.where(safe, a, 1.0), x)
    b = ((m @ x) * x.conj()).imag
    return x, 2.0 * float(np.sqrt(b.dot(b)))


def real_certificate(signal: PhaseVector, noise: HermitianMatrix, sigma: float) -> HermitianMatrix:
    """Closed-form dual certificate at the planted sign vector.

    Off the diagonal ``S = -z z^T - sigma W``; on it
    ``S_ii = n - 1 + sigma z_i (W z)_i``. The defining identity ``S z = 0``
    is asserted on every call (to ``1e-10 * n``): it holds for any signs,
    noise, and sigma, not just favorable draws. ``W`` must be real float64,
    and so is ``S``; the noise and sigma checks are those of
    ``z2.planted_verdict``.
    """
    if noise.n != signal.n:
        raise ValueError("signal and noise sizes disagree")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if noise.mat.dtype != np.float64:
        raise ValueError(f"noise matrix must be real float64, got {noise.mat.dtype}")
    w = noise.mat
    n = signal.n
    z = signal.vec
    wz = w @ z
    s = -np.outer(z, z) - sigma * w
    np.fill_diagonal(s, n - 1.0 + sigma * (z * wz))
    out = HermitianMatrix(s)
    residual = float(np.linalg.norm(out.mat @ z))
    assert residual <= 1e-10 * n, (
        f"certificate does not annihilate the signal: residual {residual:.3e}"
    )
    return out


def build_certificate(data: HermitianMatrix, point: PhaseVector) -> HermitianMatrix:
    """Assemble ``S = Re diag(C x xbar) - C`` without forming ``x x*``:
    off the diagonal ``S = -C``, and ``S_ii = Re((C x)_i xbar_i) - C_ii``."""
    if data.n != point.n:
        raise ValueError("matrix and point sizes disagree")
    x = point.vec
    w = data.mat @ x
    s = -data.mat
    np.fill_diagonal(s, (w * x.conj()).real - np.diag(data.mat).real)
    return HermitianMatrix(s)


def eigenvalue_verdict(s: np.ndarray, residual: float) -> CertificateReport:
    """The gates of ``certificate.decide``'s eigenvalue fallback on the
    certificate array ``s`` whose residual ``||S x||`` is ``residual``: the
    two smallest eigenvalues of ``s``, from the package's gated values-only
    solve of that same array, whatever its diagonal."""
    n = s.shape[0]
    min_eig, second_eig = (float(v) for v in smallest_eigvals(s, 2))
    tight = bool(residual <= RESIDUAL_TOL * n and min_eig >= PSD_TOL * n)
    return CertificateReport(residual, min_eig, second_eig, float(np.min(np.diag(s).real)),
                             tight=tight, unique=bool(tight and second_eig >= RANK_TOL * n))


def verdict_at(s: np.ndarray, x) -> CertificateReport:
    """:func:`eigenvalue_verdict` on the certificate array ``s`` with the
    residual ``||S x||``."""
    return eigenvalue_verdict(s, float(np.linalg.norm(s @ np.asarray(x))))


def certify_by_eigvalsh(data: HermitianMatrix, point: PhaseVector) -> CertificateReport:
    """The eigenvalue verdict on the certificate of ``data`` at ``point``,
    built by :func:`build_certificate`: the flags of ``certificate.certify``,
    with the eigenvalues of ``S`` where ``certify`` may report bounds."""
    return verdict_at(build_certificate(data, point).mat, point.vec)


def aligned(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``x`` rotated by the global phase that makes ``z* x`` real and
    nonnegative (``x`` itself when the two are orthogonal)."""
    return x * np.exp(-1j * np.angle(np.vdot(z, x)))
