"""Independent reference implementations used as test oracles.

Deliberately slow and simple: the Jacobi eigensolver touches none of the
LAPACK drivers the package routes through, the quadratic form is a plain
double loop, and the phase-distance scan brute-forces the global phase.
Values computed here are trusted because the algorithms are short enough to
audit by eye, not because they are fast.
"""

from __future__ import annotations

import numpy as np


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


def real_inner(u, v) -> float:
    """Riemannian inner product of the torus: Re(u* v) on ambient vectors."""
    return float(np.vdot(np.asarray(u), np.asarray(v)).real)


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
