"""Exhaustive reference optimizers, for validating the iterative solver.

These deliberately share no code with the solver module: the complex oracle
scans a full phase grid (first coordinate pinned to 1, since the objective is
invariant under a global phase) and then polishes the best grid point with a
plain projected-gradient ascent and backtracking line search. The real oracle
enumerates all sign vectors outright. Both are exponential in n and refuse
sizes where that stops being a desk-scale computation.
"""

from __future__ import annotations

import numpy as np

from phasesync.hermitian import HermitianMatrix
from phasesync.z2 import SignVector

MAX_COMPLEX_N = 6
MAX_REAL_N = 20

# Default grid resolution per free coordinate, chosen so the scan stays near
# a million candidate points.
_DEFAULT_K = {2: 512, 3: 256, 4: 64, 5: 20, 6: 12}

_CHUNK = 1 << 16


def _batched_quad(cmat: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # x* C x for every row of pts, evaluated in bounded-memory chunks.
    out = np.empty(pts.shape[0], dtype=np.float64)
    for lo in range(0, pts.shape[0], _CHUNK):
        blk = pts[lo:lo + _CHUNK]
        out[lo:lo + _CHUNK] = np.einsum("mi,ij,mj->m", blk.conj(), cmat, blk).real
    return out


def _polish(cmat: np.ndarray, x: np.ndarray, grad_tol: float, max_iters: int = 50000) -> np.ndarray:
    # Projected-gradient ascent on f(x) = x* C x with entrywise
    # renormalization and Armijo backtracking.
    n = x.size
    tol = grad_tol * n
    for _ in range(max_iters):
        w = cmat @ x
        d = 2.0 * w - 2.0 * (w * x.conj()).real * x
        dn = np.linalg.norm(d)
        if dn <= tol:
            break
        f0 = float(np.vdot(x, w).real)
        step = 1.0 / max(1.0, dn)
        for _ in range(80):
            y = x + step * d
            y = y / np.abs(y)
            if float(np.vdot(y, cmat @ y).real) >= f0 + 0.25 * step * dn * dn:
                break
            step /= 2.0
        else:
            break
        x = y
    return x


def brute_force_qp(
    data: HermitianMatrix,
    k: int | None = None,
    refine: bool = True,
    grad_tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Global maximum of ``x* C x`` over unit-modulus vectors, by dense grid
    scan over ``k`` phases per free coordinate plus optional local polish.

    Returns ``(x, value)`` with the global phase fixed so the first
    coordinate is 1. Without refinement the value is accurate only to the
    grid resolution; with it, to ``grad_tol``-level criticality of an
    independent ascent. Refuses n > 6 and k < 8.
    """
    n = data.n
    if n > MAX_COMPLEX_N:
        raise ValueError(f"grid scan is limited to n <= {MAX_COMPLEX_N}, got {n}")
    if k is None:
        k = _DEFAULT_K[n]
    if k < 8:
        raise ValueError(f"need at least 8 grid phases per coordinate, got {k}")

    phases = np.exp(2j * np.pi * np.arange(k) / k)
    grids = np.meshgrid(*([phases] * (n - 1)), indexing="ij")
    pts = np.empty((k ** (n - 1), n), dtype=np.complex128)
    pts[:, 0] = 1.0
    for j, g in enumerate(grids):
        pts[:, j + 1] = g.reshape(-1)

    vals = _batched_quad(data.mat, pts)
    best = int(np.argmax(vals))
    x = pts[best].copy()
    value = float(vals[best])

    if refine:
        x = _polish(data.mat, x, grad_tol)
        # Re-pin the global phase to the first coordinate.
        x = x * (x[0].conj() / abs(x[0]))
        x = x / np.abs(x)
        value = float(np.vdot(x, data.mat @ x).real)
    return x, value


def brute_force_real(data: HermitianMatrix) -> tuple[SignVector, float]:
    """Global maximum of ``x^T C x`` over sign vectors, by full enumeration
    with the first coordinate pinned to +1. Refuses n > 20."""
    n = data.n
    if n > MAX_REAL_N:
        raise ValueError(f"sign enumeration is limited to n <= {MAX_REAL_N}, got {n}")
    if np.any(data.mat.imag != 0.0):
        raise ValueError("sign enumeration expects a real matrix")
    cmat = data.mat.real
    count = 1 << (n - 1)
    best_val = -np.inf
    best_row = None
    codes = np.arange(count, dtype=np.int64)
    for lo in range(0, count, _CHUNK):
        blk = codes[lo:lo + _CHUNK]
        signs = np.empty((blk.size, n), dtype=np.float64)
        signs[:, 0] = 1.0
        for j in range(n - 1):
            signs[:, j + 1] = 2.0 * ((blk >> j) & 1) - 1.0
        vals = np.einsum("mi,ij,mj->m", signs, cmat, signs)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_row = signs[i].copy()
    return SignVector(best_row), best_val
