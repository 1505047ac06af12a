"""Exhaustive reference optimizers, for validating the iterative solver.

These deliberately share no code with the solver module: the complex oracle
scans a full phase grid (first coordinate pinned to 1, since the objective is
invariant under a global phase) and then polishes the best grid point with a
Newton ascent in the n - 1 free angles, using the exact gradient and Hessian
of ``x* C x`` in those angles, and reports whether it converged. The real oracle
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


def _angle_derivatives(cmat: np.ndarray, theta: np.ndarray):
    # f(theta) = x* C x at x = exp(i theta), with its exact gradient and
    # Hessian in the angles:
    #   df/dtheta_j = 2 Im(conj(x_j) (Cx)_j),
    #   d2f/dtheta_j dtheta_k = 2 Re(conj(x_j) C_jk x_k) - 2 delta_jk Re(conj(x_j) (Cx)_j).
    x = np.exp(1j * theta)
    w = cmat @ x
    xw = x.conj() * w
    hess = 2.0 * (x.conj()[:, None] * cmat * x[None, :]).real
    hess[np.diag_indices_from(hess)] -= 2.0 * xw.real
    return float(xw.sum().real), 2.0 * xw.imag, hess


# Newton steps longer than this (in any angle) are line-searched instead of
# taken whole: the quadratic model is trusted only near a maximum.
_NEWTON_RADIUS = 0.25


def _polish(cmat: np.ndarray, x: np.ndarray, grad_tol: float,
            max_iters: int = 100) -> tuple[np.ndarray, bool]:
    # Newton ascent on f in the n - 1 free angles; the first angle stays
    # where x has it. Where the free Hessian block is negative definite and
    # its step short, the full Newton step is taken (quadratic convergence,
    # and no comparison of values that agree to rounding). Otherwise the
    # Newton or, without definiteness, the gradient direction is
    # line-searched from a step of at most _NEWTON_RADIUS. Converged means
    # the full angle gradient, whose norm equals that of the Riemannian
    # gradient of x* C x, is at most grad_tol * n.
    theta = np.angle(x)
    tol = grad_tol * x.size
    for _ in range(max_iters + 1):
        f0, grad, hess = _angle_derivatives(cmat, theta)
        if np.linalg.norm(grad) <= tol:
            return np.exp(1j * theta), True
        g = grad[1:]
        try:
            np.linalg.cholesky(-hess[1:, 1:])
            step = np.linalg.solve(-hess[1:, 1:], g)
            newton = True
        except np.linalg.LinAlgError:
            step = g
            newton = False
        reach = float(np.abs(step).max())
        if newton and reach <= _NEWTON_RADIUS:
            theta[1:] += step
            continue
        slope = float(g @ step)
        t = 1.0 if reach <= _NEWTON_RADIUS else _NEWTON_RADIUS / reach
        for _ in range(60):
            trial = theta.copy()
            trial[1:] += t * step
            if _angle_derivatives(cmat, trial)[0] >= f0 + 1e-4 * t * slope:
                break
            t /= 2.0
        else:
            break
        theta = trial
    return np.exp(1j * theta), False


def brute_force_qp(
    data: HermitianMatrix,
    k: int | None = None,
    refine: bool = True,
    grad_tol: float = 1e-12,
) -> tuple[np.ndarray, float, bool]:
    """Global maximum of ``x* C x`` over unit-modulus vectors, by dense grid
    scan over ``k`` phases per free coordinate plus optional local polish.

    Returns ``(x, value, converged)`` with the global phase fixed so the
    first coordinate is 1. Without refinement the value is accurate only to
    the grid resolution, and ``converged`` is False. With it, ``converged``
    says whether an independent Newton ascent reached a gradient norm of
    ``grad_tol * n``. Refuses n > 6 and k < 8.
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

    converged = False
    if refine:
        # The polish keeps the first angle at 0, so x[0] stays exactly 1.
        x, converged = _polish(data.mat, x, grad_tol)
        value = float(np.vdot(x, data.mat @ x).real)
    return x, value, converged


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
