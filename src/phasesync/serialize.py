"""Plain-text round-trip formats for phase vectors and instances.

All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a load of a dump reproduces the original bit for bit.

Phase vector file: first line is n, then one line of 2n decimals, the real
and imaginary part of every entry. Instance bundle: header lines ``n``,
``sigma``, ``seed``, a ``z`` line with the signal, then a ``W`` marker
followed by a matrix block, then a ``C`` marker and its block. A matrix
block is a size line n and n rows in the phase vector's line format.
Instance invariants are re-validated on load.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .hermitian import HermitianMatrix
from .model import PhaseVector, SyncInstance


def _fmt_row(row: np.ndarray) -> str:
    parts = []
    for v in row:
        parts.append(f"{v.real:.17g}")
        parts.append(f"{v.imag:.17g}")
    return " ".join(parts)


def _parse_complex_row(line: str, n: int, where: str) -> np.ndarray:
    toks = line.split()
    if len(toks) != 2 * n:
        raise ValueError(f"{where}: expected {2 * n} decimals, got {len(toks)}")
    try:
        vals = np.array([float(t) for t in toks], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    return vals[0::2] + 1j * vals[1::2]


def _read_matrix_lines(lines: list[str], start: int, where: str) -> tuple[HermitianMatrix, int]:
    if start >= len(lines):
        raise ValueError(f"{where}: missing size line")
    try:
        n = int(lines[start].strip())
    except ValueError as exc:
        raise ValueError(f"{where}: bad size line {lines[start]!r}") from exc
    if n < 1:
        raise ValueError(f"{where}: size must be positive, got {n}")
    if start + 1 + n > len(lines):
        raise ValueError(f"{where}: expected {n} rows, file ends early")
    rows = [_parse_complex_row(lines[start + 1 + i], n, f"{where} row {i}") for i in range(n)]
    return HermitianMatrix(np.vstack(rows)), start + 1 + n


def write_phase_vector(x: PhaseVector, path) -> None:
    Path(path).write_text(f"{x.n}\n{_fmt_row(x.vec)}\n")


def read_phase_vector(path) -> PhaseVector:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError(f"{path}: expected a size line and one data line")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise ValueError(f"{path}: bad size line {lines[0]!r}") from exc
    return PhaseVector(_parse_complex_row(lines[1], n, str(path)))


def write_instance(inst: SyncInstance, path) -> None:
    lines = [
        f"n {inst.n}",
        f"sigma {inst.sigma:.17g}",
        f"seed {inst.seed}",
        f"z {_fmt_row(inst.z.vec)}",
        "W",
        str(inst.n),
    ]
    for i in range(inst.n):
        lines.append(_fmt_row(inst.W.mat[i]))
    lines.append("C")
    lines.append(str(inst.n))
    for i in range(inst.n):
        lines.append(_fmt_row(inst.C.mat[i]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_instance(path) -> SyncInstance:
    lines = Path(path).read_text().splitlines()
    where = str(path)

    def expect_kv(idx: int, key: str) -> str:
        if idx >= len(lines):
            raise ValueError(f"{where}: missing {key!r} line")
        parts = lines[idx].split(maxsplit=1)
        if len(parts) != 2 or parts[0] != key:
            raise ValueError(f"{where}: expected {key!r} line, got {lines[idx]!r}")
        return parts[1]

    n = int(expect_kv(0, "n"))
    sigma = float(expect_kv(1, "sigma"))
    seed = int(expect_kv(2, "seed"))
    z = PhaseVector(_parse_complex_row(expect_kv(3, "z"), n, f"{where} z"))
    if len(lines) <= 4 or lines[4].strip() != "W":
        raise ValueError(f"{where}: expected 'W' marker after the z line")
    w, used = _read_matrix_lines(lines, 5, f"{where} W")
    if used >= len(lines) or lines[used].strip() != "C":
        raise ValueError(f"{where}: expected 'C' marker after noise rows")
    c, used = _read_matrix_lines(lines, used + 1, f"{where} C")
    if any(line.strip() for line in lines[used:]):
        raise ValueError(f"{where}: trailing content after data rows")
    return SyncInstance(n=n, z=z, sigma=sigma, W=w, C=c, seed=seed)
