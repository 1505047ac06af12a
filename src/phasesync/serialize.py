"""Plain-text round-trip formats for phase vectors and instances.

All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so a load of a dump reproduces the original bit for bit.
Complex entries are written as their real part, then their imaginary part.

Phase vector file: first line is n, then one line of 2n decimals. Instance
file: five lines, the marker ``phasesync-instance 2``, then ``sigma``,
``seed``, ``z`` (2n decimals) and ``W`` (n(n-1) decimals: the entries above
the diagonal, row by row). ``W`` is rebuilt Hermitian with a zero diagonal,
and ``C`` is derived from the loaded parts, never stored. A file without the
marker on its first line, truncated, or with trailing content is rejected.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .hermitian import HermitianMatrix
from .model import PhaseVector, SyncInstance, assemble_instance

INSTANCE_MARKER = "phasesync-instance 2"


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(map("{:.17g}".format, np.asarray(row, dtype=np.complex128).view(np.float64).tolist()))


def _parse_complex_row(line: str, where: str) -> np.ndarray:
    try:
        vals = np.array(line.split(), dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    if vals.size % 2:
        raise ValueError(f"{where}: expected real and imaginary parts, got {vals.size} decimals")
    return vals.view(np.complex128)


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
    vec = _parse_complex_row(lines[1], str(path))
    if vec.size != n:
        raise ValueError(f"{path}: expected {2 * n} decimals, got {2 * vec.size}")
    return PhaseVector(vec)


def write_instance(inst: SyncInstance, path) -> None:
    upper = inst.W.mat[np.triu_indices(inst.n, k=1)]
    lines = [
        INSTANCE_MARKER,
        f"sigma {inst.sigma:.17g}",
        f"seed {inst.seed}",
        f"z {_fmt_row(inst.z.vec)}",
        f"W {_fmt_row(upper)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_instance(path) -> SyncInstance:
    lines = Path(path).read_text().splitlines()
    where = str(path)
    if not lines or lines[0].strip() != INSTANCE_MARKER:
        raise ValueError(f"{where}: first line is not {INSTANCE_MARKER!r}; "
                         "files of any other layout are not read")

    def expect_kv(idx: int, key: str) -> str:
        if idx >= len(lines):
            raise ValueError(f"{where}: file ends early, missing {key!r} line")
        parts = lines[idx].split(maxsplit=1)
        if not parts or parts[0] != key:
            raise ValueError(f"{where}: expected {key!r} line, got {lines[idx]!r}")
        return parts[1] if len(parts) == 2 else ""

    sigma = float(expect_kv(1, "sigma"))
    seed = int(expect_kv(2, "seed"))
    z = PhaseVector(_parse_complex_row(expect_kv(3, "z"), f"{where} z"))
    upper = _parse_complex_row(expect_kv(4, "W"), f"{where} W")
    n = z.n
    if upper.size != n * (n - 1) // 2:
        raise ValueError(f"{where} W: expected {n * (n - 1)} decimals for n = {n}, got {2 * upper.size}")
    if any(line.strip() for line in lines[5:]):
        raise ValueError(f"{where}: trailing content after the W line")
    w = np.zeros((n, n), dtype=np.complex128)
    w[np.triu_indices(n, k=1)] = upper
    return assemble_instance(z, HermitianMatrix(w + w.conj().T), sigma, seed)
