"""Monte-Carlo grids over (n, sigma), trial records, and overlay curves.

A complex-case trial runs the full pipeline: sample signal and noise,
assemble the data matrix, check noise regularity, solve from the spectral
start (with the planted restart enabled), take the solver's certificate
verdict on its estimate, align, and evaluate the error bounds. A real-case
trial needs no solver: the closed-form certificate at the planted signs
decides exact recovery by itself.

Determinism contract: trial seeds depend only on ``(seed_base, trial index)``
where the index enumerates the grid sorted by (n, sigma, rep), so the CSV
output is byte-identical for any worker count. Every grid trial, serial or
pooled, runs on one BLAS thread when numpy bundles OpenBLAS, because the
rounding of a threaded BLAS call depends on its thread count and so on the
core count. Per-trial wall time is measured and kept on the in-memory record
for interactive use, but excluded from the CSV for exactly that reason.

Memory: on glibc a grid process (the caller of :func:`run_grid`, and each
pool worker) keeps freed blocks of up to 32 MiB in its heap, so the n×n
temporaries of one trial are reused by the next instead of being returned
to the kernel and faulted back in page by page. The setting is made once
per process and not restored; it changes no computed value.

Config files are flat ``key = value`` text; see :func:`parse_grid_config`.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import multiprocessing
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .metrics import evaluate_bounds, tightness_threshold
from .model import (PhaseVector, assemble_instance, is_discordant,
                    random_signal, sample_wigner, trial_seed)
from .solver import MAX_ITERS, solve_second_order
from .z2 import planted_verdict, random_signs, sample_real_wigner

WORKERS_ENV_VAR = "PHASESYNC_WORKERS"


class ConfigError(ValueError):
    """A grid config file is malformed or inconsistent."""


@dataclass(frozen=True)
class GridConfig:
    """Resolved experiment grid. ``sigmas`` is already expanded; config files
    may instead give a log-spaced rule (see :func:`parse_grid_config`)."""

    case: str
    n_values: tuple[int, ...]
    sigmas: tuple[float, ...]
    reps: int = 1
    seed_base: int = 0
    workers: int = 1
    out: str = "grid.csv"
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        if self.case not in ("complex", "real"):
            raise ConfigError(f"case must be 'complex' or 'real', got {self.case!r}")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ConfigError("n_values must be a nonempty list of integers >= 2")
        if not self.sigmas or not all(0.0 <= s < math.inf for s in self.sigmas):
            raise ConfigError("sigmas must be a nonempty list of finite nonnegative reals")
        if self.reps < 1:
            raise ConfigError(f"reps must be at least 1, got {self.reps}")
        if self.seed_base < 0:
            raise ConfigError(f"seed_base must be nonnegative, got {self.seed_base}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True)
class TrialRecord:
    """One row of a grid run. ``runtime_ms`` stays off the CSV so that output
    files are reproducible bit for bit across machines and worker counts."""

    case: str
    n: int
    sigma: float
    rep: int
    seed: int
    discordant: bool
    converged: bool
    beat_planted: bool
    cost_x: float
    cost_z: float
    grad_norm: float
    l2_err: float
    linf_err: float
    wx_inf: float
    min_eig_S: float
    second_eig_S: float
    residual: float
    tight: bool
    unique: bool
    lemma2_ok: bool
    lemma3_ok: bool
    wx_ok: bool
    suff_cond_ok: bool
    thm_threshold_ok: bool
    runtime_ms: float


@dataclass(frozen=True)
class CellAggregate:
    """Per-(n, sigma) summary over reps."""

    n: int
    sigma: float
    frac_tight: float
    frac_unique: float
    frac_discordant: float
    mean_l2: float
    mean_linf: float


TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "runtime_ms")
AGG_COLUMNS = tuple(f.name for f in fields(CellAggregate))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def trial_csv_row(record: TrialRecord) -> list[str]:
    return [_fmt(getattr(record, name)) for name in TRIAL_COLUMNS]


def run_trial_detailed(
    n: int,
    sigma: float,
    seed: int,
    rep: int = 0,
    max_iters: int = MAX_ITERS,
):
    """Full complex-case pipeline on one planted instance. Returns the trial
    record together with the instance and the solver report, for callers that
    need the estimate itself and not just the scalar summary."""
    t0 = time.perf_counter()

    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    inst = assemble_instance(z, w, sigma, seed)
    disc = is_discordant(w, z)
    rep_solve = solve_second_order(inst.C, signal=z, max_iters=max_iters)
    cert = rep_solve.certificate
    bounds = evaluate_bounds(z, w, sigma, rep_solve.x)

    runtime_ms = (time.perf_counter() - t0) * 1000.0
    record = TrialRecord(
        case="complex", n=n, sigma=float(sigma), rep=rep, seed=seed,
        discordant=disc.discordant,
        converged=rep_solve.converged,
        beat_planted=bool(rep_solve.beat_planted),
        cost_x=rep_solve.cost, cost_z=rep_solve.planted_cost, grad_norm=rep_solve.grad_norm,
        l2_err=bounds.l2_err, linf_err=bounds.linf_err, wx_inf=bounds.wx_inf,
        min_eig_S=cert.min_eig, second_eig_S=cert.second_eig, residual=cert.residual,
        tight=cert.tight, unique=cert.unique,
        lemma2_ok=bounds.lemma2_ok, lemma3_ok=bounds.lemma3_ok, wx_ok=bounds.wx_ok,
        suff_cond_ok=bounds.suff_cond_ok, thm_threshold_ok=bounds.thm_threshold_ok,
        runtime_ms=runtime_ms,
    )
    return record, inst, rep_solve


def run_trial(
    n: int,
    sigma: float,
    seed: int,
    rep: int = 0,
    max_iters: int = MAX_ITERS,
) -> TrialRecord:
    """Full complex-case pipeline on one planted instance."""
    record, _, _ = run_trial_detailed(n, sigma, seed, rep=rep, max_iters=max_iters)
    return record


def run_real_trial(n: int, sigma: float, seed: int, rep: int = 0) -> TrialRecord:
    """Real-case trial: decide exact recovery at the planted signs with
    :func:`~phasesync.z2.planted_verdict`. No iterative solve is involved, so
    ``converged`` is always true and the cost columns both carry the planted
    cost ``z^T C z``, taken as ``n^2 + sigma z^T W z`` (``W`` has a zero
    diagonal). Everything stays in float64 on the real ``W`` and ``z``; the
    data matrix ``C`` is never formed."""
    t0 = time.perf_counter()

    z = random_signs(n, seed)
    w = sample_real_wigner(n, seed)
    zp = PhaseVector(z.vec)
    disc = is_discordant(w, zp)
    cert = planted_verdict(z, w, sigma)
    bounds = evaluate_bounds(zp, w, sigma, zp)
    cost_z = n * n + sigma * float(z.vec @ (w.mat @ z.vec))

    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        case="real", n=n, sigma=float(sigma), rep=rep, seed=seed,
        discordant=disc.discordant,
        converged=True, beat_planted=True,
        cost_x=cost_z, cost_z=cost_z, grad_norm=2.0 * cert.residual,
        l2_err=bounds.l2_err, linf_err=bounds.linf_err, wx_inf=bounds.wx_inf,
        min_eig_S=cert.min_eig, second_eig_S=cert.second_eig, residual=cert.residual,
        tight=cert.tight, unique=cert.unique,
        lemma2_ok=bounds.lemma2_ok, lemma3_ok=bounds.lemma3_ok, wx_ok=bounds.wx_ok,
        suff_cond_ok=bounds.suff_cond_ok, thm_threshold_ok=bounds.thm_threshold_ok,
        runtime_ms=runtime_ms,
    )


def _trial_from_args(args) -> TrialRecord:
    case, n, sigma, rep, seed, max_iters = args
    if case == "real":
        return run_real_trial(n, sigma, seed, rep=rep)
    return run_trial(n, sigma, seed, rep=rep, max_iters=max_iters)


def aggregate_path(out) -> Path:
    return Path(out).with_suffix(".agg.csv")


def _aggregate(records: list[TrialRecord]) -> CellAggregate:
    reps = len(records)
    return CellAggregate(
        n=records[0].n,
        sigma=records[0].sigma,
        frac_tight=sum(r.tight for r in records) / reps,
        frac_unique=sum(r.unique for r in records) / reps,
        frac_discordant=sum(r.discordant for r in records) / reps,
        mean_l2=sum(r.l2_err for r in records) / reps,
        mean_linf=sum(r.linf_err for r in records) / reps,
    )


def _set_blas_threads(count: int) -> int | None:
    """Set numpy's bundled OpenBLAS to ``count`` threads and return the count
    it had. Returns None, and sets nothing, when numpy uses another BLAS."""
    import ctypes
    import glob

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                before = get()
                put(count)
                return before
    return None


# glibc mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> bool:
    """Make glibc's malloc keep freed blocks of up to 32 MiB in the heap.

    By default glibc hands every freed n×n temporary of a trial back to the
    kernel, and the next trial faults the same pages back in, zero-filled
    one at a time. With an mmap threshold of 32 MiB and a trim threshold of
    64 MiB the blocks stay mapped and are reused. Returns whether both
    settings took; on any other libc nothing is set. glibc cannot report
    the values it replaces, so they are set once per process and never
    restored (setting glibc's static defaults back would also switch off its
    dynamic mmap threshold)."""
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1)


def _init_worker() -> None:
    # Spawn-pool initializer: the serial loop's settings, once per worker.
    _set_blas_threads(1)
    _keep_freed_memory()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread; restore the caller's count on
    every exit. Also keeps freed memory in the heap for the rest of the
    process (see :func:`_keep_freed_memory`)."""
    _keep_freed_memory()
    before = _set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)


def run_grid(config: GridConfig) -> list[CellAggregate]:
    """Run every (n, sigma, rep) cell of the grid and write two CSV files:
    the per-trial records at ``config.out`` and per-cell aggregates next to
    it (suffix ``.agg.csv``). Rows are sorted by (n, sigma, rep) and flushed
    after each completed cell, so an interrupted run leaves whole cells.
    Trials run on one BLAS thread each (see the module docstring); the
    caller's thread count is restored on return. On glibc the process also
    keeps freed memory for reuse from the first call on, and keeps doing so
    after return (see :func:`_keep_freed_memory`). Returns the aggregates."""
    lattice = itertools.product(sorted(set(config.n_values)), sorted(set(config.sigmas)),
                                range(config.reps))
    args = [(config.case, n, sigma, rep, trial_seed(config.seed_base, index), config.max_iters)
            for index, (n, sigma, rep) in enumerate(lattice)]

    out_path = Path(config.out)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    agg_out = aggregate_path(out_path)

    aggregates: list[CellAggregate] = []
    pool = None
    try:
        with _one_blas_thread():
            if config.workers > 1:
                # Spawned workers sidestep fork-safety issues in threaded BLAS.
                pool = multiprocessing.get_context("spawn").Pool(
                    config.workers, initializer=_init_worker)
                # One ordered feed: a worker freed by a short trial takes the
                # next one, whichever cell it belongs to.
                records = pool.imap(_trial_from_args, args, chunksize=1)
            else:
                records = map(_trial_from_args, args)
            with open(out_path, "w", newline="") as tf, open(agg_out, "w", newline="") as af:
                tw = csv.writer(tf, lineterminator="\n")
                aw = csv.writer(af, lineterminator="\n")
                tw.writerow(TRIAL_COLUMNS)
                aw.writerow(AGG_COLUMNS)
                for _ in range(len(args) // config.reps):
                    cell = list(itertools.islice(records, config.reps))
                    for record in cell:
                        tw.writerow(trial_csv_row(record))
                    agg = _aggregate(cell)
                    aw.writerow([_fmt(getattr(agg, name)) for name in AGG_COLUMNS])
                    tf.flush()
                    af.flush()
                    aggregates.append(agg)
    except BaseException:
        if pool is not None:
            pool.terminate()  # drop the trials still queued
        raise
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return aggregates


CURVE_COLUMNS = ("n", "sigma_proved", "sigma_lo", "sigma_hi", "sigma_real")


def curve_values(n: float) -> tuple[float, float, float, float]:
    """The four overlay curves at a single n: the proven complex-case
    tightness threshold n^(1/4)/18, the empirical lower and upper scaling
    references sqrt(n)/3 and sqrt(2 pi^2 n / 3), and the real-case exact
    recovery threshold sqrt(n / (2 log n))."""
    if n < 2:
        raise ValueError(f"curves need n >= 2, got {n}")
    return (
        tightness_threshold(n),
        math.sqrt(n) / 3.0,
        math.sqrt(2.0 * math.pi ** 2 * n / 3.0),
        math.sqrt(n / (2.0 * math.log(n))),
    )


def emit_curves(n_min: int, n_max: int, points: int) -> list[tuple[float, ...]]:
    """Overlay curves at log-spaced n between n_min and n_max inclusive."""
    if n_min < 2 or n_max < n_min:
        raise ValueError("need 2 <= n_min <= n_max")
    if points < 1:
        raise ValueError("need at least one point")
    if points == 1:
        ns = [float(n_min)]
    else:
        ns = list(np.geomspace(n_min, n_max, points))
    return [(n, *curve_values(n)) for n in ns]


def write_curves(rows: list[tuple[float, ...]], fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CURVE_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(float(v)) for v in row])


_SCALAR_KEYS = {"case": str, "reps": int, "seed_base": int, "workers": int, "out": str,
                "max_iters": int}
_GRID_KEYS = {"n_values", "sigma_list", "sigma_min", "sigma_max", "sigma_count", *_SCALAR_KEYS}


def parse_grid_config(path) -> GridConfig:
    """Parse a flat key = value config file.

    Grammar: one ``key = value`` pair per line; blank lines and lines whose
    first nonspace character is ``#`` are ignored, as is anything after a
    ``#`` on a value. Keys:

    - ``case``: complex | real
    - ``n_values``: integers separated by whitespace or commas
    - ``sigma_list``: reals separated the same way, or instead the log-spaced
      rule ``sigma_min`` / ``sigma_max`` / ``sigma_count`` (all three, and
      exclusive with sigma_list)
    - ``reps``, ``seed_base``, ``workers``, ``out``
    - ``max_iters``: the solver's power-step budget per complex trial (every
      tolerance of the solver and of the certificate is a fixed constant); a
      real trial runs no solver, so a ``case = real`` config may not set it

    Unknown keys, duplicate keys, and malformed values raise ConfigError.
    """
    text = Path(path).read_text()
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    for key in raw:
        if key not in _GRID_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r}")

    def convert(key: str, kind, value: str):
        try:
            return kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key!r}: {value!r}") from exc

    if "n_values" not in raw:
        raise ConfigError(f"{path}: missing required key 'n_values'")
    n_values = tuple(convert("n_values", int, tok)
                     for tok in raw["n_values"].replace(",", " ").split())

    has_list = "sigma_list" in raw
    rule_keys = [k for k in ("sigma_min", "sigma_max", "sigma_count") if k in raw]
    if has_list and rule_keys:
        raise ConfigError(f"{path}: give sigma_list or the sigma_min/max/count rule, not both")
    if has_list:
        sigmas = tuple(convert("sigma_list", float, tok)
                       for tok in raw["sigma_list"].replace(",", " ").split())
    elif len(rule_keys) == 3:
        lo = convert("sigma_min", float, raw["sigma_min"])
        hi = convert("sigma_max", float, raw["sigma_max"])
        count = convert("sigma_count", int, raw["sigma_count"])
        if lo <= 0.0 or hi < lo or count < 1:
            raise ConfigError(f"{path}: need 0 < sigma_min <= sigma_max and sigma_count >= 1")
        sigmas = tuple(float(s) for s in np.geomspace(lo, hi, count))
    elif rule_keys:
        raise ConfigError(f"{path}: the sigma rule needs all of sigma_min, sigma_max, sigma_count")
    else:
        raise ConfigError(f"{path}: missing sigma_list or sigma_min/max/count")

    scalar_kwargs = {k: convert(k, kind, raw[k]) for k, kind in _SCALAR_KEYS.items() if k in raw}
    if scalar_kwargs.get("case") == "real" and "max_iters" in raw:
        raise ConfigError(f"{path}: key 'max_iters' sets the solver's budget, "
                          "and a real trial runs no solver")
    return GridConfig(
        case=scalar_kwargs.get("case", "complex"),
        n_values=n_values,
        sigmas=sigmas,
        reps=scalar_kwargs.get("reps", 1),
        seed_base=scalar_kwargs.get("seed_base", 0),
        workers=scalar_kwargs.get("workers", 1),
        out=scalar_kwargs.get("out", "grid.csv"),
        max_iters=scalar_kwargs.get("max_iters", MAX_ITERS),
    )
