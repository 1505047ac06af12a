"""Monte-Carlo grids over (n, sigma), trial records, and overlay curves.

A complex-case trial runs the full pipeline: sample signal and noise,
assemble the data matrix, check noise regularity, solve from the spectral
start (with the planted restart enabled), take the solver's certificate
verdict on its estimate, align, and evaluate the error bounds. A real-case
trial needs no solver: the closed-form certificate at the planted signs
decides exact recovery by itself.

Determinism contract: trial seeds depend only on ``(seed_base, trial index)``
where the index enumerates the grid sorted by (n, sigma, rep), so the CSV
output is byte-identical for any worker count. Per-trial wall time is
measured and kept on the in-memory record for interactive use, but excluded
from the CSV for exactly that reason.

Config files are flat ``key = value`` text; see :func:`parse_grid_config`.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .certificate import verdict
from .hermitian import quad_form
from .metrics import evaluate_bounds
from .model import (PhaseVector, assemble_instance, is_discordant,
                    random_signal, sample_wigner, trial_seed)
from .solver import SolverOptions, solve_second_order
from .z2 import random_signs, real_certificate, sample_real_wigner

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
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.case not in ("complex", "real"):
            raise ConfigError(f"case must be 'complex' or 'real', got {self.case!r}")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ConfigError("n_values must be a nonempty list of integers >= 2")
        if not self.sigmas or any(s < 0.0 for s in self.sigmas):
            raise ConfigError("sigmas must be a nonempty list of nonnegative reals")
        if self.reps < 1:
            raise ConfigError(f"reps must be at least 1, got {self.reps}")
        if self.seed_base < 0:
            raise ConfigError(f"seed_base must be nonnegative, got {self.seed_base}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")


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
    solver_opts: SolverOptions = SolverOptions(),
):
    """Full complex-case pipeline on one planted instance. Returns the trial
    record together with the instance and the solver report, for callers that
    need the estimate itself and not just the scalar summary."""
    t0 = time.perf_counter()

    z = random_signal(n, seed)
    w = sample_wigner(n, seed)
    inst = assemble_instance(z, w, sigma, seed)
    disc = is_discordant(w, z)
    rep_solve = solve_second_order(inst.C, signal=z, opts=solver_opts)
    cert = rep_solve.certificate
    bounds = evaluate_bounds(z, w, sigma, rep_solve.x)
    cost_z = quad_form(inst.C, z.vec)

    runtime_ms = (time.perf_counter() - t0) * 1000.0
    record = TrialRecord(
        case="complex", n=n, sigma=float(sigma), rep=rep, seed=seed,
        discordant=disc.discordant,
        converged=rep_solve.converged,
        beat_planted=bool(rep_solve.beat_planted),
        cost_x=rep_solve.cost, cost_z=cost_z, grad_norm=rep_solve.grad_norm,
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
    solver_opts: SolverOptions = SolverOptions(),
) -> TrialRecord:
    """Full complex-case pipeline on one planted instance."""
    record, _, _ = run_trial_detailed(n, sigma, seed, rep=rep, solver_opts=solver_opts)
    return record


def run_real_trial(n: int, sigma: float, seed: int, rep: int = 0) -> TrialRecord:
    """Real-case trial: evaluate the closed-form certificate at the planted
    signs. No iterative solve is involved, so ``converged`` is always true
    and the cost columns both carry the planted cost ``z^T C z``, taken as
    ``n^2 + sigma z^T W z`` (``W`` has a zero diagonal). Everything stays in
    float64 on the real ``W`` and ``z``; the data matrix ``C`` is never
    formed."""
    t0 = time.perf_counter()

    z = random_signs(n, seed)
    w = sample_real_wigner(n, seed)
    zp = PhaseVector(z.vec)
    disc = is_discordant(w, zp)
    cert = verdict(real_certificate(z, w, sigma), z.vec)
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
    case, n, sigma, rep, seed, solver_opts = args
    if case == "real":
        return run_real_trial(n, sigma, seed, rep=rep)
    return run_trial(n, sigma, seed, rep=rep, solver_opts=solver_opts)


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


def run_grid(config: GridConfig) -> list[CellAggregate]:
    """Run every (n, sigma, rep) cell of the grid and write two CSV files:
    the per-trial records at ``config.out`` and per-cell aggregates next to
    it (suffix ``.agg.csv``). Rows are sorted by (n, sigma, rep) and flushed
    after each completed cell, so an interrupted run leaves whole cells.
    Returns the aggregates."""
    n_values = tuple(sorted(set(config.n_values)))
    sigmas = tuple(sorted(set(config.sigmas)))
    cells = []
    index = 0
    for n in n_values:
        for sigma in sigmas:
            args = []
            for rep in range(config.reps):
                seed = trial_seed(config.seed_base, index)
                args.append((config.case, n, sigma, rep, seed, config.solver))
                index += 1
            cells.append(args)

    out_path = Path(config.out)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    agg_out = aggregate_path(out_path)

    aggregates: list[CellAggregate] = []
    pool = None
    try:
        if config.workers > 1:
            # Spawned workers sidestep fork-safety issues in threaded BLAS.
            pool = multiprocessing.get_context("spawn").Pool(config.workers)
        with open(out_path, "w", newline="") as tf, open(agg_out, "w", newline="") as af:
            tw = csv.writer(tf, lineterminator="\n")
            aw = csv.writer(af, lineterminator="\n")
            tw.writerow(TRIAL_COLUMNS)
            aw.writerow(AGG_COLUMNS)
            for cell_args in cells:
                if pool is not None:
                    records = pool.map(_trial_from_args, cell_args, chunksize=1)
                else:
                    records = [_trial_from_args(a) for a in cell_args]
                for record in records:
                    tw.writerow(trial_csv_row(record))
                agg = _aggregate(records)
                aw.writerow([_fmt(getattr(agg, name)) for name in AGG_COLUMNS])
                tf.flush()
                af.flush()
                aggregates.append(agg)
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
        n ** 0.25 / 18.0,
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


_SOLVER_KEYS = {"grad_tol": float, "max_iters": int, "max_escapes": int}
_SCALAR_KEYS = {"case": str, "reps": int, "seed_base": int, "workers": int, "out": str}


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
    - solver knobs ``grad_tol``, ``max_iters``, ``max_escapes`` (the
      certificate gates and the curvature floor are fixed constants)

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

    known = ({"n_values", "sigma_list", "sigma_min", "sigma_max", "sigma_count"}
             | set(_SCALAR_KEYS) | set(_SOLVER_KEYS))
    for key in raw:
        if key not in known:
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

    solver_kwargs = {k: convert(k, kind, raw[k]) for k, kind in _SOLVER_KEYS.items() if k in raw}
    scalar_kwargs = {k: convert(k, kind, raw[k]) for k, kind in _SCALAR_KEYS.items() if k in raw}

    try:
        solver = SolverOptions(**solver_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return GridConfig(
        case=scalar_kwargs.get("case", "complex"),
        n_values=n_values,
        sigmas=sigmas,
        reps=scalar_kwargs.get("reps", 1),
        seed_base=scalar_kwargs.get("seed_base", 0),
        workers=scalar_kwargs.get("workers", 1),
        out=scalar_kwargs.get("out", "grid.csv"),
        solver=solver,
    )
