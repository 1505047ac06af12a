"""Workload inputs, measurement loops and output checks of the phasesync benchmark.

Inputs are a function of the workload seed only: ``slot = seed % SEED_SLOTS``
picks one of the input sets whose verdicts were recorded at the seed commit
(``reference/*.json``). A run repeats *operations* (one grid pass of a sweep,
or one ``solve`` plus ``certify`` round trip) until it has measured the
requested number of seconds; operation ``i`` always gets the same inputs, and
once the recorded inputs run out they are reused from the first.

Every operation is checked. A trial fails when its boolean verdict columns
differ from the reference, when its key columns (case, n, sigma, rep, seed)
differ, when a call raises, or when ``certify`` reports an eigensolver error
or disagrees with the ``solve`` row it certifies. Float columns are not
compared: legitimate eigensolver changes perturb them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Number of distinct recorded input sets; the seed picks one of them. Slot
# HELD_OUT (seeds 10, 21, 32, ...) is kept out of development and of the runs
# that set the bounds, so a perf change can confirm its claim on inputs it was
# not tuned on.
SEED_SLOTS = 11
HELD_OUT = 10

VERDICT_COLUMNS = ("discordant", "converged", "beat_planted", "tight", "unique",
                   "lemma2_ok", "lemma3_ok", "wx_ok", "suff_cond_ok", "thm_threshold_ok")
KEY_COLUMNS = ("case", "n", "sigma", "rep", "seed")
AGG_FRACTIONS = (("frac_tight", "tight"), ("frac_unique", "unique"),
                 ("frac_discordant", "discordant"))


@dataclass(frozen=True)
class Grid:
    """A reduced sweep config. ``passes`` distinct seed bases per slot are
    recorded in the reference; pass ``i`` uses base ``i % passes``."""

    case: str
    n_values: tuple[int, ...]
    sigma_min: float
    sigma_max: float
    sigma_count: int
    reps: int
    passes: int
    max_iters: int | None = None

    @property
    def trials(self) -> int:
        return len(self.n_values) * self.sigma_count * self.reps

    def seed_base(self, slot: int, op: int) -> int:
        return 1000 * slot + op % self.passes

    def config_text(self, slot: int, op: int, workers: int, out: Path) -> str:
        lines = [
            f"case = {self.case}",
            "n_values = " + " ".join(str(n) for n in self.n_values),
            f"sigma_min = {self.sigma_min!r}",
            f"sigma_max = {self.sigma_max!r}",
            f"sigma_count = {self.sigma_count}",
            f"reps = {self.reps}",
            f"seed_base = {self.seed_base(slot, op)}",
            f"workers = {workers}",
            f"out = {out}",
        ]
        if self.max_iters is not None:
            lines.append(f"max_iters = {self.max_iters}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OneOff:
    """``solve --n N`` followed by ``certify`` on its dumps. Call ``i`` uses
    sigma ``sigmas[i % len(sigmas)]`` and one of ``calls`` recorded seeds."""

    n: int
    sigmas: tuple[float, ...]
    calls: int

    def inputs(self, slot: int, op: int) -> tuple[float, int]:
        i = op % self.calls
        return self.sigmas[i % len(self.sigmas)], 1000 * slot + i


# The committed desk sweep (scripts/tightness_map.cfg), reduced: same
# n <= 200, same log-spaced sigma 0.05..15, same max_iters, 6 sigmas and two
# reps per cell. run_grid hands the pool one cell at a time, so a cell needs
# at least as many reps as there are workers for the pool to run trials side
# by side; two reps keep both workers of a 2-core machine busy.
COMPLEX_GRID = Grid("complex", (25, 50, 100, 150, 200), 0.05, 15.0, 6, 2, passes=24,
                    max_iters=20000)
# The committed real transition sweep (scripts/real_transition.cfg) at
# n 100..400, sigma 1.5..9, one rep per cell. Five sizes, like the config:
# with an even number of equal-sized clusters the median trial would fall on
# the gap between two of them and jump from run to run.
REAL_GRID = Grid("real", (100, 150, 200, 300, 400), 1.5, 9.0, 12, 1, passes=16)
# One-off user path at n = 500, all sigmas well inside the tight regime so
# every solve converges within the default 500 power steps.
SOLVE_CERTIFY = OneOff(500, (0.5, 1.0, 2.0, 3.0), calls=24)


@dataclass
class Tally:
    """Operations attempted and failed, with one note per failure kind."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass
class Phase:
    """What one measured phase did: operations, trials, summed wall and CPU
    seconds of the measured calls, and the wall time of each CLI call."""

    ops: int = 0
    trials: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    solve_s: list[float] = field(default_factory=list)
    certify_s: list[float] = field(default_factory=list)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# --- references -------------------------------------------------------------

def _bits(rows) -> str:
    return "".join("1" if row[c] == "true" else "0" for row in rows for c in VERDICT_COLUMNS)


def _keys_digest(rows) -> str:
    text = "\n".join(",".join(row[c] for c in KEY_COLUMNS) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def encode(rows) -> dict:
    """Reference entry for the trial rows of one operation."""
    bits = _bits(rows)
    return {"keys": _keys_digest(rows), "verdicts": f"{int(bits, 2):0{(len(bits) + 3) // 4}x}"}


def failed_rows(rows, entry: dict, expected: int) -> int:
    """Number of the ``expected`` trial rows that do not match ``entry``."""
    if len(rows) != expected or any(c not in rows[0] for c in KEY_COLUMNS + VERDICT_COLUMNS):
        return expected
    if _keys_digest(rows) != entry["keys"]:
        return expected
    width = len(VERDICT_COLUMNS)
    want = f"{int(entry['verdicts'], 16):0{expected * width}b}"
    got = _bits(rows)
    return sum(got[i:i + width] != want[i:i + width] for i in range(0, len(got), width))


def load_reference(name: str, spec) -> dict:
    """Recorded entries of a workload, refusing a file made for other inputs."""
    path = REFERENCE_DIR / f"{name}.json"
    ref = json.loads(path.read_text())
    if ref["spec"] != json.loads(json.dumps(asdict(spec))):
        raise SystemExit(f"{path}: recorded for different inputs than {spec}")
    return ref["slots"]


# --- sweeps -----------------------------------------------------------------

def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def aggregate_path(trial_csv: Path) -> Path:
    return trial_csv.with_suffix(".agg.csv")


def check_pass(grid: Grid, trial_csv: Path, entry: dict) -> tuple[int, str]:
    """Failed trials of one grid pass and a note on what failed."""
    try:
        rows = read_csv(trial_csv)
        aggs = read_csv(aggregate_path(trial_csv))
    except OSError as exc:
        return grid.trials, f"{trial_csv}: {exc}"
    bad = failed_rows(rows, entry, grid.trials)
    if bad:
        return bad, f"{trial_csv}: {bad} trials differ from the reference"
    cells = len(rows) // grid.reps
    if len(aggs) != cells:
        return grid.trials, f"{trial_csv}: {len(aggs)} aggregate rows, expected {cells}"
    for k, agg in enumerate(aggs):
        cell = rows[k * grid.reps:(k + 1) * grid.reps]
        for col, verdict in AGG_FRACTIONS:
            want = sum(r[verdict] == "true" for r in cell) / grid.reps
            if agg.get(col) is None or not math.isclose(float(agg[col]), want, abs_tol=1e-12):
                return grid.reps, f"{trial_csv}: aggregate {col} of cell {k} is wrong"
    return 0, ""


def run_grid_pass(grid: Grid, slot: int, op: int, workers: int, out_dir: Path,
                  phase: Phase) -> Path:
    """Run one grid pass through ``experiment.run_grid``, add its wall and
    CPU time to ``phase`` and return the trial CSV."""
    from phasesync import experiment

    out_dir.mkdir(parents=True, exist_ok=True)
    trial_csv = out_dir / f"pass{op}.csv"
    cfg = out_dir / f"pass{op}.cfg"
    cfg.write_text(grid.config_text(slot, op, workers, trial_csv))
    config = experiment.parse_grid_config(cfg)
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        experiment.run_grid(config)
    finally:
        phase.wall += time.perf_counter() - t0
        phase.cpu += cpu_seconds() - c0
        phase.ops += 1
        phase.trials += grid.trials
    return trial_csv


def measure_sweep(grid: Grid, slot: int, workers: int, seconds: float, out_dir: Path,
                  reference: dict, tally: Tally, between=None) -> Phase:
    """Closed loop of grid passes until ``seconds`` of run_grid time.
    ``between``, when given, is called after each pass, outside the timing."""
    phase = Phase()
    entries = reference[str(slot)]
    while phase.ops == 0 or phase.wall < seconds:
        op = phase.ops
        tally.attempted += grid.trials
        try:
            trial_csv = run_grid_pass(grid, slot, op, workers, out_dir, phase)
        except Exception:  # the pass's trials count as failed; stop measuring
            tally.fail(grid.trials, f"pass {op} raised: {traceback.format_exc(limit=3)}")
            break
        bad, note = check_pass(grid, trial_csv, entries[op % grid.passes])
        if bad:
            tally.fail(bad, note)
        if between is not None:
            between()
    return phase


def compare_bytes(a: Path, b: Path) -> int:
    """Number of differing lines between two text files."""
    la = a.read_bytes().splitlines()
    lb = b.read_bytes().splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))


def record_sweep(grid: Grid, slot: int, out_dir: Path) -> list[dict]:
    """Reference entries of every recorded pass of one slot, run serially."""
    entries = []
    for op in range(grid.passes):
        trial_csv = run_grid_pass(grid, slot, op, 1, out_dir, Phase())
        entries.append(encode(read_csv(trial_csv)))
    return entries


# --- one-off solve and certify ---------------------------------------------

def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """``phasesync.cli.main(argv)`` in-process, with its output captured."""
    from phasesync import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def solve_certify(spec: OneOff, slot: int, op: int, out_dir: Path, phase: Phase,
                  timed=None) -> tuple[list[dict], str | None]:
    """One ``solve`` with dumps and one ``certify`` of the dumps. Returns the
    solve row and a failure note (None when both calls behaved). ``timed``
    wraps each CLI call, e.g. in a tracer span."""
    out_dir.mkdir(parents=True, exist_ok=True)
    sigma, seed = spec.inputs(slot, op)
    inst, x = out_dir / "instance.txt", out_dir / "x.txt"
    solve_argv = ["solve", "--n", str(spec.n), "--sigma", repr(sigma), "--seed", str(seed),
                  "--dump-instance", str(inst), "--dump-x", str(x)]
    certify_argv = ["certify", "--instance", str(inst), "--x", str(x)]

    def pair():
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            solved = timed("cli.solve", cli_call, solve_argv) if timed else cli_call(solve_argv)
            t1 = time.perf_counter()
            checked = (timed("cli.certify", cli_call, certify_argv) if timed
                       else cli_call(certify_argv))
        finally:
            t2 = time.perf_counter()
            phase.wall += t2 - t0
            phase.cpu += cpu_seconds() - c0
            phase.ops += 1
            phase.trials += 1
        phase.solve_s.append(t1 - t0)
        phase.certify_s.append(t2 - t1)
        return solved, checked

    (s_code, s_out, s_err), (c_code, c_out, c_err) = timed("cli.pair", pair) if timed else pair()
    if s_code != 0 or c_code != 0:
        return [], f"call {op}: exit codes solve {s_code}, certify {c_code}: {s_err}{c_err}"
    rows = list(csv.DictReader(io.StringIO(s_out)))
    cert = list(csv.DictReader(io.StringIO(c_out)))
    if len(rows) != 1 or len(cert) != 1:
        return rows, f"call {op}: expected one solve row and one certify row"
    if "eigensolver failure" in c_err or math.isnan(float(cert[0]["min_eig"])):
        return rows, f"call {op}: certify reported an eigensolver error: {c_err.strip()}"
    if any(cert[0][c] != rows[0].get(c) for c in ("tight", "unique")):
        return rows, f"call {op}: certify disagrees with the solve row on tight/unique"
    return rows, None


def measure_solve_certify(spec: OneOff, slot: int, seconds: float, out_dir: Path,
                          reference: dict, tally: Tally, timed=None) -> Phase:
    """Closed loop of solve/certify round trips until ``seconds`` of calls."""
    phase = Phase()
    entries = reference[str(slot)]
    while phase.ops == 0 or phase.wall < seconds:
        op = phase.ops
        tally.attempted += 1
        try:
            rows, note = solve_certify(spec, slot, op, out_dir, phase, timed)
        except Exception:  # a raising call is a failed operation; stop measuring
            tally.fail(1, f"call {op} raised: {traceback.format_exc(limit=3)}")
            break
        if note is None and failed_rows(rows, entries[op % spec.calls], 1):
            note = f"call {op}: verdicts differ from the reference"
        if note is not None:
            tally.fail(1, note)
    return phase


def record_solve_certify(spec: OneOff, slot: int, out_dir: Path) -> list[dict]:
    entries = []
    for op in range(spec.calls):
        rows, note = solve_certify(spec, slot, op, out_dir, Phase())
        if note is not None:
            raise RuntimeError(note)
        entries.append(encode(rows))
    return entries
