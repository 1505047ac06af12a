"""The phasesync benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload complex_sweep --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the run
measures the end-to-end metrics of BENCHMARK.json with only the trial entry
points timed. With ``--trace 1`` it reports the per-layer metrics from three
phases of a third of the time each: untraced serial passes, the same passes
traced, and a third phase, which is the spawn pool for complex_sweep and the
solve/certify CLI round trip for real_sweep. Metric lines go to standard
output, then one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Everything the run writes, including the spans and a result file with the
environment record, lands in ``perfbench/out/``. README.md says why each
workload exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import (SERIALIZE_FUNCTIONS, TRIAL_FUNCTIONS, Tracer, eig_backends,
                     layer_metrics, percentile, public_functions)
from workloads import (COMPLEX_GRID, REAL_GRID, SEED_SLOTS, SOLVE_CERTIFY, Grid, OneOff,
                       Phase, Tally, compare_bytes, load_reference, measure_solve_certify,
                       measure_sweep, run_grid_pass, solve_certify)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Recorded, never set: pinning them would hide the pool's BLAS oversubscription.
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PHASESYNC_WORKERS")
# Set-ups timed before a sweep; one more is timed after each of its passes.
SETUP_REPEATS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# name -> (sweep, reference file, whether its traced run also measures the
# spawn pool, and the one-off CLI round trip its traced run also measures).
# The pool and the round trip have no workload of their own: their run-to-run
# spread on a 2-core machine was wider than any allowed bound (README.md).
WORKLOADS = {
    "complex_sweep": (COMPLEX_GRID, "complex_sweep", True, None),
    "real_sweep": (REAL_GRID, "real_sweep", False, SOLVE_CERTIFY),
}


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, None if it cannot be asked."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_default_threads": blas_threads(),
        **{var: os.environ.get(var) for var in ENV_VARS},
    }


def import_seconds() -> float:
    """``import phasesync`` in a fresh interpreter, start to exit."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import phasesync"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def pool_ready(barrier) -> None:
    import phasesync  # noqa: F401  (what every grid worker imports first)
    barrier.wait(timeout=120)


def pool_start_seconds(workers: int) -> float:
    """Start a spawn pool like ``run_grid`` does and wait until every worker
    has imported phasesync."""
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(workers + 1)
    t0 = time.perf_counter()
    pool = ctx.Pool(workers, initializer=pool_ready, initargs=(barrier,))
    try:
        barrier.wait(timeout=120)
        elapsed = time.perf_counter() - t0
    except BaseException:
        pool.terminate()
        pool.join()
        raise
    pool.close()
    pool.join()
    return elapsed


def warm_up(spec: Grid | OneOff, out_dir: Path) -> None:
    """One tiny operation of the same kind, so lazy imports and BLAS thread
    start-up are not timed."""
    if isinstance(spec, Grid):
        tiny = Grid(spec.case, (8,), 0.5, 0.5, 1, 1, passes=1)
        run_grid_pass(tiny, 0, 0, 1, out_dir, Phase())
    else:
        solve_certify(OneOff(16, (0.5,), calls=1), 0, 0, out_dir, Phase())


def rate(phase: Phase) -> float:
    return phase.trials / phase.wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run of one sweep workload."""

    def __init__(self, grid: Grid, reference: dict, pool: bool, one_off: OneOff | None,
                 one_off_reference: dict | None, slot: int, seconds: float, out: Path):
        self.grid = grid
        self.reference = reference
        self.pool = pool
        self.one_off = one_off
        self.one_off_reference = one_off_reference
        self.slot = slot
        self.seconds = seconds
        self.out = out
        shutil.rmtree(out, ignore_errors=True)
        self.tally = Tally()
        self.samples: dict[str, float] = {}

    def sweep(self, workers: int, seconds: float, subdir: str, between=None) -> Phase:
        return measure_sweep(self.grid, self.slot, workers, seconds, self.out / subdir,
                             self.reference, self.tally, between)

    def end_to_end(self) -> dict[str, float]:
        # Set-up is timed before the sweep and again after every pass, so its
        # median samples the machine's speed over the whole run, not one moment.
        setup_s = [import_seconds() for _ in range(SETUP_REPEATS)]
        warm_up(self.grid, self.out / "warmup")
        with Tracer().install(public_functions(TRIAL_FUNCTIONS)) as timer:
            phase = self.sweep(1, self.seconds, "serial",
                               between=lambda: setup_s.append(import_seconds()))
        trial_s = timer.root_durations()
        self.samples = {"operations": phase.ops, "trials": phase.trials,
                        "trial_s samples": len(trial_s), "setup_s samples": len(setup_s)}
        return {
            "trials_per_s": rate(phase),
            "trial_s_p50": statistics.median(trial_s),
            "trial_s_p90": percentile(trial_s, 90),
            "setup_s": statistics.median(setup_s),
            "cpu_s_per_trial": phase.cpu / phase.trials,
            "peak_rss_mb": peak_rss_mb(),
        }

    def pooled(self, seconds: float, subdir: str, serial_dir: Path) -> Phase:
        """Sweep through a pool of ``nproc`` workers; its first pass must
        match the serial run's first pass byte for byte."""
        phase = self.sweep(nproc(), seconds, subdir)
        for name in ("pass0.csv", "pass0.agg.csv"):
            try:
                diff = compare_bytes(self.out / subdir / name, serial_dir / name)
            except OSError as exc:
                self.tally.fail(self.grid.trials, f"{subdir}/{name}: {exc}")
                continue
            if diff:
                self.tally.fail(diff, f"{subdir}/{name} differs from the serial run in "
                                      f"{diff} lines")
        return phase

    def round_trips(self, seconds: float, subdir: str) -> dict[str, float]:
        """``solve`` plus ``certify`` CLI calls with only ``serialize`` traced:
        the one-off user path and the only one that runs ``serialize``."""
        warm_up(self.one_off, self.out / subdir)
        tracer = Tracer()
        with tracer.install(public_functions(SERIALIZE_FUNCTIONS)):
            phase = measure_solve_certify(self.one_off, self.slot, seconds, self.out / subdir,
                                          self.one_off_reference, self.tally, tracer.call)
        self.samples["round trips"] = phase.ops
        serialize = {k: v for k, v in layer_metrics(tracer).items()
                     if k.startswith("serialize.")}
        return {**serialize, "solve_s_p50": statistics.median(phase.solve_s),
                "certify_s_p50": statistics.median(phase.certify_s)}

    def per_layer(self, threads: int) -> dict[str, float]:
        warm_up(self.grid, self.out / "warmup")
        tracer = Tracer()
        share = self.seconds / (2 + self.pool + (self.one_off is not None))
        extra = {"experiment.pool_start_s": 0.0, "experiment.scaling_eff": 0.0}
        workers = 1
        plain = loaded = self.sweep(1, share, "plain")
        if self.pool:
            # run_grid gives the pool one cell at a time, so at most `reps`
            # of its workers run trials side by side.
            workers = min(nproc(), self.grid.reps)
            extra["experiment.pool_start_s"] = statistics.median(
                pool_start_seconds(nproc()) for _ in range(SETUP_REPEATS))
            loaded = self.pooled(share, "pooled", self.out / "plain")
            extra["experiment.scaling_eff"] = rate(loaded) / (workers * rate(plain))
            self.samples.update({"pool trials_per_s": rate(loaded), "pool busy workers": workers})
        with tracer.install(public_functions() | eig_backends()):
            traced = self.sweep(1, share, "traced")
        tracer.write(self.out / "spans.jsonl")
        self.samples.update({"untraced trials_per_s": rate(plain),
                             "traced trials": traced.trials, "spans": len(tracer.spans)})
        if self.one_off is not None:
            extra.update(self.round_trips(share, "round-trips"))
        else:
            extra.update({"solve_s_p50": 0.0, "certify_s_p50": 0.0})
        return {
            **layer_metrics(tracer),
            **extra,
            "experiment.cpu_per_wall": loaded.cpu / loaded.wall,
            "experiment.threads_per_core": workers * threads / nproc(),
            "trace.overhead": rate(traced) / rate(plain),
            "error_rate": self.tally.failed / max(1, self.tally.attempted),
        }


def declared_metrics(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def stop_children() -> None:
    """Stop and wait for every process the run started. The spawn pool's
    workers are joined by their owners; the multiprocessing resource tracker
    is not, and would outlive the run by a moment if left to exit on its own."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()  # closes its pipe, then waitpid


def main(argv=None) -> int:
    try:
        return run_benchmark(argv)
    finally:
        stop_children()


def run_benchmark(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "phasesync" / "__init__.py").is_file():
        print(f"error: no phasesync sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phasesync
    if Path(phasesync.__file__).resolve().parent != (SRC / "phasesync").resolve():
        print(f"error: imported phasesync from {phasesync.__file__}, not {SRC}", file=sys.stderr)
        return 2

    units = declared_metrics(bool(args.trace))
    env = environment()
    grid, ref_name, pool, one_off = WORKLOADS[args.workload]
    run = Run(grid, load_reference(ref_name, grid), pool, one_off,
              one_off and load_reference("solve_certify", one_off), args.seed % SEED_SLOTS,
              args.seconds, OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        values = run.per_layer(env["blas_default_threads"] or env["nproc"])
    else:
        values = run.end_to_end()
    if set(values) != set(units):
        print(f"error: measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}",
              file=sys.stderr)
        return 2

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": run.tally.failed == 0, "attempted": run.tally.attempted,
              "failed": run.tally.failed, "metrics": metrics}
    (run.out / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "slot": run.slot,
         "seconds": args.seconds, "environment": env, "samples": run.samples,
         "failures": run.tally.notes}, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed} (input slot {run.slot}), "
          f"trace {args.trace}, {args.seconds:g} s")
    print("environment " + json.dumps(env))
    print("samples " + json.dumps(run.samples))
    for note in run.tally.notes:
        print(f"FAILED {note}")
    print(f"error_rate {run.tally.failed / max(1, run.tally.attempted):.6g} "
          f"({run.tally.failed} failed of {run.tally.attempted} checked operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
