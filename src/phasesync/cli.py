"""Command line entry points.

Subcommands: ``solve`` one planted instance end to end, ``certify`` a stored
estimate against a stored instance, ``grid`` / ``real-grid`` for Monte-Carlo
sweeps from a config file, ``curves`` for the overlay thresholds, and
``check-noise`` for tail statistics of the noise-regularity events.

Exit codes: 0 on success, 1 on I/O or config errors, 2 when ``solve`` fails
to converge, 3 when an eigensolver fails, in any subcommand.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields

from .certificate import certify
from .experiment import (AGG_COLUMNS, TRIAL_COLUMNS, ConfigError,
                         aggregate_path, emit_curves, parse_grid_config,
                         run_grid, run_trial_detailed, trial_csv_row, write_curves,
                         _fmt)
from .hermitian import EigensolverError
from .model import TailStats, noise_tail_stats
from .serialize import (read_instance, read_phase_vector, write_instance,
                        write_phase_vector)
from .solver import MAX_ITERS

CERT_COLUMNS = ("residual", "min_eig", "second_eig", "diag_min", "tight", "unique")
NOISE_COLUMNS = tuple(f.name for f in fields(TailStats))


def _cmd_solve(args) -> int:
    record, inst, report = run_trial_detailed(args.n, args.sigma, args.seed,
                                              max_iters=args.max_iters)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(TRIAL_COLUMNS + ("runtime_ms",))
    writer.writerow(trial_csv_row(record) + [_fmt(record.runtime_ms)])
    if args.dump_instance:
        write_instance(inst, args.dump_instance)
    if args.dump_x:
        write_phase_vector(report.x, args.dump_x)
    return 0 if record.converged else 2


def _cmd_certify(args) -> int:
    inst = read_instance(args.instance)
    x = read_phase_vector(args.x)
    report = certify(inst.C, x)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(CERT_COLUMNS)
    writer.writerow([_fmt(getattr(report, name)) for name in CERT_COLUMNS])
    if report.error is not None:
        print(f"eigensolver failure: {report.error}", file=sys.stderr)
        return 3
    return 0


def _grid_common(args, want_case: str) -> int:
    config = parse_grid_config(args.config)
    if config.case != want_case:
        raise ConfigError(
            f"{args.config}: this subcommand runs case={want_case!r} grids, "
            f"config says {config.case!r}"
        )
    aggregates = run_grid(config)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(AGG_COLUMNS)
    for agg in aggregates:
        writer.writerow([_fmt(getattr(agg, name)) for name in AGG_COLUMNS])
    print(f"trials: {config.out}", file=sys.stderr)
    print(f"aggregates: {aggregate_path(config.out)}", file=sys.stderr)
    return 0


def _cmd_grid(args) -> int:
    return _grid_common(args, "complex")


def _cmd_real_grid(args) -> int:
    return _grid_common(args, "real")


def _cmd_curves(args) -> int:
    rows = emit_curves(args.nmin, args.nmax, args.points)
    if args.out:
        with open(args.out, "w", newline="") as f:
            write_curves(rows, f)
    else:
        write_curves(rows, sys.stdout)
    return 0


def _cmd_check_noise(args) -> int:
    stats = noise_tail_stats(args.n, args.trials, args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(NOISE_COLUMNS)
    writer.writerow([_fmt(getattr(stats, name)) for name in NOISE_COLUMNS])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasesync",
        description="Phase estimation from pairwise data: solver, certificates, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one planted instance and print its trial record")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dump-instance", metavar="PATH", default=None)
    p.add_argument("--dump-x", metavar="PATH", default=None)
    p.add_argument("--max-iters", type=int, default=MAX_ITERS)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="certify a stored estimate against a stored instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("grid", help="run a complex-case Monte-Carlo grid from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("real-grid", help="run a real-case recovery grid from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_real_grid)

    p = sub.add_parser("curves", help="emit the overlay threshold curves as CSV")
    p.add_argument("--nmin", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("check-noise", help="tail statistics of the noise-regularity events")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_noise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EigensolverError as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
