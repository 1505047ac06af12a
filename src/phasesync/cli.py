"""Command line entry points.

Subcommands: ``solve`` one planted instance end to end, ``certify`` a stored
estimate against a stored instance, ``grid`` / ``real-grid`` for Monte-Carlo
sweeps from a config file, ``curves`` for the overlay thresholds, and
``check-noise`` for tail statistics of the noise-regularity events.

Exit codes: 0 on success, 1 on I/O or config errors, 2 when ``solve`` fails
to converge, 3 when the eigensolver fails inside ``certify``.
``PHASESYNC_WORKERS`` overrides the worker count of a grid run without
touching the config file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

from .certificate import CertTolerances, certify
from .experiment import (AGG_COLUMNS, TRIAL_COLUMNS, WORKERS_ENV_VAR, ConfigError,
                         aggregate_path, emit_curves, parse_grid_config,
                         run_grid, run_trial_detailed, trial_csv_row, write_curves,
                         _fmt)
from .model import noise_tail_stats
from .serialize import (read_instance, read_phase_vector, write_instance,
                        write_phase_vector)
from .solver import SolverOptions

CERT_COLUMNS = ("residual", "min_eig", "second_eig", "diag_min", "tight", "unique")


def _solver_opts_from_args(args) -> SolverOptions:
    return SolverOptions(
        grad_tol=args.grad_tol,
        max_iters=args.max_iters,
        escape_tol=args.escape_tol,
        max_escapes=args.max_escapes,
    )


def _cmd_solve(args) -> int:
    record, inst, report = run_trial_detailed(args.n, args.sigma, args.seed,
                                              solver_opts=_solver_opts_from_args(args))
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
    tolerances = CertTolerances(residual_tol=args.residual_tol, psd_tol=args.psd_tol,
                                rank_tol=args.rank_tol)
    report = certify(inst.C, x, tolerances)
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
    override = os.environ.get(WORKERS_ENV_VAR)
    if override is not None:
        try:
            workers = int(override)
        except ValueError as exc:
            raise ConfigError(f"bad {WORKERS_ENV_VAR} value {override!r}") from exc
        if workers < 1:
            raise ConfigError(f"{WORKERS_ENV_VAR} must be at least 1, got {workers}")
        config = dataclasses.replace(config, workers=workers)
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
    columns = ("n", "trials", "opnorm_exceed_freq", "opnorm_threshold", "opnorm_prob_bound",
               "inf_exceed_freq", "inf_threshold", "inf_prob_bound")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    writer.writerow([_fmt(getattr(stats, name)) for name in columns])
    return 0


def _add_solver_flags(sub) -> None:
    defaults = SolverOptions()
    sub.add_argument("--grad-tol", type=float, default=defaults.grad_tol)
    sub.add_argument("--max-iters", type=int, default=defaults.max_iters)
    sub.add_argument("--escape-tol", type=float, default=defaults.escape_tol)
    sub.add_argument("--max-escapes", type=int, default=defaults.max_escapes)


def _add_cert_flags(sub) -> None:
    defaults = CertTolerances()
    sub.add_argument("--residual-tol", type=float, default=defaults.residual_tol)
    sub.add_argument("--psd-tol", type=float, default=defaults.psd_tol)
    sub.add_argument("--rank-tol", type=float, default=defaults.rank_tol)


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
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="certify a stored estimate against a stored instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--x", required=True)
    _add_cert_flags(p)
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


if __name__ == "__main__":
    sys.exit(main())
