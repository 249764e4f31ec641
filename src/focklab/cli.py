"""Command-line experiment driver.

Subcommands: check (invariant suites), converge (single-family sweeps),
superpose (mixture sweeps), hartree (trajectory export), fit (rate fitting
on an existing CSV).  Exit codes: 0 success, 1 invariant failure, 2 config
error (including a config or CSV file that cannot be read, a config nested
too deeply, and an output directory or report file that cannot be made or
written), 3 capacity error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import CapacityError, ConfigError, ExactRegimeError, FocklabError
from .harness import (
    ExperimentConfig,
    fit_rate,
    report_from_csv,
    run_convergence_sweep,
    run_superposition_sweep,
)
from .hartree import evolve_hartree
from .invariants import run_invariant_suite

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3


def _add_common(p):
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="output directory")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="focklab",
        description="Bosonic Fock-space laboratory: invariant suites and "
                    "mean-field convergence sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the invariant suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(handler=_cmd_check)

    for name, help_, run, stem in (
            ("converge", "single-family convergence sweep", run_convergence_sweep, "convergence"),
            ("superpose", "superposition (mixture) sweep", run_superposition_sweep,
             "superposition")):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=_cmd_sweep, run=run, stem=stem)
        _add_common(p)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads, one n per task (>= 1); they pay only "
                            "when the cells are balanced and take about 0.1 s or more")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override output format")

    p = sub.add_parser("hartree", help="export a mean-field trajectory as CSV")
    _add_common(p)
    p.set_defaults(handler=_cmd_hartree)

    p = sub.add_parser("fit", help="fit a log-log rate on an existing sweep CSV")
    p.add_argument("csv_path", help="sweep CSV produced by converge/superpose")
    p.add_argument("--t", type=float, required=True, help="time slice to fit")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(handler=_cmd_fit)
    return ap


def _out_dir(args, config=None):
    path = args.out or (config.out_dir if config is not None else ".")
    os.makedirs(path, exist_ok=True)
    return path


def _write_report(report, fmt, out, stem):
    path = os.path.join(out, f"{stem}.{fmt}")
    if fmt == "csv":
        report.to_csv(path)
    else:
        report.to_json(path)
    print(f"wrote {path} ({len(report.rows)} rows)")


def _cmd_check(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    out = _out_dir(args) if args.out else None
    report = run_invariant_suite(level=args.level, rng_seed=args.seed)
    print(report.summary())
    if out:
        path = os.path.join(out, "invariants.json")
        report.to_json(path)
        print(f"wrote {path}")
    return EXIT_OK if report.passed else EXIT_INVARIANT


def _cmd_sweep(args):
    """converge or superpose: run the sweep ``args.run``, write its report as
    ``args.stem``, print its fits."""
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    config = ExperimentConfig.from_json(args.config, seed_override=args.seed)
    out = _out_dir(args, config)
    report = args.run(config, threads=args.threads)
    _write_report(report, args.format or config.out_format, out, args.stem)
    for t, fit in report.fits.items():  # superposition reports carry no fits
        if fit == "exact":
            print(f"t={t}: exact regime (distances at rounding level), no rate to fit")
        elif fit is None:
            print(f"t={t}: no fit (fewer than 3 distinct n or a non-finite distance)")
        else:
            print(f"t={t}: slope {fit.slope:+.4f}  r2 {fit.r2:.4f}")
    return EXIT_OK


def _cmd_hartree(args):
    config = ExperimentConfig.from_json(args.config)  # the trajectory draws nothing
    if config.family == "superposition":
        raise ConfigError("hartree export needs a single-state family with a phi")
    out = _out_dir(args, config)
    t_max = max(config.t_list)
    grid = (np.array(sorted(set([0.0] + config.t_list)))
            if len(config.t_list) > 1 else np.linspace(0.0, t_max, 101))
    traj = evolve_hartree(config.ms, config.components[0].phi, grid,
                          tol=config.hartree_tol)
    path = os.path.join(out, "hartree_trajectory.csv")
    traj.to_csv(path)
    print(f"wrote {path} ({len(traj.times)} samples, "
          f"norm drift {np.max(np.abs(traj.norm_log - 1.0)):.2e})")
    return EXIT_OK


def _cmd_fit(args):
    report = report_from_csv(args.csv_path)
    try:
        fit = fit_rate(report, args.t)
    except ExactRegimeError:
        print("exact regime: distances are at rounding level, refusing to fit")
        return EXIT_OK
    except ValueError as e:  # fewer than 3 distinct n or a non-finite distance at --t
        raise ConfigError(f"{args.csv_path}: {e}") from e
    if args.format == "json":
        print(json.dumps({"t": args.t, "slope": fit.slope,
                          "intercept": fit.intercept, "r2": fit.r2}))
    else:
        print(f"t={args.t}: slope {fit.slope:+.6f}  "
              f"intercept {fit.intercept:+.6f}  r2 {fit.r2:.6f}")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:  # a file or directory that cannot be made or written
        if e.filename is None:
            raise
        print(f"config error: {e.filename!r}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except FocklabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
