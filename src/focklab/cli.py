"""Command-line experiment driver.

Subcommands: check (invariant suites), converge (single-family sweeps),
superpose (mixture sweeps), hartree (trajectory export), fit (rate fitting
on an existing CSV).  Exit codes: 0 success, 1 invariant failure, 2 config
error (including an unreadable config or CSV file), 3 capacity error.
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

    for name, help_ in (("converge", "single-family convergence sweep"),
                        ("superpose", "superposition (mixture) sweep")):
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads, one n per task (>= 1); they pay only "
                            "when the cells are balanced and take about 0.1 s or more")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override output format")

    p = sub.add_parser("hartree", help="export a mean-field trajectory as CSV")
    _add_common(p)

    p = sub.add_parser("fit", help="fit a log-log rate on an existing sweep CSV")
    p.add_argument("csv_path", help="sweep CSV produced by converge/superpose")
    p.add_argument("--t", type=float, required=True, help="time slice to fit")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    return ap


def _out_dir(args, config=None):
    path = args.out or (config.out_dir if config is not None else ".")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:  # for example a path that names an existing file
        raise ConfigError(f"cannot use {path!r} as output directory: {e.strerror}") from e
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
    """converge or superpose: run the sweep, write its report, print its fits."""
    if args.command == "converge":
        run, stem = run_convergence_sweep, "convergence"
    else:
        run, stem = run_superposition_sweep, "superposition"
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    config = ExperimentConfig.from_json(args.config, seed_override=args.seed)
    out = _out_dir(args, config)
    report = run(config, threads=args.threads)
    _write_report(report, args.format or config.out_format, out, stem)
    for t, fit in report.fits.items():  # superposition reports carry no fits
        if fit == "exact":
            print(f"t={t}: exact regime (distances at rounding level), no rate to fit")
        elif fit is None:
            print(f"t={t}: not enough rows to fit")
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
    except ValueError as e:  # too few rows at --t
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
    handlers = {
        "check": _cmd_check,
        "converge": _cmd_sweep,
        "superpose": _cmd_sweep,
        "hartree": _cmd_hartree,
        "fit": _cmd_fit,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except FocklabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
