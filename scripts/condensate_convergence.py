#!/usr/bin/env python3
"""Mean-field convergence sweep for single-family initial states.

Runs the partially factorized family (m = 1) plus the condensate and coherent
baselines on a two-mode contact system, writes one CSV per family, and prints
the fitted log-log decay rate of the trace distance at each time.
"""

import argparse
import copy
import os

from focklab import ExperimentConfig, run_convergence_sweep

BASE = {
    "mode_system": {
        "geometry": "dense",
        "h": [[0, -1], [-1, 0]],
        "v": [[1, 0], [0, 1]],
    },
    "state": {"family": "theta", "phi": [[0.8, 0], [0.36, 0.48]],
              "m": 1, "excitation_seed": 0},
    "n_list": [4, 6, 8, 10, 12, 14],
    "t_list": [0.25, 0.5, 1.0],
    "tolerances": {"hartree_tol": 1e-12},
    "seed": 7,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    for family in ("theta", "product", "coherent"):
        doc = copy.deepcopy(BASE)
        if family != "theta":
            doc["state"] = {"family": family, "phi": doc["state"]["phi"]}
        config = ExperimentConfig.from_dict(doc, seed_override=args.seed)
        report = run_convergence_sweep(config)
        path = os.path.join(args.out, f"convergence_{family}.csv")
        report.to_csv(path)
        print(f"{family}: wrote {path}")
        for t, fit in report.fits.items():  # fitted by the sweep itself
            if fit is None:
                print(f"  t={t}: no fit (fewer than 3 distinct n or a non-finite distance)")
            elif fit == "exact":
                print(f"  t={t}: exact regime")
            else:
                print(f"  t={t}: slope {fit.slope:+.4f}  r2 {fit.r2:.4f}")


if __name__ == "__main__":
    main()
