#!/usr/bin/env python3
"""Scaling study of the branches continuing from the averaged zeros.

For a grid of admissible parameter sets and epsilon values, runs
orbits.branch_study: on both branches, the T0-periodic solution that
averaging gives near the averaged zero (an exact equilibrium), its distance
to the zero, and its Floquet multipliers over one unperturbed period against
the first-order prediction exp(eps * T * averaged eigenvalues) and against
the exact multipliers exp(T * eig J(u)) of the equilibrium.

Emits a CSV suitable for plotting distance-vs-epsilon on log-log axes.
"""
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from chenhopf.chen import canonical_config, random_admissible_config
from chenhopf.orbits import BranchRow, branch_study

EPS_GRID = [0.0025, 0.005, 0.01, 0.02, 0.04, 0.08]
OUT = Path(__file__).resolve().parent.parent / "out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(11)
    configs = [("canonical", canonical_config())]
    configs += [(f"random{i}", random_admissible_config(rng)) for i in range(4)]
    studies = [(name, branch_study(cfg, EPS_GRID)) for name, cfg in configs]

    path = OUT / "branch_scaling.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["set"] + [f.name for f in dataclasses.fields(BranchRow)])
        for name, study in studies:
            writer.writerows([name, *dataclasses.astuple(row)] for row in study.rows)
    print(f"wrote {sum(len(study.rows) for _, study in studies)} rows to {path}")

    for name, study in studies:
        slopes = ", ".join(f"{slope:.3f}" for slope in study.slope_by_branch.values())
        worst_pred = max(row.prediction_error for row in study.rows)
        worst_exact = max(row.exact_multiplier_gap for row in study.rows)
        print(f"  {name}: distance slopes {slopes}, worst multiplier prediction error "
              f"{worst_pred:.2e}, worst gap to the exact multipliers {worst_exact:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
