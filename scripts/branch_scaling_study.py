#!/usr/bin/env python3
"""Scaling study of the branch continuing from the averaged zeros.

For a grid of admissible parameter sets and epsilon values, certifies the
T0-periodic solution that averaging gives near the first averaged zero (an
exact equilibrium), measures its distance to the zero, and compares its
Floquet multipliers over one unperturbed period against the first-order
prediction exp(eps * T * averaged eigenvalues) and against the exact
multipliers exp(T * eig J(u)) of the equilibrium.

Emits a CSV suitable for plotting distance-vs-epsilon on log-log axes.
"""
import csv
import sys
from pathlib import Path

import numpy as np

from chenhopf.averaging import averaged_spectrum, averaged_zero_points
from chenhopf.chen import canonical_config, random_admissible_config
from chenhopf.numerics import QuarticSpectrum
from chenhopf.orbits import averaged_periodic_solution, equilibrium_multipliers

EPS_GRID = [0.0025, 0.005, 0.01, 0.02, 0.04, 0.08]
OUT = Path(__file__).resolve().parent.parent / "out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(11)
    configs = [("canonical", canonical_config())]
    configs += [(f"random{i}", random_admissible_config(rng)) for i in range(4)]

    rows = []
    for name, cfg in configs:
        zero = averaged_zero_points(cfg)[0]
        spec = averaged_spectrum(cfg)
        for eps in EPS_GRID:
            solution = averaged_periodic_solution(cfg.with_epsilon(eps), 1)
            predicted = QuarticSpectrum.from_iterable(
                [np.exp(eps * solution.period * lam) for lam in spec.values])
            rows.append({
                "set": name,
                "epsilon": eps,
                "distance_to_zero": float(np.linalg.norm(solution.initial_state - zero)),
                "multiplier_prediction_error": solution.multipliers.match_distance(predicted),
                "exact_multiplier_gap": solution.multipliers.match_distance(equilibrium_multipliers(
                    cfg.with_epsilon(eps), solution.initial_state, solution.period)),
            })

    path = OUT / "branch_scaling.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {path}")

    for name, _ in configs:
        sub = [r for r in rows if r["set"] == name]
        slope = np.polyfit(np.log([r["epsilon"] for r in sub]),
                           np.log([r["distance_to_zero"] for r in sub]), 1)[0]
        worst_pred = max(r["multiplier_prediction_error"] for r in sub)
        worst_exact = max(r["exact_multiplier_gap"] for r in sub)
        print(f"  {name}: distance slope {slope:.3f}, worst multiplier prediction error "
              f"{worst_pred:.2e}, worst gap to the exact multipliers {worst_exact:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
