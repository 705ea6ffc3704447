#!/usr/bin/env python3
"""End-to-end study at the reference parameter set.

Walks the whole pipeline: hypothesis report, origin spectrum, averaged
zeros with Jacobian data and the stability verdict, the closed-form vs
quadrature agreement, and the branch study over epsilon: the T0-periodic
solutions the averaged zeros continue into, on both branches (equilibria
whose Floquet multipliers all stay away from 1, so no limit cycle).

Writes machine-readable results under out/ and prints a summary.
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from chenhopf.averaging import averaged_zeros, quadrature_gap, stability_verdict
from chenhopf.chen import canonical_config, check_zero_hopf_conditions
from chenhopf.orbits import branch_study

EPS_GRID = [0.005, 0.01, 0.02, 0.04]
OUT = Path(__file__).resolve().parent.parent / "out"


def main() -> int:
    OUT.mkdir(exist_ok=True)
    cfg = canonical_config()
    rng = np.random.default_rng(0)

    print("== hypotheses ==")
    report = check_zero_hopf_conditions(cfg.params)
    print(f"  a(a+d) = {report.a_times_a_plus_d} < 0  : {report.a_condition_holds}")
    print(f"  b(a+d)r = {report.b_times_a_plus_d_times_r} < 0 : {report.b_condition_holds}")
    print(f"  overall: {report.overall}")

    print("== averaged zeros ==")
    first, second = averaged_zeros(cfg)
    print(f"  p1 = {first.point}, p2 = {second.point}")
    print(f"  det Df = {first.det_jacobian}")
    print(f"  spectrum = {first.spectrum.values}")
    verdict = stability_verdict(cfg)
    print(f"  stability clause applicable: {verdict.theorem_applicable} ({verdict.note})")

    print("== closed form vs quadrature ==")
    worst = quadrature_gap(cfg, rng.uniform(-2, 2, (500, 4)))
    print(f"  worst scaled discrepancy over 500 points: {worst:.3e}")

    print("== T0-periodic solutions through the zeros ==")
    study = branch_study(cfg, EPS_GRID)
    for row in study.rows:
        print(f"  branch {row.branch}, eps={row.epsilon}: |u_eq - p| = {row.distance_to_zero:.6e} "
              f"(ratio {row.distance_to_zero / row.epsilon:.4f}), "
              f"min |multiplier - 1| = {row.trivial_multiplier_defect:.3e}")
    print(f"  distance scaling: slopes {study.slope_by_branch} (equilibria converge linearly)")

    payload = {
        "zeros": [list(first.point), list(second.point)],
        "det": first.det_jacobian,
        "spectrum": [[v.real, v.imag] for v in first.spectrum.values],
        "oracle_worst_scaled_discrepancy": worst,
        "branch_study": [dataclasses.asdict(row) for row in study.rows],
        "slope_by_branch": study.slope_by_branch,
    }
    path = OUT / "reproduce_analysis.json"
    path.write_text(json.dumps(payload, indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
