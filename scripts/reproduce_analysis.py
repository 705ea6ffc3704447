#!/usr/bin/env python3
"""End-to-end study at the reference parameter set.

Walks the whole pipeline: hypothesis report, origin spectrum, averaged
zeros with Jacobian data and the stability verdict, the closed-form vs
quadrature agreement, the continuation sweep over epsilon, and the
characterization of the invariant branch the averaged zeros continue into
(a branch of equilibria; the shooter records honest failures for cycles).

Writes machine-readable results under out/ and prints a summary.
"""
import json
import sys
import time
from pathlib import Path

import numpy as np

from chenhopf.averaging import (
    averaged_spectrum,
    averaged_zeros,
    jacobian_determinant,
    quadrature_gap,
    stability_verdict,
)
from chenhopf.chen import canonical_config, check_zero_hopf_conditions
from chenhopf.orbits import averaged_periodic_solution, continuation_sweep

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
    spec = averaged_spectrum(cfg)
    print(f"  p1 = {first.point}, p2 = {second.point}")
    print(f"  det Df = {jacobian_determinant(cfg)}")
    print(f"  spectrum = {spec.values}")
    verdict = stability_verdict(cfg)
    print(f"  stability clause applicable: {verdict.theorem_applicable} ({verdict.note})")

    print("== closed form vs quadrature ==")
    worst = quadrature_gap(cfg, rng.uniform(-2, 2, (500, 4)))
    print(f"  worst scaled discrepancy over 500 points: {worst:.3e}")

    print("== invariant branch through the zeros ==")
    branch_rows = []
    for eps in EPS_GRID:
        solution = averaged_periodic_solution(cfg.with_epsilon(eps), 1)
        dist = float(np.linalg.norm(solution.initial_state - first.point))
        trivial_gap = solution.trivial_multiplier_defect()
        branch_rows.append({"epsilon": eps, "distance_to_zero": dist,
                            "trivial_multiplier_gap": trivial_gap})
        print(f"  eps={eps}: |u_eq - p1| = {dist:.6e} "
              f"(ratio {dist/eps:.4f}), min |multiplier - 1| = {trivial_gap:.3e}")
    slope = np.polyfit(np.log(EPS_GRID),
                       np.log([r["distance_to_zero"] for r in branch_rows]), 1)[0]
    print(f"  distance scaling: slope {slope:.3f} (equilibria converge linearly)")

    print("== shooting sweep (records honest failures) ==")
    start = time.perf_counter()
    sweep = continuation_sweep(cfg, EPS_GRID)
    print(f"  {sum(r.converged for r in sweep.rows)}/{len(sweep.rows)} certified "
          f"in {time.perf_counter() - start:.1f}s; slopes {sweep.slope_by_branch}")

    payload = {
        "zeros": [list(first.point), list(second.point)],
        "det": jacobian_determinant(cfg),
        "spectrum": [[v.real, v.imag] for v in spec.values],
        "oracle_worst_scaled_discrepancy": worst,
        "equilibrium_branch": branch_rows,
        "equilibrium_distance_slope": float(slope),
        "sweep_converged": sum(r.converged for r in sweep.rows),
        "sweep_total": len(sweep.rows),
    }
    path = OUT / "reproduce_analysis.json"
    path.write_text(json.dumps(payload, indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
