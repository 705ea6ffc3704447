"""Workload inputs, operations and correctness checks for the benchmark.

Inputs depend only on the workload name and the seed. Operations call the
public chenhopf API through module attributes (``averaging.refine_zero``,
not a name bound at import time), so the tracer's wrappers, which replace
those attributes, see every call.

Every check reuses a bound that ``chenhopf selftest`` or the test suite
already applies; a failed check raises CheckFailed and counts as an error.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chenhopf import averaging, chen, numerics, orbits

#: epsilon grid of the refusal workload: the low half of the acceptance
#: suite's grid, where a canonical refusal costs the same on both branches
REFUSE_EPS = (0.005, 0.01)
ORACLE_POINTS = 25
TRAJECTORY_SAMPLES = 200
RECURRENCE_PERIODS = 5

# bounds, with where the suite or selftest applies them
GAP_BOUND = 1e-10          # selftest: closed vs quadrature, scaled by (1 + |u|)^2
QUAD_NEWTON_TOL = 1e-12    # test_averaging: quadrature-route refine_zero tol
ZERO_MATCH = 1e-8          # criterion 2: refined zero vs closed-form zero
DET_BOUND = 1e-5           # selftest: relative det gap, finite differences
SPECTRUM_BOUND = 1e-5      # selftest: spectrum match distance, finite differences
FD_STEP = 1e-3             # selftest / criterion 3 finite-difference step
PERIOD_TOL = 1e-12         # test_orbits: eps = 0 period equals 2*pi/Omega
TRAJECTORY_CLOSURE = 1e-6  # test_orbits: one sampled period closes up
RECURRENCE_BOUND = 1e-7    # test_orbits: 5-period recurrence defect

#: inputs generated per run; a run that uses them all starts over
POOL_SIZE = {"oracle": 400, "certify": 400, "refuse": 32}
#: the fixed configs certify draws from; see README.md
CERTIFY_CONFIGS = Path(__file__).resolve().parent / "certify_configs.json"


class CheckFailed(Exception):
    """An operation's result is wrong."""


@dataclass(frozen=True)
class OracleInput:
    config: chen.RegimeConfig
    points: np.ndarray        # (ORACLE_POINTS, 4) evaluation points
    directions: np.ndarray    # (2, 4) unit seed offsets, one per zero


@dataclass(frozen=True)
class CertifyInput:
    config: chen.RegimeConfig


@dataclass(frozen=True)
class RefuseInput:
    config: chen.RegimeConfig   # epsilon = 0; the op shoots at `epsilon`
    branch: int
    epsilon: float


def make_inputs(workload: str, seed: int) -> list:
    rng = np.random.default_rng(seed)
    n = POOL_SIZE[workload]
    if workload == "oracle":
        out = []
        for _ in range(n):
            cfg = chen.random_admissible_config(rng)
            points = rng.uniform(-2, 2, (ORACLE_POINTS, 4))
            dirs = rng.standard_normal((2, 4))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            out.append(OracleInput(cfg, points, dirs))
        return out
    if workload == "certify":
        # a seeded draw from a fixed set of configs: about 3 in 1000 fresh
        # draws hit the eig4 defect that test_smoke.py pins as a known failure
        table = json.loads(CERTIFY_CONFIGS.read_text())["configs"]
        return [CertifyInput(chen.RegimeConfig.make(*table[i]))
                for i in rng.integers(0, len(table), n)]
    if workload == "refuse":
        # canonical parameters only: across seeded configs and the full eps
        # grid one refusal costs 206k to 343k field evaluations, which with
        # a few ops per run would swamp any change to the code; at eps 0.005
        # and 0.01 both canonical branches cost about 207k
        cfg = chen.canonical_config()
        return [RefuseInput(cfg, int(b), float(e))
                for b, e in zip(rng.integers(1, 3, n), rng.choice(REFUSE_EPS, n))]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ checks

def check_oracle_gap(points: np.ndarray, closed: np.ndarray, quad: np.ndarray) -> None:
    scale = (1.0 + np.max(np.abs(points), axis=1)) ** 2
    worst = float(np.max(np.max(np.abs(closed - quad), axis=1) / scale))
    if not worst <= GAP_BOUND:
        raise CheckFailed(f"closed vs quadrature scaled gap {worst:.3e} > {GAP_BOUND:.0e}")


def check_refined_zero(expected: np.ndarray, refined: np.ndarray, report) -> None:
    if not report.converged:
        raise CheckFailed(f"refine_zero did not converge (residual {report.residual_norm:.3e})")
    miss = float(np.max(np.abs(refined - expected)))
    if not miss <= ZERO_MATCH:
        raise CheckFailed(f"refined zero {miss:.3e} away from averaged_zeros > {ZERO_MATCH:.0e}")


def check_jacobian_data(det_fd: float, spec_fd, det_closed: float, spec_closed) -> None:
    det_gap = abs(det_fd - det_closed) / abs(det_closed)
    if not det_gap <= DET_BOUND:
        raise CheckFailed(f"determinant relative gap {det_gap:.3e} > {DET_BOUND:.0e}")
    spec_gap = spec_closed.match_distance(spec_fd)
    if not spec_gap <= SPECTRUM_BOUND:
        raise CheckFailed(f"spectrum gap {spec_gap:.3e} > {SPECTRUM_BOUND:.0e}")


def check_certified(orbit, period0: float, trajectory, defect: float, original) -> None:
    if not orbit.residual <= orbits.RESIDUAL_GATE:
        raise CheckFailed(f"branch {orbit.branch} residual {orbit.residual:.3e} above gate")
    if not abs(orbit.period - period0) <= PERIOD_TOL * max(1.0, period0):
        raise CheckFailed(f"branch {orbit.branch} period {orbit.period!r} != 2*pi/Omega {period0!r}")
    closure = float(np.max(np.abs(trajectory.states[-1] - trajectory.states[0])))
    if len(trajectory.times) != TRAJECTORY_SAMPLES or not closure <= TRAJECTORY_CLOSURE:
        raise CheckFailed(f"branch {orbit.branch} trajectory closure {closure:.3e}")
    if not defect < RECURRENCE_BOUND:
        raise CheckFailed(f"branch {orbit.branch} {RECURRENCE_PERIODS}-period recurrence {defect:.3e}")
    if original.frame != "original" or np.any(original.initial_state != 0.0):
        raise CheckFailed(f"branch {orbit.branch} unscaled eps = 0 orbit is not the origin")


def check_distinct(first, second) -> None:
    sep = float(np.linalg.norm(first.initial_state - second.initial_state))
    if not sep > orbits.DISTINCTNESS_TOL:
        raise CheckFailed(f"branches collapsed: separation {sep:.3e}")


def check_refusal(exc: orbits.ShootingError) -> None:
    if exc.report is None:
        raise CheckFailed(f"refusal carries no Newton report: {exc}")


# -------------------------------------------------------------- operations

def oracle_op(inp: OracleInput) -> None:
    cfg = inp.config
    closed = np.array([averaging.bifurcation_function(cfg, u) for u in inp.points])
    quad = np.array([averaging.bifurcation_function_quadrature(cfg, u) for u in inp.points])
    check_oracle_gap(inp.points, closed, quad)
    zeros = averaging.averaged_zeros(cfg)
    for zero, direction in zip(zeros, inp.directions):
        seed = zero.point + 0.1 * np.linalg.norm(zero.point) * direction
        refined, report = averaging.refine_zero(
            cfg, seed, use_quadrature=True, tol=QUAD_NEWTON_TOL)
        check_refined_zero(zero.point, refined.point, report)
    det_closed = averaging.jacobian_determinant(cfg)
    spec_closed = averaging.averaged_spectrum(cfg)
    for zero in zeros:
        jac = numerics.finite_difference_jacobian(
            lambda v: averaging.bifurcation_function(cfg, v), zero.point, step=FD_STEP)
        check_jacobian_data(float(numerics.determinant(jac)), numerics.eig4(jac),
                            det_closed, spec_closed)


def certify_op(inp: CertifyInput) -> None:
    cfg = inp.config
    first, second = orbits.find_bifurcating_orbits(cfg)
    p = cfg.params
    period0 = 2 * math.pi / math.sqrt(-p.a * (p.a + p.d))
    for orbit in (first, second):
        trajectory = orbits.orbit_trajectory(cfg, orbit, samples=TRAJECTORY_SAMPLES)
        defect = orbits.recurrence_defect(cfg, orbit, periods=RECURRENCE_PERIODS)
        check_certified(orbit, period0, trajectory, defect, orbits.unscale_orbit(orbit))
    check_distinct(first, second)


def refuse_op(inp: RefuseInput) -> None:
    p = inp.config.params
    zero = averaging.averaged_zeros(inp.config)[inp.branch - 1]
    period0 = 2 * math.pi / math.sqrt(-p.a * (p.a + p.d))
    try:
        orbits.shoot(inp.config.with_epsilon(inp.epsilon), zero.point, period0,
                     branch=inp.branch)
    except orbits.ShootingError as exc:
        check_refusal(exc)
        return
    raise CheckFailed(f"certified an orbit at eps = {inp.epsilon}, where a refusal is expected")


OPS = {"oracle": oracle_op, "certify": certify_op, "refuse": refuse_op}

#: the CLI command each workload times, and the exit code it must return
CLI = {
    "oracle": (["selftest", "--json"], 0),
    "certify": (["verify", "--epsilon", "0", "--json"], 0),
    "refuse": (["verify", "--epsilon", "0.01", "--json"], 2),
}


def check_cli(workload: str, returncode: int, stdout: str, stderr: str) -> None:
    args, expected = CLI[workload]
    if returncode != expected:
        raise CheckFailed(f"chenhopf {' '.join(args)} exited {returncode}, expected {expected}: "
                          f"{stderr.strip()[-200:]}")
    if workload == "oracle" and json.loads(stdout)["pass"] is not True:
        raise CheckFailed("selftest JSON does not report pass")
    if workload == "certify":
        residuals = [orbit["residual"] for orbit in json.loads(stdout)["scaled"]]
        if len(residuals) != 2 or not all(r <= orbits.RESIDUAL_GATE for r in residuals):
            raise CheckFailed(f"verify --epsilon 0 residuals {residuals}")
    if workload == "refuse" and not stderr.startswith("numerical failure"):
        raise CheckFailed(f"verify --epsilon 0.01 exit 2 without a numerical failure: {stderr[:200]}")
