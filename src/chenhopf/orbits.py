"""Periodic solutions near the averaged zeros: limit cycles and T0-periodic points.

Two solvers live here, because the averaging theorem and a limit-cycle claim
ask for different objects.

`averaged_periodic_solution` computes what first-order averaging promises:
for the simple zero p of the averaged function f that a branch (1 or 2)
names, a solution of period exactly T0 = 2*pi/Omega that tends to p as
epsilon -> 0. Near p the averaging expansion gives D(phi_T0) - I =
epsilon*T0*Df(p) + O(epsilon^2), which is nonsingular when det Df(p) != 0,
so the T0-periodic point near p is unique.

That point is an equilibrium. For any T-periodic solution u of an
autonomous field F, the return map satisfies D(phi_T)(u0) F(u0) = F(u0);
since D(phi_T0) - I is nonsingular near p, F(u0) = 0. An equilibrium near p
is T0-periodic, so by uniqueness it is the averaging solution: a Newton on F
from p finds it, and a certificate checks it as a T0-periodic point (the
closure of one fresh period, the Floquet multipliers, and hyperbolicity:
every multiplier away from 1, the numerical form of det Df != 0). So no
limit cycle continues a simple averaged zero.

`shoot` certifies limit cycles only. An orbit is a root of the
5-dimensional system

    phi_T(u) - u = 0            (return map, 4 equations)
    <u - u_seed, F(u_seed)> = 0 (phase anchor through the seed)

solved jointly in (u, T), and it must carry the trivial Floquet multiplier 1.
The Jacobian comes from variational integration (monodromy block, plus the
field at the endpoint as the period column). By the argument above, shooting
from an averaged zero at epsilon > 0 is refused, and rightly so, except
below the bound in shoot's docstring.

The return-map system also has a spurious solution manifold as T -> 0, where
phi_T(u) - u vanishes for every u; a period trust region around the seed
keeps the damped Newton iteration away from it.

Both solvers integrate in the rotating frame u = Phi(t) v
(linear_flow.rotating_kernels), where only the O(eps) drift is left, and map
back exactly: phi_T(u) = Phi(T) v(T), monodromy Phi(T) W(T). orbit_trajectory
and recurrence_defect integrate the standard form: the other frame's check.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .averaging import averaged_spectrum, averaged_zero_points
from .chen import (
    ChenParams,
    RegimeConfig,
    standard_form_field,
    standard_form_jacobian,
    vector_field_full,
)
from .integrators import IntegrationError, Trajectory, integrate, integrate_with_variational
from .linear_flow import flow, fundamental_matrix, period, rotating_kernels
from .numerics import EigenSolveError, NewtonReport, QuarticSpectrum, SingularMatrixError, eig4, newton_solve

#: accepted orbits must close up to this return-map residual
RESIDUAL_GATE = 1e-9
#: accepted orbits (epsilon > 0) must carry a Floquet multiplier this close to 1
TRIVIAL_MULTIPLIER_TOL = 1e-5
#: the two branches must be at least this far apart
DISTINCTNESS_TOL = 1e-6

_PERIOD_TRUST = (0.25, 4.0)     # allowed T range, relative to the seed period
_STATE_TRUST = 1.0              # allowed max|u - seed|, relative to 1 + max|seed|
_PENALTY = 1e6
#: closure tolerance of the limit-cycle Newton. It sits above the one-period
#: integration error so that an exactly periodic seed (the epsilon = 0 case,
#: whose shooting Jacobian is singular) converges before any Newton step is
#: attempted.
_SHOOT_TOL = 3e-10


class ShootingError(RuntimeError):
    """Shooting did not certify an orbit; carries whatever diagnostics exist."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PeriodicOrbit:
    """A numerically certified periodic solution."""

    branch: int                   # 1 or 2; 0 for direct unlabelled shots
    epsilon: float
    frame: str                    # "scaled" or "original"
    initial_state: np.ndarray
    period: float
    residual: float
    multipliers: QuarticSpectrum

    def trivial_multiplier_defect(self) -> float:
        return min(abs(m - 1.0) for m in self.multipliers.values)


@dataclass(frozen=True)
class BranchRow:
    """One branch's T0-periodic solution at one epsilon, against what averaging predicts."""

    epsilon: float
    branch: int
    distance_to_zero: float           # |u_eq - p|, p the branch's averaged zero
    trivial_multiplier_defect: float  # min |multiplier - 1|: why no limit cycle continues p
    exact_multiplier_gap: float       # against equilibrium_multipliers
    prediction_error: float           # against exp(eps T0 lambda), lambda in averaged_spectrum


@dataclass(frozen=True)
class BranchStudy:
    rows: list[BranchRow]
    slope_by_branch: dict[int, float | None]


def shoot(
    config: RegimeConfig,
    seed_state,
    seed_period: float,
    branch: int = 0,
) -> PeriodicOrbit:
    """Newton-shoot a periodic orbit of the standard-form system.

    Newton runs on the budget numerics.MAX_ITER, and each integration of the
    residual and the Jacobian on integrators.MAX_STEPS. Two trust regions
    bound the trials: T within _PERIOD_TRUST times seed_period and
    max|u - seed| within _STATE_TRUST * (1 + max|seed|); a trial outside
    either gets a penalty residual and is not integrated. The orbit's
    residual is the closure of the certificate's fresh integration.

    Raises ShootingError when Newton does not converge, the multipliers are
    not certified or the certificate gates fail. A Newton failure names its
    stop reason and keeps the NewtonReport on the error: near an averaged
    zero at epsilon > 0 no limit cycle exists (see the module docstring), the
    residual has a positive floor, and Newton stops within a few iterations as
    "stagnated" or "line_search_failed" instead of spending MAX_ITER. Below
    epsilon = 1e-5 / (T0 min|lambda_avg|), 2.85e-6 on the reference set, the
    equilibrium's multiplier defect (3.512 epsilon there) is within the
    absolute TRIVIAL_MULTIPLIER_TOL, and shoot accepts the equilibrium.
    Integration failures (blow-up, step budget) propagate as
    IntegrationError with their own reason.
    """
    if not seed_period > 0:
        raise ValueError(f"seed_period must be positive, got {seed_period}")
    seed = np.asarray(seed_state, dtype=float)
    anchor = standard_form_field(config, seed)
    t_lo, t_hi = _PERIOD_TRUST[0] * seed_period, _PERIOD_TRUST[1] * seed_period
    u_radius = _STATE_TRUST * (1.0 + float(np.abs(seed).max()))

    def residual(v: np.ndarray) -> np.ndarray:
        u, T = v[:4], v[4]
        if not (t_lo <= T <= t_hi and np.abs(u - seed).max() <= u_radius):
            return np.full(5, _PENALTY * (1.0 + abs(T)))
        return np.append(_return_map(config, u, T) - u, (u - seed) @ anchor)

    def jacobian(v: np.ndarray) -> np.ndarray:
        u, T = v[:4], v[4]
        end, mono = _return_map_with_monodromy(config, u, T)
        out = np.zeros((5, 5))
        out[:4, :4] = mono - np.eye(4)
        out[:4, 4] = standard_form_field(config, end)
        out[4, :4] = anchor
        return out

    report = _converged("shooting", lambda: newton_solve(
        residual, np.append(seed, seed_period),
        jacobian=jacobian, tol=_SHOOT_TOL))
    orbit = _certified_orbit(config, report, report.root[:4], float(report.root[4]), branch)
    # autonomous orbits carry the multiplier 1 exactly
    if orbit.trivial_multiplier_defect() > TRIVIAL_MULTIPLIER_TOL:
        raise ShootingError(
            f"no Floquet multiplier within {TRIVIAL_MULTIPLIER_TOL:.0e} of 1 "
            f"(closest defect {orbit.trivial_multiplier_defect():.3e})",
            report=report,
        )
    return orbit


@contextmanager
def _reported_in_scaled_frame(config: RegimeConfig):
    """Re-raise a rotating-frame IntegrationError with v as Phi(t) v (and W as Phi(t) W)."""
    try:
        yield
    except IntegrationError as exc:
        # at huge parameters Phi(t) overflows: the state is then reported non-finite, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            phi, y = fundamental_matrix(config, exc.last_time), exc.last_state
            state = np.append(phi @ y[:4], phi @ y[4:].reshape(4, -1))
        raise IntegrationError(str(exc), exc.reason, exc.last_time, state) from exc


def _return_map(config: RegimeConfig, u, T: float) -> np.ndarray:
    """phi_T(u) = Phi(T) v(T), v integrated from u in the rotating frame."""
    with _reported_in_scaled_frame(config):
        end = integrate(rotating_kernels(config)[0], u, T).states[-1]
    return flow(config, end, T)


def _return_map_with_monodromy(config: RegimeConfig, u, T: float) -> tuple[np.ndarray, np.ndarray]:
    """phi_T(u) and its monodromy Phi(T) W(T), from one rotating-frame variational run."""
    with _reported_in_scaled_frame(config):
        end, w = integrate_with_variational(rotating_kernels(config)[1], u, T)
    return flow(config, end, T), fundamental_matrix(config, T) @ w


def _converged(what: str, solve) -> NewtonReport:
    """Run solve(); a singular Jacobian or a non-converged report is a ShootingError."""
    try:
        report = solve()
    except SingularMatrixError as exc:
        raise ShootingError(f"singular {what} Jacobian: {exc}") from exc
    if not report.converged:
        raise ShootingError(f"{what} Newton {report.describe()}", report=report)
    return report


def _certified_orbit(config: RegimeConfig, report: NewtonReport, state, period: float,
                     branch: int) -> PeriodicOrbit:
    """One variational run: its gated closure is the residual, its monodromy the multipliers."""
    end, mono = _return_map_with_monodromy(config, state, period)
    residual = float(np.max(np.abs(end - state)))
    if residual > RESIDUAL_GATE:
        raise ShootingError(
            f"residual {residual:.3e} above acceptance gate {RESIDUAL_GATE:.0e}",
            report=report,
        )
    try:
        multipliers = eig4(mono)
    except EigenSolveError as exc:
        raise ShootingError(f"multipliers not certified: {exc}", report=report) from exc
    return PeriodicOrbit(epsilon=config.epsilon, initial_state=state, period=period,
                         residual=residual, multipliers=multipliers, frame="scaled", branch=branch)


def _branch_seed(config: RegimeConfig, branch: int) -> tuple[np.ndarray, float]:
    """The closed-form averaged zero of branch 1 or 2, and the period T0."""
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    return averaged_zero_points(config)[branch - 1], period(config)


def _both_branches(solve, config: RegimeConfig) -> tuple[PeriodicOrbit, PeriodicOrbit]:
    """solve(config, branch) for branches 1 and 2, failures labelled; require distinct results."""
    orbits = []
    for branch in (1, 2):
        try:
            orbits.append(solve(config, branch))
        except (ShootingError, IntegrationError) as exc:
            raise ShootingError(f"branch {branch} failed: {exc}") from exc
    sep = float(np.linalg.norm(orbits[0].initial_state - orbits[1].initial_state))
    if sep <= DISTINCTNESS_TOL:
        raise ShootingError(f"branches collapsed: |u1 - u2| = {sep:.3e} <= {DISTINCTNESS_TOL:.0e}")
    return orbits[0], orbits[1]


def bifurcating_orbit(config: RegimeConfig, branch: int) -> PeriodicOrbit:
    """Shoot the orbit of branch 1 or 2 from its averaged zero with period T0.

    At epsilon = 0 the seed is already periodic and comes back unchanged.
    """
    seed, t0 = _branch_seed(config, branch)
    return shoot(config, seed, t0, branch=branch)


def find_bifurcating_orbits(config: RegimeConfig) -> tuple[PeriodicOrbit, PeriodicOrbit]:
    """Both bifurcating_orbit branches, labelled on failure and required distinct."""
    return _both_branches(bifurcating_orbit, config)


def averaged_periodic_solution(config: RegimeConfig, branch: int) -> PeriodicOrbit:
    """The T0-periodic solution that first-order averaging guarantees near one zero.

    Near the averaged zero of branch 1 or 2 the T0-periodic solution is
    unique and is an equilibrium of the perturbed field (see the module
    docstring), so it is found by equilibrium_near from the zero. One
    variational integration certifies it as a T0-periodic point: its closure
    max|phi_T0(u) - u| below RESIDUAL_GATE (reported as its residual), and
    every Floquet multiplier farther than TRIVIAL_MULTIPLIER_TOL from 1
    (hyperbolic, the numerical form of det Df != 0). At epsilon = 0 every
    point is T0-periodic, so the hyperbolicity gate refuses.

    Raises RegimeError outside the zero-Hopf regime, ValueError for a branch
    other than 1 or 2, and ShootingError when the solve or a gate fails.
    """
    seed, t0 = _branch_seed(config, branch)
    report = _converged("equilibrium", lambda: equilibrium_near(config, seed))
    orbit = _certified_orbit(config, report, report.root, t0, branch)
    if orbit.trivial_multiplier_defect() <= TRIVIAL_MULTIPLIER_TOL:
        raise ShootingError(
            f"not hyperbolic: a Floquet multiplier lies within {TRIVIAL_MULTIPLIER_TOL:.0e} "
            f"of 1 (defect {orbit.trivial_multiplier_defect():.3e})",
            report=report,
        )
    return orbit


def averaged_periodic_solutions(config: RegimeConfig) -> tuple[PeriodicOrbit, PeriodicOrbit]:
    """Both averaged_periodic_solution branches, labelled on failure and required distinct."""
    return _both_branches(averaged_periodic_solution, config)


def equilibrium_near(config: RegimeConfig, point) -> NewtonReport:
    """Newton on the standard-form field from point, to 1e-13: the nearby equilibrium."""
    return newton_solve(lambda u: standard_form_field(config, u), point,
                        jacobian=lambda u: standard_form_jacobian(config, u), tol=1e-13)


def equilibrium_multipliers(config: RegimeConfig, u, T: float) -> QuarticSpectrum:
    """Multipliers exp(T eig J(u)) of an equilibrium u: its monodromy is exp(T J(u)), exactly."""
    return QuarticSpectrum.from_iterable(
        np.exp(T * np.linalg.eigvals(standard_form_jacobian(config, u))))


def branch_study(config: RegimeConfig, epsilons) -> BranchStudy:
    """averaged_periodic_solution on branch 1, then 2, at each epsilon of an ascending grid.

    config's own epsilon is ignored. slope_by_branch is the log-log slope of
    distance_to_zero against epsilon (about 1: the branch is O(eps) from its
    zero), or None on a one-epsilon grid. A failing row raises a
    ShootingError that names its branch and epsilon.
    """
    eps_list = [float(e) for e in epsilons]
    if not eps_list:
        raise ValueError("need at least one epsilon")
    if not np.isfinite(eps_list).all():
        raise ValueError(f"epsilons must be finite, got {eps_list}")
    if not all(e > 0 for e in eps_list):
        raise ValueError(f"epsilons must be strictly positive, got {eps_list}")
    if any(b <= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"epsilons must be strictly ascending, got {eps_list}")
    rows: list[BranchRow] = []
    slopes: dict[int, float | None] = {}
    spectrum = averaged_spectrum(config)
    for branch, zero in zip((1, 2), averaged_zero_points(config)):
        for eps in eps_list:
            cfg = config.with_epsilon(eps)
            try:
                sol = averaged_periodic_solution(cfg, branch)
            except (ShootingError, IntegrationError) as exc:
                raise ShootingError(f"branch {branch} at eps = {eps} failed: {exc}") from exc
            predicted = QuarticSpectrum.from_iterable(
                np.exp(eps * sol.period * lam) for lam in spectrum.values)
            rows.append(BranchRow(
                epsilon=eps,
                branch=branch,
                distance_to_zero=float(np.linalg.norm(sol.initial_state - zero)),
                trivial_multiplier_defect=sol.trivial_multiplier_defect(),
                exact_multiplier_gap=sol.multipliers.match_distance(
                    equilibrium_multipliers(cfg, sol.initial_state, sol.period)),
                prediction_error=sol.multipliers.match_distance(predicted),
            ))
        # polyfit warns on fewer points than coefficients; one epsilon has no slope
        distances = [row.distance_to_zero for row in rows if row.branch == branch]
        slopes[branch] = (float(np.polyfit(np.log(eps_list), np.log(distances), 1)[0])
                          if len(eps_list) >= 2 else None)
    return BranchStudy(rows=rows, slope_by_branch=slopes)


def unscale_orbit(orbit: PeriodicOrbit) -> PeriodicOrbit:
    """Map a scaled-frame orbit back to the original coordinates.

    The standard form was reached by shrinking all coordinates by epsilon, so
    the original-frame orbit starts at epsilon * u and runs under the full
    field with (b, r) replaced by (eps*b, eps*r); the closure defect scales
    by exactly epsilon and the monodromy is similarity-invariant.
    """
    if orbit.frame != "scaled":
        raise ValueError(f"orbit already in frame {orbit.frame!r}; unscale applies once")
    return replace(
        orbit,
        initial_state=orbit.epsilon * orbit.initial_state,
        residual=orbit.epsilon * orbit.residual,
        frame="original",
    )


def orbit_trajectory(config: RegimeConfig, orbit: PeriodicOrbit, samples: int) -> Trajectory:
    """Sample one full period of an orbit, respecting its frame."""
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if orbit.frame == "original":
        if orbit.epsilon == 0:
            # the original-frame image of an unperturbed orbit is the origin
            times = np.linspace(0.0, orbit.period, samples)
            return Trajectory(times=times, states=np.zeros((samples, 4)))
        scaled_start = orbit.initial_state / orbit.epsilon
    else:
        scaled_start = orbit.initial_state
    traj = integrate(
        lambda t, s: standard_form_field(config, s), scaled_start, orbit.period,
        sample_count=samples,
    )
    if orbit.frame == "original":
        return Trajectory(times=traj.times, states=orbit.epsilon * traj.states)
    return traj


def recurrence_defect(config: RegimeConfig, orbit: PeriodicOrbit, periods: int = 1) -> float:
    """Fresh-integration closure check over a number of periods.

    Original-frame orbits are integrated under the full field with the
    dissipation coefficients shrunk by epsilon, exactly as the frame mapping
    promises. periods must be a positive integer.
    """
    if not (isinstance(periods, (int, np.integer)) and periods >= 1):
        raise ValueError(f"periods must be a positive integer, got {periods!r}")
    if orbit.frame == "original":
        p = config.params
        full = ChenParams(a=p.a, b=config.epsilon * p.b, c=p.a, d=p.d,
                          r=config.epsilon * p.r)
        field = lambda t, s: vector_field_full(full, s)
    else:
        field = lambda t, s: standard_form_field(config, s)
    end = integrate(field, orbit.initial_state, periods * orbit.period).states[-1]
    return float(np.max(np.abs(end - orbit.initial_state)))
