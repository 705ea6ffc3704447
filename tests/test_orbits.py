import dataclasses

import numpy as np
import pytest

from chenhopf import linear_flow
from chenhopf.averaging import averaged_spectrum, averaged_zero_points, averaged_zeros
from chenhopf.chen import (
    RegimeConfig,
    RegimeError,
    canonical_config,
    random_admissible_config,
    standard_form_field,
    standard_form_jacobian,
)
from chenhopf.integrators import IntegrationError, integrate, integrate_with_variational
from chenhopf.linear_flow import period
from chenhopf.numerics import EigenSolveError, QuarticSpectrum, eig4, newton_solve
from chenhopf.orbits import (
    TRIVIAL_MULTIPLIER_TOL,
    BranchRow,
    PeriodicOrbit,
    ShootingError,
    _return_map,
    _return_map_with_monodromy,
    averaged_periodic_solution,
    averaged_periodic_solutions,
    bifurcating_orbit,
    branch_study,
    equilibrium_multipliers,
    equilibrium_near,
    find_bifurcating_orbits,
    orbit_trajectory,
    recurrence_defect,
    shoot,
    unscale_orbit,
)

EPS_GRID = [0.005, 0.01, 0.02, 0.04]
#: admissible (a, b, d, r) whose eps = 0 monodromy, the identity up to the
#: integration error, an eigensolver must resolve near a quadruple multiplier 1
NEAR_IDENTITY_MONODROMY_CONFIGS = [
    (-1.076176047805256, 0.9337802189540753, 2.4267055813349567, -1.132630623424483),
    (-1.1595099153091897, 1.1596443068061202, 1.9213220715560686, -0.6915316729329714),
]


def _equilibrium_root(config, point):
    report = equilibrium_near(config, point)
    assert report.converged
    return report.root


def _return_map_newton(config, seed, tol):
    """Newton on phi_T0(u) - u with the variational Jacobian, assuming no equilibrium.

    Returns the report and the number of one-period residual integrations.
    """
    t0 = period(config)
    field = lambda t, s: standard_form_field(config, s)
    pair = lambda t, s: (standard_form_field(config, s), standard_form_jacobian(config, s))
    integrations = []

    def residual(u):
        integrations.append(u)
        return integrate(field, u, t0).states[-1] - u

    report = newton_solve(
        residual, seed,
        jacobian=lambda u: integrate_with_variational(pair, u, t0)[1] - np.eye(4),
        tol=tol,
    )
    return report, len(integrations)


# ------------------------------------------------------------ epsilon = 0

def test_shoot_unperturbed_seed_is_already_periodic():
    cfg = canonical_config(0.0)
    first, _ = averaged_zeros(cfg)
    T0 = period(cfg)
    orbit = shoot(cfg, first.point, T0)
    assert orbit.residual < 1e-10
    assert abs(orbit.period - T0) < 1e-12
    assert np.max(np.abs(orbit.initial_state - first.point)) < 1e-12
    # the monodromy is the identity up to the integration error, and so are
    # its four multipliers
    assert all(abs(m - 1.0) < 1e-9 for m in orbit.multipliers.values)


def test_shoot_every_point_is_periodic_at_epsilon_zero(rng):
    cfg = canonical_config(0.0)
    T0 = period(cfg)
    u = rng.uniform(-1, 1, 4)
    orbit = shoot(cfg, u, T0)
    assert orbit.residual < 1e-10
    assert recurrence_defect(cfg, orbit) < 1e-9


def test_find_orbits_unperturbed_limit():
    cfg = canonical_config(0.0)
    first, second = find_bifurcating_orbits(cfg)
    z1, z2 = averaged_zeros(cfg)
    assert np.max(np.abs(first.initial_state - z1.point)) < 1e-12
    assert np.max(np.abs(second.initial_state - z2.point)) < 1e-12
    assert (first.branch, second.branch) == (1, 2)
    assert np.linalg.norm(first.initial_state - second.initial_state) > 1e-6


@pytest.mark.parametrize("params", NEAR_IDENTITY_MONODROMY_CONFIGS)
def test_find_orbits_certifies_near_identity_monodromy(params):
    for orbit in find_bifurcating_orbits(RegimeConfig.make(*params)):
        assert all(abs(m - 1.0) < 1e-9 for m in orbit.multipliers.values)


def test_unperturbed_certificate_is_exact():
    # at eps = 0 the rotating-frame field is zero: the monodromy is Phi(T0)
    for orbit in find_bifurcating_orbits(canonical_config(0.0)):
        assert orbit.residual <= 1e-12
        assert all(abs(m - 1.0) <= 1e-12 for m in orbit.multipliers.values)


def test_rotating_frame_maps_back_with_phi_of_t(rng):
    # away from multiples of T0, where Phi(T) = I, the state and the
    # monodromy must both be mapped back; compare with the standard form
    cfg = canonical_config(0.01)
    for T in (0.7, 2.3, 9.0):
        u = rng.uniform(-1, 1, 4)
        end, mono = integrate_with_variational(
            lambda t, s: (standard_form_field(cfg, s), standard_form_jacobian(cfg, s)), u, T)
        assert np.max(np.abs(_return_map(cfg, u, T) - end)) < 1e-9
        got_end, got_mono = _return_map_with_monodromy(cfg, u, T)
        assert np.max(np.abs(got_end - end)) < 1e-9
        assert np.max(np.abs(got_mono - mono)) < 1e-8


def test_rotating_kernels_are_built_once_per_integration(monkeypatch):
    # the return maps bind the config's constants once and hand the bound
    # kernels to the stepper, not a per-call wrapper that rebinds them
    built = []

    def counting(config):
        built.append(config)
        return linear_flow.rotating_kernels(config)

    monkeypatch.setattr("chenhopf.orbits.rotating_kernels", counting)
    cfg = canonical_config(0.01)
    zero, t0 = averaged_zeros(cfg)[0].point, period(cfg)
    _return_map(cfg, zero, t0)
    assert built == [cfg]
    _return_map_with_monodromy(cfg, zero, t0)
    assert built == [cfg, cfg]


def test_rotating_frame_failures_report_the_scaled_state(monkeypatch):
    cfg = canonical_config(0.01)
    zero, t0 = averaged_zeros(cfg)[0].point, period(cfg)
    with monkeypatch.context() as budget:
        budget.setattr("chenhopf.integrators.MAX_STEPS", 3)
        with pytest.raises(IntegrationError) as err:
            shoot(cfg, zero, t0)
        # a variational run maps its state as Phi v and its matrix as Phi W
        with pytest.raises(IntegrationError) as var_err:
            _return_map_with_monodromy(cfg, zero, t0)
    assert err.value.reason == "max_steps"
    t_fail = err.value.last_time
    assert 0 < t_fail < t0
    scaled = integrate(lambda t, s: standard_form_field(cfg, s), zero, t_fail).states[-1]
    assert np.max(np.abs(err.value.last_state - scaled)) < 1e-9
    end, mono = integrate_with_variational(
        lambda t, s: (standard_form_field(cfg, s), standard_form_jacobian(cfg, s)),
        zero, var_err.value.last_time,
    )
    assert np.max(np.abs(var_err.value.last_state - np.append(end, mono))) < 1e-9


# ------------------------------------------------------------ gates

def test_find_orbits_refuses_inadmissible_parameters():
    bad = RegimeConfig.make(a=-1.0, b=1.0, d=2.0, r=1.0, epsilon=0.01)
    with pytest.raises(RegimeError, match=r"b\*\(a\+d\)\*r"):
        find_bifurcating_orbits(bad)


def test_find_orbits_labels_uncertified_multipliers(monkeypatch):
    def refuse(matrix):
        raise EigenSolveError("backward error too large")

    monkeypatch.setattr("chenhopf.orbits.eig4", refuse)
    with pytest.raises(ShootingError, match="branch 1 failed: multipliers not certified"):
        find_bifurcating_orbits(canonical_config(0.0))


def test_shoot_rejects_nonpositive_period():
    cfg = canonical_config(0.0)
    with pytest.raises(ValueError):
        shoot(cfg, np.zeros(4), 0.0)


def test_shoot_far_seed_stops_inside_the_state_trust_region():
    # trials far from the seed get the penalty residual and are never
    # integrated, so the default budgets end on the residual floor, not on
    # a divergent trajectory's step budget
    with pytest.raises(ShootingError) as err:
        shoot(canonical_config(0.01), (10, 10, 10, 10), 2 * np.pi)
    assert err.value.report.reason in {"stagnated", "line_search_failed"}


def test_shoot_gates_the_certifying_closure(monkeypatch):
    # the certificate's own integration is gated, not the Newton residual,
    # which at eps = 0 is already below tolerance at the seed
    real = integrate_with_variational

    def drifted(*args, **kwargs):
        end, mono = real(*args, **kwargs)
        return end + 1e-6, mono

    monkeypatch.setattr("chenhopf.orbits.integrate_with_variational", drifted)
    cfg = canonical_config(0.0)
    with pytest.raises(ShootingError, match="above acceptance gate"):
        shoot(cfg, averaged_zeros(cfg)[0].point, period(cfg))


# ------------------------------------------------- the honest nonexistence

def test_averaged_zeros_continue_into_equilibria_not_cycles():
    """The invariant object near each averaged zero is an equilibrium.

    The time-T return map's fixed-point branch through the averaged zero is a
    branch of exact equilibria of the perturbed field, at distance O(eps);
    their monodromy eigenvalues are exp(T * eigenvalues of the linearization)
    with no eigenvalue equal to 1, so no trivial Floquet multiplier exists
    and phase-anchored shooting rightly refuses to certify a periodic orbit.
    """
    distances = []
    for eps in (0.01, 0.02):
        cfg = canonical_config(eps)
        first, _ = averaged_zeros(cfg)
        u_eq = _equilibrium_root(cfg, first.point)
        distances.append(np.linalg.norm(u_eq - first.point))
        # it is an exact fixed point of the return map at every period
        T0 = period(cfg)
        end, mono = integrate_with_variational(
            lambda t, s: (standard_form_field(cfg, s), standard_form_jacobian(cfg, s)),
            u_eq, T0,
        )
        assert np.max(np.abs(end - u_eq)) < 1e-10
        # its multipliers sit at exp(eps*T*spectrum of the averaged Jacobian)
        # up to O((eps*T)^2) corrections, and are bounded away from 1
        multipliers = eig4(mono)
        predicted = QuarticSpectrum.from_iterable(
            [np.exp(eps * T0 * lam) for lam in averaged_spectrum(cfg).values]
        )
        assert multipliers.match_distance(predicted) < 50 * eps**2
        assert min(abs(m - 1.0) for m in multipliers.values) > 1e-3
        # the phase-anchored shooter must therefore fail, not false-positive
        with pytest.raises((ShootingError, IntegrationError)):
            shoot(cfg, first.point, T0)
    # the equilibrium branch converges to the averaged zero linearly in eps
    assert distances[1] / distances[0] == pytest.approx(2.0, rel=0.05)


def test_shoot_refusal_stops_on_the_residual_floor():
    # the residual reaches its floor (about 4.1e-5) within a few steps; the
    # refusal must say so instead of spending its MAX_ITER = 25 budget
    cfg = canonical_config(0.01)
    first, _ = averaged_zeros(cfg)
    with pytest.raises(ShootingError) as err:
        shoot(cfg, first.point, period(cfg))
    report = err.value.report
    assert report.reason in {"stagnated", "line_search_failed"}
    assert report.iterations <= 5
    assert report.reason.replace("_", " ") in str(err.value)


def test_fixed_period_newton_below_the_integration_floor_stops_early():
    # the return-map Newton asked for 1e-12, below what one-period
    # integration resolves on this draw (the residual floors near 1.2e-12);
    # it must stop on the floor, not on its 25-iteration budget
    rng = np.random.default_rng(11)
    for _ in range(3):
        cfg = random_admissible_config(rng)
    cfg = cfg.with_epsilon(0.005)
    report, integrations = _return_map_newton(cfg, averaged_zeros(cfg)[0].point, tol=1e-12)
    assert not report.converged
    assert report.reason != "max_iter"
    assert integrations <= 40


# ------------------------------- the T0-periodic solutions averaging gives

def test_averaged_periodic_solutions_are_the_equilibria_at_period_T0():
    cfg = canonical_config(0.01)
    first, second = averaged_periodic_solutions(cfg)
    assert (first.branch, second.branch) == (1, 2)
    for branch, sol, zero in zip((1, 2), (first, second), averaged_zeros(cfg)):
        # the per-branch solve gives the same solution, field for field
        single = averaged_periodic_solution(cfg, branch)
        for field in dataclasses.fields(PeriodicOrbit):
            mine, theirs = getattr(single, field.name), getattr(sol, field.name)
            same = np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            assert same, field.name
        assert sol.period == period(cfg)
        assert sol.frame == "scaled"
        # the T0-periodic point found without assuming an equilibrium
        report, _ = _return_map_newton(cfg, zero.point, tol=1e-11)
        assert report.converged
        assert np.max(np.abs(sol.initial_state - report.root)) < 1e-9


@pytest.mark.parametrize("eps", [0.005, 0.01])
def test_averaged_periodic_solution_multipliers_follow_the_averaged_spectrum(eps):
    # averaging predicts multipliers exp(eps*T0*lambda) up to O(eps^2); a
    # multiplier off by 1e-3 at eps = 0.005 would break the 20*eps^2 bound
    cfg = canonical_config(eps)
    t0 = period(cfg)
    predicted = QuarticSpectrum.from_iterable(
        np.exp(eps * t0 * lam) for lam in averaged_spectrum(cfg).values
    )
    for sol in averaged_periodic_solutions(cfg):
        assert sol.multipliers.match_distance(predicted) < 20 * eps**2


@pytest.mark.parametrize("branch", [1, 2])
@pytest.mark.parametrize("eps", [0.0025, 0.01, 0.04, 0.08])
@pytest.mark.parametrize("cfg", [canonical_config(), random_admissible_config(np.random.default_rng(11))],
                         ids=["canonical", "random"])
def test_averaged_periodic_solution_multipliers_are_the_exact_ones(cfg, eps, branch):
    # an equilibrium's monodromy over T is exp(T J(u)); no integration involved
    sol = averaged_periodic_solution(cfg.with_epsilon(eps), branch)
    exact = equilibrium_multipliers(cfg.with_epsilon(eps), sol.initial_state, sol.period)
    assert sol.multipliers.match_distance(exact) < 1e-9


@pytest.mark.parametrize("branch", [1, 2])
@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("cfg", [canonical_config(), random_admissible_config(np.random.default_rng(11))],
                         ids=["canonical", "random"])
def test_equilibrium_closure_is_rounding_amplified_by_the_multipliers(cfg, eps, branch):
    # the one-period closure at the equilibrium is rounding grown by the
    # flow's instability, not integration error: it stays within 1e-11 of
    # the largest multiplier modulus, also at eps = 1 where the multiplier
    # is about 3e5 and the closure exceeds RESIDUAL_GATE
    cfg = cfg.with_epsilon(eps)
    t0 = period(cfg)
    report = equilibrium_near(cfg, averaged_zero_points(cfg)[branch - 1])
    assert report.converged
    end, _ = _return_map_with_monodromy(cfg, report.root, t0)
    closure = float(np.max(np.abs(end - report.root)))
    growth = max(abs(m) for m in equilibrium_multipliers(cfg, report.root, t0).values)
    assert closure <= 1e-11 * growth


def test_averaged_periodic_solutions_refuse_eps_zero_and_inadmissible():
    # at eps = 0 every point is T0-periodic, so the hyperbolicity gate refuses
    with pytest.raises(ShootingError, match="not hyperbolic"):
        averaged_periodic_solutions(canonical_config(0.0))
    bad = RegimeConfig.make(a=-1.0, b=1.0, d=2.0, r=1.0, epsilon=0.01)
    with pytest.raises(RegimeError, match=r"b\*\(a\+d\)\*r"):
        averaged_periodic_solutions(bad)


@pytest.mark.parametrize("solve", [averaged_periodic_solution, bifurcating_orbit])
@pytest.mark.parametrize("branch", [0, 3, True])
def test_per_branch_solvers_reject_unknown_branches(solve, branch):
    with pytest.raises(ValueError, match="branch must be 1 or 2"):
        solve(canonical_config(0.01), branch)


# ------------------------------------------- the branch study over epsilon

def test_branch_study_rows_are_the_averaged_periodic_solutions():
    cfg = canonical_config()
    study = branch_study(cfg, [0.01, 0.02])
    assert [(row.branch, row.epsilon) for row in study.rows] == [(1, 0.01), (1, 0.02), (2, 0.01), (2, 0.02)]
    for row in study.rows:
        sol = averaged_periodic_solution(cfg.with_epsilon(row.epsilon), row.branch)
        zero = averaged_zeros(cfg)[row.branch - 1].point
        predicted = QuarticSpectrum.from_iterable(
            np.exp(row.epsilon * sol.period * lam) for lam in averaged_spectrum(cfg).values)
        assert row.distance_to_zero == np.linalg.norm(sol.initial_state - zero)
        assert row.prediction_error == sol.multipliers.match_distance(predicted)
        # hyperbolic, so no limit cycle continues the zero
        assert row.trivial_multiplier_defect == sol.trivial_multiplier_defect() > TRIVIAL_MULTIPLIER_TOL
        assert row.exact_multiplier_gap < 1e-9
    # the branch is O(eps) from its zero
    assert all(0.9 <= study.slope_by_branch[branch] <= 1.1 for branch in (1, 2))


@pytest.mark.parametrize("cfg", [canonical_config(), random_admissible_config(np.random.default_rng(11))],
                         ids=["canonical", "random"])
def test_branch_study_is_mirror_symmetric(cfg):
    # S = diag(-1, -1, 1, -1) commutes with the standard form and maps p1 to p2
    study = branch_study(cfg, [0.01, 0.04])
    first = [row for row in study.rows if row.branch == 1]
    second = [row for row in study.rows if row.branch == 2]
    assert len(first) == len(second) == 2
    for row1, row2 in zip(first, second):
        for field in dataclasses.fields(BranchRow):
            if field.name != "branch":
                assert getattr(row1, field.name) == getattr(row2, field.name), field.name
    assert study.slope_by_branch[1] == study.slope_by_branch[2]


def test_sweep_validates_epsilon_grid():
    cfg = canonical_config()
    with pytest.raises(ValueError):
        branch_study(cfg, [])
    with pytest.raises(ValueError):
        branch_study(cfg, [0.01, 0.005])
    with pytest.raises(ValueError):
        branch_study(cfg, [0.0, 0.01])
    with pytest.raises(ValueError, match="epsilons must be finite"):   # before any solve
        branch_study(cfg, [0.01, np.inf])


# ------------------------------------------------------------ frame mapping

def _fake_orbit(epsilon, state, frame="scaled"):
    return PeriodicOrbit(
        epsilon=epsilon,
        initial_state=np.asarray(state, dtype=float),
        period=2 * np.pi,
        residual=1e-12,
        multipliers=QuarticSpectrum.from_iterable([1.0, 1.1, 0.9, 1.0]),
        frame=frame,
        branch=1,
    )


def test_unscale_identity_at_epsilon_one():
    orbit = _fake_orbit(1.0, [0.3, -0.2, 0.5, 0.1])
    out = unscale_orbit(orbit)
    assert out.frame == "original"
    assert np.array_equal(out.initial_state, orbit.initial_state)
    assert out.period == orbit.period


def test_unscale_scales_state_and_defect():
    orbit = _fake_orbit(0.01, [0.3, -0.2, 0.5, 0.1])
    out = unscale_orbit(orbit)
    assert np.allclose(out.initial_state, 0.01 * orbit.initial_state)
    assert out.residual == pytest.approx(0.01 * orbit.residual)
    assert out.multipliers is orbit.multipliers


def test_unscale_twice_is_an_error():
    orbit = _fake_orbit(0.5, np.ones(4))
    with pytest.raises(ValueError, match="already"):
        unscale_orbit(unscale_orbit(orbit))


def test_unscaled_unperturbed_orbit_recurs_under_full_field(rng):
    # an epsilon=0 "orbit" unscales to the origin, which is an equilibrium of
    # the full field; use a small positive epsilon on the scaled trajectory
    # identity instead: original-frame rows are epsilon times scaled rows
    cfg = canonical_config(0.01)
    first, _ = averaged_zeros(cfg)
    u_eq = _equilibrium_root(cfg, first.point)
    pseudo = _fake_orbit(0.01, u_eq)
    scaled = orbit_trajectory(cfg, pseudo, samples=20)
    original = orbit_trajectory(cfg, unscale_orbit(pseudo), samples=20)
    assert np.max(np.abs(original.states - 0.01 * scaled.states)) < 1e-12
    # and the unscaled equilibrium is a genuine recurrence point of the
    # full field with the shrunk dissipation coefficients
    assert recurrence_defect(cfg, unscale_orbit(pseudo)) < 1e-8


def test_recurrence_defect_multi_period(rng):
    cfg = canonical_config(0.0)
    T0 = period(cfg)
    orbit = shoot(cfg, rng.uniform(-1, 1, 4), T0)
    assert recurrence_defect(cfg, orbit, periods=5) < 1e-7


@pytest.mark.parametrize("periods", [0, -1, 1.5, True])
def test_recurrence_defect_rejects_a_non_positive_or_fractional_period_count(periods):
    # its own message, not the stepper's complaint about t_end
    orbit = _fake_orbit(0.0, averaged_zero_points(canonical_config(0.0))[0])
    with pytest.raises(ValueError, match=f"periods must be a positive integer, got {periods}$"):
        recurrence_defect(canonical_config(0.0), orbit, periods=periods)


@pytest.mark.parametrize("seed_period", [np.inf, np.nan, 0.0, -1.0], ids=["inf", "nan", "0", "-1"])
def test_shoot_rejects_a_seed_period_that_is_not_finite_and_positive(seed_period):
    # its own message, not the stepper's complaint about t_end
    cfg = canonical_config(0.01)
    with pytest.raises(ValueError, match=f"^seed_period must be finite and positive, got {seed_period}$"):
        shoot(cfg, averaged_zero_points(cfg)[0], seed_period)


def test_orbit_trajectory_samples_one_period():
    cfg = canonical_config(0.0)
    first, _ = averaged_zeros(cfg)
    orbit = shoot(cfg, first.point + np.array([0.3, 0.0, 0.0, 0.0]), period(cfg))
    traj = orbit_trajectory(cfg, orbit, samples=100)
    assert traj.times.shape == (100,)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-6
