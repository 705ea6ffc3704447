import numpy as np
import pytest

from chenhopf.averaging import averaged_zero_points, averaged_zeros
from chenhopf.chen import canonical_config, random_admissible_config, split_standard_form, standard_form_field, standard_form_jacobian
from chenhopf.integrators import (
    ABS_TOL,
    BLOWUP_NORM,
    REL_TOL,
    IntegrationError,
    integrate,
    integrate_with_variational,
)
from chenhopf.linear_flow import flow, fundamental_matrix, period, rotating_field, rotating_jacobian
from chenhopf.numerics import finite_difference_jacobian, newton_solve, periodic_trapezoid
from chenhopf.orbits import branch_study, shoot


def _linear_part_field(cfg):
    return lambda t, s: split_standard_form(cfg, s)[0]


def test_zero_field_keeps_state_constant():
    traj = integrate(lambda t, s: np.zeros(4), np.array([1.0, -2.0, 3.0, 0.5]), 5.0,
                     sample_count=11)
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-14
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_exponential_growth_hits_e():
    traj = integrate(lambda t, s: s, np.array([1.0, 0, 0, 0]), 1.0)
    assert abs(traj.states[-1][0] - np.e) < 1e-9


def test_unperturbed_field_reproduces_closed_flow_hand_case():
    cfg = canonical_config()
    traj = integrate(_linear_part_field(cfg), np.array([1.0, 0, 0, 0]), np.pi / 2)
    assert np.max(np.abs(traj.states[-1] - np.array([1.0, 2.0, 0.0, 0.0]))) < 1e-9


def test_adaptive_error_stays_within_tolerance_budget(rng):
    for _ in range(5):
        cfg = random_admissible_config(rng)
        u = rng.uniform(-2, 2, 4)
        T = period(cfg)
        end = integrate(_linear_part_field(cfg), u, T).states[-1]
        exact = flow(cfg, u, T)
        budget = 10 * (ABS_TOL + REL_TOL * np.max(np.abs(u)))
        assert np.max(np.abs(end - exact)) <= budget


def test_time_symmetry_roundtrip(rng):
    cfg = canonical_config(0.01)
    field = lambda t, s: standard_form_field(cfg, s)
    u = rng.uniform(-1, 1, 4)
    forward = integrate(field, u, 3.0).states[-1]
    back = integrate(lambda t, s: -field(t, s), forward, 3.0).states[-1]
    assert np.max(np.abs(back - u)) < 1e-8


def test_dense_output_matches_closed_flow_mid_interval():
    cfg = canonical_config()
    u = np.array([0.7, -0.3, 0.2, 0.4])
    traj = integrate(_linear_part_field(cfg), u, 4.0, sample_count=17)
    for t, state in zip(traj.times, traj.states):
        assert np.max(np.abs(state - flow(cfg, u, t))) < 1e-9


def test_sampling_grid_is_inclusive_and_even():
    traj = integrate(lambda t, s: np.zeros(4), np.zeros(4), 2.0, sample_count=5)
    assert np.allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_sampling_never_moves_the_trajectory():
    # interior samples come from dense output only: the first sample is the
    # initial state and the last the same endpoint at every sample count
    cfg = canonical_config(0.01)
    field = lambda t, s: standard_form_field(cfg, s)
    u = np.array([0.3, -0.2, 0.5, 0.1])
    finals = []
    for n in (2, 3, 200):
        traj = integrate(field, u, 7.0, sample_count=n)
        assert traj.states.shape == (n, 4)
        assert np.array_equal(traj.states[0], u)
        finals.append(traj.states[-1])
    assert all(np.array_equal(final, finals[0]) for final in finals[1:])


@pytest.mark.parametrize("eps, plain_evals, variational_evals", [
    (0.01, 415, 1267),
    (0.0, 31, 1261),
])
def test_step_controller_field_evaluation_counts(eps, plain_evals, variational_evals):
    # pins the step sequence: any change to the controller, the tolerances or
    # the error norm moves these counts; with the last stage reused, each
    # integration costs 1 + 6 evaluations per step attempt
    cfg = canonical_config(eps)
    u0 = averaged_zeros(cfg)[0].point
    calls = 0

    def counted_field(t, s):
        nonlocal calls
        calls += 1
        return standard_form_field(cfg, s)

    integrate(counted_field, u0, 2 * np.pi)
    assert calls == plain_evals
    calls = 0
    integrate_with_variational(counted_field, lambda t, s: standard_form_jacobian(cfg, s), u0, 2 * np.pi)
    assert calls == variational_evals


@pytest.mark.parametrize("eps, plain_evals, variational_evals", [
    (0.01, 199, 427),
    (0.0, 31, 31),
])
def test_rotating_frame_field_evaluation_counts(eps, plain_evals, variational_evals):
    # the integrations above in the rotating frame, where only the O(eps)
    # drift is left: at eps = 0.01 at most half the standard form's
    # evaluations, and at eps = 0 the field is zero and the variational run
    # takes the plain run's steps
    cfg = canonical_config(eps)
    u0 = averaged_zeros(cfg)[0].point
    calls = 0

    def counted_field(t, v):
        nonlocal calls
        calls += 1
        return rotating_field(cfg, t, v)

    integrate(counted_field, u0, 2 * np.pi)
    assert calls == plain_evals
    calls = 0
    integrate_with_variational(counted_field, lambda t, v: rotating_jacobian(cfg, t, v), u0, 2 * np.pi)
    assert calls == variational_evals


def test_time_dependent_field_sees_the_stage_times():
    traj = integrate(lambda t, s: np.array([np.cos(t), -np.sin(t), 2 * t, 0.0]), np.zeros(4), 3.0,
                     sample_count=4)
    for t, state in zip(traj.times, traj.states):
        assert np.max(np.abs(state - [np.sin(t), np.cos(t) - 1, t * t, 0.0])) < 1e-9


# ------------------------------------------------------------ failure modes

def test_blowup_raises_with_last_good_state():
    field = lambda t, s: s * np.max(np.abs(s))     # finite-time blow-up
    with pytest.raises(IntegrationError) as err:
        integrate(field, np.array([5.0, 0, 0, 0]), 10.0)
    assert err.value.reason == "blowup"
    assert err.value.last_time >= 0.0
    assert np.all(np.isfinite(err.value.last_state))
    # the last good state is the one before the step that crossed the bound
    assert np.max(np.abs(err.value.last_state)) <= BLOWUP_NORM


def test_max_steps_exceeded_raises(monkeypatch):
    monkeypatch.setattr("chenhopf.integrators.MAX_STEPS", 10)
    with pytest.raises(IntegrationError, match="exceeded max_steps = 10 before t_end") as err:
        integrate(lambda t, s: s, np.ones(4), 50.0)
    assert err.value.reason == "max_steps"


def test_non_finite_field_raises_with_its_reason():
    with pytest.raises(IntegrationError) as err:
        integrate(lambda t, s: np.full(4, np.nan), np.zeros(4), 1.0)
    assert err.value.reason == "non_finite"


def test_overflowing_stage_is_a_non_finite_integration_not_an_input_error():
    # at eps = 1e300 a stage state overflows in the first step; the field
    # rejects it with ValueError, and the stepper reports its own failure
    cfg = canonical_config(1e300)
    start = averaged_zero_points(cfg)[0]
    with pytest.raises(IntegrationError) as err:
        integrate(lambda t, s: standard_form_field(cfg, s), start, 1.0)
    assert err.value.reason == "non_finite"
    assert 0.0 <= err.value.last_time < 1e-290
    assert np.all(np.isfinite(err.value.last_state))


def test_field_input_error_on_a_finite_stage_propagates():
    def picky(t, s):
        if t > 0:
            raise ValueError("not this stage")
        return s

    with pytest.raises(ValueError, match="not this stage"):
        integrate(picky, np.ones(4), 1.0)


def test_large_field_on_a_small_state_is_not_a_blowup():
    # the blow-up guard bounds the state, not the field: over 1e-20 a field
    # of 1e13 moves the state only to 1e-7
    traj = integrate(lambda t, s: 1e13 * np.ones(4), np.zeros(4), 1e-20)
    assert np.allclose(traj.states[-1], 1e-7, rtol=1e-12, atol=0.0)


def test_input_validation():
    with pytest.raises(ValueError):
        integrate(lambda t, s: s, np.ones(4), 0.0)
    with pytest.raises(ValueError):
        integrate(lambda t, s: s, np.ones(4), 1.0, sample_count=1)


def _never_called(_):
    raise AssertionError("the guard must reject the input before any evaluation")


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: periodic_trapezoid(_never_called, _NAN, 8), id="trapezoid-period-nan"),
    pytest.param(lambda: finite_difference_jacobian(_never_called, np.zeros(4), step=_NAN),
                 id="fd-step-nan"),
    pytest.param(lambda: newton_solve(_never_called, np.zeros(4), tol=_NAN), id="newton-tol-nan"),
    pytest.param(lambda: shoot(canonical_config(0.01), np.ones(4), _NAN), id="shoot-period-nan"),
    pytest.param(lambda: branch_study(canonical_config(), [0.01, _NAN]),
                 id="sweep-epsilon-nan"),
    pytest.param(lambda: integrate(_never_called, np.ones(4), _NAN), id="integrate-t_end-nan"),
    pytest.param(lambda: integrate(_never_called, np.ones(4), _INF), id="integrate-t_end-inf"),
    pytest.param(lambda: integrate(_never_called, np.array([1.0, _NAN, 0.0, 0.0]), 1.0),
                 id="integrate-u0-nan"),
    pytest.param(lambda: integrate_with_variational(_never_called, _never_called, np.ones(4), _NAN),
                 id="variational-t_end-nan"),
    pytest.param(lambda: integrate_with_variational(
        _never_called, _never_called, np.array([_INF, 0.0, 0.0, 0.0]), 1.0),
                 id="variational-u0-inf"),
])
def test_input_guards_reject_non_finite_values(call):
    with pytest.raises(ValueError):
        call()


# ------------------------------------------------------------ variational

def test_variational_zero_field_gives_identity():
    final, mono = integrate_with_variational(
        lambda t, s: np.zeros(4), lambda t, s: np.zeros((4, 4)), np.ones(4), 2.0
    )
    assert np.array_equal(final, np.ones(4))
    assert np.max(np.abs(mono - np.eye(4))) < 1e-14


def test_variational_unperturbed_monodromy_is_identity():
    cfg = canonical_config(0.0)
    T = period(cfg)
    _, mono = integrate_with_variational(
        lambda t, s: standard_form_field(cfg, s),
        lambda t, s: standard_form_jacobian(cfg, s),
        np.array([0.4, -0.1, 0.7, 0.2]), T,
    )
    assert np.max(np.abs(mono - np.eye(4))) < 1e-8


def test_variational_matches_fundamental_matrix(rng):
    cfg = canonical_config(0.0)
    for t_end in (0.7, 2.3):
        _, mono = integrate_with_variational(
            lambda t, s: standard_form_field(cfg, s),
            lambda t, s: standard_form_jacobian(cfg, s),
            rng.uniform(-1, 1, 4), t_end,
        )
        assert np.max(np.abs(mono - fundamental_matrix(cfg, t_end))) < 1e-8


def test_variational_matches_flow_map_finite_differences(rng):
    cfg = canonical_config(0.01)
    field = lambda t, s: standard_form_field(cfg, s)
    u0 = rng.uniform(-0.5, 0.5, 4)
    _, mono = integrate_with_variational(
        field, lambda t, s: standard_form_jacobian(cfg, s), u0, 1.0,
    )
    fd = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1e-6
        plus = integrate(field, u0 + e, 1.0).states[-1]
        minus = integrate(field, u0 - e, 1.0).states[-1]
        fd[:, j] = (plus - minus) / 2e-6
    assert np.max(np.abs(mono - fd)) < 1e-5
