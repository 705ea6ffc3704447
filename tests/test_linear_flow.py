import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chenhopf.chen import (
    RegimeConfig,
    RegimeError,
    canonical_config,
    omega,
    random_admissible_config,
    split_standard_form,
    standard_form_jacobian,
)
from chenhopf.averaging import (
    averaged_spectrum,
    averaged_zero_points,
    averaged_zeros,
    bifurcation_function,
    bifurcation_function_quadrature,
    jacobian_determinant,
    refine_zero,
    stability_verdict,
)
from chenhopf.linear_flow import (
    flow,
    fundamental_matrix,
    fundamental_matrix_inverse,
    inverse_gap,
    period,
    rotating_kernels,
)


HYPERBOLIC_POS = RegimeConfig.make(a=1.0, b=0.0, d=0.5, r=0.0)    # a > 0, a+d > 0
ELLIPTIC_POS_A = RegimeConfig.make(a=0.7, b=0.0, d=-1.9, r=0.0)   # a > 0, a+d < 0


def _ode_residual(cfg, u, t, h=1e-5):
    """Centered difference of the flow in t minus the linear part of the field."""
    deriv = (flow(cfg, u, t + h) - flow(cfg, u, t - h)) / (2 * h)
    lin, _ = split_standard_form(cfg, flow(cfg, u, t))
    return np.max(np.abs(deriv - lin))


def test_flow_at_zero_is_initial_condition(rng):
    for cfg in (canonical_config(), ELLIPTIC_POS_A):
        for _ in range(5):
            u = rng.uniform(-2, 2, 4)
            assert np.allclose(flow(cfg, u, 0.0), u, atol=1e-14)


def test_flow_elliptic_hand_case():
    # a=-1, d=2, u=(1,0,0,0): x(t)=cos t + sin t, y(t)=2 sin t
    cfg = RegimeConfig.make(a=-1.0, b=0.0, d=2.0, r=0.0)
    out = flow(cfg, [1.0, 0.0, 0.0, 0.0], np.pi / 2)
    assert np.allclose(out, [1.0, 2.0, 0.0, 0.0], atol=1e-12)
    for t in (0.3, 1.1, 2.9):
        assert _ode_residual(cfg, np.array([1.0, 0, 0, 0]), t) < 1e-10


def test_flow_is_periodic_on_elliptic_branch(rng):
    cfg = canonical_config()
    T = period(cfg)
    for _ in range(20):
        u = rng.uniform(-3, 3, 4)
        defect = np.max(np.abs(flow(cfg, u, T) - u))
        assert defect <= 1e-10 * (1 + np.max(np.abs(u)))


def test_flow_solves_the_ode(rng):
    for cfg in (canonical_config(), ELLIPTIC_POS_A):
        for _ in range(10):
            u = rng.uniform(-2, 2, 4)
            t = rng.uniform(0.05, 2.0)
            assert _ode_residual(cfg, u, t) < 1e-6


def test_flow_group_property(admissible_configs, rng):
    # negative times included: flow(., -t) undoes flow(., t), which the quadrature relies on
    for cfg in [canonical_config()] + admissible_configs:
        for _ in range(20):
            u = rng.uniform(-2, 2, 4)
            s, t = rng.uniform(-4, 4, 2)
            left = flow(cfg, flow(cfg, u, s), t)
            right = flow(cfg, u, s + t)
            assert np.max(np.abs(left - right)) < 1e-10
            assert np.max(np.abs(flow(cfg, flow(cfg, u, t), -t) - u)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    u=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    v=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    alpha=st.floats(-2, 2),
    beta=st.floats(-2, 2),
    t=st.floats(0, 6),
)
def test_flow_is_linear_in_the_initial_condition(u, v, alpha, beta, t):
    cfg = canonical_config()
    u, v = np.array(u), np.array(v)
    combined = flow(cfg, alpha * u + beta * v, t)
    separate = alpha * flow(cfg, u, t) + beta * flow(cfg, v, t)
    assert np.max(np.abs(combined - separate)) < 1e-10


_OUTSIDE_ELLIPTIC = [
    pytest.param(HYPERBOLIC_POS, id="a(a+d)>0"),
    pytest.param(RegimeConfig.make(a=0.0, b=-1.0, d=2.0, r=1.0), id="a=0"),
    pytest.param(RegimeConfig.make(a=1.0, b=-1.0, d=-1.0, r=1.0), id="a+d=0"),
]
_SEED = np.array([0.3, -0.2, 0.5, 0.1])
_REGIME_CALLS = [
    pytest.param(lambda cfg: flow(cfg, _SEED, 1.0), id="flow"),
    pytest.param(lambda cfg: fundamental_matrix(cfg, 1.0), id="fundamental_matrix"),
    pytest.param(lambda cfg: fundamental_matrix_inverse(cfg, 1.0), id="fundamental_matrix_inverse"),
    pytest.param(period, id="period"),
    pytest.param(lambda cfg: bifurcation_function(cfg, _SEED), id="bifurcation_function"),
    pytest.param(lambda cfg: bifurcation_function_quadrature(cfg, _SEED),
                 id="bifurcation_function_quadrature"),
    pytest.param(averaged_spectrum, id="averaged_spectrum"),
    pytest.param(averaged_zeros, id="averaged_zeros"),
    pytest.param(lambda cfg: refine_zero(cfg, _SEED), id="refine_zero_closed"),
    pytest.param(lambda cfg: refine_zero(cfg, _SEED, use_quadrature=True),
                 id="refine_zero_quadrature"),
    pytest.param(averaged_zero_points, id="averaged_zero_points"),
    pytest.param(jacobian_determinant, id="jacobian_determinant"),
    pytest.param(stability_verdict, id="stability_verdict"),
]


@pytest.mark.parametrize("call", _REGIME_CALLS)
@pytest.mark.parametrize("cfg", _OUTSIDE_ELLIPTIC)
def test_elliptic_regime_is_required_everywhere(cfg, call):
    """Every closed-form and averaging entry point refuses a(a+d) >= 0 via chen.omega."""
    with pytest.raises(RegimeError, match=r"elliptic case required: a\*\(a\+d\)"):
        call(cfg)


# ------------------------------------------------------------ fundamental matrix

def test_fundamental_matrix_identity_at_zero_and_period():
    cfg = canonical_config()
    T = period(cfg)
    assert np.max(np.abs(fundamental_matrix(cfg, 0.0) - np.eye(4))) < 1e-14
    assert np.max(np.abs(fundamental_matrix(cfg, T) - np.eye(4))) < 1e-12


def test_fundamental_matrix_propagates_like_flow(rng):
    cfg = canonical_config()
    for _ in range(20):
        u = rng.uniform(-2, 2, 4)
        t = rng.uniform(0, 8)
        assert np.max(np.abs(fundamental_matrix(cfg, t) @ u - flow(cfg, u, t))) < 1e-12


def test_inverse_matrix_identity_at_zero_and_period():
    cfg = canonical_config()
    T = period(cfg)
    assert np.max(np.abs(fundamental_matrix_inverse(cfg, 0.0) - np.eye(4))) < 1e-14
    assert np.max(np.abs(fundamental_matrix_inverse(cfg, T) - np.eye(4))) < 1e-12


def test_inverse_matrix_times_matrix_is_identity():
    cfg = RegimeConfig.make(a=-1.0, b=0.0, d=2.0, r=0.0)
    assert inverse_gap(cfg, 0.7) < 1e-12


def test_inverse_matrix_matches_numerical_inversion(rng):
    # draw elliptic parameter pairs directly
    for _ in range(20):
        a = rng.uniform(0.5, 1.6) * rng.choice([-1, 1])
        s = -np.sign(a) * rng.uniform(0.5, 1.6)
        cfg = RegimeConfig.make(a=a, b=0.0, d=s - a, r=0.0)
        t = rng.uniform(0, 10)
        numeric_inverse = np.linalg.inv(fundamental_matrix(cfg, t))
        assert np.max(np.abs(numeric_inverse - fundamental_matrix_inverse(cfg, t))) < 1e-9


def test_batched_calls_equal_the_stack_of_scalar_calls(admissible_configs, rng):
    for cfg in [canonical_config(0.01)] + admissible_configs:
        times = rng.uniform(-20, 20, 16)
        states = rng.uniform(-2, 2, (16, 4))
        states[0] = [-1.5, 0.0, -0.0, -2.0]  # negative entries give signed zeros
        u = states[1]
        one_state = np.array([flow(cfg, u, t) for t in times])
        assert flow(cfg, u, times).tobytes() == one_state.tobytes()
        pairwise = np.array([flow(cfg, s, t) for s, t in zip(states, times)])
        assert flow(cfg, states, times).tobytes() == pairwise.tobytes()
        for t in times:
            assert fundamental_matrix_inverse(cfg, t).tobytes() == fundamental_matrix(cfg, -t).tobytes()
        linear, perturbation = split_standard_form(cfg, states)
        for s, lin_row, pert_row in zip(states, linear, perturbation):
            lin, pert = split_standard_form(cfg, s)
            assert lin_row.tobytes() == lin.tobytes() and pert_row.tobytes() == pert.tobytes()
        basis_flows = np.column_stack([flow(cfg, e, times[0]) for e in np.eye(4)])
        assert fundamental_matrix(cfg, times[0]).tobytes() == basis_flows.tobytes()


def test_one_shape_path_for_every_kind_of_scalar(admissible_configs, rng):
    # a time as a Python float, an np.float64 and a 0-d array takes one path
    for cfg in [canonical_config(0.01)] + admissible_configs:
        t = float(rng.uniform(-20, 20))
        states = rng.uniform(-2, 2, (3, 4))
        for u in (states[0], states):
            ref = flow(cfg, u, t)
            assert ref.shape == u.shape
            for same in (np.float64(t), np.array(t)):
                assert flow(cfg, u, same).tobytes() == ref.tobytes()
        ref = fundamental_matrix_inverse(cfg, t)
        assert ref.shape == (4, 4)
        for same in (np.float64(t), np.array(t)):
            assert fundamental_matrix_inverse(cfg, same).tobytes() == ref.tobytes()
        linear, perturbation = split_standard_form(cfg, states[0])
        rows = split_standard_form(cfg, states[:1])
        assert linear.shape == perturbation.shape == (4,)
        assert linear.tobytes() == rows[0][0].tobytes() and perturbation.tobytes() == rows[1][0].tobytes()
        # a single state or point runs the stacked body: it equals its one-row stack bit for bit
        assert flow(cfg, states[0], t).tobytes() == flow(cfg, states[:1], t)[0].tobytes()
        single, stacked = bifurcation_function(cfg, states[0]), bifurcation_function(cfg, states[:1])
        assert single.tobytes() == stacked[0].tobytes()


# ------------------------------------------------------------ period data

def test_period_values():
    cfg = RegimeConfig.make(a=-1.0, b=0.0, d=2.0, r=0.0)
    assert omega(cfg.params) == 1.0
    assert abs(period(cfg) - 2 * np.pi) < 1e-15
    cfg2 = RegimeConfig.make(a=-2.0, b=0.0, d=6.0, r=0.0)
    assert omega(cfg2.params) == np.sqrt(8.0)


def test_period_omega_consistency(rng):
    for _ in range(10):
        a = rng.uniform(0.5, 1.6) * rng.choice([-1, 1])
        s = -np.sign(a) * rng.uniform(0.5, 1.6)
        cfg = RegimeConfig.make(a=a, b=0.0, d=s - a, r=0.0)
        assert abs(omega(cfg.params) * period(cfg) - 2 * np.pi) < 1e-12


# ------------------------------------------------------------ rotating frame

def test_rotating_pair_matches_the_composed_standard_form(rng):
    # v' = eps Phi^{-1} N(Phi v), and its Jacobian Phi^{-1} (J(Phi v) - J_0) Phi,
    # composed from the closed-form flow, its inverse and the standard form
    for _ in range(200):
        cfg = random_admissible_config(rng).with_epsilon(rng.uniform(0.0, 0.1))
        t, v = rng.uniform(-10, 10), rng.uniform(-2, 2, 4)
        field, field_and_jacobian = rotating_kernels(cfg)
        u, inv = flow(cfg, v, t), fundamental_matrix_inverse(cfg, t)
        ref_field = cfg.epsilon * inv @ split_standard_form(cfg, u)[1]
        ref_jac = inv @ (standard_form_jacobian(cfg, u)
                         - standard_form_jacobian(cfg.with_epsilon(0.0), u)) @ fundamental_matrix(cfg, t)
        for got, ref in ((field(t, v), ref_field), (field_and_jacobian(t, v)[1], ref_jac)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))


def test_rotating_field_and_jacobian_is_the_field_and_the_composed_jacobian(rng):
    # the pair's field is the plain kernel's bit for bit, and its Jacobian meets
    # the composed reference above
    for _ in range(200):
        cfg = random_admissible_config(rng).with_epsilon(rng.uniform(0.0, 0.1))
        t, v = rng.uniform(-10, 10), rng.uniform(-2, 2, 4)
        field, field_and_jacobian = rotating_kernels(cfg)
        value, jacobian = field_and_jacobian(t, v)
        assert np.array(value).tobytes() == np.array(field(t, v)).tobytes()
        u, inv = flow(cfg, v, t), fundamental_matrix_inverse(cfg, t)
        ref = inv @ (standard_form_jacobian(cfg, u)
                     - standard_form_jacobian(cfg.with_epsilon(0.0), u)) @ fundamental_matrix(cfg, t)
        assert jacobian.shape == (4, 4)
        assert np.max(np.abs(jacobian - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))


def _rotating_field(cfg, t, v):
    """The plain kernel of a fresh pair."""
    return rotating_kernels(cfg)[0](t, v)


def _rotating_jacobian(cfg, t, v):
    """The Jacobian half of a fresh pair's field_and_jacobian."""
    return rotating_kernels(cfg)[1](t, v)[1]


@pytest.mark.parametrize("call", [
    pytest.param(_rotating_field, id="rotating_field"),
    pytest.param(_rotating_jacobian, id="rotating_jacobian"),
])
def test_rotating_pair_is_zero_at_eps_zero_and_validates_its_input(call):
    assert not np.any(call(canonical_config(0.0), 1.3, _SEED))
    with pytest.raises(ValueError, match="non-finite"):
        call(canonical_config(0.01), 1.3, np.array([0.5, np.nan, 0.0, -1.0]))
    with pytest.raises(RegimeError, match="elliptic case required"):
        call(HYPERBOLIC_POS, 1.3, _SEED)
