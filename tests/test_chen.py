import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chenhopf.chen import (
    ChenParams,
    RegimeConfig,
    RegimeError,
    canonical_config,
    check_zero_hopf_conditions,
    jacobian_full,
    omega,
    origin_char_poly,
    origin_eigenvalues,
    origin_spectrum_gap,
    random_admissible_config,
    split_standard_form,
    standard_form_field,
    standard_form_jacobian,
    vector_field_full,
)
from chenhopf.numerics import (
    QuarticSpectrum,
    determinant,
    eig4,
    finite_difference_jacobian,
)

PARAMS = ChenParams(a=-1.0, b=1.0, c=-1.0, d=2.0, r=1.0)


def _random_params(rng, span=3.0):
    a, b, c, d, r = rng.uniform(-span, span, 5)
    return ChenParams(a=a, b=b, c=c, d=d, r=r)


# ------------------------------------------------------------ vector field

def test_origin_is_always_an_equilibrium(rng):
    for _ in range(100):
        p = _random_params(rng)
        assert np.array_equal(vector_field_full(p, np.zeros(4)), np.zeros(4))


def test_field_hand_substitution_and_independent_recode():
    # independently coded right-hand side used as oracle
    def oracle(p, s):
        x, y, z, w = s
        lin = np.array([
            [-p.a, p.a, 0, 1],
            [p.d, p.c, 0, 0],
            [0, 0, -p.b, 0],
            [0, 0, 0, p.r],
        ]) @ np.asarray(s)
        return lin + np.array([0.0, -x * z, x * y, y * z])

    s = np.array([1.0, 1.0, 1.0, 1.0])
    out = vector_field_full(PARAMS, s)
    assert np.allclose(out, [1.0, 0.0, 0.0, 2.0], atol=1e-15)
    assert np.allclose(out, oracle(PARAMS, s), atol=1e-15)

    out2 = vector_field_full(PARAMS, [0.0, 0.0, 0.0, 1.0])
    assert np.allclose(out2, [1.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_field_rejects_nonfinite_state():
    with pytest.raises(ValueError):
        vector_field_full(PARAMS, [np.nan, 0, 0, 0])


_STATE_FUNCTIONS = {
    "vector_field_full": lambda s: vector_field_full(PARAMS, s),
    "jacobian_full": lambda s: jacobian_full(PARAMS, s),
    "split_standard_form": lambda s: split_standard_form(canonical_config(0.01), s),
    "standard_form_field": lambda s: standard_form_field(canonical_config(0.01), s),
    "standard_form_jacobian": lambda s: standard_form_jacobian(canonical_config(0.01), s),
}


@pytest.mark.parametrize("name", list(_STATE_FUNCTIONS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_state_functions_reject_non_finite_entries(name, bad):
    state = np.array([0.5, bad, 0.0, -1.0])
    message = f"state contains non-finite entries: {state!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _STATE_FUNCTIONS[name](state)


@pytest.mark.parametrize("name", list(_STATE_FUNCTIONS))
@pytest.mark.parametrize("shape", [(3,), (2, 2), (1, 4)], ids=["3", "2x2", "1x4"])
def test_state_functions_reject_wrong_shapes(name, shape):
    message = f"state must have 4 components, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _STATE_FUNCTIONS[name](np.ones(shape))


# ------------------------------------------------------------ jacobian

def test_jacobian_matches_finite_differences(rng):
    for _ in range(50):
        p = _random_params(rng)
        s = rng.uniform(-2, 2, 4)
        jac = jacobian_full(p, s)
        fd = finite_difference_jacobian(lambda vs: np.array([vector_field_full(p, v) for v in vs]), s)
        scale = 1.0 + np.max(np.abs(jac))
        assert np.max(np.abs(jac - fd)) / scale < 1e-6


def test_jacobian_w_coupling_entry_is_one(rng):
    for _ in range(10):
        p = _random_params(rng)
        s = rng.uniform(-5, 5, 4)
        assert jacobian_full(p, s)[0, 3] == 1.0


def test_jacobian_at_origin_is_linear_part():
    p = canonical_config().params
    jac = jacobian_full(p, np.zeros(4))
    spec = origin_eigenvalues(p)
    assert eig4(jac).match_distance(spec) < 1e-8


# ------------------------------------------------------------ char poly / spectrum

def test_char_poly_has_r_and_minus_b_as_roots(rng):
    for _ in range(10):
        p = _random_params(rng)
        coeffs = origin_char_poly(p)
        assert abs(np.polyval(coeffs, p.r)) < 1e-9 * (1 + np.max(np.abs(coeffs)))
        assert abs(np.polyval(coeffs, -p.b)) < 1e-9 * (1 + np.max(np.abs(coeffs)))


def test_char_poly_value_at_zero_from_factored_form():
    p = ChenParams(a=2.0, b=3.0, c=1.0, d=1.0, r=5.0)
    # p(0) = r * b * a(c + d) = 5 * 3 * 2 * 2 = 60, also det(J0) for even dim
    coeffs = origin_char_poly(p)
    assert abs(np.polyval(coeffs, 0.0) - 60.0) < 1e-12
    j0 = jacobian_full(p, np.zeros(4))
    assert abs(determinant(j0) - 60.0) < 1e-10


def test_char_poly_agrees_with_determinant_at_random_points(rng):
    for _ in range(5):
        p = _random_params(rng)
        coeffs = origin_char_poly(p)
        j0 = jacobian_full(p, np.zeros(4)).astype(complex)
        for _ in range(20):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            direct = determinant(j0 - lam * np.eye(4))
            value = np.polyval(coeffs.astype(complex), lam)
            assert abs(value - direct) <= 1e-8 * (1 + abs(direct))


def test_origin_eigenvalues_hand_case():
    p = ChenParams(a=2.0, b=3.0, c=1.0, d=1.0, r=5.0)
    lam34 = 0.5 * (-1 + np.sqrt(17)), 0.5 * (-1 - np.sqrt(17))
    expected = QuarticSpectrum.from_iterable([5.0, -3.0, lam34[0], lam34[1]])
    assert origin_eigenvalues(p).match_distance(expected) < 1e-12
    assert origin_eigenvalues(p).match_distance(eig4(jacobian_full(p, np.zeros(4)))) < 1e-8


def test_origin_eigenvalues_zero_hopf_case():
    # c = a, b = r = 0 and a(a+d) < 0: two zeros plus a purely imaginary pair
    p = ChenParams(a=-1.0, b=0.0, c=-1.0, d=2.0, r=0.0)
    expected = QuarticSpectrum.from_iterable([0.0, 0.0, 1j, -1j])
    assert origin_eigenvalues(p).match_distance(expected) < 1e-14


def test_origin_eigenvalues_canonical_regime():
    p = PARAMS
    expected = QuarticSpectrum.from_iterable([1.0, -1.0, 1j, -1j])
    assert origin_eigenvalues(p).match_distance(expected) < 1e-14


def test_origin_eigenvalues_match_numeric_on_random_draws(rng):
    for _ in range(50):
        assert origin_spectrum_gap(_random_params(rng)) < 1e-8


# ------------------------------------------------------------ conditions

def test_conditions_admissible_canonical():
    report = check_zero_hopf_conditions(canonical_config().params)
    assert report.overall
    assert report.a_times_a_plus_d == -1.0
    assert report.b_times_a_plus_d_times_r == -1.0


def test_conditions_reject_positive_product():
    # b = +1 flips the sign of b(a+d)r out of the admissible regime
    report = check_zero_hopf_conditions(PARAMS)
    assert not report.b_condition_holds
    assert not report.overall


def test_conditions_sign_check_on_a():
    report = check_zero_hopf_conditions(ChenParams(1.0, 1.0, 1.0, 1.0, 1.0))
    assert report.a_times_a_plus_d == 2.0
    assert not report.a_condition_holds


def test_conditions_c_not_equal_a():
    report = check_zero_hopf_conditions(ChenParams(-1.0, 1.0, 0.0, 2.0, 1.0))
    assert not report.c_equals_a


def test_random_admissible_draws_always_pass(rng):
    for _ in range(50):
        cfg = random_admissible_config(rng)
        assert check_zero_hopf_conditions(cfg.params).overall


# ------------------------------------------------------------ regimes / omega

def test_omega_values_and_error():
    assert omega(ChenParams(-1.0, 0, -1.0, 2.0, 0)) == 1.0
    assert omega(ChenParams(-2.0, 0, -2.0, 4.0, 0)) == 2.0
    with pytest.raises(RegimeError):
        omega(ChenParams(1.0, 0, 1.0, 1.0, 0))


def test_regime_config_validation():
    with pytest.raises(RegimeError):
        RegimeConfig(ChenParams(-1.0, 1.0, 0.0, 2.0, 1.0))        # c != a
    with pytest.raises(ValueError):
        RegimeConfig(ChenParams(-1.0, 1.0, -1.0, 2.0, 1.0), -0.1)  # epsilon < 0
    with pytest.raises(RegimeError):
        RegimeConfig(ChenParams(-1.0, 1.0, -1.0, 0.0, 1.0))       # d == 0


# ------------------------------------------------------------ split / standard forms

def test_split_perturbation_on_xy_plane_zeroed_states(rng):
    cfg = canonical_config()
    b, r = cfg.params.b, cfg.params.r
    for _ in range(10):
        z, w = rng.uniform(-2, 2, 2)
        _, pert = split_standard_form(cfg, [0.0, 0.0, z, w])
        assert np.allclose(pert, [0.0, 0.0, -b * z, r * w], atol=1e-15)


def test_split_hand_substitution():
    cfg = RegimeConfig.make(a=-1.0, b=1.0, d=2.0, r=1.0)
    lin, pert = split_standard_form(cfg, [1.0, 1.0, 1.0, 1.0])
    assert np.allclose(lin, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(pert, [0.0, -1.0, 0.0, 2.0], atol=1e-15)


def test_linear_part_ignores_b_r_epsilon(rng):
    s = rng.uniform(-2, 2, 4)
    reference, _ = split_standard_form(RegimeConfig.make(-1.0, 5.0, 2.0, -7.0, 0.3), s)
    for b, r, eps in [(0.0, 0.0, 0.0), (2.0, -3.0, 1.0), (9.0, 9.0, 0.5)]:
        lin, _ = split_standard_form(RegimeConfig.make(-1.0, b, 2.0, r, eps), s)
        assert np.array_equal(lin, reference)


@settings(max_examples=60, deadline=None)
@given(state=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
       eps=st.floats(0.0, 1.0))
def test_split_recombines_to_standard_form(state, eps):
    cfg = canonical_config(eps)
    lin, pert = split_standard_form(cfg, state)
    assert np.max(np.abs(lin + eps * pert - standard_form_field(cfg, state))) < 1e-14


def test_standard_form_field_is_bit_identical_to_its_split(rng):
    # same operation order as linear + eps * perturbation, so the same bits,
    # signed zeros included
    zero_states = [np.zeros(4), -np.zeros(4), np.array([0.0, -0.0, 1.0, -0.0])]
    for eps in (0.0, 0.01, 0.3):
        for cfg in (canonical_config(eps), random_admissible_config(rng).with_epsilon(eps)):
            random_states = [rng.uniform(-span, span, 4) for span in (1.0, 1e3, 1e6) for _ in range(30)]
            for s in zero_states + random_states:
                lin, pert = split_standard_form(cfg, s)
                expected = lin + eps * pert
                out = standard_form_field(cfg, s)
                assert np.array_equal(out, expected)
                assert out.tobytes() == expected.tobytes()


def test_standard_form_is_rescaled_scaled_field(rng):
    # shrinking coordinates by eps maps the full field with dissipation
    # coefficients (eps*b, eps*r) onto the standard form
    for eps in (0.1, 0.02):
        cfg = canonical_config(eps)
        p = cfg.params
        shrunk = ChenParams(a=p.a, b=eps * p.b, c=p.a, d=p.d, r=eps * p.r)
        for _ in range(20):
            s = rng.uniform(-2, 2, 4)
            lhs = eps * standard_form_field(cfg, s)
            rhs = vector_field_full(shrunk, eps * s)
            assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_standard_form_jacobian_is_the_shrunk_full_jacobian_bit_for_bit(rng):
    # one L + eps DN body serves both; times 1.0 and negation are exact, so the
    # bytes agree, signed zeros included
    zero_states = [np.zeros(4), -np.zeros(4), np.array([0.0, -0.0, 1.0, -0.0])]
    for eps in (0.0, 0.01, 0.3, 1.0):
        for cfg in (canonical_config(eps), random_admissible_config(rng).with_epsilon(eps)):
            p = cfg.params
            shrunk = ChenParams(a=p.a, b=eps * p.b, c=p.a, d=p.d, r=eps * p.r)
            random_states = [rng.uniform(-span, span, 4) for span in (1.0, 1e3, 1e6) for _ in range(10)]
            for s in zero_states + random_states:
                expected = jacobian_full(shrunk, eps * s)
                assert standard_form_jacobian(cfg, s).tobytes() == expected.tobytes()


def test_full_field_at_c_equal_a_is_the_split_at_unit_epsilon(rng):
    # one body each for L and N: L + N is the full field with c = a
    zero_states = [np.zeros(4), -np.zeros(4), np.array([0.0, -0.0, 1.0, -0.0])]
    for cfg in (canonical_config(1.0), random_admissible_config(rng).with_epsilon(1.0)):
        random_states = [rng.uniform(-span, span, 4) for span in (1.0, 1e3, 1e6) for _ in range(10)]
        for s in zero_states + random_states:
            lin, pert = split_standard_form(cfg, s)
            assert np.array_equal(vector_field_full(cfg.params, s), lin + cfg.epsilon * pert)


def test_standard_form_jacobian_matches_finite_differences(rng):
    cfg = canonical_config(0.3)
    for _ in range(10):
        s = rng.uniform(-2, 2, 4)
        fd = finite_difference_jacobian(lambda vs: np.array([standard_form_field(cfg, v) for v in vs]), s)
        assert np.max(np.abs(standard_form_jacobian(cfg, s) - fd)) < 1e-6
