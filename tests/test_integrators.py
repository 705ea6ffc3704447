import math
import re

import numpy as np
import pytest

from chenhopf import integrators
from chenhopf.averaging import averaged_zero_points, averaged_zeros
from chenhopf.chen import (
    _nonlinear,
    _state,
    canonical_config,
    omega,
    random_admissible_config,
    split_standard_form,
    standard_form_field,
    standard_form_jacobian,
)
from chenhopf.integrators import (
    ABS_TOL,
    BLOWUP_NORM,
    REL_TOL,
    IntegrationError,
    integrate,
    integrate_with_variational,
)
from chenhopf.linear_flow import flow, fundamental_matrix, period, rotating_kernels
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
    for n in (2, 3, 200, 20001):
        traj = integrate(field, u, 7.0, sample_count=n)
        assert traj.states.shape == (n, 4)
        assert np.array_equal(traj.states[0], u)
        finals.append(traj.states[-1])
    assert all(np.array_equal(final, finals[0]) for final in finals[1:])


_DENSE_OUTPUT = integrators._dense_output


def _spy_dense_output(monkeypatch):
    # records each block call's step data and rows; k is copied because the
    # stepper overwrites it on the next step
    calls = []

    def spy(t, h, y, k, times):
        rows = _DENSE_OUTPUT(t, h, y, k, times)
        calls.append((t, h, y.copy(), k.copy(), times.copy(), rows))
        return rows

    monkeypatch.setattr(integrators, "_dense_output", spy)
    return calls


def _check_against_per_sample_reference(calls, traj):
    # the quartic interpolant one sample at a time: y + q @ [theta, ..., theta^4]
    assert np.array_equal(np.concatenate([c[4] for c in calls]), traj.times[1:-1])
    for t, h, y, k, times, rows in calls:
        # each sample lies in (t, t + h] up to the stepper's 1e-15 slack
        assert np.all(times > t + 1e-15) and np.all(times <= t + h + 1e-15)
        q = (k.T @ integrators._P) * h
        for time, row in zip(times, rows):
            theta = min(1.0, (time - t) / h)
            ref = y + q @ np.array([theta, theta**2, theta**3, theta**4])
            assert np.max(np.abs(row - ref)) <= 4e-16 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("field_name", ["standard_form", "linear_part"])
def test_block_dense_output_matches_a_per_sample_reference(monkeypatch, field_name):
    cfg = canonical_config(0.01)
    field = {"standard_form": lambda t, s: standard_form_field(cfg, s),
             "linear_part": _linear_part_field(cfg)}[field_name]
    u = np.array([0.3, -0.2, 0.5, 0.1])
    calls = 0

    def counted(t, s):
        nonlocal calls
        calls += 1
        return field(t, s)

    plain = integrate(counted, u, 7.0)
    plain_calls = calls
    for n in (3, 17, 200, 20001):
        recorded = _spy_dense_output(monkeypatch)
        calls = 0
        traj = integrate(counted, u, 7.0, sample_count=n)
        assert calls == plain_calls
        assert np.array_equal(traj.states[0], u)
        assert np.array_equal(traj.states[-1], plain.states[-1])
        _check_against_per_sample_reference(recorded, traj)
        assert np.array_equal(np.vstack([c[5] for c in recorded]), traj.states[1:-1])


def test_block_dense_output_on_samples_at_step_ends(monkeypatch):
    # a step end e from a densely sampled run; over [0, 2e] with 2^k + 1
    # samples, sample 2^(k-1) is e exactly, so it falls on the end of its
    # step, where theta is clipped to 1
    cfg = canonical_config(0.01)
    field = lambda t, s: standard_form_field(cfg, s)
    u = np.array([0.3, -0.2, 0.5, 0.1])
    recorded = _spy_dense_output(monkeypatch)
    integrate(field, u, 7.0, sample_count=20001)
    step_ends = [t for t, *_ in recorded[1:]]
    for end in step_ends[::10]:
        for n in (3, 17):
            recorded = _spy_dense_output(monkeypatch)
            traj = integrate(field, u, 2 * end, sample_count=n)
            assert traj.times[(n - 1) // 2] == end
            assert end in [t + h for t, h, *_ in recorded]
            _check_against_per_sample_reference(recorded, traj)


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
    integrate_with_variational(
        lambda t, s: (counted_field(t, s), standard_form_jacobian(cfg, s)), u0, 2 * np.pi)
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
    field, field_and_jacobian = rotating_kernels(cfg)
    calls = 0

    def counted(call):
        def wrapped(t, v):
            nonlocal calls
            calls += 1
            return call(t, v)
        return wrapped

    integrate(counted(field), u0, 2 * np.pi)
    assert calls == plain_evals
    calls = 0
    integrate_with_variational(counted(field_and_jacobian), u0, 2 * np.pi)
    assert calls == variational_evals


@pytest.mark.parametrize("rows, cols", [(i, n) for n in (4, 20) for i in range(1, 8)])
def test_dot_matches_matmul_at_the_stepper_shapes(rng, rows, cols):
    # the stepper's stage sums (i,) @ (i, n) and error estimate (7,) @ (7, n)
    # go through ndarray.dot; its results must be matmul's bit for bit on this BLAS
    for _ in range(300):
        coef = rng.standard_normal(rows) * 10.0 ** rng.integers(-3, 4, rows)
        k = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 3, (rows, 1))
        got = coef.dot(k)
        assert got.tobytes() == (coef @ k).tobytes() == np.matmul(coef, k).tobytes()


def test_dot_into_a_buffer_matches_matmul_for_the_variational_product(rng):
    # integrate_with_variational writes J W into a reused (4, 4) view with ndarray.dot
    out = np.empty(20)
    view = out[4:].reshape(4, 4)
    for _ in range(2000):
        jac, mat = rng.standard_normal((2, 4, 4)) * 10.0 ** rng.integers(-6, 3, (2, 1, 1))
        jac.dot(mat, out=view)
        assert view.tobytes() == (jac @ mat).tobytes() == np.matmul(jac, mat).tobytes()


def test_a_field_may_return_one_reused_buffer():
    # the stepper copies every field value into its stage row, so a field that
    # writes each value into the same array integrates bit for bit like one
    # that allocates
    cfg = canonical_config(0.01)
    u0 = averaged_zeros(cfg)[0].point
    buffer = np.empty(4)

    def reused(t, s):
        buffer[:] = standard_form_field(cfg, s)
        return buffer

    fresh = integrate(lambda t, s: standard_form_field(cfg, s), u0, 2 * np.pi, sample_count=7)
    again = integrate(reused, u0, 2 * np.pi, sample_count=7)
    assert again.states.tobytes() == fresh.states.tobytes()


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


@pytest.mark.parametrize("value, state", [
    pytest.param(1.0, np.zeros(3), id="scalar"),
    pytest.param(np.ones(1), np.zeros(2), id="one-vector"),
    pytest.param(np.ones(3), np.zeros(2), id="three-vector-on-two-state"),
])
def test_field_value_must_have_the_state_shape(value, state):
    # a misshapen field value would broadcast into the stage rows; the stepper
    # checks the value at t = 0 against the state and names both shapes
    message = f"field value has shape {np.shape(value)}, the state has shape {state.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate(lambda t, s: value, state, 1.0)


def _never_called(_):
    raise AssertionError("the guard must reject the input before any evaluation")


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: periodic_trapezoid(_never_called, _NAN, 8), id="trapezoid-period-nan"),
    pytest.param(lambda: finite_difference_jacobian(_never_called, np.zeros(4), step=_NAN),
                 id="fd-step-nan"),
    pytest.param(lambda: newton_solve(_never_called, np.zeros(4), tol=_NAN), id="newton-tol-nan"),
    pytest.param(lambda: newton_solve(_never_called, np.zeros(4), tol=_INF), id="newton-tol-inf"),
    pytest.param(lambda: shoot(canonical_config(0.01), np.ones(4), _NAN), id="shoot-period-nan"),
    pytest.param(lambda: branch_study(canonical_config(), [0.01, _NAN]),
                 id="sweep-epsilon-nan"),
    pytest.param(lambda: integrate(_never_called, np.ones(4), _NAN), id="integrate-t_end-nan"),
    pytest.param(lambda: integrate(_never_called, np.ones(4), _INF), id="integrate-t_end-inf"),
    pytest.param(lambda: integrate(_never_called, np.array([1.0, _NAN, 0.0, 0.0]), 1.0),
                 id="integrate-u0-nan"),
    pytest.param(lambda: integrate_with_variational(_never_called, np.ones(4), _NAN),
                 id="variational-t_end-nan"),
    pytest.param(lambda: integrate_with_variational(
        _never_called, np.array([_INF, 0.0, 0.0, 0.0]), 1.0),
                 id="variational-u0-inf"),
])
def test_input_guards_reject_non_finite_values(call):
    with pytest.raises(ValueError):
        call()


# ------------------------------------------------------------ variational

@pytest.mark.parametrize("frame", ["rotating", "standard_form"])
def test_variational_buffer_is_the_concatenated_augmented_field(frame):
    # the augmented field writes field and J @ W into one buffer; the same
    # products concatenated must give the same integration byte for byte
    cfg = canonical_config(0.01)
    pair = {"rotating": rotating_kernels(cfg)[1],
            "standard_form": lambda t, s: (standard_form_field(cfg, s),
                                           standard_form_jacobian(cfg, s))}[frame]
    u = averaged_zero_points(cfg)[0]

    def augmented(t, y):
        f, J = pair(t, y[:4])
        return np.concatenate([f, (J @ y[4:].reshape(4, 4)).ravel()])

    final, mono = integrate_with_variational(pair, u, 2 * np.pi)
    end = integrate(augmented, np.concatenate([u, np.eye(4).ravel()]), 2 * np.pi).states[-1]
    assert final.tobytes() == end[:4].tobytes()
    assert mono.tobytes() == end[4:].reshape(4, 4).tobytes()


def test_variational_zero_field_gives_identity():
    final, mono = integrate_with_variational(
        lambda t, s: (np.zeros(4), np.zeros((4, 4))), np.ones(4), 2.0
    )
    assert np.array_equal(final, np.ones(4))
    assert np.max(np.abs(mono - np.eye(4))) < 1e-14


def test_variational_unperturbed_monodromy_is_identity():
    cfg = canonical_config(0.0)
    T = period(cfg)
    _, mono = integrate_with_variational(
        lambda t, s: (standard_form_field(cfg, s), standard_form_jacobian(cfg, s)),
        np.array([0.4, -0.1, 0.7, 0.2]), T,
    )
    assert np.max(np.abs(mono - np.eye(4))) < 1e-8


def test_variational_matches_fundamental_matrix(rng):
    cfg = canonical_config(0.0)
    for t_end in (0.7, 2.3):
        _, mono = integrate_with_variational(
            lambda t, s: (standard_form_field(cfg, s), standard_form_jacobian(cfg, s)),
            rng.uniform(-1, 1, 4), t_end,
        )
        assert np.max(np.abs(mono - fundamental_matrix(cfg, t_end))) < 1e-8


def test_variational_matches_flow_map_finite_differences(rng):
    cfg = canonical_config(0.01)
    field = lambda t, s: standard_form_field(cfg, s)
    u0 = rng.uniform(-0.5, 0.5, 4)
    _, mono = integrate_with_variational(
        lambda t, s: (field(t, s), standard_form_jacobian(cfg, s)), u0, 1.0,
    )
    fd = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1e-6
        plus = integrate(field, u0 + e, 1.0).states[-1]
        minus = integrate(field, u0 - e, 1.0).states[-1]
        fd[:, j] = (plus - minus) / 2e-6
    assert np.max(np.abs(mono - fd)) < 1e-5


# ------------------------------------------------------------ reference hot path

def _reference_rk45(field, u0, t_end, sample_count=2):
    """The stepper before its per-stage overhead was cut: the byte-for-byte oracle of the core."""
    start = np.array(u0, dtype=float)
    y, t = start, 0.0
    f0 = np.asarray(field(0.0, y), dtype=float)
    y_norm = float(np.abs(y).max())
    h = min(t_end, 0.01 * (1.0 + y_norm) / (1.0 + float(np.abs(f0).max())))
    times = np.linspace(0.0, t_end, sample_count)
    interior = times[1:-1]
    samples = np.empty((interior.size, y.size))
    next_sample = 0
    A, C, ERR = integrators._A, integrators._C, integrators._ERR
    k = np.empty((7, y.size))
    k[0] = f0
    err_prev = 1.0
    while t < t_end:
        h = min(h, t_end - t)
        for i in range(1, 7):
            y_new = y + h * A[i].dot(k[:i])
            k[i] = field(t + C[i] * h, y_new)
        y_new_norm = float(np.abs(y_new).max())
        err_norm = h * float(np.abs(ERR.dot(k)).max())
        err = err_norm / (ABS_TOL + REL_TOL * max(y_norm, y_new_norm))
        if err <= 1.0:
            if next_sample < interior.size and interior[next_sample] <= t + h + 1e-15:
                stop = int(np.searchsorted(interior, t + h + 1e-15, side="right"))
                samples[next_sample:stop] = integrators._dense_output(t, h, y, k, interior[next_sample:stop])
                next_sample = stop
            t += h
            y, y_norm = y_new, y_new_norm
            k[0] = k[6]
            fac = 0.9 * (err + 1e-20) ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            err_prev = max(err, 1e-4)
            h *= min(5.0, max(0.2, fac))
        else:
            h *= max(0.2, min(1.0, 0.9 * err ** (-0.2)))
    return np.vstack([start, samples, y])


def _reference_variational(field_and_jacobian, u0, t_end):
    u0 = np.asarray(u0, dtype=float)
    out = np.empty(20)
    out_mat = out[4:].reshape(4, 4)

    def augmented(t, y):
        field, jacobian = field_and_jacobian(t, y[:4])
        out[:4] = field
        jacobian.dot(y[4:].reshape(4, 4), out=out_mat)
        return out

    final = _reference_rk45(augmented, np.concatenate([u0, np.eye(4).ravel()]), t_end)[-1]
    return final[:4], final[4:].reshape(4, 4)


def _reference_rotating_kernels(config):
    """The rotating pair before its per-call overhead was cut: one shared rotate, array values."""
    p, eps = config.params, config.epsilon
    om, a, d, b, r = omega(p), p.a, p.d, p.b, p.r
    ad = a + d
    a_ad = a * ad
    k_ad, k_a, k_d = om / ad, om / a, om * d / a_ad

    def rotate(t, v):
        cos, sin = math.cos(om * t), math.sin(om * t)
        ks, ws, kds = k_ad * sin, k_a * sin / ad, k_d * sin
        dx, dy = (1 - cos) / ad, d * (cos - 1) / a_ad
        rows = (cos + ks, -ks, dx - ws, -kds, cos - ks, dy)
        vx, vy, vz, vw = _state(v)
        x = rows[0] * vx + rows[1] * vy + rows[2] * vw
        y = rows[3] * vx + rows[4] * vy + rows[5] * vw
        q01, q03, q11, q13 = q = (ks, dx + ws, cos + ks, dy)
        n1, n2, n3 = _nonlinear(b, r, x, y, vz, vw)
        drift = np.array([eps * (q01 * n1 + q03 * n3), eps * (q11 * n1 + q13 * n3), eps * n2, eps * n3])
        return drift, x, y, vz, rows, q

    def field_and_jacobian(t, v):
        drift, x, y, z, (p00, p01, p03, p10, p11, p13), (q01, q03, q11, q13) = rotate(t, v)
        g0, g1, g3 = -z * p00, -z * p01, -z * p03
        h0, h1, h3 = z * p10, z * p11, z * p13 + r
        a1, a3, c1, c3 = eps * q01, eps * q03, eps * q11, eps * q13
        jacobian = np.array([
            a1 * g0 + a3 * h0, a1 * g1 + a3 * h1, a3 * y - a1 * x, a1 * g3 + a3 * h3,
            c1 * g0 + c3 * h0, c1 * g1 + c3 * h1, c3 * y - c1 * x, c1 * g3 + c3 * h3,
            eps * (y * p00 + x * p10), eps * (y * p01 + x * p11), -eps * b, eps * (y * p03 + x * p13),
            eps * h0, eps * h1, eps * y, eps * h3,
        ]).reshape(4, 4)
        return drift, jacobian

    return (lambda t, v: rotate(t, v)[0]), field_and_jacobian


@pytest.mark.parametrize("frame", ["rotating", "standard_form"])
def test_hot_path_is_bit_identical_to_the_reference(rng, frame):
    # both canonical refusal seeds, then random configs at each epsilon from
    # a point off their averaged zero; the pinned counts above fix the steps,
    # this fixes every bit of every sample, endpoint and monodromy matrix
    cases = [(canonical_config(eps), averaged_zero_points(canonical_config(eps))[branch])
             for eps in (0.005, 0.01) for branch in (0, 1)]
    for base in [random_admissible_config(rng) for _ in range(3)]:
        for eps in (0.0, 0.005, 0.01, 0.04):
            cfg = base.with_epsilon(eps)
            cases.append((cfg, averaged_zero_points(cfg)[0] + rng.uniform(-0.1, 0.1, 4)))
    for cfg, u0 in cases:
        if frame == "rotating":
            (field, pair), (ref_field, ref_pair) = rotating_kernels(cfg), _reference_rotating_kernels(cfg)
        else:
            field = ref_field = lambda t, s: standard_form_field(cfg, s)
            pair = ref_pair = lambda t, s: (standard_form_field(cfg, s), standard_form_jacobian(cfg, s))
        T = period(cfg)
        got = integrate(field, u0, T, sample_count=5).states
        assert got.tobytes() == _reference_rk45(ref_field, u0, T, sample_count=5).tobytes()
        for got, want in zip(integrate_with_variational(pair, u0, T), _reference_variational(ref_pair, u0, T)):
            assert got.tobytes() == want.tobytes()
