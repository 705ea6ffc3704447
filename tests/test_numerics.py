import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chenhopf.numerics import (
    NewtonReport,
    QuarticSpectrum,
    SingularMatrixError,
    determinant,
    eig4,
    finite_difference_jacobian,
    newton_solve,
    periodic_trapezoid,
)


# ------------------------------------------------------------ quadrature

def _first_column(values):
    """An integrand's (nodes, 4) samples: values in column 0, zeros elsewhere."""
    out = np.zeros((len(values), 4))
    out[:, 0] = values
    return out


def _times(period, nodes):
    """The node times period * k / nodes, k = 0, ..., nodes - 1."""
    return period * np.arange(nodes) / nodes


def test_trapezoid_full_period_cosine_averages_to_zero():
    out = periodic_trapezoid(_first_column(np.cos(_times(2 * np.pi, 16))), 2 * np.pi)
    assert np.max(np.abs(out)) < 1e-14


def test_trapezoid_cosine_squared_matches_riemann_oracle():
    # independent oracle: brute-force Riemann sum on a million nodes
    ts = 2 * np.pi * np.arange(1_000_000) / 1_000_000
    oracle = float(np.mean(np.cos(ts) ** 2))
    assert abs(oracle - 0.5) < 1e-9
    out = periodic_trapezoid(_first_column(np.cos(_times(2 * np.pi, 16)) ** 2), 2 * np.pi)
    assert abs(out[0] - oracle) < 1e-9
    assert abs(out[0] - 0.5) < 1e-14
    assert np.max(np.abs(out[1:])) == 0.0


def test_trapezoid_constant_integrand_is_identity():
    const = np.array([1.0, 2.0, 3.0, 4.0])
    out = periodic_trapezoid(np.tile(const, (8, 1)), 7.3)
    assert np.array_equal(out, const)


def test_trapezoid_input_validation():
    with pytest.raises(ValueError):
        periodic_trapezoid(np.zeros((8, 4)), 0.0)
    with pytest.raises(ValueError):
        periodic_trapezoid(np.zeros((3, 4)), 1.0)
    with pytest.raises(ValueError, match=r"must have shape \(nodes, m\)"):
        periodic_trapezoid(np.zeros(4), 1.0)


def test_trapezoid_nonfinite_sample_names_the_node():
    bad = _first_column(np.where(_times(2 * np.pi, 8) > 3.0, np.nan, 0.0))
    with pytest.raises(ValueError, match=r"at node 4 \(t="):
        periodic_trapezoid(bad, 2 * np.pi)


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
    alpha=st.floats(-3, 3),
    beta=st.floats(-3, 3),
)
def test_trapezoid_is_linear_in_the_integrand(coeffs, alpha, beta):
    c = np.array(coeffs)
    t = _times(2 * np.pi, 16)
    f = _first_column(c[0] + c[1] * np.cos(t) + c[2] * np.sin(2 * t))
    g = _first_column(c[3] + c[4] * np.sin(t) + c[5] * np.cos(3 * t))
    combined = periodic_trapezoid(alpha * f + beta * g, 2 * np.pi)
    separate = (alpha * periodic_trapezoid(f, 2 * np.pi)
                + beta * periodic_trapezoid(g, 2 * np.pi))
    assert np.max(np.abs(combined - separate)) < 1e-12


def test_trapezoid_node_doubling_plateau(rng):
    c = rng.uniform(-1, 1, 7)

    def f(t):
        return _first_column(
            c[0] + c[1] * np.cos(t) + c[2] * np.sin(t) + c[3] * np.cos(2 * t)
            + c[4] * np.sin(2 * t) + c[5] * np.cos(3 * t) + c[6] * np.sin(3 * t)
        )

    a = periodic_trapezoid(f(_times(2 * np.pi, 8)), 2 * np.pi)
    b = periodic_trapezoid(f(_times(2 * np.pi, 16)), 2 * np.pi)
    assert np.max(np.abs(a - b)) < 1e-12


# ------------------------------------------------------------ linear algebra

def test_determinant_of_block_triangular_matrix(rng):
    # independent oracle: a block upper-triangular matrix's determinant is the
    # product of its diagonal 2x2 blocks' ad - bc
    def det2(block):
        return block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]

    for dtype in (float, complex):
        for _ in range(20):
            m = rng.standard_normal((4, 4)).astype(dtype)
            if dtype is complex:
                m += 1j * rng.standard_normal((4, 4))
            m[2:, :2] = 0.0
            det = determinant(m)
            assert type(det) is dtype
            expected = det2(m[:2, :2]) * det2(m[2:, 2:])
            assert abs(det - expected) < 1e-12 * (1 + np.linalg.norm(m) ** 4)


# ------------------------------------------------------------ newton

def test_newton_affine_residual_converges_in_one_step():
    target = np.array([1.0, 2.0, 3.0, 4.0])
    report = newton_solve(lambda x: x - target, np.zeros(4))
    assert report.converged and report.reason == "converged"
    assert report.iterations == 1
    assert np.max(np.abs(report.root - target)) < 1e-12


def test_newton_quadratic_residual_finds_known_root():
    def residual(x):
        return np.stack([x[..., 0] ** 2 - 4, x[..., 1], x[..., 2], x[..., 3]], axis=-1)

    report = newton_solve(residual, np.array([1.0, 1.0, 1.0, 1.0]), tol=1e-12)
    assert report.converged
    assert np.max(np.abs(report.root - np.array([2.0, 0, 0, 0]))) < 1e-10
    assert report.residual_norm < 1e-12


def test_newton_iteration_budget_exhaustion_reports_not_raises(monkeypatch):
    monkeypatch.setattr("chenhopf.numerics.MAX_ITER", 3)
    report = newton_solve(
        lambda x: x + np.array([1e6, 0, 0, 0]), np.zeros(4),
        jacobian=lambda x: np.eye(4) * 1e-9,   # force uselessly small steps
    )
    assert isinstance(report, NewtonReport)
    assert not report.converged


def _counting(residual):
    """residual, plus the list of residual infinity norms it has evaluated."""
    norms = []

    def counted(x):
        out = residual(x)
        norms.append(float(np.max(np.abs(out))))
        return out

    return counted, norms


def _cosh_residual(x):
    # |F| >= 1 everywhere: a residual floor at a positive minimum
    return np.array([np.cosh(x[0]), x[1], x[2], x[3]])


def _cosh_jacobian(x):
    return np.diag([np.sinh(x[0]), 1.0, 1.0, 1.0])


def _noisy_affine_residual(x):
    # an affine residual under 1e-6 of deterministic noise, the way a
    # shooting residual sits on its integration error
    return x - np.array([1.0, 2.0, 3.0, 4.0]) + 1e-6 * np.sin(1e7 * x)


FLOOR_CASES = [
    pytest.param(_cosh_residual, _cosh_jacobian, [2.0, 1, 1, 1], id="cosh-from-2"),
    pytest.param(_cosh_residual, _cosh_jacobian, [0.3, 1, 1, 1], id="cosh-from-0.3"),
    pytest.param(_cosh_residual, _cosh_jacobian, [-1.5, 1, 1, 1], id="cosh-from-minus-1.5"),
    pytest.param(_noisy_affine_residual, lambda x: np.eye(4), [0.0, 0, 0, 0], id="noise-floor"),
]


@pytest.mark.parametrize("residual, jacobian, seed", FLOOR_CASES)
def test_newton_stops_early_on_a_residual_floor(residual, jacobian, seed):
    # the floor must be recognised within a few line searches, long before
    # the 25-iteration budget
    counted, norms = _counting(residual)
    report = newton_solve(counted, np.array(seed), jacobian=jacobian)
    assert report.reason in {"stagnated", "line_search_failed"}
    assert not report.converged
    assert report.iterations <= 5
    assert len(norms) <= 15


@pytest.mark.parametrize("residual, jacobian, seed", FLOOR_CASES)
def test_newton_never_accepts_a_point_that_did_not_improve(residual, jacobian, seed):
    # the reported iterate carries the smallest residual the solve evaluated
    counted, norms = _counting(residual)
    report = newton_solve(counted, np.array(seed), jacobian=jacobian)
    assert report.residual_norm == min(norms)
    assert float(np.max(np.abs(residual(report.root)))) == report.residual_norm


def test_newton_reports_max_iter_while_the_residual_still_falls(monkeypatch):
    # x**3 loses a factor 8/27 per Newton step: steady progress, no stall
    monkeypatch.setattr("chenhopf.numerics.MAX_ITER", 3)
    report = newton_solve(lambda x: x**3, np.ones(4), jacobian=lambda x: np.diag(3 * x**2))
    assert report.reason == "max_iter" and not report.converged
    assert report.iterations == 3
    assert report.residual_norm == pytest.approx((8 / 27) ** 3)


def test_newton_converged_seed_takes_zero_iterations():
    target = np.array([1.0, 2.0, 3.0, 4.0])
    report = newton_solve(lambda x: x - target, target.copy())
    assert report.converged and report.iterations == 0


def test_newton_singular_jacobian_raises():
    with pytest.raises(SingularMatrixError):
        newton_solve(lambda x: x[..., [0, 0, 2, 3]] - 1.0, np.zeros(4))


def test_newton_validates_inputs():
    with pytest.raises(ValueError):
        newton_solve(lambda x: x, np.zeros(4), tol=0.0)


# ------------------------------------------------------------ finite differences

def test_fd_jacobian_of_identity_is_identity():
    jac = finite_difference_jacobian(lambda x: x, np.array([0.3, -1.0, 2.0, 0.0]))
    assert np.max(np.abs(jac - np.eye(4))) < 1e-12


def test_fd_jacobian_bilinear_term():
    jac = finite_difference_jacobian(
        lambda x: (x[..., 0] * x[..., 1])[..., None] * np.array([1.0, 0, 0, 0]),
        np.array([2.0, 3.0, 0.0, 0.0]),
    )
    assert np.max(np.abs(jac[0] - np.array([3.0, 2.0, 0.0, 0.0]))) < 1e-6


def test_fd_jacobian_requires_a_stacked_residual():
    # a residual that reads x[0] as the first coordinate returns the wrong
    # shape on the stack of shifted points instead of a wrong Jacobian
    with pytest.raises(ValueError, match=r"residual must return shape \(8, m\)"):
        finite_difference_jacobian(lambda x: np.array([x[0] - 1.0, x[1], x[2], x[3]]), np.ones(4))


def test_fd_jacobian_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        finite_difference_jacobian(lambda x: x, np.zeros(4), step=0.0)


def test_fd_jacobian_reproduces_linear_maps(rng):
    # central differences are exact for linear maps; a step well above
    # sqrt(eps) keeps subtraction cancellation below the 1e-10 bound
    mat = rng.standard_normal((4, 4))
    jac = finite_difference_jacobian(lambda x: x @ mat.T, rng.standard_normal(4), step=1e-3)
    assert np.max(np.abs(jac - mat)) < 1e-10


# ------------------------------------------------------------ eigensolver

def test_eig4_identity():
    # a quadruple eigenvalue of a normal matrix is resolved to rounding
    spec = eig4(np.eye(4))
    assert max(abs(v - 1.0) for v in spec.values) < 1e-12


def test_eig4_diagonal_spectrum_canonical_order():
    spec = eig4(np.diag([5.0, -3.0, 2.0, 0.5]))
    expected = QuarticSpectrum.from_iterable([5, 2, 0.5, -3])
    assert spec.match_distance(expected) < 1e-10
    assert [v.real for v in spec.values] == sorted(
        [v.real for v in spec.values], reverse=True
    )


def test_eig4_planar_rotation_block():
    mat = np.zeros((4, 4))
    mat[0, 1], mat[1, 0] = -1.0, 1.0
    spec = eig4(mat)
    expected = QuarticSpectrum.from_iterable([1j, -1j, 0, 0])
    assert spec.match_distance(expected) < 1e-6


def test_eig4_trace_equals_eigenvalue_sum(rng):
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        spec = eig4(m)
        assert abs(sum(spec.values) - np.trace(m)) < 1e-8


def test_eig4_real_matrix_spectrum_is_conjugation_closed(rng):
    for _ in range(20):
        spec = eig4(rng.standard_normal((4, 4)))
        assert spec.match_distance(QuarticSpectrum.from_iterable(np.conj(spec.values))) < 1e-10


def test_eig4_rejects_nonfinite():
    m = np.eye(4)
    m[0, 0] = np.inf
    with pytest.raises(ValueError):
        eig4(m)
    # finite, but M - lambda I would overflow: 1.7e308 - (-1.7e308)
    with pytest.raises(ValueError, match="too large"):
        eig4(np.diag([1.7e308, -1.7e308, 1.0, 1.0]))


def test_spectrum_match_distance_is_permutation_blind():
    a = QuarticSpectrum.from_iterable([1, 2, 3, 4])
    b = QuarticSpectrum.from_iterable([4, 3, 2, 1])
    assert a.match_distance(b) == 0.0
