import numpy as np
import pytest

from chenhopf import averaging, chen
from chenhopf.averaging import (
    averaged_spectrum,
    averaged_zero_points,
    averaged_zeros,
    bifurcation_function,
    bifurcation_function_quadrature,
    jacobian_determinant,
    jacobian_gaps,
    quadrature_gap,
    refine_zero,
    stability_verdict,
)
from chenhopf.chen import RegimeConfig, RegimeError, random_admissible_config
from chenhopf.linear_flow import flow, period
from chenhopf.numerics import DEFAULT_FD_STEP, QuarticSpectrum, finite_difference_jacobian

CANONICAL_P1 = np.array([-0.5, -1.0, -0.5, -0.5])
CANONICAL_P2 = np.array([0.5, 1.0, -0.5, 0.5])


# ------------------------------------------------------------ closed form

def test_function_vanishes_at_origin(canonical):
    assert np.array_equal(bifurcation_function(canonical, np.zeros(4)), np.zeros(4))


def test_function_hand_case_pure_z(canonical):
    # u = (0,0,1,0): only the z-column of the perturbation survives, and the
    # x,y flow through u is identically zero, so the average is (0,0,-b,0)
    out = bifurcation_function(canonical, [0.0, 0.0, 1.0, 0.0])
    assert np.allclose(out, [0.0, 0.0, 1.0, 0.0], atol=1e-15)
    quad = bifurcation_function_quadrature(canonical, [0.0, 0.0, 1.0, 0.0])
    assert np.max(np.abs(quad - out)) < 1e-13


def test_function_requires_elliptic_branch():
    hyper = RegimeConfig.make(a=1.0, b=-1.0, d=0.5, r=1.0)
    with pytest.raises(RegimeError):
        bifurcation_function(hyper, np.zeros(4))


# ------------------------------------------------------------ quadrature oracle

def test_quadrature_vanishes_at_origin(canonical):
    out = bifurcation_function_quadrature(canonical, np.zeros(4))
    assert np.max(np.abs(out)) < 1e-14


def test_closed_form_matches_quadrature_everywhere(canonical, admissible_configs, rng):
    # the module's central oracle: the two routes share no algebra
    for cfg in [canonical] + admissible_configs:
        assert quadrature_gap(cfg, rng.uniform(-2, 2, (50, 4))) <= 1e-10


def test_quadrature_node_count_plateau(canonical, admissible_configs, rng):
    # the integrand has at most 3 harmonics, so the default, 9 and 17 nodes agree with 64;
    # the admissible draws have Omega != 1, so their node times are not multiples of pi/32
    for cfg in [canonical] + admissible_configs:
        for u in rng.uniform(-2, 2, (10, 4)):
            reference = bifurcation_function_quadrature(cfg, u, nodes=64)
            for value in (bifurcation_function_quadrature(cfg, u),
                          bifurcation_function_quadrature(cfg, u, nodes=9),
                          bifurcation_function_quadrature(cfg, u, nodes=17)):
                assert np.max(np.abs(value - reference)) < 1e-11


def test_quadrature_rejects_few_nodes(canonical):
    with pytest.raises(ValueError):
        bifurcation_function_quadrature(canonical, np.zeros(4), nodes=7)


@pytest.mark.parametrize("shape", [(8,), (2, 2), (3,), (2, 4, 1), ()])
@pytest.mark.parametrize("route", [bifurcation_function, bifurcation_function_quadrature],
                         ids=["closed", "quadrature"])
def test_both_routes_reject_a_misshapen_point(canonical, route, shape):
    with pytest.raises(ValueError, match="expected a point"):
        route(canonical, np.zeros(shape))
    with pytest.raises(ValueError, match="expected a point"):
        quadrature_gap(canonical, np.zeros(shape))


@pytest.mark.parametrize("route", [bifurcation_function, bifurcation_function_quadrature],
                         ids=["closed", "quadrature"])
def test_both_routes_reject_an_overflowing_point(canonical, route):
    # finite coordinates whose values overflow: a ValueError, with no RuntimeWarning on the way
    for point in ([1e200, 1, 1, 1], [1, 1, 1e200, 1e200]):
        with pytest.raises(ValueError, match="finite"):
            route(canonical, np.array(point, dtype=float))


def _quadrature_by_loop(cfg, u, nodes):
    """The quadrature as a per-node loop of scalar building blocks with a running sum.

    At each node the basis flows' rows F_m = Phi(t) e_m and B_m = Phi(-t) e_m
    carry u forward and pull N back: Phi(-t) N = n1 B1 + n2 B2 + n3 B3, as N_x = 0.
    """
    T = period(cfg)
    b, r = cfg.params.b, cfg.params.r
    u0, u1, u2, u3 = u
    acc = None
    for k in range(nodes):
        t = T * k / nodes
        F, B = flow(cfg, np.eye(4), t), flow(cfg, np.eye(4), -t)
        x, y, z, w = u0 * F[0] + u1 * F[1] + u2 * F[2] + u3 * F[3]
        n1, n2, n3 = chen._nonlinear(b, r, x, y, z, w)
        sample = n1 * B[1] + n2 * B[2] + n3 * B[3]
        acc = sample if acc is None else acc + sample
    return acc / nodes


@pytest.mark.parametrize("nodes", [8, 9, 17, 64])
def test_quadrature_is_bit_identical_to_a_per_node_loop(canonical, admissible_configs, rng, nodes):
    # the batched pass must not change a single bit, so every output that
    # reads the quadrature stays byte-reproducible; a numpy build whose cos,
    # sin or axis-0 sum differs from the scalar route fails here
    for cfg in [canonical] + admissible_configs:
        for u in rng.uniform(-2, 2, (5, 4)):
            batched = bifurcation_function_quadrature(cfg, u, nodes)
            assert batched.tobytes() == _quadrature_by_loop(cfg, u, nodes).tobytes()


def test_quadrature_builds_the_node_rotations_once_per_config(canonical, monkeypatch, rng):
    calls = []

    def counted(*args):
        calls.append(args[2].shape)
        return flow(*args)

    monkeypatch.setattr(averaging, "flow", counted)
    averaging._node_rotations.cache_clear()
    points = rng.uniform(-2, 2, (5, 4))
    for u in points.tolist() * 2:
        bifurcation_function_quadrature(canonical, u)
    # one forward and one backward basis flow, then cache hits
    assert calls == [(averaging.QUADRATURE_NODES, 1)] * 2
    other_a = RegimeConfig.make(a=-1.5, b=-1.0, d=2.0, r=1.0)
    other_d = RegimeConfig.make(a=-1.0, b=-1.0, d=3.0, r=1.0)
    for cfg, nodes in [(other_a, 64), (other_d, 64), (canonical, 17)]:
        bifurcation_function_quadrature(cfg, points[0], nodes)
    assert len(calls) == 8

    # interleaved keys evict each other, and every result equals a cold one
    keys = [(canonical, 64), (other_a, 9), (canonical, 9), (other_a, 64)] * 2
    warm = [bifurcation_function_quadrature(cfg, points, nodes) for cfg, nodes in keys]
    for (cfg, nodes), value in zip(keys, warm):
        averaging._node_rotations.cache_clear()
        assert value.tobytes() == bifurcation_function_quadrature(cfg, points, nodes).tobytes()

    _, forward, backward = averaging._node_rotations(canonical, 64)
    for cached in forward + backward:
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0, 0] = 1.0


def test_overflowing_quadrature_stack_is_refused_in_one_short_line(canonical):
    # the stack's first non-finite sample entry is named, not its 200-entry node row
    with pytest.raises(ValueError) as info:
        bifurcation_function_quadrature(canonical, np.full((50, 4), 1e200))
    message = str(info.value)
    assert "\n" not in message and len(message.encode()) < 300, message
    assert message.endswith("in column 0 at node 0 (t=0.0)"), message


# x0 = -1.3275170599102342 squares one bit apart as x * x (numpy's array **2) and as pow
_SQUARE_TRAP = np.array([-1.3275170599102342, 0.7, -0.4, 1.1])


def test_stacked_closed_form_is_bit_identical_to_per_row_calls(canonical, admissible_configs, rng):
    for cfg in [canonical] + admissible_configs:
        points = np.vstack([_SQUARE_TRAP, _SQUARE_TRAP[[1, 0, 2, 3]], _SQUARE_TRAP[[1, 2, 3, 0]],
                            rng.uniform(-2, 2, (40, 4))])
        stacked = bifurcation_function(cfg, points)
        assert stacked.shape == points.shape
        assert stacked.tobytes() == np.array([bifurcation_function(cfg, u) for u in points]).tobytes()


@pytest.mark.parametrize("nodes", [8, 9, 17, 64])
def test_stacked_quadrature_is_bit_identical_to_single_calls(canonical, admissible_configs, rng, nodes):
    for cfg in [canonical] + admissible_configs:
        points = np.vstack([_SQUARE_TRAP, rng.uniform(-2, 2, (7, 4))])
        stacked = bifurcation_function_quadrature(cfg, points, nodes)
        assert stacked.shape == points.shape
        single = np.array([bifurcation_function_quadrature(cfg, u, nodes) for u in points])
        assert stacked.tobytes() == single.tobytes()


def _fd_jacobian_by_columns(residual, x, step):
    """Central differences one column at a time, each from two single-point calls."""
    cols = []
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        e = np.zeros(x.size)
        e[j] = h
        cols.append((residual(x + e) - residual(x - e)) / (2 * h))
    return np.column_stack(cols)


@pytest.mark.parametrize("route", [bifurcation_function, bifurcation_function_quadrature],
                         ids=["closed", "quadrature"])
def test_stacked_fd_jacobian_is_bit_identical_to_a_per_column_loop(canonical, admissible_configs,
                                                                   rng, route):
    for cfg in [canonical] + admissible_configs:
        residual = lambda v: route(cfg, v)
        seeds = [_SQUARE_TRAP, *averaged_zero_points(cfg), *rng.uniform(-3, 3, (3, 4))]
        for x in seeds:
            for step in (DEFAULT_FD_STEP, 1e-3):
                stacked = finite_difference_jacobian(residual, x, step=step)
                assert stacked.tobytes() == _fd_jacobian_by_columns(residual, x, step).tobytes()


# ------------------------------------------------------------ zeros

def test_zeros_canonical_values(canonical):
    first, second = averaged_zeros(canonical)
    assert np.allclose(first.point, CANONICAL_P1, atol=1e-15)
    assert np.allclose(second.point, CANONICAL_P2, atol=1e-15)
    assert first.residual < 1e-14
    assert second.residual < 1e-14
    assert first.simple and second.simple
    assert not first.all_negative_real_parts


def test_zeros_mirror_structure(rng):
    for _ in range(10):
        cfg = random_admissible_config(rng)
        first, second = averaged_zeros(cfg)
        assert np.allclose(first.point[[0, 1, 3]], -second.point[[0, 1, 3]], atol=1e-15)
        assert first.point[2] == second.point[2]


def test_zeros_not_real_outside_regime():
    # b = +1 makes b(a+d)r positive: the pair moves off the real slice
    cfg = RegimeConfig.make(a=-1.0, b=1.0, d=2.0, r=1.0)
    with pytest.raises(RegimeError, match="not real"):
        averaged_zeros(cfg)


def test_zero_property_scale_adjusted(rng):
    for _ in range(10):
        cfg = random_admissible_config(rng)
        for zero in averaged_zeros(cfg):
            bound = 1e-11 * (1 + np.max(np.abs(zero.point)) ** 2)
            assert zero.residual <= bound
            assert np.max(np.abs(bifurcation_function_quadrature(cfg, zero.point))) <= bound


def test_zeros_simplicity_on_admissible_draws(rng):
    for _ in range(10):
        cfg = random_admissible_config(rng)
        det = jacobian_determinant(cfg)
        assert abs(det) > 1e-10
        for zero in averaged_zeros(cfg):
            assert zero.simple
    # near-degenerate but admissible: det = -6.25e-10 is small, and at r = 1e-110
    # r^3 underflows so det rounds to zero; the hypotheses still make them simple
    for zero in averaged_zeros(RegimeConfig.make(a=-1.0, b=-1e-9, d=2.0, r=1.0)):
        assert zero.simple
        assert abs(zero.det_jacobian - (-6.25e-10)) <= 1e-12 * 6.25e-10
    for zero in averaged_zeros(RegimeConfig.make(a=-1.0, b=-1.0, d=2.0, r=1e-110)):
        assert zero.simple and zero.det_jacobian == 0.0


def test_zeros_take_no_finite_difference_jacobian(canonical, monkeypatch):
    def numeric_jacobian_used(*args, **kwargs):
        raise AssertionError("averaged_zeros called finite_difference_jacobian")

    monkeypatch.setattr(averaging, "finite_difference_jacobian", numeric_jacobian_used)
    first, second = averaged_zeros(canonical)
    assert first.simple and second.simple
    assert first.det_jacobian == second.det_jacobian == jacobian_determinant(canonical)


def test_zeros_are_simple_throughout_the_regime(rng):
    # a^4 + a^3 d - d^2 = a^2 * a(a+d) - d^2 < -d^2 when a(a+d) < 0, and
    # b(a+d)r < 0 forces b, r != 0: det Df never vanishes and has the sign of b*r
    for _ in range(1000):
        cfg = random_admissible_config(rng)
        a, b, d, r = cfg.params.a, cfg.params.b, cfg.params.d, cfg.params.r
        assert a**4 + a**3 * d - d**2 < -d**2 < 0
        det = jacobian_determinant(cfg)
        assert det != 0.0 and np.sign(det) == np.sign(b * r)


# ------------------------------------------------------------ newton refinement

def test_refine_recovers_zero_from_perturbed_seed(canonical, rng):
    first, _ = averaged_zeros(canonical)
    direction = rng.standard_normal(4)
    direction /= np.linalg.norm(direction)
    seed = first.point + 0.1 * np.linalg.norm(first.point) * direction
    zero, report = refine_zero(canonical, seed)
    assert report.converged
    assert report.residual_norm < 1e-12
    assert np.max(np.abs(zero.point - first.point)) < 1e-9
    assert zero.simple


def test_refine_from_origin_reports_nonsimple_trivial_zero(canonical):
    zero, report = refine_zero(canonical, np.zeros(4))
    assert report.converged and report.iterations == 0
    assert np.max(np.abs(zero.point)) < 1e-14
    assert not zero.simple


def test_refine_quadrature_route_agrees_with_closed(canonical, rng):
    first, _ = averaged_zeros(canonical)
    seed = first.point + 0.05 * rng.standard_normal(4)
    closed, _ = refine_zero(canonical, seed, use_quadrature=False)
    quad, _ = refine_zero(canonical, seed, use_quadrature=True, tol=1e-12)
    assert np.max(np.abs(closed.point - quad.point)) < 1e-8


def test_refine_quadrature_route_never_consults_the_closed_form(canonical, monkeypatch):
    # the quadrature route's diagnostics come from its own Jacobian
    first, _ = averaged_zeros(canonical)

    def closed_form_used(*args, **kwargs):
        raise AssertionError("quadrature route called bifurcation_function")

    monkeypatch.setattr(averaging, "bifurcation_function", closed_form_used)
    zero, report = refine_zero(canonical, first.point + 0.01, use_quadrature=True, tol=1e-12)
    assert report.converged
    assert np.max(np.abs(zero.point - first.point)) < 1e-8
    assert zero.simple


# ------------------------------------------------------------ jacobian data

def test_determinant_canonical_value(canonical):
    assert abs(jacobian_determinant(canonical) - (-0.625)) < 1e-15


def test_determinant_is_linear_in_b():
    cfg = RegimeConfig.make(a=-1.0, b=-2.0, d=2.0, r=1.0)
    assert abs(jacobian_determinant(cfg) - (-1.25)) < 1e-15
    zero_b = RegimeConfig.make(a=-1.0, b=0.0, d=2.0, r=1.0)
    assert jacobian_determinant(zero_b) == 0.0


def test_determinant_matches_finite_difference_oracle(canonical, rng):
    configs = [canonical] + [random_admissible_config(rng) for _ in range(5)]
    for cfg in configs:
        assert jacobian_gaps(cfg)[0] < 1e-5


def test_spectrum_canonical_values(canonical):
    expected = QuarticSpectrum.from_iterable([2.0, -1.0, 0.5 + 0.25j, 0.5 - 0.25j])
    assert averaged_spectrum(canonical).match_distance(expected) < 1e-12


def test_spectrum_pair_real_parts_are_half_r(rng):
    for _ in range(10):
        cfg = random_admissible_config(rng)
        spec = averaged_spectrum(cfg)
        pair = [v for v in spec.values if abs(v.imag) > 1e-12]
        # the conjugate pair built from the rotation always has real part r/2;
        # the other two may also be complex when b(b - 8r) < 0
        assert any(abs(v.real - cfg.params.r / 2) < 1e-12 for v in pair)


def test_spectrum_is_conjugation_closed(rng):
    for _ in range(10):
        cfg = random_admissible_config(rng)
        spec = averaged_spectrum(cfg)
        assert spec.match_distance(QuarticSpectrum.from_iterable(np.conj(spec.values))) < 1e-12


def test_spectrum_product_equals_determinant(rng):
    for _ in range(10):
        cfg = random_admissible_config(rng)
        det = jacobian_determinant(cfg)
        prod = np.prod(averaged_spectrum(cfg).values)
        assert abs(prod - det) / abs(det) < 1e-8
        assert abs(prod.imag) < 1e-10 * abs(det)


def test_spectrum_matches_numeric_oracle(canonical, rng):
    configs = [canonical] + [random_admissible_config(rng) for _ in range(5)]
    for cfg in configs:
        assert jacobian_gaps(cfg)[1] < 1e-5


# ------------------------------------------------------------ stability verdict

def test_verdict_canonical_names_positive_eigenvalue(canonical):
    verdict = stability_verdict(canonical)
    assert not verdict.theorem_applicable
    assert "2" in verdict.note


def test_verdict_always_inapplicable_on_admissible_draws(rng):
    # each draw, and its elliptic variants with b(a+d)r >= 0: -b, b = 0 and r = 0
    for _ in range(1000):
        cfg = random_admissible_config(rng)
        a, b, d, r = cfg.params.a, cfg.params.b, cfg.params.d, cfg.params.r
        for c in (cfg, RegimeConfig.make(a=a, b=-b, d=d, r=r),
                  RegimeConfig.make(a=a, b=0.0, d=d, r=r), RegimeConfig.make(a=a, b=b, d=d, r=0.0)):
            assert not stability_verdict(c).theorem_applicable
            assert any(v.real >= 0 for v in averaged_spectrum(c).values)


def test_verdict_follows_the_proof_where_the_rounded_spectrum_underflows():
    # b(b - 8r) = 9e-400 would underflow to 0; sqrt|b| sqrt|b - 8r| = 3e-200 keeps
    # the exact real pair 1e-200 and -2e-200, and the verdict names the positive one
    cfg = RegimeConfig.make(a=-1.0, b=1e-200, d=2.0, r=-1e-200)
    values = averaged_spectrum(cfg).values
    assert values[0] == 1e-200 and values[3] == -2e-200
    assert not stability_verdict(cfg).theorem_applicable
    assert "1e-200" in stability_verdict(cfg).note
