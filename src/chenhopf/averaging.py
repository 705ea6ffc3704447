"""First-order averaging for the standard-form system.

The bifurcation function is the period-average of the perturbation pulled
back along the unperturbed flow,

    f(u) = (1/T) * integral over [0, T] of  Phi(t)^{-1} N(x(t, u)) dt,

whose simple zeros mark the initial points of periodic orbits persisting for
small epsilon. Two evaluation routes are kept deliberately independent: a
hand-expanded closed form, and direct quadrature that flows u forward, takes
the perturbation there and pulls it back with the flow itself, since
Phi(t)^{-1} = Phi(-t). The test-suite treats their agreement as the module's
central correctness evidence; neither path reuses the other's algebra.

The quadrature samples QUADRATURE_NODES = 8 nodes by default. That is exact:
Phi(t) = exp(tL) has harmonics of order at most 1 in Omega and N is
quadratic, so the integrand is a trigonometric polynomial with at most 3
harmonics, which the periodic trapezoid rule integrates exactly at any n >= 4
nodes; 8 keeps a factor-2 margin. It reads the row views of the basis flows
Phi(+-t_k) e_m at its nodes from _node_rotations, cached per (config, nodes),
so no call splits them. One entry is enough: a Newton solve and its Jacobians
call the quadrature many times on one config, and callers do not come back to
an older config.

The hypotheses alone prove the closed-form zeros simple and the stability
clause inapplicable (averaged_zeros, stability_verdict); SIMPLICITY_RTOL and
the finite-difference diagnostics serve refine_zero, which jacobian_gaps reads.

Sign convention note: the z-column of the perturbation is x*y - b*z, so the
average of the third component carries -b*z0 (the x, y flow never sees z0).
Consequently the pair of nontrivial zeros is real exactly when
b*(a+d)*r < 0, and the closed-form determinant and eigenvalues below follow
that convention. Everything here is cross-checked against quadrature and
finite-difference oracles, which is what pins these signs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chen import (
    ChenParams,
    RegimeConfig,
    RegimeError,
    _nonlinear,
    check_zero_hopf_conditions,
    omega,
)
from .linear_flow import flow, period
from .numerics import (
    NewtonReport,
    QuarticSpectrum,
    determinant,
    eig4,
    finite_difference_jacobian,
    newton_solve,
    periodic_trapezoid,
)

#: refine_zero calls a located zero "simple" when |det Df| of its
#: finite-difference Jacobian exceeds this times max(1, |Df|_inf^4)
SIMPLICITY_RTOL = 1e-10

#: default and minimum node count of bifurcation_function_quadrature, exact
#: with a factor-2 margin (module docstring)
QUADRATURE_NODES = 8

#: finite-difference step for numeric diagnostics of the averaged map; the map is
#: quadratic, so central differences are exact and a large step only
#: suppresses cancellation noise
_DIAG_FD_STEP = 1e-3


@dataclass(frozen=True)
class AveragedZero:
    """A located zero of the bifurcation function with its diagnostics."""

    point: np.ndarray
    residual: float
    det_jacobian: float
    spectrum: QuarticSpectrum
    simple: bool
    all_negative_real_parts: bool


@dataclass(frozen=True)
class StabilityVerdict:
    """Whether the first-order stability clause applies at the zeros."""

    theorem_applicable: bool
    note: str


def _points(u) -> np.ndarray:
    """u as a float array of one point (4,) or a stack (k, 4) of points."""
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != 4:
        raise ValueError(f"expected a point (4,) or a stack (k, 4) of points, got shape {u.shape}")
    return u


def bifurcation_function(config: RegimeConfig, u) -> np.ndarray:
    """Closed-form bifurcation function.

    u is one point (4,) or a stack (k, 4) of points, one row loop serves
    both, and the result has u's shape. An overflowing row is a ValueError.
    """
    u = _points(u)
    omega(config.params)  # raises RegimeError outside the elliptic regime
    values = []
    for i, row in enumerate(u.reshape(-1, 4).tolist()):
        try:
            f = _closed_form(config.params, row)
        except (OverflowError, ZeroDivisionError):  # a ** that overflows or a divisor that underflows
            f = [math.inf]
        if not all(map(math.isfinite, f)):
            raise ValueError(f"closed form is not finite at row {i}, point {row!r}")
        values.append(f)
    return np.array(values).reshape(u.shape)


def _closed_form(p: ChenParams, u: list[float]) -> list[float]:
    """The four values at one point, on Python floats (the same IEEE results, cheaper)."""
    a, b, d, r = p.a, p.b, p.d, p.r
    ad = a + d
    x0, y0, z0, w0 = u
    f1 = (
        r * w0 / ad
        + d * z0 * (ad * x0 - 3 * w0) / (2 * a * ad**2)
        - (a * (y0 - x0) + w0) * z0 / (2 * ad)
    )
    f2 = (
        d * (3 * d * w0 + a * ad * y0) * z0 / (2 * a**2 * ad**2)
        - d * r * w0 / (a * ad)
        - (d * x0 + a * y0) * z0 / (2 * ad)
    )
    f3 = (
        d**2 * (x0**2 - 2 * b * z0) / (2 * ad**2)
        + a * (-2 * a * b * z0 - y0 * (2 * w0 + a * (y0 - 2 * x0))) / (2 * ad**2)
        - (3 * w0**2 + 2 * a * w0 * y0) * d / (2 * a * ad**2)
        + a * d * (x0**2 + 2 * x0 * y0 - y0**2 - 4 * b * z0) / (2 * ad**2)
    )
    f4 = w0 * (r - d * z0 / (a * ad))
    return [f1, f2, f3, f4]


@lru_cache(maxsize=1)
def _node_rotations(
    config: RegimeConfig, nodes: int
) -> tuple[float, tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """T and the read-only row views (nodes, 1, 4) F0..F3 = Phi(+t_k) e_m and B1..B3 = Phi(-t_k) e_m."""
    T = period(config)
    times = T * np.arange(nodes) / nodes   # node k at T * k / nodes, the time periodic_trapezoid names
    with np.errstate(over="ignore", invalid="ignore"):
        forward, backward = flow(config, np.eye(4), times[:, None]), flow(config, np.eye(4), -times[:, None])
    forward.flags.writeable = backward.flags.writeable = False   # and so every view of them
    return T, tuple(forward[:, None, m] for m in range(4)), tuple(backward[:, None, m] for m in range(1, 4))


def bifurcation_function_quadrature(config: RegimeConfig, u, nodes: int = QUADRATURE_NODES) -> np.ndarray:
    """Bifurcation function by direct quadrature of its defining average.

    The sample at node t is Phi(-t) N(Phi(t) u), built from the basis flows
    F_m = Phi(t) e_m and B_m = Phi(-t) e_m = Phi(t)^{-1} e_m, whose row views
    _node_rotations caches: the state u0 F0 + u1 F1 + u2 F2 + u3 F3, the three
    components n1, n2, n3 of chen._nonlinear there (N_x = 0), and the
    pull-back n1 B1 + n2 B2 + n3 B3; shares no algebra with the closed form.
    Phi(t) has the single harmonic Omega and N is quadratic, so the integrand
    is a trigonometric polynomial with at most 3 harmonics, and the periodic
    trapezoid rule is exact to roundoff at any nodes >= 4; the default
    QUADRATURE_NODES = 8 keeps a factor-2 margin, and is also the minimum.
    u is one point (4,) or a stack (k, 4) of points, and the result has u's
    shape. All nodes of all points go through one pass of elementwise products
    summed left to right (a stacked matmul can differ from single ones in the
    last bit), so each row equals a per-node scalar loop bit for bit. The
    (nodes, 4k) samples go to periodic_trapezoid, which averages them over T
    and reports an overflow, a non-finite sample, as a ValueError.
    """
    if nodes < QUADRATURE_NODES:
        raise ValueError(f"need at least {QUADRATURE_NODES} quadrature nodes, got {nodes}")
    u = _points(u)
    T, (F0, F1, F2, F3), (B1, B2, B3) = _node_rotations(config, nodes)
    b, r = config.params.b, config.params.r
    # (k, 1) coordinates against (nodes, 1, 4) rotations: node-major (nodes, k, 4),
    # so periodic_trapezoid adds each point's nodes in order
    rows = u.reshape(-1, 4)
    u0, u1, u2, u3 = (rows[:, m, None] for m in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        states = u0 * F0 + u1 * F1 + u2 * F2 + u3 * F3
        n1, n2, n3 = _nonlinear(b, r, *(states[..., m, None] for m in range(4)))
        samples = n1 * B1 + n2 * B2 + n3 * B3
    return periodic_trapezoid(samples.reshape(nodes, -1), T).reshape(u.shape)


def quadrature_gap(config: RegimeConfig, points) -> float:
    """Worst closed-form vs quadrature gap over the rows of points.

    Each row's max|f_closed - f_quad| is divided by 1 + max|u|^2, the size of
    the quadratic map's values there. Both routes take the whole stack at once.
    """
    points = _points(points).reshape(-1, 4)
    diff = np.max(np.abs(
        bifurcation_function(config, points) - bifurcation_function_quadrature(config, points)
    ), axis=1)
    size = np.max(np.abs(points), axis=1)
    return max([0.0, *(g / (1 + m**2) for g, m in zip(diff.tolist(), size.tolist()))])


def averaged_zero_points(config: RegimeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Both nontrivial zeros in closed form, branch 1 first; no diagnostics."""
    omega(config.params)  # raises RegimeError outside the elliptic regime
    p = config.params
    a, b, d, r = p.a, p.b, p.d, p.r
    report = check_zero_hopf_conditions(p)
    if not report.b_condition_holds:
        raise RegimeError(
            f"zeros not real: b*(a+d)*r = {report.b_times_a_plus_d_times_r} must be negative"
        )
    # sqrt(-b(a+d)r) factor by factor, so it is not lost where the product underflows
    root = math.sqrt(abs(b)) * math.sqrt(abs(a + d)) * math.sqrt(abs(r))
    first = np.array([
        a * root / d,
        -root,
        a * (a + d) * r / d,
        a * root * (a + d) / d,
    ])
    second = first.copy()
    second[[0, 1, 3]] *= -1.0
    return first, second


def jacobian_determinant(config: RegimeConfig) -> float:
    """det Df at the nontrivial zeros, in closed form (same at both).

    Nonzero with the sign of b*r for admissible parameters: b(a+d)r < 0 gives
    b, r != 0, and a(a+d) < 0 gives a^4 + a^3 d - d^2 = a^2 a(a+d) - d^2 < -d^2.
    """
    omega(config.params)  # raises RegimeError outside the elliptic regime
    p = config.params
    a, b, d, r = p.a, p.b, p.d, p.r
    try:
        return -b * (a**4 + a**3 * d - d**2) * r**3 / (2 * d**2)
    except (OverflowError, ZeroDivisionError) as exc:   # a ** overflows or 2 d^2 underflows
        raise ValueError(f"closed-form det Df overflows at a = {a}, b = {b}, d = {d}, r = {r}") from exc


def averaged_spectrum(config: RegimeConfig) -> QuarticSpectrum:
    """Eigenvalues of Df at the nontrivial zeros, in closed form.

    Two eigenvalues (-b +/- sqrt(b(b - 8r)))/2 and a conjugate pair
    (r/2)(1 +/- i*a*Omega/d); their product equals jacobian_determinant.
    sqrt(b(b - 8r)) is taken as sqrt|b| sqrt|b - 8r|, real when the factors
    share a sign, so the product b(b - 8r), which can underflow, is never formed.
    """
    p = config.params
    a, b, d, r = p.a, p.b, p.d, p.r
    om = omega(p)
    root = math.sqrt(abs(b)) * math.sqrt(abs(b - 8 * r))
    disc = root if (b < 0) == (b - 8 * r < 0) else complex(0.0, root)
    return QuarticSpectrum.from_iterable([
        (-b + disc) / 2,
        (-b - disc) / 2,
        r / 2 * complex(1, a * om / d),
        r / 2 * complex(1, -a * om / d),
    ])


def jacobian_gaps(config: RegimeConfig) -> tuple[float, float]:
    """Closed-form Jacobian data against refine_zero's at both zeros.

    Returns the worst relative gap of jacobian_determinant and the worst
    match distance of averaged_spectrum against the finite-difference data
    of refine_zero at each closed-form zero, where its Newton takes no step.
    """
    det_closed, spec_closed = jacobian_determinant(config), averaged_spectrum(config)
    zeros = [refine_zero(config, point)[0] for point in averaged_zero_points(config)]
    return (max(abs(z.det_jacobian - det_closed) / abs(det_closed) for z in zeros),
            max(spec_closed.match_distance(z.spectrum) for z in zeros))


def averaged_zeros(config: RegimeConfig) -> tuple[AveragedZero, AveragedZero]:
    """Both nontrivial zeros with their closed-form Jacobian data.

    The hypotheses decide both flags, so no Jacobian is evaluated. simple:
    averaged_zero_points returns zeros only where a(a+d) < 0 and b(a+d)r < 0,
    and there det Df never vanishes (jacobian_determinant), even where its
    rounded value underflows. all_negative_real_parts: never (stability_verdict).
    """
    det, spec = jacobian_determinant(config), averaged_spectrum(config)
    first, second = (
        AveragedZero(point, float(np.max(np.abs(bifurcation_function(config, point)))),
                     det, spec, simple=True, all_negative_real_parts=False)
        for point in averaged_zero_points(config)
    )
    return first, second


def refine_zero(
    config: RegimeConfig,
    seed,
    use_quadrature: bool = False,
    tol: float = 1e-13,
) -> tuple[AveragedZero, NewtonReport]:
    """Newton-refine a zero of the bifurcation function from a seed.

    Runs on the closed form by default, or the quadrature route when
    use_quadrature is set; the Jacobian is always central differences, so the
    numerical route stays independent of the closed-form derivatives.
    Diagnostics come from the finite-difference Jacobian at the located
    point, not from the closed forms.
    """
    if use_quadrature:
        residual = lambda v: bifurcation_function_quadrature(config, v)
    else:
        residual = lambda v: bifurcation_function(config, v)
    report = newton_solve(residual, np.asarray(seed, dtype=float), tol=tol)
    jac = finite_difference_jacobian(residual, report.root, step=_DIAG_FD_STEP)
    det = float(determinant(jac))
    spectrum = eig4(jac)
    scale = max(1.0, float(np.max(np.sum(np.abs(jac), axis=1))) ** 4)
    zero = AveragedZero(report.root, report.residual_norm, det, spectrum,
                        simple=abs(det) > SIMPLICITY_RTOL * scale,
                        all_negative_real_parts=all(v.real < 0 for v in spectrum.values))
    return zero, report


def stability_verdict(config: RegimeConfig) -> StabilityVerdict:
    """Can asymptotic stability of the bifurcating orbits be concluded?

    First-order averaging concludes stability only when every eigenvalue of
    Df at the zero has negative real part, which no parameters give. The
    conjugate pair's real part r/2 needs r < 0. The other pair
    (-b +/- sqrt(b(b - 8r)))/2 is negative only if real with sum -b < 0 and
    product 2br > 0, so r > 0, or complex with -b/2 < 0, but b > 0 and r < 0
    make b(b - 8r) > 0. The note names the eigenvalue with the largest real part.
    """
    worst = max(averaged_spectrum(config).values, key=lambda v: v.real)
    return StabilityVerdict(
        theorem_applicable=False,
        note=(
            f"averaged-Jacobian eigenvalue {worst:.6g} has non-negative real part; "
            "first-order averaging cannot assert asymptotic stability"
        ),
    )
