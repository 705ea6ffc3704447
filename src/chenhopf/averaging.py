"""First-order averaging for the standard-form system.

The bifurcation function is the period-average of the perturbation pulled
back along the unperturbed flow,

    f(u) = (1/T) * integral over [0, T] of  Phi(t)^{-1} N(x(t, u)) dt,

whose simple zeros mark the initial points of periodic orbits persisting for
small epsilon. Two evaluation routes are kept deliberately independent: a
hand-expanded closed form, and direct quadrature composing the explicit
inverse fundamental matrix, the closed-form flow, and the perturbation. The
test-suite treats their agreement as the module's central correctness
evidence; neither path reuses the other's algebra.

Sign convention note: the z-column of the perturbation is x*y - b*z, so the
average of the third component carries -b*z0 (the x, y flow never sees z0).
Consequently the pair of nontrivial zeros is real exactly when
b*(a+d)*r < 0, and the closed-form determinant and eigenvalues below follow
that convention. Everything here is cross-checked against quadrature and
finite-difference oracles, which is what pins these signs.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chen import RegimeConfig, RegimeError, omega, split_standard_form
from .linear_flow import flow, fundamental_matrix_inverse, period
from .numerics import (
    NewtonReport,
    QuarticSpectrum,
    determinant,
    eig4,
    finite_difference_jacobian,
    newton_solve,
    periodic_trapezoid,
)

#: a zero is "simple" when |det Df| exceeds this times max(1, |Df|_inf^4)
SIMPLICITY_RTOL = 1e-10

#: finite-difference step for diagnostics of the averaged map; the map is
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


def bifurcation_function(config: RegimeConfig, u) -> np.ndarray:
    """Closed-form bifurcation function."""
    omega(config.params)  # raises RegimeError outside the elliptic regime
    p = config.params
    a, b, d, r = p.a, p.b, p.d, p.r
    ad = a + d
    x0, y0, z0, w0 = np.asarray(u, dtype=float)
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
    return np.array([f1, f2, f3, f4])


def bifurcation_function_quadrature(config: RegimeConfig, u, nodes: int = 64) -> np.ndarray:
    """Bifurcation function by direct quadrature of its defining average.

    Composes the explicit inverse fundamental matrix, the closed-form flow
    and the perturbation column; shares no algebra with the closed form. The
    integrand is a trigonometric polynomial with at most 3 harmonics, so any
    nodes >= 8 is exact to roundoff.
    """
    if nodes < 8:
        raise ValueError(f"need at least 8 quadrature nodes, got {nodes}")
    u = np.asarray(u, dtype=float)
    T = period(config)

    def integrand(t: float) -> np.ndarray:
        state = flow(config, u, t)
        _, perturbation = split_standard_form(config, state)
        return fundamental_matrix_inverse(config, t) @ perturbation

    return periodic_trapezoid(integrand, T, nodes)


def quadrature_gap(config: RegimeConfig, points) -> float:
    """Worst closed-form vs quadrature gap over the rows of points.

    Each row's max|f_closed - f_quad| is divided by 1 + max|u|^2, the size of
    the quadratic map's values there.
    """
    worst = 0.0
    for u in np.asarray(points, dtype=float):
        diff = float(np.max(np.abs(
            bifurcation_function(config, u) - bifurcation_function_quadrature(config, u)
        )))
        worst = max(worst, diff / (1 + float(np.max(np.abs(u))) ** 2))
    return worst


def averaged_zero_points(config: RegimeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Both nontrivial zeros in closed form, branch 1 first; no diagnostics."""
    p = config.params
    a, b, d, r = p.a, p.b, p.d, p.r
    gate = b * (a + d) * r
    if gate >= 0:
        raise RegimeError(
            f"zeros not real: b*(a+d)*r = {gate} must be negative"
        )
    root = math.sqrt(-gate)
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
    """det Df at the nontrivial zeros, in closed form (same at both)."""
    p = config.params
    a, b, d, r = p.a, p.b, p.d, p.r
    return -b * (a**4 + a**3 * d - d**2) * r**3 / (2 * d**2)


def averaged_spectrum(config: RegimeConfig) -> QuarticSpectrum:
    """Eigenvalues of Df at the nontrivial zeros, in closed form.

    Two eigenvalues (-b +/- sqrt(b(b - 8r)))/2 and a conjugate pair
    (r/2)(1 +/- i*a*Omega/d); their product equals jacobian_determinant.
    """
    p = config.params
    a, b, d, r = p.a, p.b, p.d, p.r
    om = omega(p)
    disc = cmath.sqrt(complex(b * (b - 8 * r)))
    return QuarticSpectrum.from_iterable([
        (-b + disc) / 2,
        (-b - disc) / 2,
        r / 2 * complex(1, a * om / d),
        r / 2 * complex(1, -a * om / d),
    ])


def jacobian_gaps(config: RegimeConfig) -> tuple[float, float]:
    """Closed-form Jacobian data against central differences at both zeros.

    Returns the worst relative gap of jacobian_determinant and the worst
    match distance of averaged_spectrum, each against the finite-difference
    Jacobian at step _DIAG_FD_STEP.
    """
    det_closed = jacobian_determinant(config)
    spec_closed = averaged_spectrum(config)
    worst_det, worst_spec = 0.0, 0.0
    for point in averaged_zero_points(config):
        jac = finite_difference_jacobian(
            lambda v: bifurcation_function(config, v), point, step=_DIAG_FD_STEP)
        worst_det = max(worst_det, abs(float(determinant(jac)) - det_closed) / abs(det_closed))
        worst_spec = max(worst_spec, spec_closed.match_distance(eig4(jac)))
    return worst_det, worst_spec


def _diagnose(point: np.ndarray, residual: float, jac: np.ndarray,
              det: float, spectrum: QuarticSpectrum) -> AveragedZero:
    """Attach diagnostics; jac is the Jacobian of the route that located point."""
    scale = max(1.0, float(np.max(np.sum(np.abs(jac), axis=1))) ** 4)
    return AveragedZero(
        point=point,
        residual=residual,
        det_jacobian=det,
        spectrum=spectrum,
        simple=abs(det) > SIMPLICITY_RTOL * scale,
        all_negative_real_parts=all(re < 0 for re in spectrum.real_parts()),
    )


def averaged_zeros(config: RegimeConfig) -> tuple[AveragedZero, AveragedZero]:
    """Both nontrivial zeros with closed-form diagnostics attached."""
    det = jacobian_determinant(config)
    spec = averaged_spectrum(config)
    out = []
    for point in averaged_zero_points(config):
        residual = float(np.max(np.abs(bifurcation_function(config, point))))
        jac = finite_difference_jacobian(
            lambda v: bifurcation_function(config, v), point, step=_DIAG_FD_STEP
        )
        out.append(_diagnose(point, residual, jac, det, spec))
    return out[0], out[1]


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
    zero = _diagnose(report.root, report.residual_norm, jac, det, eig4(jac))
    return zero, report


def stability_verdict(config: RegimeConfig) -> StabilityVerdict:
    """Can asymptotic stability of the bifurcating orbits be concluded?

    First-order averaging concludes stability only when every eigenvalue of
    Df at the zero has negative real part. Within the admissible regime that
    never happens, and the verdict names a violating eigenvalue.
    """
    spec = averaged_spectrum(config)
    offenders = [v for v in spec.values if v.real >= 0]
    if not offenders:
        return StabilityVerdict(
            theorem_applicable=True,
            note="all averaged-Jacobian eigenvalues have negative real part",
        )
    worst = max(offenders, key=lambda v: v.real)
    return StabilityVerdict(
        theorem_applicable=False,
        note=(
            f"averaged-Jacobian eigenvalue {worst:.6g} has non-negative real part; "
            "first-order averaging cannot assert asymptotic stability"
        ),
    )
