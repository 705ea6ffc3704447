"""The hyperchaotic Chen vector field and its small-parameter regime.

Two parameterizations of the same model appear here:

* the full five-coefficient field (general ``c``),
* the averaging standard form ``u' = L(u) + eps * N(u)``, reached from the
  full field by ``c = a``, the small-dissipation substitution
  ``(b, r) -> (eps*b, eps*r)`` and shrinking all four coordinates by
  ``eps``; the linear part ``L`` keeps only the (x, y) rotation block and the
  nonlinear part ``N`` carries every remaining term.

Each formula has one body: ``_linear`` (L, with ``c`` free, so the full field is
L + N), ``_nonlinear`` (N, which linear_flow's rotating field and averaging's
quadrature read too) and ``_jacobian`` (L + eps DN). Every field and Jacobian
here reads them.

The origin is an equilibrium for every parameter choice; it is a zero-Hopf
equilibrium (two zero eigenvalues plus a purely imaginary pair) exactly in
the regime the admissibility report checks.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .numerics import QuarticSpectrum, eig4


class RegimeError(ValueError):
    """Parameters outside the regime an operation is defined on."""


@dataclass(frozen=True)
class ChenParams:
    """The five model coefficients."""

    a: float
    b: float
    c: float
    d: float
    r: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")


@dataclass(frozen=True)
class RegimeConfig:
    """Parameters pinned to the bifurcation regime plus the small parameter.

    Requires ``c == a`` exactly, ``epsilon >= 0`` and ``d != 0`` (the averaged
    zeros divide by ``d``).
    """

    params: ChenParams
    epsilon: float = 0.0

    def __post_init__(self):
        if self.params.c != self.params.a:
            raise RegimeError(
                f"regime requires c == a, got c={self.params.c}, a={self.params.a}"
            )
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.params.d == 0:
            raise RegimeError("regime requires d != 0")

    @classmethod
    def make(cls, a: float, b: float, d: float, r: float, epsilon: float = 0.0) -> "RegimeConfig":
        return cls(ChenParams(a=a, b=b, c=a, d=d, r=r), epsilon)

    def with_epsilon(self, epsilon: float) -> "RegimeConfig":
        return RegimeConfig(self.params, epsilon)


@dataclass(frozen=True)
class ConditionReport:
    """Which zero-Hopf hypotheses hold, with the signed quantities behind them."""

    c_equals_a: bool
    a_times_a_plus_d: float
    a_condition_holds: bool        # a*(a+d) < 0
    b_times_a_plus_d_times_r: float
    b_condition_holds: bool        # b*(a+d)*r < 0
    d_nonzero: bool
    overall: bool


def canonical_config(epsilon: float = 0.0) -> RegimeConfig:
    """The reference admissible parameter set used throughout tests and docs."""
    return RegimeConfig.make(a=-1.0, b=-1.0, d=2.0, r=1.0, epsilon=epsilon)


def _state(state) -> list[float]:
    """The four components of a finite 4-vector as Python floats.

    Every single-state field and Jacobian below, and linear_flow's rotating
    pair, validates through here. split_standard_form does not: it takes
    stacks too, and runs one array-wide check with the same messages.
    Checking four floats with math.isfinite costs a fraction of an array-wide
    isfinite; Python-float arithmetic gives the same IEEE results.
    """
    s = np.asarray(state, dtype=float)
    if s.shape != (4,):
        raise ValueError(f"state must have 4 components, got shape {s.shape}")
    x, y, z, w = vals = s.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z) and math.isfinite(w)):
        raise ValueError(f"state contains non-finite entries: {s!r}")
    return vals


def _linear(a, c, d, x, y, w):
    """L's two nonzero components (a(y - x) + w, d x + c y), on floats or arrays."""
    return a * (y - x) + w, d * x + c * y


def _nonlinear(b, r, x, y, z, w):
    """N's three nonzero components (-x z, x y - b z, y z + r w), on floats or arrays."""
    return -x * z, x * y - b * z, y * z + r * w


def _jacobian(p: ChenParams, c: float, eps: float, state) -> np.ndarray:
    """L + eps DN at state, L's c given; eps = 1.0 is the full model's, exactly."""
    x, y, z, _ = _state(state)
    return np.array([
        [-p.a, p.a, 0.0, 1.0],
        [p.d - eps * z, c, -eps * x, 0.0],
        [eps * y, eps * x, -eps * p.b, 0.0],
        [0.0, eps * z, eps * y, eps * p.r],
    ])


def vector_field_full(params: ChenParams, state) -> np.ndarray:
    """Right-hand side of the full model."""
    x, y, z, w = _state(state)
    l0, l1 = _linear(params.a, params.c, params.d, x, y, w)
    n1, n2, n3 = _nonlinear(params.b, params.r, x, y, z, w)
    return np.array([l0, l1 + n1, n2, n3])


def jacobian_full(params: ChenParams, state) -> np.ndarray:
    """State Jacobian of the full model."""
    return _jacobian(params, params.c, 1.0, state)


def origin_char_poly(params: ChenParams) -> np.ndarray:
    """Characteristic polynomial at the origin, monic in descending powers.

    Expanded from the factored form
    ``(r - l)(b + l)(a(c + d - l) + (c - l) l)``. Raises ValueError when a
    coefficient overflows, as origin_quadratic_roots does.
    """
    a, b, c, d, r = params.a, params.b, params.c, params.d, params.r
    lin1 = np.array([-1.0, r])                       # r - l
    lin2 = np.array([1.0, b])                        # b + l
    quad = np.array([-1.0, c - a, a * (c + d)])      # -l^2 + (c-a) l + a(c+d)
    coeffs = np.polymul(np.polymul(lin1, lin2), quad)
    if not np.isfinite(coeffs).all():   # finite coefficients whose products overflow: an input error
        raise ValueError(f"characteristic polynomial overflows at a = {a}, b = {b}, c = {c}, d = {d}, r = {r}")
    return coeffs


def origin_quadratic_roots(params: ChenParams) -> tuple[complex, complex]:
    """Roots ((c - a) + sqrt(D)) / 2 and ((c - a) - sqrt(D)) / 2, D = (a + c)^2 + 4 a d.

    They are the origin eigenvalues besides r and -b; the square root goes
    complex when D is negative.
    """
    a, c, d = params.a, params.c, params.d
    try:
        disc = cmath.sqrt((a + c) ** 2 + 4 * a * d)
    except OverflowError as exc:   # finite a + c whose square overflows: an input error
        raise ValueError(f"discriminant (a + c)^2 + 4 a d overflows at a = {a}, c = {c}") from exc
    return ((c - a) + disc) / 2, ((c - a) - disc) / 2


def origin_eigenvalues(params: ChenParams) -> QuarticSpectrum:
    """Eigenvalues {r, -b} plus origin_quadratic_roots, in closed form."""
    return QuarticSpectrum.from_iterable(
        [complex(params.r), complex(-params.b), *origin_quadratic_roots(params)]
    )


def origin_spectrum_gap(params: ChenParams) -> float:
    """Match distance between origin_eigenvalues and eig4 of the origin Jacobian."""
    return origin_eigenvalues(params).match_distance(eig4(jacobian_full(params, np.zeros(4))))


def check_zero_hopf_conditions(params: ChenParams) -> ConditionReport:
    """Report (never reject) the zero-Hopf bifurcation hypotheses.

    The hypotheses are ``c == a`` exactly, ``a(a+d) < 0`` (so the origin
    carries a purely imaginary pair at epsilon = 0), ``b(a+d)r < 0`` (so the
    averaged map has a real pair of zeros), and ``d != 0``. The sign of
    ``b(a+d)r`` is the parity of its factors' signs, so the verdict holds where
    the reported product underflows to -0.0; ``a(a+d)`` is left as a product,
    since Omega is its square root and would underflow first.
    """
    a, b, c, d, r = params.a, params.b, params.c, params.d, params.r
    a_val = a * (a + d)
    b_val = b * (a + d) * r
    c_ok = c == a
    a_ok = a_val < 0
    b_ok = b != 0 and a + d != 0 and r != 0 and (b < 0) ^ (a + d < 0) ^ (r < 0)
    d_ok = d != 0
    return ConditionReport(
        c_equals_a=c_ok,
        a_times_a_plus_d=a_val,
        a_condition_holds=a_ok,
        b_times_a_plus_d_times_r=b_val,
        b_condition_holds=b_ok,
        d_nonzero=d_ok,
        overall=c_ok and a_ok and b_ok and d_ok,
    )


def omega(params: ChenParams) -> float:
    """Angular frequency sqrt(-a(a+d)) of the unperturbed rotation.

    The one elliptic-regime check: RegimeError unless a(a+d) < 0 (so a != 0, a+d != 0).
    """
    rad = -params.a * (params.a + params.d)
    if rad <= 0:
        raise RegimeError(
            f"elliptic case required: a*(a+d) = {-rad} must be negative"
        )
    return math.sqrt(rad)


def split_standard_form(config: RegimeConfig, state) -> tuple[np.ndarray, np.ndarray]:
    """Linear part L and perturbation N of the standard form, whose field is L + epsilon * N.

    state is one state (4,) or a stack (n, 4) of states, and the two arrays
    have its shape. One body serves both, so each row of a stack equals the
    call on that state bit for bit (the zero entries are filled with 0.0, so
    their sign does not depend on the state). A stack with a non-finite entry
    is refused by naming its first such row, so the message stays one short line.
    """
    a, b, d, r = config.params.a, config.params.b, config.params.d, config.params.r
    s = np.asarray(state, dtype=float)
    if s.ndim not in (1, 2) or s.shape[-1] != 4:
        raise ValueError(f"state must have 4 components, got shape {s.shape}")
    if not np.isfinite(s).all():
        if s.ndim == 1:
            raise ValueError(f"state contains non-finite entries: {s!r}")
        row = int(np.argmin(np.isfinite(s).all(axis=1)))   # the first bad row, not the whole stack
        raise ValueError(f"state row {row} of {len(s)} contains non-finite entries: {s[row]!r}")
    x, y, z, w = s.T
    zero = np.zeros(s.shape[:-1])
    linear = np.stack([*_linear(a, a, d, x, y, w), zero, zero], axis=-1)
    perturbation = np.stack([zero, *_nonlinear(b, r, x, y, z, w)], axis=-1)
    return linear, perturbation


def standard_form_field(config: RegimeConfig, state) -> np.ndarray:
    """Full right-hand side of the averaging standard form.

    Bit-identical to ``linear + epsilon * perturbation`` from
    split_standard_form: each component keeps that operation order, zero
    terms included (they fix the sign of a zero result).
    """
    x, y, z, w = _state(state)
    p, eps = config.params, config.epsilon
    l0, l1 = _linear(p.a, p.a, p.d, x, y, w)
    n1, n2, n3 = _nonlinear(p.b, p.r, x, y, z, w)
    return np.array([l0 + eps * 0.0, l1 + eps * n1, 0.0 + eps * n2, 0.0 + eps * n3])


def standard_form_jacobian(config: RegimeConfig, state) -> np.ndarray:
    """State Jacobian of the averaging standard form (for variational flows)."""
    return _jacobian(config.params, config.params.a, config.epsilon, state)


def random_admissible_config(rng: np.random.Generator) -> RegimeConfig:
    """Draw parameters satisfying every zero-Hopf hypothesis, at epsilon = 0.

    Magnitudes stay in [0.5, 1.6], which keeps the draws bounded away from
    the hypothesis boundaries (|a(a+d)| >= 0.25, |b(a+d)r| >= 0.125).
    """
    low, high = 0.5, 1.6
    a = rng.uniform(low, high) * rng.choice([-1.0, 1.0])
    s = -math.copysign(rng.uniform(low, high), a)   # s = a + d, opposite sign to a
    d = s - a
    b = rng.uniform(low, high) * rng.choice([-1.0, 1.0])
    r = -math.copysign(rng.uniform(low, high), b * s)  # force b*(a+d)*r < 0
    return RegimeConfig.make(a=a, b=b, d=d, r=r)
