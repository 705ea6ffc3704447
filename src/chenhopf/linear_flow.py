"""Closed-form flow of the unperturbed linear system.

With the perturbation switched off the standard form reduces to

    x' = a(y - x) + w,   y' = d x + a y,   z' = 0,   w' = 0.

Averaging needs the elliptic regime a(a+d) < 0, where every solution is
periodic with the common period 2*pi/Omega, Omega = sqrt(-a(a+d)). The regime
is decided by chen.omega alone; it raises RegimeError otherwise, which also
covers the degenerate a = 0 and a + d = 0 the formulas below divide by.
flow is the one general construction of the rotation Phi(t) = exp(tL): the
fundamental matrix is assembled from basis flows, and since Phi(t)^{-1} is
Phi(-t), its inverse is the fundamental matrix at -t.

rotating_kernels(config) returns the standard form u' = L u + eps N(u) in
the rotating frame u = Phi(t) v (Lagrange standard form) as a pair of
kernels: field(t, v) = eps Phi(t)^{-1} N(Phi(t) v), only the slow drift,
since the rotation is solved in closed form, and field_and_jacobian(t, v),
that field with its state Jacobian eps Phi(t)^{-1} DN(Phi(t) v) Phi(t) for
variational runs, rotating v once for both. The factory binds the config's
constants once, so an integration builds one pair and calls it at every
stage.
"""
from __future__ import annotations

import math

import numpy as np

from .chen import RegimeConfig, _nonlinear, _state, omega


def flow(config: RegimeConfig, u, t) -> np.ndarray:
    """Closed-form solution through u after time t: (x, y) rotate, z and w stay.

    u is one state (4,) or a stack (..., 4) of states, and t a time or an
    array of times. The two broadcast to the result's shape
    broadcast(u.shape[:-1], t.shape) + (4,). One body serves every shape,
    so each entry equals its single-state call bit for bit.
    """
    p = config.params
    om = omega(p)
    u = np.asarray(u, dtype=float)
    x0, y0, z0, w0 = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    a, d = p.a, p.d
    ad = a + d
    cos, sin = np.cos(om * t), np.sin(om * t)
    x = (w0 + (ad * x0 - w0) * cos - (om / a) * (w0 + a * (y0 - x0)) * sin) / ad
    y = ((d * w0 + a * ad * y0) * cos - d * w0 - om * (d * x0 + a * y0) * sin) / (a * ad)
    out = np.empty(np.shape(x) + (4,))
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = x, y, z0, w0
    return out


def fundamental_matrix(config: RegimeConfig, t: float) -> np.ndarray:
    """Fundamental matrix with identity at t = 0: column j is the flow of basis vector j."""
    return flow(config, np.eye(4), t).T


def fundamental_matrix_inverse(config: RegimeConfig, t: float) -> np.ndarray:
    """Inverse of the fundamental matrix: Phi(t)^{-1} = Phi(-t)."""
    return fundamental_matrix(config, -t)


def inverse_gap(config: RegimeConfig, t: float) -> float:
    """max|Phi(t) Phi(-t) - I|: fundamental_matrix against fundamental_matrix_inverse."""
    prod = fundamental_matrix(config, t) @ fundamental_matrix_inverse(config, t)
    return float(np.max(np.abs(prod - np.eye(4))))


def period(config: RegimeConfig) -> float:
    """Common period 2*pi/Omega of the rotation."""
    return 2 * math.pi / omega(config.params)


def rotating_kernels(config: RegimeConfig):
    """(field(t, v), field_and_jacobian(t, v)) in the rotating frame, config's constants bound once.

    Omega (chen.omega's regime check), a + d, a(a+d), om/(a+d), om/a,
    om d/(a(a+d)), b, r and eps are read here; each call still validates v
    through chen._state. field returns the drift as four Python floats;
    field_and_jacobian returns them, bit for bit, and a fresh (4, 4) array.
    """
    p, eps = config.params, config.epsilon
    om, a, d, b, r = omega(p), p.a, p.d, p.b, p.r
    ad = a + d
    a_ad = a * ad
    k_ad, k_a, k_d = om / ad, om / a, om * d / a_ad

    def field(t: float, v) -> tuple[float, float, float, float]:
        cos, sin = math.cos(om * t), math.sin(om * t)
        ks, ws = k_ad * sin, k_a * sin / ad
        p00, dx, dy = cos + ks, (1 - cos) / ad, d * (cos - 1) / a_ad
        vx, vy, vz, vw = _state(v)
        # x and y of Phi(t) v (z and w stay), then Phi(t)^{-1} eps N (N_x = 0)
        x, y = p00 * vx + -ks * vy + (dx - ws) * vw, -(k_d * sin) * vx + (cos - ks) * vy + dy * vw
        n1, n2, n3 = _nonlinear(b, r, x, y, vz, vw)
        return eps * (ks * n1 + (dx + ws) * n3), eps * (p00 * n1 + dy * n3), eps * n2, eps * n3

    def field_and_jacobian(t: float, v) -> tuple[tuple[float, float, float, float], np.ndarray]:
        """DN's one home besides chen._jacobian: this hot kernel expands it sparsely by hand."""
        cos, sin = math.cos(om * t), math.sin(om * t)
        ks, ws, kds = k_ad * sin, k_a * sin / ad, k_d * sin
        dx, dy = (1 - cos) / ad, d * (cos - 1) / a_ad
        # rows x and y of Phi(t) on (x, y, w); those of Phi(t)^{-1} on (y, w) are (ks, q03), (p00, dy)
        p00, p01, p03, p10, p11, p13, q03 = cos + ks, -ks, dx - ws, -kds, cos - ks, dy, dx + ws
        vx, vy, z, vw = _state(v)
        x, y = p00 * vx + p01 * vy + p03 * vw, p10 * vx + p11 * vy + p13 * vw
        n1, n2, n3 = _nonlinear(b, r, x, y, z, vw)
        drift = eps * (ks * n1 + q03 * n3), eps * (p00 * n1 + dy * n3), eps * n2, eps * n3
        # rows y and w of DN(u) Phi are (g0, g1, -x, g3) and (h0, h1, y, h3); row x is zero
        g0, g1, g3 = -z * p00, -z * p01, -z * p03
        h0, h1, h3 = z * p10, z * p11, z * p13 + r
        # Phi^{-1} mixes rows y and w into rows x and y and passes rows z and w through
        a1, a3, c1, c3 = eps * ks, eps * q03, eps * p00, eps * dy
        jacobian = np.array([
            a1 * g0 + a3 * h0, a1 * g1 + a3 * h1, a3 * y - a1 * x, a1 * g3 + a3 * h3,
            c1 * g0 + c3 * h0, c1 * g1 + c3 * h1, c3 * y - c1 * x, c1 * g3 + c3 * h3,
            eps * (y * p00 + x * p10), eps * (y * p01 + x * p11), -eps * b, eps * (y * p03 + x * p13),
            eps * h0, eps * h1, eps * y, eps * h3,
        ]).reshape(4, 4)
        return drift, jacobian

    return field, field_and_jacobian

