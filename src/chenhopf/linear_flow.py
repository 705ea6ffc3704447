"""Closed-form flow of the unperturbed linear system.

With the perturbation switched off the standard form reduces to

    x' = a(y - x) + w,   y' = d x + a y,   z' = 0,   w' = 0.

Averaging needs the elliptic regime a(a+d) < 0, where every solution is
periodic with the common period 2*pi/Omega, Omega = sqrt(-a(a+d)). The regime
is decided by chen.omega alone; it raises RegimeError otherwise, which also
covers the degenerate a = 0 and a + d = 0 the formulas below divide by. The
fundamental matrix is assembled from basis flows rather than transcribed, so
the hand-written inverse below is validated against an independent
construction.

rotating_field is the standard form u' = L u + eps N(u) in the rotating
frame u = Phi(t) v (Lagrange standard form): v' = eps Phi(t)^{-1} N(Phi(t) v),
only the slow drift, since the rotation is solved in closed form.
rotating_field_and_jacobian returns that field with its state Jacobian, for
variational runs, and rotates v once for both.
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


def fundamental_matrix_inverse(config: RegimeConfig, t) -> np.ndarray:
    """Explicit inverse of the fundamental matrix.

    Hand-written entries in cos/sin; cross-checked in the test-suite against
    the numerically inverted fundamental_matrix. t is a time or an array of
    times, and the result has shape t.shape + (4, 4); one assembly serves
    both, so each matrix of a batch equals the scalar call's bit for bit.
    """
    p = config.params
    om = omega(p)
    a, d = p.a, p.d
    ad = a + d
    cos, sin = np.cos(om * t), np.sin(om * t)
    rows = [
        [cos + (a / om) * sin, -(a / om) * sin, 0.0, (1 - cos + (om / a) * sin) / ad],
        [-(d / om) * sin, cos - (a / om) * sin, 0.0, d * (cos - 1) / (a * ad)],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    out = np.empty(np.shape(cos) + (4, 4))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def inverse_gap(config: RegimeConfig, t: float) -> float:
    """max|Phi(t) Phi(t)^{-1} - I|: fundamental_matrix against fundamental_matrix_inverse."""
    prod = fundamental_matrix(config, t) @ fundamental_matrix_inverse(config, t)
    return float(np.max(np.abs(prod - np.eye(4))))


def period(config: RegimeConfig) -> float:
    """Common period 2*pi/Omega of the rotation."""
    return 2 * math.pi / omega(config.params)


def _rotating(config: RegimeConfig, t: float, v):
    """Phi(t) v's x and y, rows x and y of Phi(t) on (x, y, w), and of Phi(t)^{-1} on (y, w) (N_x = 0)."""
    p = config.params
    om, a, d = omega(p), p.a, p.d
    ad = a + d
    cos, sin = math.cos(om * t), math.sin(om * t)
    ks, ws, kds = (om / ad) * sin, (om / a) * sin / ad, (om * d / (a * ad)) * sin
    dx, dy = (1 - cos) / ad, d * (cos - 1) / (a * ad)
    rows = (cos + ks, -ks, dx - ws, -kds, cos - ks, dy)
    vx, vy, vz, vw = _state(v)
    x = rows[0] * vx + rows[1] * vy + rows[2] * vw
    y = rows[3] * vx + rows[4] * vy + rows[5] * vw
    return x, y, vz, vw, rows, (ks, dx + ws, cos + ks, dy)


def _drift(config: RegimeConfig, x, y, z, w, q) -> np.ndarray:
    """eps Phi(t)^{-1} N(u) at u = Phi(t) v = (x, y, z, w), with q = _rotating's rows of Phi(t)^{-1}."""
    q01, q03, q11, q13 = q
    n1, n2, n3 = _nonlinear(config.params.b, config.params.r, x, y, z, w)
    eps = config.epsilon
    return np.array([eps * (q01 * n1 + q03 * n3), eps * (q11 * n1 + q13 * n3), eps * n2, eps * n3])


def rotating_field(config: RegimeConfig, t: float, v) -> np.ndarray:
    """eps Phi(t)^{-1} N(Phi(t) v), N = (0, -xz, xy - bz, yz + rw); zero at eps = 0."""
    x, y, z, w, _, q = _rotating(config, t, v)
    return _drift(config, x, y, z, w, q)


def rotating_field_and_jacobian(config: RegimeConfig, t: float, v) -> tuple[np.ndarray, np.ndarray]:
    """rotating_field and its state Jacobian eps Phi(t)^{-1} DN(Phi(t) v) Phi(t), from one _rotating call.

    DN's one home besides chen._jacobian: this hot kernel expands it sparsely by hand.
    """
    x, y, z, w, (p00, p01, p03, p10, p11, p13), q = _rotating(config, t, v)
    field = _drift(config, x, y, z, w, q)
    q01, q03, q11, q13 = q
    b, r, eps = config.params.b, config.params.r, config.epsilon
    # rows y and w of DN(u) Phi are (g0, g1, -x, g3) and (h0, h1, y, h3); row x is zero
    g0, g1, g3 = -z * p00, -z * p01, -z * p03
    h0, h1, h3 = z * p10, z * p11, z * p13 + r
    # Phi^{-1} mixes rows y and w into rows x and y and passes rows z and w through
    a1, a3, c1, c3 = eps * q01, eps * q03, eps * q11, eps * q13
    jacobian = np.array([
        a1 * g0 + a3 * h0, a1 * g1 + a3 * h1, a3 * y - a1 * x, a1 * g3 + a3 * h3,
        c1 * g0 + c3 * h0, c1 * g1 + c3 * h1, c3 * y - c1 * x, c1 * g3 + c3 * h3,
        eps * (y * p00 + x * p10), eps * (y * p01 + x * p11), -eps * b, eps * (y * p03 + x * p13),
        eps * h0, eps * h1, eps * y, eps * h3,
    ]).reshape(4, 4)
    return field, jacobian
