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
"""
from __future__ import annotations

import math

import numpy as np

from .chen import RegimeConfig, omega


def flow(config: RegimeConfig, u, t: float) -> np.ndarray:
    """Closed-form solution through u after time t: (x, y) rotate, z and w stay."""
    p = config.params
    om = omega(p)
    x0, y0, z0, w0 = np.asarray(u, dtype=float)
    a, d = p.a, p.d
    ad = a + d
    cos, sin = math.cos(om * t), math.sin(om * t)
    x = (w0 + (ad * x0 - w0) * cos - (om / a) * (w0 + a * (y0 - x0)) * sin) / ad
    y = ((d * w0 + a * ad * y0) * cos - d * w0 - om * (d * x0 + a * y0) * sin) / (a * ad)
    return np.array([x, y, z0, w0])


def fundamental_matrix(config: RegimeConfig, t: float) -> np.ndarray:
    """Fundamental matrix with identity at t = 0, assembled from basis flows."""
    return np.column_stack([flow(config, np.eye(4)[j], t) for j in range(4)])


def fundamental_matrix_inverse(config: RegimeConfig, t: float) -> np.ndarray:
    """Explicit inverse of the fundamental matrix.

    Hand-written entries in cos/sin; cross-checked in the test-suite against
    the numerically inverted fundamental_matrix.
    """
    p = config.params
    om = omega(p)
    a, d = p.a, p.d
    ad = a + d
    cos, sin = math.cos(om * t), math.sin(om * t)
    return np.array([
        [cos + (a / om) * sin, -(a / om) * sin, 0.0, (1 - cos + (om / a) * sin) / ad],
        [-(d / om) * sin, cos - (a / om) * sin, 0.0, d * (cos - 1) / (a * ad)],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def inverse_gap(config: RegimeConfig, t: float) -> float:
    """max|Phi(t) Phi(t)^{-1} - I|: fundamental_matrix against fundamental_matrix_inverse."""
    prod = fundamental_matrix(config, t) @ fundamental_matrix_inverse(config, t)
    return float(np.max(np.abs(prod - np.eye(4))))


def period(config: RegimeConfig) -> float:
    """Common period 2*pi/Omega of the rotation."""
    return 2 * math.pi / omega(config.params)
