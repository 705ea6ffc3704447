"""Small fixed-dimension numerical kernels.

Everything in here is deliberately dimension-4 (or 5 for the extended
shooting system): periodic quadrature, central-difference Jacobians, 4x4
eigenvalues with a backward-error certificate relative to the matrix norm,
and a damped Newton iteration with a conditioning check. numpy.linalg does
the linear algebra.

Newton says why it stopped (NewtonReport.reason): "converged" at the
tolerance; "line_search_failed" when no damped step down to LAMBDA_MIN
lowers the residual, so it returns the current iterate instead of a worse
one; "stagnated" when the residual ratio of an accepted step exceeds
STALL_RATIO on STALL_LIMIT consecutive iterations. Both mark a residual
floor: no root nearby, or a residual computed only to some accuracy, as an
integrated return map is (Deuflhard, Newton Methods for Nonlinear Problems,
2004, ch. 3; Dennis & Schnabel, 1983, sec. 6.3). "max_iter" means the
iteration budget MAX_ITER ran out while the residual still fell.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

#: default relative step for central differences
DEFAULT_FD_STEP = float(np.sqrt(np.finfo(float).eps))

#: a Newton Jacobian with reciprocal condition number below this is singular
RCOND_MIN = 1e-14

#: certified eigenvalues are exact for a perturbation this small relative to |M|_2
EIG_BACKWARD_RTOL = 1e-12

#: smallest Newton damping factor tried: ten halvings of the full step
LAMBDA_MIN = 2.0 ** -10
#: an accepted Newton step whose residual ratio |F_new|/|F_old| exceeds this stalls
STALL_RATIO = 0.5
#: Newton stops as stagnated after this many consecutive stalled steps
STALL_LIMIT = 2
#: iteration budget of every Newton solve. Measured: the test-suite's and the
#: benchmark's solves stop within 5 iterations and the CLI's within 6 (zeros
#: --tol 1e-30, stagnated); sweep --epsilons 1e10 ends here as "max_iter"
MAX_ITER = 25


class SingularMatrixError(RuntimeError):
    """Newton Jacobian is numerically singular."""


class EigenSolveError(RuntimeError):
    """An eigenvalue failed its backward-error certificate."""

    def __init__(self, message: str, estimates: Sequence[complex]):
        super().__init__(message)
        self.estimates = tuple(complex(v) for v in estimates)


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries: {arr!r}")


@dataclass(frozen=True)
class QuarticSpectrum:
    """Four eigenvalues in canonical order.

    Canonical order is descending real part, ties broken by descending
    imaginary part, so conjugate pairs sit next to each other and the
    ordering is reproducible across independent computations.
    """

    values: tuple[complex, complex, complex, complex]

    @classmethod
    def from_iterable(cls, vals) -> "QuarticSpectrum":
        vs = [complex(v) for v in vals]
        if len(vs) != 4:
            raise ValueError(f"spectrum needs exactly 4 values, got {len(vs)}")
        vs.sort(key=lambda z: (-z.real, -z.imag))
        return cls(tuple(vs))

    def match_distance(self, other: "QuarticSpectrum") -> float:
        """Smallest max-modulus mismatch over all pairings of the two sets."""
        best = np.inf
        for perm in permutations(other.values):
            worst = max(abs(a - b) for a, b in zip(self.values, perm))
            best = min(best, worst)
        return float(best)

    def real_parts(self) -> tuple[float, float, float, float]:
        return tuple(v.real for v in self.values)


@dataclass(frozen=True)
class NewtonReport:
    """Outcome of a damped Newton solve.

    root is the last accepted iterate and residual_norm its residual infinity
    norm, the smallest the solve evaluated; iterations counts accepted steps.
    reason is "converged", "stagnated", "line_search_failed" or "max_iter".
    """

    root: np.ndarray
    iterations: int
    residual_norm: float
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason == "converged"

    def describe(self) -> str:
        """The stop reason in words, e.g. 'stagnated after 3 iterations (best residual 4.1e-05)'."""
        what = "ran out of iterations" if self.reason == "max_iter" else self.reason.replace("_", " ")
        return (f"{what} after {self.iterations} iterations "
                f"(best residual {self.residual_norm:.3e})")


def determinant(matrix: np.ndarray) -> complex | float:
    """numpy.linalg.det as a Python float, or complex for complex input."""
    det = np.linalg.det(matrix)
    return complex(det) if np.iscomplexobj(det) else float(det)


def periodic_trapezoid(
    integrand: Callable[[float], np.ndarray], period: float, nodes: int
) -> np.ndarray:
    """Mean value of a periodic vector integrand over one period.

    Equispaced sampling on [0, period); for a periodic integrand this is the
    trapezoid rule, and it is exact (to roundoff) whenever the integrand is a
    trigonometric polynomial with fewer than `nodes` harmonics.
    """
    if not period > 0:
        raise ValueError(f"period must be positive, got {period}")
    if nodes < 4:
        raise ValueError(f"need at least 4 nodes, got {nodes}")
    acc = None
    for k in range(nodes):
        t = period * k / nodes
        sample = np.asarray(integrand(t), dtype=float)
        if not np.all(np.isfinite(sample)):
            raise ValueError(
                f"integrand returned non-finite value {sample!r} at node {k} (t={t!r})"
            )
        acc = sample if acc is None else acc + sample
    return acc / nodes


def finite_difference_jacobian(
    residual: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Central-difference Jacobian, column j stepped by step*max(1, |x_j|)."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(point, dtype=float)
    _require_finite(x, "point")
    n = x.size
    cols = []
    for j in range(n):
        h = step * max(1.0, abs(x[j]))
        e = np.zeros(n)
        e[j] = h
        cols.append((np.asarray(residual(x + e)) - np.asarray(residual(x - e))) / (2 * h))
    jac = np.column_stack(cols)
    _require_finite(jac, "finite-difference Jacobian")
    return jac


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    seed: np.ndarray,
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
    tol: float = 1e-12,
) -> NewtonReport:
    """Damped Newton iteration on a square nonlinear system.

    Each step solves J step = -F with numpy.linalg.solve and tries the full
    step first. A trial is accepted only if it lowers the residual infinity
    norm; otherwise the step is halved, down to LAMBDA_MIN. Convergence is
    checked before the first step, so a seed that already satisfies the
    tolerance reports zero iterations, and again after every accepted step.
    Not converging is a report, not an exception: the reason (see the module
    docstring) says whether the residual hit a floor ("stagnated",
    "line_search_failed") or the MAX_ITER budget ran out ("max_iter"). A
    Jacobian that numpy cannot factor, or whose condition number exceeds
    1/RCOND_MIN, raises SingularMatrixError.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    jac = jacobian if jacobian is not None else (
        lambda v: finite_difference_jacobian(residual, v)
    )
    x = np.array(seed, dtype=float)
    fx = np.asarray(residual(x), dtype=float)
    norm = float(np.max(np.abs(fx)))
    if norm <= tol:
        return NewtonReport(root=x, iterations=0, residual_norm=norm, reason="converged")
    stalls = 0
    for it in range(1, MAX_ITER + 1):
        jx = np.asarray(jac(x), dtype=float)
        try:
            cond = np.linalg.cond(jx)
            step = np.linalg.solve(jx, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"Jacobian solve failed: {exc}") from exc
        if not cond * RCOND_MIN <= 1.0:
            raise SingularMatrixError(f"Jacobian condition number {cond:.3e} above 1/RCOND_MIN")
        lam = 1.0
        while True:
            x_try = x + lam * step
            f_try = np.asarray(residual(x_try), dtype=float)
            n_try = float(np.max(np.abs(f_try)))
            if n_try < norm:
                break
            if lam <= LAMBDA_MIN:
                return NewtonReport(root=x, iterations=it - 1, residual_norm=norm,
                                    reason="line_search_failed")
            lam *= 0.5
        stalls = stalls + 1 if n_try > STALL_RATIO * norm else 0
        x, fx, norm = x_try, f_try, n_try
        if norm <= tol:
            return NewtonReport(root=x, iterations=it, residual_norm=norm, reason="converged")
        if stalls >= STALL_LIMIT:
            return NewtonReport(root=x, iterations=it, residual_norm=norm, reason="stagnated")
    return NewtonReport(root=x, iterations=MAX_ITER, residual_norm=norm, reason="max_iter")


def eig4(matrix: np.ndarray) -> QuarticSpectrum:
    """Eigenvalues of a real 4x4 matrix from numpy.linalg.eigvals, certified.

    Each value lambda must satisfy sigma_min(M - lambda*I) <= EIG_BACKWARD_RTOL
    * |M|_2, i.e. be exact for a nearby matrix; otherwise EigenSolveError
    carries the values. The bound is relative, so it holds at any matrix norm.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"4x4 matrix required, got {m.shape}")
    _require_finite(m, "matrix")
    values = np.linalg.eigvals(m)
    bound = EIG_BACKWARD_RTOL * float(np.linalg.norm(m, 2))
    backward = np.linalg.svd(m - values[:, None, None] * np.eye(4), compute_uv=False)[:, -1]
    for lam, res in zip(values, backward):
        if not res <= bound:
            raise EigenSolveError(
                f"eigenvalue {lam!r} has backward error {res:.3e} > {bound:.3e}",
                estimates=values,
            )
    return QuarticSpectrum.from_iterable(values)
