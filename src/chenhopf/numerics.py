"""Small fixed-dimension numerical kernels.

Everything in here is deliberately dimension-4 (or 5 for the extended
shooting system): periodic quadrature, central-difference Jacobians, 4x4
eigenvalues with a backward-error certificate relative to the matrix norm,
and a damped Newton iteration with a conditioning check. numpy.linalg does
the linear algebra.

Residuals are stacked: a residual differentiated by central differences
maps one point (n,) to its value (m,) and a (k, n) stack of points to the
(k, m) stack of their values, so a Jacobian costs one residual call.

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
from typing import Callable

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
    integrand: Callable[[np.ndarray], np.ndarray], period: float, nodes: int
) -> np.ndarray:
    """Mean value of a periodic vector integrand over one period.

    Equispaced sampling on [0, period); for a periodic integrand this is the
    trapezoid rule, and it is exact (to roundoff) whenever the integrand is a
    trigonometric polynomial with fewer than `nodes` harmonics.

    The integrand is called once, on the array of node times
    ``period * k / nodes`` (k = 0, ..., nodes - 1), and returns an
    (nodes, m) array whose row k is the sample at node k. The rows are summed
    in node order, as a running sum over the nodes would add them. A
    non-finite sample is a ValueError that names the first such entry: its
    value, column, node and time.
    """
    if not period > 0:
        raise ValueError(f"period must be positive, got {period}")
    if nodes < 4:
        raise ValueError(f"need at least 4 nodes, got {nodes}")
    times = period * np.arange(nodes) / nodes
    # in C order axis 0 is not the contiguous axis, so numpy adds the rows one
    # after another, as the loop did, and not pairwise
    samples = np.asarray(integrand(times), dtype=float, order="C")
    if samples.ndim != 2 or samples.shape[0] != nodes:
        raise ValueError(f"integrand must return shape ({nodes}, m), got {samples.shape}")
    finite = np.isfinite(samples)
    if not finite.all():
        # the first bad entry in node order, not the whole row, so the message stays one short line
        k, j = divmod(int(np.argmin(finite)), samples.shape[1])
        raise ValueError(f"integrand returned non-finite value {float(samples[k, j])!r} in column {j} "
                         f"at node {k} (t={float(times[k])!r})")
    return np.add.reduce(samples, axis=0) / nodes


def finite_difference_jacobian(
    residual: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Central-difference Jacobian, column j stepped by h_j = step*max(1, |x_j|).

    residual takes a stack: it is called once, on the (2n, n) array whose
    row j is x + h_j e_j and row n + j is x - h_j e_j, and returns the
    (2n, m) stack of their values. Column j is (f(x + h_j e_j) - f(x - h_j
    e_j)) / (2 h_j), the same operations as one pair of calls per column.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(point, dtype=float)
    _require_finite(x, "point")
    n = x.size
    h = step * np.maximum(1.0, np.abs(x))
    shift = np.diag(h)
    values = np.asarray(residual(np.concatenate([x + shift, x - shift])), dtype=float)
    if values.ndim != 2 or values.shape[0] != 2 * n:
        raise ValueError(f"residual must return shape ({2 * n}, m) for a stack of {2 * n} points, "
                         f"got {values.shape}")
    jac = (values[:n] - values[n:]).T / (2 * h)
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
    Jacobian that is not finite, that numpy cannot factor, or whose condition
    number exceeds 1/RCOND_MIN, raises SingularMatrixError.

    residual maps one point (n,) to its value (m,). Without a jacobian the
    Jacobian is finite_difference_jacobian's, so residual must also map a
    (k, n) stack of points to the (k, m) stack of their values.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
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
        if not np.isfinite(jx).all():   # before LAPACK, which would print to the C-level stdout
            raise SingularMatrixError("Jacobian has non-finite entries")
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
    names the first that fails. The bound is relative, so it holds at any
    matrix norm. Forming M - lambda*I needs 2 |M|_2 finite (|M_ii - lambda|
    <= 2 |M|_2); a larger finite matrix is a ValueError.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"4x4 matrix required, got {m.shape}")
    _require_finite(m, "matrix")
    values = np.linalg.eigvals(m)
    norm = float(np.linalg.norm(m, 2))
    if not 2 * norm < np.inf:
        raise ValueError(f"matrix norm {norm:.3e} too large to form the shifted matrices M - lambda I")
    bound = EIG_BACKWARD_RTOL * norm
    backward = np.linalg.svd(m - values[:, None, None] * np.eye(4), compute_uv=False)[:, -1]
    for lam, res in zip(values, backward):
        if not res <= bound:
            raise EigenSolveError(f"eigenvalue {lam!r} has backward error {res:.3e} > {bound:.3e}")
    return QuarticSpectrum.from_iterable(values)
