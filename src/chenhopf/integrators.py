"""Time integration for the perturbed system and its variational equations.

One stepper: a hand-rolled Dormand-Prince 5(4) pair with PI step-size
control and the standard quartic dense-output interpolant (Hairer, Norsett &
Wanner, Solving ODEs I, II.4-II.5). The shooting layer needs ~1e-12 endpoint
accuracy over one period, which the embedded pair reaches cheaply at the
fixed tolerances below.

First-same-as-last: the seventh stage is the field at the proposed state
and an accepted step reuses it as the next first stage, so an integration
costs 1 + 6 field evaluations per step attempt. Dense output is built only
on a step that holds a requested interior sample, and evaluates all of that
step's samples in one product.

Which guard runs where:

* before the first step: t_end, the initial state and the shape of the
  field's value at t = 0 are validated (ValueError); that value must be
  finite ("non_finite"; it may exceed BLOWUP_NORM where the state is small);
* each stage: the fields reject a non-finite state (chen._state raises
  ValueError); if the stage state overflowed, the step attempt ends there
  and that state is the proposed one below;
* each step attempt: h must stay above a tiny floor ("step_underflow"); the
  proposed state's max norm, which carries NaN and inf, must be finite
  ("non_finite"); past BLOWUP_NORM it is "blowup" if the step is accepted
  or its error estimate is not finite (a finite estimate above tolerance
  only rejects the step); a NaN or infinite estimate shrinks h by _FAC_MIN,
  so a field that stays non-finite there ends as "step_underflow";
* the loop as a whole: at most MAX_STEPS step attempts ("max_steps").

Fields are called as field(t, y), stage i at t + _C[i] * h, and may return
any length-n sequence of floats for an n-vector state (its shape is checked
once, at t = 0). The stepper copies every value into its stage row, so a
field may also return one buffer that it rewrites on each call
(integrate_with_variational does).
Every IntegrationError carries the last good time and state, from before
the failing step. These guards report overflow, so numpy's overflow and
invalid-value warnings are off inside the stepper.

The per-step products (stage sums, error estimate, the variational J W) go
through ndarray.dot: cheaper per call than @, and the same bits at these
shapes, which the test-suite checks on the BLAS it runs on. Max norms are
exact, so taking them on Python floats gives numpy's bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: state blow-up guard; the full system can diverge from bad seeds
BLOWUP_NORM = 1e12
#: per-step error tolerances: absolute, and relative to the state's max norm
ABS_TOL = 1e-12
REL_TOL = 1e-10
#: step budget of every integration, ten times the longest legitimate run.
#: Measured: the test-suite's longest run takes 999 step attempts (a
#: five-period recurrence check), benchmark ops and CLI commands at most 92
#: (sweep over four epsilons). Trajectories that escape at very large
#: epsilon (verify --epsilon 1, 2 or 1e5, orbit --epsilon 30) end here as
#: "max_steps" within about 2 s instead of 5 to 17 s at a budget of 100_000
MAX_STEPS = 10_000

#: smallest step attempted before raising step_underflow
_H_MIN = 1e3 * np.finfo(float).tiny
_SAFETY = 0.9
_FAC_MIN, _FAC_MAX = 0.2, 5.0
# PI controller exponents for a 5th-order propagator
_ALPHA, _BETA = 0.7 / 5.0, 0.4 / 5.0

# Dormand-Prince 5(4) tableau
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# difference between the 5th- and embedded 4th-order weights
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])
# quartic dense-output coefficients: y(t+theta*h) = y + h*(K^T P) @ [theta..theta^4]
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


class IntegrationError(RuntimeError):
    """Integration aborted; carries why, and the last good time and state.

    reason is "max_steps", "blowup", "non_finite" or "step_underflow".
    """

    def __init__(self, message: str, reason: str, last_time: float, last_state: np.ndarray):
        super().__init__(message)
        self.reason = reason
        self.last_time = last_time
        self.last_state = np.array(last_state)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: strictly increasing times starting at 0."""

    times: np.ndarray
    states: np.ndarray


def _max_abs(v: np.ndarray) -> float:
    """max|v| from its Python floats; numpy's where their sum is not finite (NaN, inf)."""
    vals = v.tolist()
    return max(map(abs, vals)) if math.isfinite(sum(vals)) else float(np.abs(v).max())


def _dense_output(t: float, h: float, y: np.ndarray, k: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Quartic interpolant of the step from (t, y) over h, one row per time, in one product."""
    theta = np.minimum(1.0, (times - t) / h)
    return y + (theta[:, None] ** (1.0, 2.0, 3.0, 4.0)) @ ((k.T @ _P) * h).T


def _adaptive_rk45(
    field: Callable[[float, np.ndarray], np.ndarray],
    u0: np.ndarray,
    t_end: float,
    sample_count: int = 2,
) -> Trajectory:
    """Core stepper; returns sample_count equispaced samples over [0, t_end]."""
    if not (t_end > 0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    start = np.array(u0, dtype=float)
    if not np.isfinite(start).all():
        raise ValueError("initial state must be finite")
    y, t = start, 0.0
    f0 = np.asarray(field(0.0, y), dtype=float)
    if f0.shape != y.shape:
        raise ValueError(f"field value has shape {f0.shape}, the state has shape {y.shape}")
    # the field may be large where the state is small: check it for finiteness only
    if not np.isfinite(f0).all():
        raise IntegrationError("field is non-finite at t = 0", "non_finite", 0.0, y)
    y_norm = _max_abs(y)              # max|y|, carried from step to step
    h = min(t_end, 0.01 * (1.0 + y_norm) / (1.0 + float(np.abs(f0).max())))

    times = np.linspace(0.0, t_end, sample_count)
    interior = times[1:-1]            # the only samples dense output computes
    samples = np.empty((interior.size, y.size))
    next_sample = 0

    k = np.empty((7, y.size))
    k[0] = f0
    stages = [(i, _A[i], k[:i], _C[i]) for i in range(1, 7)]
    err_prev = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_STEPS):
            if t >= t_end:
                break
            h = min(h, t_end - t)
            if h < _H_MIN:
                raise IntegrationError(f"step size underflow at t = {t:.6g}", "step_underflow", t, y)
            # stage i's state; the last one is the 5th-order solution, its field k[6]
            try:
                for i, a, ki, c in stages:
                    y_new = y + h * a.dot(ki)
                    k[i] = field(t + c * h, y_new)
            except ValueError:
                if np.isfinite(y_new).all():  # not an overflow: the field's own input error
                    raise
            # y_new is the proposed state, or the stage state that overflowed
            y_new_norm = _max_abs(y_new)
            if not math.isfinite(y_new_norm):
                raise IntegrationError(
                    f"state became non-finite near t = {t + h:.6g}", "non_finite", t, y
                )
            # max|h * (_ERR k)|, exactly: h > 0 and rounding is monotone
            err_norm = h * _max_abs(_ERR.dot(k))
            scale = ABS_TOL + REL_TOL * max(y_norm, y_new_norm)
            err = err_norm / scale
            if y_new_norm > BLOWUP_NORM and (err <= 1.0 or not math.isfinite(err_norm)):
                raise IntegrationError(
                    f"state norm exceeded {BLOWUP_NORM:.0e} near t = {t + h:.6g} (blow-up)",
                    "blowup", t, y,
                )
            if err <= 1.0:
                if next_sample < interior.size and interior[next_sample] <= t + h + 1e-15:
                    # dense output over (t, t+h]
                    stop = int(np.searchsorted(interior, t + h + 1e-15, side="right"))
                    samples[next_sample:stop] = _dense_output(t, h, y, k, interior[next_sample:stop])
                    next_sample = stop
                t += h
                y, y_norm = y_new, y_new_norm
                k[0] = k[6]
                fac = _SAFETY * (err + 1e-20) ** (-_ALPHA) * err_prev ** _BETA
                err_prev = max(err, 1e-4)
                h *= min(_FAC_MAX, max(_FAC_MIN, fac))
            else:
                # a NaN estimate shrinks as an infinite one does: min(1.0, nan) would retry h
                h *= max(_FAC_MIN, min(1.0, _SAFETY * err ** (-0.2))) if err < math.inf else _FAC_MIN
        else:
            raise IntegrationError(
                f"exceeded max_steps = {MAX_STEPS} before t_end", "max_steps", t, y
            )
    return Trajectory(times=times, states=np.vstack([start, samples, y]))


def integrate(
    field: Callable[[float, np.ndarray], np.ndarray],
    u0,
    t_end: float,
    sample_count: int = 2,
) -> Trajectory:
    """Integrate y' = field(t, y) from t = 0, sampling sample_count equispaced times.

    Samples span [0, t_end] inclusive; the first is the initial state, the
    last the computed endpoint, and the interior ones come from dense output,
    so sampling never moves the step sequence. More than MAX_STEPS step
    attempts raise IntegrationError.
    """
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    return _adaptive_rk45(field, u0, t_end, sample_count)


def integrate_with_variational(
    field_and_jacobian: Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]],
    u0,
    t_end: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Flow endpoint and the derivative of the flow map w.r.t. u0.

    field_and_jacobian(t, y) returns the field and its state Jacobian at
    (t, y), so both can share their work on the state. Integrates the state
    together with the 4x4 variational matrix (identity at t = 0) as one
    20-dimensional system; the returned matrix is the monodromy matrix when
    t_end is the orbit period.
    """
    u0 = np.asarray(u0, dtype=float)
    n = u0.size
    # one buffer per integration: the stepper copies each field value into its stage row
    out = np.empty(n + n * n)
    out_vec, out_mat = out[:n], out[n:].reshape(n, n)

    def augmented(t: float, y: np.ndarray) -> np.ndarray:
        field, jacobian = field_and_jacobian(t, y[:n])
        # checked once, at the first call: out_vec would broadcast a misshapen drift
        if t == 0.0 and (np.shape(field) != (n,) or np.shape(jacobian) != (n, n)):
            raise ValueError(f"field_and_jacobian returned shapes {np.shape(field)} and "
                             f"{np.shape(jacobian)}, the state needs ({n},) and ({n}, {n})")
        out_vec[...] = field
        jacobian.dot(y[n:].reshape(n, n), out=out_mat)
        return out

    y0 = np.concatenate([u0, np.eye(n).ravel()])
    final = _adaptive_rk45(augmented, y0, t_end).states[-1]
    return final[:n], final[n:].reshape(n, n)
