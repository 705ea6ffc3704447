"""Command-line surface.

Subcommands expose the analysis pipeline end to end: hypothesis checks,
origin spectra, averaged-function evaluation, zero location, orbit
verification, the branch study, orbit sampling, and a cross-oracle selftest.

Exit codes: 0 success, 1 hypothesis violation, 2 numerical failure,
3 input/IO error, including an allocation failure. JSON is the machine
interface; the default human-readable output is a formatting layer over the
same data and never contains numbers absent from the JSON. JSON keys follow
the field order of the library dataclasses they come from. Every JSON
document embeds a run manifest echoing the parameters, so reruns reproduce
all numeric fields byte for byte (the timestamp lives only inside the
manifest).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .averaging import (
    averaged_zeros,
    bifurcation_function,
    bifurcation_function_quadrature,
    jacobian_gaps,
    quadrature_gap,
    refine_zero,
    stability_verdict,
)
from .chen import (
    ChenParams,
    RegimeConfig,
    RegimeError,
    canonical_config,
    check_zero_hopf_conditions,
    origin_char_poly,
    origin_eigenvalues,
    origin_quadratic_roots,
    origin_spectrum_gap,
    jacobian_full,
    random_admissible_config,
)
from .integrators import IntegrationError
from .linear_flow import inverse_gap
from .numerics import EigenSolveError, QuarticSpectrum, SingularMatrixError, eig4
from .orbits import (
    BranchRow,
    ShootingError,
    bifurcating_orbit,
    branch_study,
    find_bifurcating_orbits,
    orbit_trajectory,
    recurrence_defect,
    unscale_orbit,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_NUMERICAL = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _add_param_flags(p: _Parser, with_epsilon: bool = False) -> None:
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=-1.0)
    p.add_argument("--c", type=float, default=None,
                   help="defaults to the value of --a")
    p.add_argument("--d", type=float, default=2.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if with_epsilon:
        p.add_argument("--epsilon", type=float, default=0.01)


def _params(args) -> ChenParams:
    c = args.a if args.c is None else args.c
    return ChenParams(a=args.a, b=args.b, c=c, d=args.d, r=args.r)


def _config(args) -> RegimeConfig:
    return RegimeConfig(_params(args), getattr(args, "epsilon", 0.0))


def _json(value):
    """JSON form of a library value: dataclasses become dicts in field order."""
    if isinstance(value, QuarticSpectrum):
        return [_json(v) for v in value.values]
    if dataclasses.is_dataclass(value):
        return {f.name: _json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _csv(header, rows) -> str:
    """CSV text: None is an empty cell, bools are true/false, floats round-trip."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(float(value))
        return value

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _manifest(args, command: str) -> dict:
    echo = {}
    for key in ("a", "b", "c", "d", "r", "epsilon", "epsilons", "tol", "nodes",
                "seed", "method", "point", "branch", "samples", "frame", "out"):
        if hasattr(args, key):
            echo[key] = getattr(args, key)
    return {
        "command": command,
        "parameters": echo,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _dumps(payload: dict) -> str:
    """Strict JSON: a NaN or infinity raises ValueError (an input error) instead of printing a non-standard token."""
    return json.dumps(payload, indent=2, allow_nan=False)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(_dumps(payload))
    else:
        print(human)


# ---------------------------------------------------------------- commands

def _cmd_check(args) -> int:
    report = check_zero_hopf_conditions(_params(args))
    payload = {
        "manifest": _manifest(args, "check"),
        "report": _json(report),
    }
    lines = [
        f"c == a                : {report.c_equals_a}",
        f"a*(a+d) = {report.a_times_a_plus_d:< .6g} < 0 : {report.a_condition_holds}",
        f"b*(a+d)*r = {report.b_times_a_plus_d_times_r:< .6g} < 0 : {report.b_condition_holds}",
        f"d != 0                : {report.d_nonzero}",
        f"overall               : {report.overall}",
    ]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.overall else EXIT_HYPOTHESIS


def _cmd_spectrum(args) -> int:
    params = _params(args)
    closed = origin_eigenvalues(params)
    numeric = eig4(jacobian_full(params, np.zeros(4)))
    deviation = closed.match_distance(numeric)
    poly = origin_char_poly(params)
    lambda3, lambda4 = origin_quadratic_roots(params)
    payload = {
        "manifest": _manifest(args, "spectrum"),
        "closed_form": {
            "lambda1": _json(complex(params.r)),
            "lambda2": _json(complex(-params.b)),
            "lambda3": _json(lambda3),
            "lambda4": _json(lambda4),
            "ordered": _json(closed),
        },
        "numeric": _json(numeric),
        "max_deviation": deviation,
        "char_poly_descending": _json(poly),
    }
    lines = ["origin spectrum (closed form | numeric):"]
    for cv, nv in zip(closed.values, numeric.values):
        lines.append(f"  {cv:>24.12g}   |   {nv:>24.12g}")
    lines.append(f"max deviation: {deviation:.3e}")
    lines.append("char poly (descending): " + ", ".join(f"{c:.12g}" for c in poly))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _parse_point(text: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse point {text!r}: {exc}") from exc
    if len(vals) != 4:
        raise ValueError(f"point needs 4 comma-separated reals, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"point coordinates must be finite, got {text!r}")
    return np.array(vals)


def _cmd_favg(args) -> int:
    config = _config(args)
    u = _parse_point(args.point)
    result: dict = {"manifest": _manifest(args, "favg")}
    lines = []
    closed = quad = None
    if args.method in ("closed", "both"):
        closed = bifurcation_function(config, u)
        result["closed"] = {f"f{i+1}": float(v) for i, v in enumerate(closed)}
        lines.append("closed    : " + np.array2string(closed, precision=15))
    if args.method in ("quadrature", "both"):
        quad = bifurcation_function_quadrature(config, u, nodes=args.nodes)
        result["quadrature"] = {f"f{i+1}": float(v) for i, v in enumerate(quad)}
        lines.append("quadrature: " + np.array2string(quad, precision=15))
    if args.method == "both":
        disc = float(np.max(np.abs(closed - quad)))
        result["discrepancy"] = disc
        lines.append(f"discrepancy: {disc:.3e}")
    _emit(args, result, "\n".join(lines))
    return EXIT_OK


def _cmd_zeros(args) -> int:
    config = _config(args)
    first, second = averaged_zeros(config)
    verdict = stability_verdict(config)
    rng = np.random.default_rng(args.seed)
    refined = []
    for zero in (first, second):
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        seed = zero.point + 0.1 * np.linalg.norm(zero.point) * direction
        refined_zero, report = refine_zero(config, seed, tol=args.tol)
        refined.append((refined_zero, report))
    payload = {
        "manifest": _manifest(args, "zeros"),
        "closed_form": [_json(first), _json(second)],
        "newton_refined": [
            {**_json(z), "iterations": rep.iterations, "converged": rep.converged,
             "reason": rep.reason}
            for z, rep in refined
        ],
        "det_closed_form": first.det_jacobian,
        "spectrum_closed_form": _json(first.spectrum),
        "verdict": _json(verdict),
    }
    lines = []
    for tag, zero in (("first", first), ("second", second)):
        lines.append(f"{tag} zero : {np.array2string(zero.point, precision=12)} "
                     f"(residual {zero.residual:.2e}, simple={zero.simple})")
    lines.append(f"det Df     : {first.det_jacobian:.12g}")
    lines.append("spectrum   : " + ", ".join(f"{v:.6g}" for v in first.spectrum.values))
    lines.append(f"stability  : applicable={verdict.theorem_applicable} ({verdict.note})")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _orbit_payload(config, orbit) -> dict:
    return {**_json(orbit), "recurrence_defect": recurrence_defect(config, orbit)}


def _cmd_verify(args) -> int:
    config = _config(args)
    first, second = find_bifurcating_orbits(config)
    payload = {
        "manifest": _manifest(args, "verify"),
        "scaled": [_orbit_payload(config, first), _orbit_payload(config, second)],
    }
    if config.epsilon > 0:
        payload["original"] = [
            _orbit_payload(config, unscale_orbit(first)),
            _orbit_payload(config, unscale_orbit(second)),
        ]
    lines = []
    for orbit in (first, second):
        lines.append(
            f"branch {orbit.branch}: u* = {np.array2string(orbit.initial_state, precision=10)} "
            f"T* = {orbit.period:.10g} residual = {orbit.residual:.2e}"
        )
        lines.append("  multipliers: " + ", ".join(f"{v:.8g}" for v in orbit.multipliers.values))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _parse_epsilons(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse epsilons {text!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    config = _config(args)
    study = branch_study(config, _parse_epsilons(args.epsilons))
    text = _csv([f.name for f in dataclasses.fields(BranchRow)],
                [dataclasses.astuple(row) for row in study.rows])
    summary = {
        "manifest": _manifest(args, "sweep"),
        "slope_by_branch": {str(k): v for k, v in study.slope_by_branch.items()},
        "total_rows": len(study.rows),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, summary,
              f"wrote {len(study.rows)} rows to {args.out}; "
              f"slopes: {summary['slope_by_branch']}")
    else:
        report = _dumps(summary) if args.json else f"slopes: {summary['slope_by_branch']}"
        sys.stdout.write(text)
        print(report, file=sys.stderr)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    if args.samples < 2:   # before shooting, which can fail or take long
        raise ValueError(f"samples must be >= 2, got {args.samples}")
    config = _config(args)
    orbit = bifurcating_orbit(config, args.branch)
    if args.frame == "original":
        orbit = unscale_orbit(orbit)
    traj = orbit_trajectory(config, orbit, samples=args.samples)
    text = _csv(["t", "x", "y", "z", "w"], np.column_stack([traj.times, traj.states]).tolist())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.samples} samples to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _selftest_checks(args):
    rng = np.random.default_rng(args.seed)
    configs = [canonical_config()] + [random_admissible_config(rng) for _ in range(5)]
    quad = max(quadrature_gap(cfg, rng.uniform(-2, 2, (25, 4))) for cfg in configs)
    inverse = max(inverse_gap(cfg, t) for cfg in configs for t in rng.uniform(0, 10, 5))
    origin = max(origin_spectrum_gap(cfg.params) for cfg in configs)
    det, spec = np.max([jacobian_gaps(cfg) for cfg in configs], axis=0)
    return [
        ("averaged function: closed vs quadrature", quad, 1e-10),
        ("fundamental matrix times inverse vs identity", inverse, 1e-9),
        ("origin spectrum: closed vs numeric", origin, 1e-8),
        ("averaged det: closed vs finite differences", det, 1e-5),
        ("averaged spectrum: closed vs finite differences", spec, 1e-5),
    ]


def _cmd_selftest(args) -> int:
    rows = [(name, value, bound, value <= bound) for name, value, bound in _selftest_checks(args)]
    ok_all = all(ok for *_, ok in rows)
    payload = {
        "manifest": _manifest(args, "selftest"),
        "checks": [
            {"name": n, "value": float(v), "bound": float(b), "pass": bool(ok)}
            for n, v, b, ok in rows
        ],
        "pass": bool(ok_all),
    }
    width = max(len(n) for n, *_ in rows)
    lines = [
        f"{n:<{width}}  {v:9.3e} <= {b:8.1e}  {'PASS' if ok else 'FAIL'}"
        for n, v, b, ok in rows
    ]
    lines.append("overall: " + ("PASS" if ok_all else "FAIL"))
    _emit(args, payload, "\n".join(lines))
    if not ok_all:
        failing = next(n for n, *_, ok in rows if not ok)
        print(f"selftest failed: {failing}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="chenhopf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[], help="zero-Hopf hypothesis report")
    _add_param_flags(p)

    p = sub.add_parser("spectrum", help="origin eigenvalues, dual path")
    _add_param_flags(p)

    p = sub.add_parser("favg", help="evaluate the averaged (bifurcation) function")
    _add_param_flags(p)
    p.add_argument("--point", required=True, help="x0,y0,z0,w0")
    p.add_argument("--method", choices=["closed", "quadrature", "both"], default="both")
    p.add_argument("--nodes", type=int, default=64)

    p = sub.add_parser("zeros", help="averaged zeros, Jacobian data, stability verdict")
    _add_param_flags(p)
    p.add_argument("--tol", type=float, default=1e-13)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="shoot both bifurcating orbits at one epsilon")
    _add_param_flags(p, with_epsilon=True)

    p = sub.add_parser("sweep", help="averaged periodic solutions per epsilon, CSV output")
    _add_param_flags(p)
    p.add_argument("--epsilons", required=True, help="comma-separated ascending list")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p = sub.add_parser("orbit", help="sample one orbit over a period as CSV")
    _add_param_flags(p, with_epsilon=True)
    p.add_argument("--branch", type=int, choices=[1, 2], default=1)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--frame", choices=["scaled", "original"], default="scaled")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p = sub.add_parser("selftest", help="cross-oracle consistency suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


_DISPATCH = {
    "check": _cmd_check,
    "spectrum": _cmd_spectrum,
    "favg": _cmd_favg,
    "zeros": _cmd_zeros,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "orbit": _cmd_orbit,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except RegimeError as exc:
        return _fail("hypothesis violation", str(exc), EXIT_HYPOTHESIS)
    except (ShootingError, IntegrationError, EigenSolveError, SingularMatrixError) as exc:
        return _fail("numerical failure", str(exc), EXIT_NUMERICAL)
    except (ValueError, OSError, MemoryError) as exc:
        # MemoryError: the input asked for more than fits, e.g. orbit --samples 1000000000
        return _fail("input error", str(exc) or "out of memory", EXIT_INPUT)


def _fail(prefix: str, message: str, code: int) -> int:
    """One stderr line per failure: a message that spans lines (a numpy repr) is joined."""
    print(f"{prefix}: {' '.join(message.split())}", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
