"""Command-line surface.

Subcommands expose the analysis pipeline end to end: hypothesis checks,
origin spectra, averaged-function evaluation, zero location, orbit
verification, the branch study, orbit sampling, and a cross-oracle selftest.

Exit codes: 0 success, 1 hypothesis violation, 2 numerical failure,
3 input/IO error, including a usage error and an allocation failure. Each
kind of output has one path: every failure is one stderr line from _fail,
every result comes from _render, and the CSV of sweep and orbit from
_write_csv. JSON is the machine interface (orbit writes CSV only). The
default human text is the same payload, one `path: value` line per leaf
(report.overall: true, closed_form[0].det_jacobian: -0.625); _render builds
the JSON document in both formats, so the exit code and stderr do not
depend on --json. JSON keys follow the field order of the library
dataclasses they come from. Every JSON document embeds a run manifest
echoing every parsed option, so reruns reproduce all numeric fields byte
for byte (the timestamp lives only inside the manifest).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .averaging import (
    QUADRATURE_NODES,
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
    """argparse whose usage errors are input errors, reported by main like any other."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _add_param_flags(p: _Parser, with_epsilon: bool = False, with_json: bool = True) -> None:
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=-1.0)
    p.add_argument("--c", type=float, default=None,
                   help="defaults to the value of --a")
    p.add_argument("--d", type=float, default=2.0)
    p.add_argument("--r", type=float, default=1.0)
    if with_json:
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


def _write_csv(args, header, rows, report: str | None) -> None:
    """The CSV to --out and the report to stdout, or the CSV to stdout and the report to stderr.

    None is an empty cell, bools are true/false, floats round-trip.
    """
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(float(value))
        return value

    target = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with target as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)
    if report is not None:
        print(report, file=sys.stdout if args.out else sys.stderr)


def _manifest(args) -> dict:
    """The command and every parsed option but --json, in parser order."""
    return {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("command", "json")},
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _document(args, payload: dict) -> str:
    """The payload after its run manifest, as strict JSON: a NaN or infinity raises
    ValueError (an input error) instead of printing a non-standard token."""
    return json.dumps({"manifest": _manifest(args), **payload}, indent=2, allow_nan=False)


def _text(value, path: str = "") -> list[str]:
    """The payload as `path: value` lines in payload order: a dict extends the path by
    `.key`, a list of dicts or lists by `[i]`, and any other value is one JSON line."""
    if isinstance(value, dict):
        return [line for k, v in value.items() for line in _text(v, f"{path}.{k}" if path else k)]
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        return [line for i, v in enumerate(value) for line in _text(v, f"{path}[{i}]")]
    return [f"{path}: {json.dumps(value)}"]


def _render(args, payload: dict) -> str:
    """The JSON document under --json, else the payload's _text lines. The document is
    built either way, so strict JSON decides the exit code in both formats."""
    document = _document(args, payload)
    return document if args.json else "\n".join(_text(payload))


def _emit(args, payload: dict) -> None:
    print(_render(args, payload))


# ---------------------------------------------------------------- commands

def _cmd_check(args) -> int:
    report = check_zero_hopf_conditions(_params(args))
    _emit(args, {"report": _json(report)})
    return EXIT_OK if report.overall else EXIT_HYPOTHESIS


def _cmd_spectrum(args) -> int:
    params = _params(args)
    closed = origin_eigenvalues(params)
    numeric = eig4(jacobian_full(params, np.zeros(4)))
    deviation = closed.match_distance(numeric)
    poly = origin_char_poly(params)
    lambda3, lambda4 = origin_quadratic_roots(params)
    payload = {
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
    _emit(args, payload)
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
    result = {}
    if args.method in ("closed", "both"):
        closed = bifurcation_function(config, u)
        result["closed"] = {f"f{i+1}": float(v) for i, v in enumerate(closed)}
    if args.method in ("quadrature", "both"):
        quad = bifurcation_function_quadrature(config, u, nodes=args.nodes)
        result["quadrature"] = {f"f{i+1}": float(v) for i, v in enumerate(quad)}
    if args.method == "both":
        result["discrepancy"] = float(np.max(np.abs(closed - quad)))
    _emit(args, result)
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
    _emit(args, payload)
    return EXIT_OK


def _orbit_payload(config, orbit) -> dict:
    return {**_json(orbit), "recurrence_defect": recurrence_defect(config, orbit)}


def _cmd_verify(args) -> int:
    config = _config(args)
    first, second = find_bifurcating_orbits(config)
    payload = {"scaled": [_orbit_payload(config, first), _orbit_payload(config, second)]}
    if config.epsilon > 0:
        payload["original"] = [
            _orbit_payload(config, unscale_orbit(first)),
            _orbit_payload(config, unscale_orbit(second)),
        ]
    _emit(args, payload)
    return EXIT_OK


def _parse_epsilons(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse epsilons {text!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    config = _config(args)
    study = branch_study(config, _parse_epsilons(args.epsilons))
    slopes = {str(k): v for k, v in study.slope_by_branch.items()}
    # rendered before any CSV is written: strict JSON may refuse it
    report = _render(args, {"slope_by_branch": slopes, "total_rows": len(study.rows)})
    _write_csv(args, [f.name for f in dataclasses.fields(BranchRow)],
               [dataclasses.astuple(row) for row in study.rows], report)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    if args.samples < 2:   # before shooting, which can fail or take long
        raise ValueError(f"samples must be >= 2, got {args.samples}")
    config = _config(args)
    orbit = bifurcating_orbit(config, args.branch)
    if args.frame == "original":
        orbit = unscale_orbit(orbit)
    traj = orbit_trajectory(config, orbit, samples=args.samples)
    _write_csv(args, ["t", "x", "y", "z", "w"],
               np.column_stack([traj.times, traj.states]).tolist(),
               f"wrote {args.samples} samples to {args.out}" if args.out else None)
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
    checks = [{"name": n, "value": float(v), "bound": float(b), "pass": bool(v <= b)}
              for n, v, b in _selftest_checks(args)]
    _emit(args, {"checks": checks, "pass": all(c["pass"] for c in checks)})
    failing = [c["name"] for c in checks if not c["pass"]]
    if failing:
        return _fail("numerical failure", f"selftest failed: {failing[0]}", EXIT_NUMERICAL)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="chenhopf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="zero-Hopf hypothesis report")
    _add_param_flags(p)

    p = sub.add_parser("spectrum", help="origin eigenvalues, dual path")
    _add_param_flags(p)

    p = sub.add_parser("favg", help="evaluate the averaged (bifurcation) function")
    _add_param_flags(p)
    p.add_argument("--nodes", type=int, default=QUADRATURE_NODES)
    p.add_argument("--method", choices=["closed", "quadrature", "both"], default="both")
    p.add_argument("--point", required=True, help="x0,y0,z0,w0")

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
    _add_param_flags(p, with_epsilon=True, with_json=False)
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
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exc:   # --help and --version; a usage error raises ValueError
        return int(exc.code or 0)
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
