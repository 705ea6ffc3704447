#!/usr/bin/env python3
"""Layered benchmark for chenhopf.

Run from the repository root:

    python3 perfbench/run.py --workload oracle|certify|refuse --seed N \
        --seconds S --trace 0|1

One single-threaded client runs the workload's operations closed-loop (the
next op starts when the previous one ends) until S seconds of op time have
passed, with BLAS pinned to one thread. ``--trace 0`` prints the end-to-end
metrics, with every time divided by the host's slowdown over it (see
hostspeed.py); ``--trace 1`` runs every input twice, traced and untraced,
and prints the per-layer metrics as unscaled wall times. The last line of standard output is the result
object; the line before it is a detailed report with the run manifest, which
is also written to .bench_out/. See perfbench/README.md.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "chenhopf" / "__init__.py").is_file():
    print(f"perfbench: no chenhopf sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import chenhopf  # noqa: E402
import numpy as np  # noqa: E402

import workloads  # noqa: E402
from hostspeed import REFERENCE_S, HostSampler  # noqa: E402

if Path(chenhopf.__file__).resolve().parent != (SRC / "chenhopf").resolve():
    print(f"perfbench: imported chenhopf from {chenhopf.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

#: at these fractions of the op-time budget: SETUP_PROBES_EACH setup probes,
#: and CLI runs until CLI_PROBE_S of CLI wall time is spent (at least one),
#: so that their medians sample the whole run
PROBE_FRACTIONS = (0.0, 1 / 3, 2 / 3)
SETUP_PROBES_EACH = 2
CLI_PROBE_S = 1.0
#: traced runs take their machine-independent counts from this many first
#: inputs, which are the same on every run with the same seed
COUNTED_OPS = {"oracle": 4, "certify": 4, "refuse": 2}
#: stop starting work after this much wall time, so a run ends within 180 s
WALL_LIMIT_S = 140.0
#: the single-run baseline table of ROADMAP.md (reference parameters)
ROADMAP_BASELINE = {
    "chen.standard_form_field.us_per_call": 13.5,
    "integrators.integrate.ms_per_call": 13.0,
    "integrators.integrate.field_evals_per_call": 484.0,
    "integrators.integrate_with_variational.ms_per_call": 63.0,
    "averaging.bifurcation_function_quadrature.ms_per_call": 2.25,
}
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(SRC))
SUBPROCESS_TIMEOUT_S = 100


def timed_subprocess(argv: list[str]) -> tuple[float, int, str, str]:
    """Wall time, exit code and output of a child process.

    A watchdog thread kills a child that outlives SUBPROCESS_TIMEOUT_S; a
    timeout passed to subprocess itself would poll and round the wall time
    to tens of milliseconds.
    """
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=SUBPROCESS_ENV, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        watchdog = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
            watchdog.join()
    return time.perf_counter() - start, proc.returncode, out, err


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports chenhopf and makes the inputs."""
    wall, code, _, err = timed_subprocess(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"])
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}: {err.strip()[-300:]}")
    return wall


def run_cli(workload: str) -> tuple[float, str | None]:
    """Wall time of the workload's CLI command and the check's failure, if any."""
    args, _ = workloads.CLI[workload]
    wall, code, out, err = timed_subprocess([sys.executable, "-m", "chenhopf.cli", *args])
    try:
        workloads.check_cli(workload, code, out, err)
    except (workloads.CheckFailed, ValueError, KeyError) as exc:
        return wall, f"cli: {exc}"
    return wall, None


def run_op(op, inp, runner=None) -> tuple[float, str | None]:
    """Wall time of one op and its failure, if any (wrong result or exception)."""
    start = time.perf_counter()
    try:
        if runner is None:
            op(inp)
        else:
            runner(op, inp)
    except workloads.CheckFailed as exc:
        return time.perf_counter() - start, f"wrong result: {exc}"
    except Exception as exc:  # every unexpected exception is a counted error
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, None


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile (at most 90) with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    q = min(90, math.floor(100 * (n - 10) / n))
    return q, sorted(values)[math.ceil(q / 100 * n) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------- end to end

def end_to_end(workload: str, seed: int, seconds: float, started: float):
    inputs = workloads.make_inputs(workload, seed)
    op = workloads.OPS[workload]
    ops, setups, clis, failures = [], [], [], []   # (start, wall time) samples
    probes = [f * seconds for f in PROBE_FRACTIONS]
    op_time = 0.0
    with HostSampler(OUT / f"{workload}-seed{seed}.host") as host:
        while op_time < seconds and time.perf_counter() - started < WALL_LIMIT_S:
            if probes and op_time >= probes[0]:
                probes.pop(0)
                for _ in range(SETUP_PROBES_EACH):
                    start = time.perf_counter()
                    setups.append((start, setup_probe(workload, seed)))
                cli_time = 0.0
                while cli_time < CLI_PROBE_S:
                    start = time.perf_counter()
                    wall, failure = run_cli(workload)
                    clis.append((start, wall))
                    cli_time += wall
                    failures += [failure] if failure else []
            start = time.perf_counter()
            wall, failure = run_op(op, inputs[len(ops) % len(inputs)])
            ops.append((start, wall))
            op_time += wall
            failures += [failure] if failure else []

    def scaled(samples):
        return [wall / host.slowdown(start, start + wall) for start, wall in samples]

    op_s = scaled(ops)
    attempted = len(ops) + len(clis)
    metrics = {
        "setup_s": metric(statistics.median(scaled(setups)), "s"),
        "op_p50_s": metric(statistics.median(op_s), "s"),
        "ops_per_s": metric(len(op_s) / sum(op_s), "1/s"),
        "cli_s": metric(statistics.median(scaled(clis)), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "error_rate": metric(len(failures) / attempted, "ratio"),
        "ops": len(ops), "setup_samples": len(setups), "cli_samples": len(clis),
        "host_slowdown_mean": statistics.fmean(d for _, d in host.samples) / REFERENCE_S,
        "host_samples": len(host.samples),
        "unscaled": {
            "setup_s": statistics.median(w for _, w in setups),
            "op_p50_s": statistics.median(w for _, w in ops),
            "ops_per_s": len(ops) / op_time,
            "cli_s": statistics.median(w for _, w in clis),
        },
        "op_samples": [[w, host.slowdown(t, t + w)] for t, w in ops],
        "cli_samples_detail": [[w, host.slowdown(t, t + w)] for t, w in clis],
    }
    tail = tail_percentile(op_s)
    if tail:
        extra[f"op_p{tail[0]}_s"] = metric(tail[1], "s")
    return metrics, extra, attempted, failures


# ------------------------------------------------------------------ traced

def per_layer(workload: str, seed: int, seconds: float, started: float):
    from tracer import Tracer

    inputs = workloads.make_inputs(workload, seed)
    op = workloads.OPS[workload]
    tracer = Tracer()
    traced, untraced, failures = [], [], []
    op_time = 0.0
    i = 0
    while i < COUNTED_OPS[workload] or op_time < seconds:
        if time.perf_counter() - started > WALL_LIMIT_S:
            break
        inp = inputs[i % len(inputs)]
        # alternate which twin runs first, so drift hits both sides alike
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            wall, failure = run_op(op, inp, tracer.run_op if with_trace else None)
            (traced if with_trace else untraced).append(wall)
            op_time += wall
            failures += [failure] if failure else []
        i += 1
    cli_wall, failure = run_cli(workload)
    failures += [failure] if failure else []

    ops = tracer.ops
    counted = ops[:COUNTED_OPS[workload]]

    def calls(name, group=counted):
        return sum(o.calls[name] for o in group)

    def count_per_op(name):
        return calls(name) / len(counted)

    def per_call(name, scale):
        n = calls(name, ops)
        return sum(o.seconds[name] for o in ops) / n * scale if n else 0.0

    def self_per_op(*names):
        return sum(o.self_seconds[n] for o in ops for n in names) / len(ops)

    integ, var = "integrators.integrate", "integrators.integrate_with_variational"
    iterations = sum(o.counters["iterations"] for o in counted) / len(counted)
    residuals = sum(o.counters["residual_evals"] for o in counted) / len(counted)
    integ_calls = calls(integ)
    shares = [(o.self_seconds["orbits.shoot"] + o.seconds[integ] + o.seconds[var]) / o.wall
              for o in ops]
    cli_name = workloads.CLI[workload][0][0]
    m = {
        "chen.standard_form_field.calls": metric(count_per_op("chen.standard_form_field"), "count"),
        "chen.standard_form_field.us_per_call": metric(per_call("chen.standard_form_field", 1e6), "us"),
        "chen.standard_form_jacobian.calls": metric(count_per_op("chen.standard_form_jacobian"), "count"),
        "chen.split_standard_form.calls": metric(count_per_op("chen.split_standard_form"), "count"),
        "integrators.integrate.calls": metric(count_per_op(integ), "count"),
        "integrators.integrate.ms_per_call": metric(per_call(integ, 1e3), "ms"),
        "integrators.integrate.field_evals_per_call": metric(
            sum(o.leaf_children[integ] for o in counted) / integ_calls if integ_calls else 0.0,
            "count"),
        "integrators.integrate_with_variational.calls": metric(count_per_op(var), "count"),
        "integrators.integrate_with_variational.ms_per_call": metric(per_call(var, 1e3), "ms"),
        "integrators.self_s": metric(self_per_op(integ, var), "s"),
        "numerics.newton_solve.iterations": metric(iterations, "count"),
        "numerics.newton.residual_evals": metric(residuals, "count"),
        "numerics.newton.useful_ratio": metric(iterations / residuals if residuals else 0.0, "ratio"),
        "numerics.periodic_trapezoid.calls": metric(count_per_op("numerics.periodic_trapezoid"), "count"),
        "numerics.periodic_trapezoid.ms_per_call": metric(per_call("numerics.periodic_trapezoid", 1e3), "ms"),
        "numerics.finite_difference_jacobian.calls": metric(
            count_per_op("numerics.finite_difference_jacobian"), "count"),
        "numerics.eig4.calls": metric(count_per_op("numerics.eig4"), "count"),
        "numerics.eig4.us_per_call": metric(per_call("numerics.eig4", 1e6), "us"),
        "linear_flow.flow.calls": metric(count_per_op("linear_flow.flow"), "count"),
        "linear_flow.flow.us_per_call": metric(per_call("linear_flow.flow", 1e6), "us"),
        "linear_flow.fundamental_matrix_inverse.us_per_call": metric(
            per_call("linear_flow.fundamental_matrix_inverse", 1e6), "us"),
        "averaging.bifurcation_function.us_per_call": metric(
            per_call("averaging.bifurcation_function", 1e6), "us"),
        "averaging.bifurcation_function_quadrature.ms_per_call": metric(
            per_call("averaging.bifurcation_function_quadrature", 1e3), "ms"),
        "averaging.refine_zero.s_per_call": metric(per_call("averaging.refine_zero", 1), "s"),
        "orbits.shoot.s_per_call": metric(per_call("orbits.shoot", 1), "s"),
        "orbits.shoot.self_s": metric(self_per_op("orbits.shoot"), "s"),
        "orbits.shoot.integrator_share": metric(statistics.median(shares), "ratio"),
        "orbits.find_bifurcating_orbits.s_per_call": metric(
            per_call("orbits.find_bifurcating_orbits", 1), "s"),
        "orbits.orbit_trajectory.ms_per_call": metric(per_call("orbits.orbit_trajectory", 1e3), "ms"),
        "orbits.recurrence_defect.ms_per_call": metric(per_call("orbits.recurrence_defect", 1e3), "ms"),
        "cli.selftest.wall_s": metric(cli_wall if cli_name == "selftest" else 0.0, "s"),
        "cli.verify.wall_s": metric(cli_wall if cli_name == "verify" else 0.0, "s"),
        "trace.op_p50_s": metric(statistics.median(traced), "s"),
        "trace.overhead_s": metric(statistics.median(traced) - statistics.median(untraced), "s"),
    }
    extra = {
        "traced_ops": len(traced), "counted_ops": len(counted),
        "error_rate": metric(len(failures) / (len(traced) + len(untraced) + 1), "ratio"),
        "roadmap_baseline_ratio": {
            name: m[name]["value"] / base for name, base in ROADMAP_BASELINE.items()
            if m[name]["value"]
        },
    }
    return m, extra, len(traced) + len(untraced) + 1, failures, tracer.spans


def manifest(workload: str, seed: int, seconds: float, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "numpy": np.__version__, "chenhopf": chenhopf.__version__, "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(), "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        workloads.make_inputs(args.workload, args.seed)
        return 0

    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    spans = []
    if args.trace:
        metrics, extra, attempted, failures, spans = per_layer(
            args.workload, args.seed, args.seconds, started)
    else:
        metrics, extra, attempted, failures = end_to_end(
            args.workload, args.seed, args.seconds, started)
    report = {
        "manifest": manifest(args.workload, args.seed, args.seconds, args.trace),
        "metrics": metrics, **extra, "failures": failures[:5],
        "run_wall_s": time.perf_counter() - started,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for op_index, sid, parent, name, start, end in spans:
                fh.write(json.dumps({"op": op_index, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
