"""Smoke test of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
Each workload runs for a handful of ops in both modes; the test checks that
every metric BENCHMARK.json names is emitted with a unit, that the traced
run's counts repeat exactly for the same seed, and that the correctness
checks reject deliberately wrong results.
"""
import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from chenhopf import averaging, chen, numerics, orbits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: admissible (a, b, d, r) on which find_bifurcating_orbits raises
#: EigenSolveError at eps = 0, because eig4 cannot certify the near-identity
#: monodromy; certify draws from certify_configs.json while this stands
EIG4_DEFECT_CONFIGS = [
    (-1.076176047805256, 0.9337802189540753, 2.4267055813349567, -1.132630623424483),
    (-1.1595099153091897, 1.1596443068061202, 1.9213220715560686, -0.6915316729329714),
]


def run_fresh(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


run = lru_cache(maxsize=None)(run_fresh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    first = run(workload, 1)["metrics"]
    second = run_fresh(workload, 1)["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")
              and m["name"] != "orbits.shoot.integrator_share"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_oracle_check_flags_a_perturbed_quadrature_value():
    inp = workloads.make_inputs("oracle", 0)[0]
    closed = np.array([averaging.bifurcation_function(inp.config, u) for u in inp.points])
    quad = np.array([averaging.bifurcation_function_quadrature(inp.config, u) for u in inp.points])
    workloads.check_oracle_gap(inp.points, closed, quad)
    quad[7, 2] += 1e-7
    with pytest.raises(workloads.CheckFailed, match="closed vs quadrature"):
        workloads.check_oracle_gap(inp.points, closed, quad)


def test_certify_check_flags_a_wrong_period():
    inp = workloads.make_inputs("certify", 0)[0]
    first, _ = orbits.find_bifurcating_orbits(inp.config)
    trajectory = orbits.orbit_trajectory(inp.config, first, samples=workloads.TRAJECTORY_SAMPLES)
    defect = orbits.recurrence_defect(inp.config, first, periods=workloads.RECURRENCE_PERIODS)
    original = orbits.unscale_orbit(first)
    workloads.check_certified(first, first.period, trajectory, defect, original)
    with pytest.raises(workloads.CheckFailed, match="period"):
        workloads.check_certified(first, first.period * (1 + 1e-9), trajectory, defect, original)


@pytest.mark.xfail(strict=True, raises=numerics.EigenSolveError,
                   reason="eig4 cannot certify a near-identity monodromy")
@pytest.mark.parametrize("params", EIG4_DEFECT_CONFIGS)
def test_certify_op_on_a_known_eig4_defect_config(params):
    workloads.certify_op(workloads.CertifyInput(chen.RegimeConfig.make(*params)))


def test_refuse_check_flags_a_refusal_without_report():
    with pytest.raises(workloads.CheckFailed, match="no Newton report"):
        workloads.check_refusal(orbits.ShootingError("bare refusal"))


def test_cli_check_flags_an_unexpected_exit_code():
    with pytest.raises(workloads.CheckFailed, match="expected 2"):
        workloads.check_cli("refuse", 0, "{}", "")
