import csv
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

from chenhopf import averaging, chen, linear_flow, orbits
from chenhopf.cli import main
from chenhopf.numerics import QuarticSpectrum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ------------------------------------------------------------ check

def test_check_defaults_are_admissible(capsys):
    code, payload, _ = run_json(capsys, "check")
    assert code == 0
    assert payload["report"]["overall"] is True
    assert payload["manifest"]["command"] == "check"


def test_check_rejects_flipped_b_sign(capsys):
    code, payload, _ = run_json(capsys, "check", "--b", "1")
    assert code == 1
    assert payload["report"]["b_condition_holds"] is False


def test_check_parse_error_exits_3(capsys):
    code, _, err = run(capsys, "check", "--a", "abc")
    assert code == 3


def test_check_human_output_is_not_json(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    assert "overall" in out and "{" not in out


# ------------------------------------------------------------ spectrum

def test_spectrum_dual_path_agreement(capsys):
    code, payload, _ = run_json(capsys, "spectrum")
    assert code == 0
    assert payload["max_deviation"] < 1e-8
    assert payload["closed_form"]["lambda1"]["re"] == 1.0      # r
    assert payload["closed_form"]["lambda2"]["re"] == 1.0      # -b with b = -1
    assert payload["closed_form"]["lambda3"] == {"re": 0.0, "im": 1.0}
    assert payload["closed_form"]["lambda4"] == {"re": 0.0, "im": -1.0}
    assert len(payload["char_poly_descending"]) == 5


def test_spectrum_independent_c(capsys):
    code, payload, _ = run_json(capsys, "spectrum", "--a", "2", "--b", "3",
                                "--c", "1", "--d", "1", "--r", "5")
    assert code == 0
    assert payload["closed_form"]["lambda1"]["re"] == 5.0
    assert payload["closed_form"]["lambda2"]["re"] == -3.0
    # the roots (-1 +/- sqrt(17))/2 of -l^2 + (c - a) l + a(c + d)
    assert payload["closed_form"]["lambda3"] == {"re": (-1 + np.sqrt(17)) / 2, "im": 0.0}
    assert payload["closed_form"]["lambda4"] == {"re": (-1 - np.sqrt(17)) / 2, "im": 0.0}


# ------------------------------------------------------------ favg

def test_favg_both_methods_agree(capsys):
    code, payload, _ = run_json(capsys, "favg", "--point", "0,0,1,0", "--method", "both")
    assert code == 0
    closed = [payload["closed"][f"f{i}"] for i in (1, 2, 3, 4)]
    assert np.allclose(closed, [0.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert payload["discrepancy"] < 1e-10


def test_favg_zero_point(capsys):
    code, payload, _ = run_json(capsys, "favg", "--point", "0,0,0,0")
    assert code == 0
    assert all(payload["closed"][f"f{i}"] == 0.0 for i in (1, 2, 3, 4))


def test_favg_bad_point_exits_3(capsys):
    code, _, err = run(capsys, "favg", "--point", "1,2,3")
    assert code == 3
    code, _, err = run(capsys, "favg", "--point", "a,b,c,d")
    assert code == 3


@pytest.mark.parametrize("method", ["closed", "quadrature", "both"])
@pytest.mark.parametrize("point", ["nan,0,0,0", "0,0,inf,0", "0,-inf,0,0"])
def test_favg_nonfinite_point_exits_3(capsys, point, method):
    code, out, err = run(capsys, "favg", "--point", point, "--method", method, "--json")
    assert code == 3
    assert out == ""
    assert "finite" in err


def test_favg_inadmissible_regime_exits_1(capsys):
    # hyperbolic parameters: a(a+d) > 0
    code, _, err = run(capsys, "favg", "--a", "1", "--d", "1", "--point", "0,0,1,0")
    assert code == 1


def test_favg_c_not_equal_a_exits_1(capsys):
    code, _, err = run(capsys, "favg", "--c", "0", "--point", "0,0,1,0")
    assert code == 1
    assert "c == a" in err


# ------------------------------------------------------------ zeros

def test_zeros_canonical_payload(capsys):
    code, payload, _ = run_json(capsys, "zeros")
    assert code == 0
    first = payload["closed_form"][0]
    assert np.allclose(first["point"], [-0.5, -1.0, -0.5, -0.5], atol=1e-12)
    assert abs(payload["det_closed_form"] - (-0.625)) < 1e-12
    assert payload["verdict"]["theorem_applicable"] is False
    for refined in payload["newton_refined"]:
        assert refined["residual"] < 1e-12
        assert refined["converged"] is True
        assert refined["reason"] == "converged"
    # mirrored components between the two zeros
    second = payload["closed_form"][1]
    assert np.allclose(np.asarray(first["point"])[[0, 1, 3]],
                       -np.asarray(second["point"])[[0, 1, 3]], atol=1e-12)


def test_zeros_nan_tol_exits_3(capsys):
    code, out, err = run(capsys, "zeros", "--tol", "nan")
    assert code == 3
    assert out == ""
    assert "tol" in err


def test_zeros_inadmissible_exits_1(capsys):
    code, _, err = run(capsys, "zeros", "--b", "1")
    assert code == 1
    assert "not real" in err


# ------------------------------------------------------------ verify

def test_verify_unperturbed_limit_exits_0(capsys):
    code, payload, _ = run_json(capsys, "verify", "--epsilon", "0")
    assert code == 0
    states = [orbit["initial_state"] for orbit in payload["scaled"]]
    assert np.allclose(states[0], [-0.5, -1.0, -0.5, -0.5], atol=1e-9)
    assert np.allclose(states[1], [0.5, 1.0, -0.5, 0.5], atol=1e-9)
    for orbit in payload["scaled"]:
        assert orbit["residual"] < 1e-9
        assert orbit["recurrence_defect"] < 1e-9


def test_verify_no_certifiable_orbit_exits_2(capsys):
    # the averaged zeros continue into equilibria, not cycles, so the
    # phase-anchored shooter reports a numerical failure
    code, out, err = run(capsys, "verify", "--epsilon", "0.01")
    assert code == 2
    assert "numerical failure" in err


def test_verify_overflow_is_a_numerical_failure_not_an_input_error(capsys):
    # at eps = 1e300 a stage state overflows: exit 2, not the input error's 3
    code, _, err = run(capsys, "verify", "--epsilon", "1e300")
    assert code == 2
    assert err.startswith("numerical failure: branch 1 failed: state became non-finite")


def test_verify_inadmissible_exits_1_before_integration(capsys):
    code, _, err = run(capsys, "verify", "--b", "1", "--epsilon", "0.01")
    assert code == 1


# ------------------------------------------------------------ sweep

def test_sweep_csv_is_the_branch_study(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, payload, _ = run_json(capsys, "sweep", "--epsilons", "0.01,0.02",
                                "--out", str(out_path))
    assert code == 0
    header, *rows = csv.reader(out_path.read_text().splitlines())
    assert header == ["epsilon", "branch", "distance_to_zero", "trivial_multiplier_defect",
                      "exact_multiplier_gap", "prediction_error"]
    assert [f.name for f in dataclasses.fields(orbits.BranchRow)] == header
    assert [(float(row[0]), int(row[1])) for row in rows] == [(0.01, 1), (0.02, 1), (0.01, 2), (0.02, 2)]
    for row in rows:
        eps, branch = float(row[0]), int(row[1])
        distance, trivial, exact = (float(cell) for cell in row[2:5])
        sol = orbits.averaged_periodic_solution(chen.canonical_config(eps), branch)
        zero = averaging.averaged_zero_points(chen.canonical_config())[branch - 1]
        assert distance == np.linalg.norm(sol.initial_state - zero)
        assert trivial == sol.trivial_multiplier_defect() > orbits.TRIVIAL_MULTIPLIER_TOL
        assert exact < 1e-9
    assert all(0.9 <= payload["slope_by_branch"][b] <= 1.1 for b in ("1", "2"))
    assert payload["total_rows"] == 4 and "converged_rows" not in payload


def test_sweep_one_epsilon_has_null_slopes(capsys):
    # np.polyfit on one point would warn (RankWarning is a RuntimeWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "sweep", "--epsilons", "0.01", "--json")
    assert code == 0
    assert len(out.splitlines()) == 3
    assert json.loads(err)["slope_by_branch"] == {"1": None, "2": None}


def test_sweep_failing_row_exits_2_and_names_itself(capsys, monkeypatch):
    solve = orbits.averaged_periodic_solution

    def failing_at_eps_002(config, branch):
        if branch == 2 and config.epsilon == 0.02:
            raise orbits.ShootingError("equilibrium Newton stagnated after 2 iterations")
        return solve(config, branch)

    monkeypatch.setattr(orbits, "averaged_periodic_solution", failing_at_eps_002)
    code, out, err = run(capsys, "sweep", "--epsilons", "0.01,0.02")
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: branch 2 at eps = 0.02 failed: equilibrium Newton")


def test_sweep_unwritable_path_exits_3(capsys):
    code, _, err = run(capsys, "sweep", "--epsilons", "0.01",
                       "--out", "/nonexistent-dir/sweep.csv")
    assert code == 3


def test_sweep_bad_grid_exits_3(capsys):
    code, _, err = run(capsys, "sweep", "--epsilons", "0.02,0.01")
    assert code == 3


# ------------------------------------------------------------ orbit

def test_orbit_csv_at_epsilon_zero(capsys):
    code, out, _ = run(capsys, "orbit", "--epsilon", "0", "--branch", "1",
                       "--samples", "50")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "x", "y", "z", "w"]
    assert len(rows) == 51
    first = np.array([float(v) for v in rows[1][1:]])
    last = np.array([float(v) for v in rows[-1][1:]])
    assert np.max(np.abs(first - last)) < 1e-6
    # float cells round-trip exactly
    assert all(repr(float(cell)) == cell for cell in rows[1])


def test_orbit_original_frame_is_epsilon_times_scaled(capsys):
    tables = {}
    for frame in ("scaled", "original"):
        code, out, _ = run(capsys, "orbit", "--epsilon", "0", "--samples", "10",
                           "--frame", frame)
        assert code == 0
        tables[frame] = np.array(list(csv.reader(io.StringIO(out)))[1:], dtype=float)
    scaled, original = tables["scaled"], tables["original"]
    assert scaled.shape == original.shape == (10, 5)
    assert np.array_equal(original[:, 0], scaled[:, 0])
    # epsilon times the scaled states: at epsilon = 0 that is the origin
    assert np.all(original[:, 1:] == 0.0)
    assert np.any(scaled[:, 1:] != 0.0)


def test_orbit_invalid_branch_exits_3(capsys):
    code, _, err = run(capsys, "orbit", "--branch", "3")
    assert code == 3


@pytest.mark.parametrize("branch", ["1", "2"])
def test_orbit_shoot_failure_exits_2(capsys, branch):
    code, _, err = run(capsys, "orbit", "--epsilon", "0.01", "--branch", branch)
    assert code == 2
    assert err.startswith("numerical failure")
    # only the requested branch is shot, so no other branch is named
    other = "2" if branch == "1" else "1"
    assert f"branch {other}" not in err


def test_orbit_shoots_only_the_requested_branch(capsys, monkeypatch):
    shots = []
    real = orbits.shoot

    def counting(*args, **kwargs):
        shots.append(kwargs.get("branch"))
        return real(*args, **kwargs)

    monkeypatch.setattr("chenhopf.orbits.shoot", counting)
    code, _, _ = run(capsys, "orbit", "--epsilon", "0", "--branch", "2", "--samples", "5")
    assert code == 0
    assert shots == [2]


def test_orbit_single_sample_exits_3_before_shooting(capsys):
    # at the default epsilon shooting would refuse first and exit 2
    code, out, err = run(capsys, "orbit", "--samples", "1")
    assert code == 3
    assert out == ""
    assert err.strip() == "input error: samples must be >= 2, got 1"


# ------------------------------------------------------------ selftest

def test_selftest_passes_quickly(capsys):
    code, payload, _ = run_json(capsys, "selftest")
    assert code == 0
    assert payload["pass"] is True
    assert all(check["pass"] for check in payload["checks"])


def test_selftest_seed_reproducibility(capsys):
    code1, payload1, _ = run_json(capsys, "selftest", "--seed", "42")
    code2, payload2, _ = run_json(capsys, "selftest", "--seed", "42")
    assert code1 == code2 == 0
    payload1["manifest"].pop("timestamp")
    payload2["manifest"].pop("timestamp")
    assert payload1 == payload2


def _shifted(real, delta):
    """real with delta added to its result, or to each eigenvalue of a spectrum."""
    def broken(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, QuarticSpectrum):
            return QuarticSpectrum.from_iterable(v + delta for v in out.values)
        return out + delta
    return broken


@pytest.mark.parametrize("module, name, delta, check", [
    pytest.param(averaging, "bifurcation_function_quadrature", 1e-6,
                 "averaged function: closed vs quadrature", id="quadrature"),
    pytest.param(linear_flow, "fundamental_matrix_inverse", 1e-6,
                 "fundamental matrix times inverse vs identity", id="inverse"),
    pytest.param(chen, "origin_eigenvalues", 1e-6,
                 "origin spectrum: closed vs numeric", id="origin_spectrum"),
    pytest.param(averaging, "jacobian_determinant", 1e-3,
                 "averaged det: closed vs finite differences", id="determinant"),
    pytest.param(averaging, "averaged_spectrum", 1e-3,
                 "averaged spectrum: closed vs finite differences", id="averaged_spectrum"),
])
def test_selftest_fails_when_one_route_is_perturbed(capsys, monkeypatch, module, name,
                                                    delta, check):
    # each library check compares two routes; perturbing one must fail its row
    monkeypatch.setattr(module, name, _shifted(getattr(module, name), delta))
    code, payload, err = run_json(capsys, "selftest")
    assert code == 2
    row = next(row for row in payload["checks"] if row["name"] == check)
    assert row["value"] > row["bound"] and row["pass"] is False
    assert err.strip() == f"selftest failed: {check}"


# ------------------------------------------------------------ reproducibility

def test_json_numeric_fields_reproduce_byte_identically(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "zeros", "--json")
        assert code == 0
        doc = json.loads(out)
        doc["manifest"].pop("timestamp")
        outputs.append(json.dumps(doc, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_every_json_payload_embeds_manifest(capsys):
    for argv in (["check"], ["spectrum"], ["favg", "--point", "1,0,0,0"],
                 ["zeros"], ["verify", "--epsilon", "0"], ["selftest"]):
        _, payload, _ = run_json(capsys, *argv)
        manifest = payload["manifest"]
        assert manifest["command"] == argv[0]
        assert manifest["version"]
        assert "parameters" in manifest


def _key_order(doc, path="$", out=None):
    """Each object's keys in doc, by path; the items of a list share the path "[]"."""
    out = {} if out is None else out
    if isinstance(doc, dict):
        assert out.setdefault(path, list(doc)) == list(doc), path
        for key, value in doc.items():
            _key_order(value, f"{path}.{key}", out)
    elif isinstance(doc, list):
        for item in doc:
            _key_order(item, f"{path}[]", out)
    return out


_MANIFEST = ["command", "parameters", "version", "timestamp"]
_COMPLEX = ["re", "im"]
_ZERO = ["point", "residual", "det_jacobian", "spectrum", "simple", "all_negative_real_parts"]


def test_json_key_order_is_pinned(capsys):
    # key order is part of the interface and, unlike golden values, does not
    # depend on the BLAS build; nested keys follow the library dataclasses
    expected = {
        "check": {
            "$": ["manifest", "report"],
            "$.manifest.parameters": ["a", "b", "c", "d", "r"],
            "$.report": ["c_equals_a", "a_times_a_plus_d", "a_condition_holds",
                         "b_times_a_plus_d_times_r", "b_condition_holds", "d_nonzero",
                         "overall"],
        },
        "spectrum": {
            "$": ["manifest", "closed_form", "numeric", "max_deviation",
                  "char_poly_descending"],
            "$.manifest.parameters": ["a", "b", "c", "d", "r"],
            "$.closed_form": ["lambda1", "lambda2", "lambda3", "lambda4", "ordered"],
            **{f"$.closed_form.lambda{i}": _COMPLEX for i in (1, 2, 3, 4)},
            "$.closed_form.ordered[]": _COMPLEX,
            "$.numeric[]": _COMPLEX,
        },
        "favg": {
            "$": ["manifest", "closed", "quadrature", "discrepancy"],
            "$.manifest.parameters": ["a", "b", "c", "d", "r", "nodes", "method", "point"],
            "$.closed": ["f1", "f2", "f3", "f4"],
            "$.quadrature": ["f1", "f2", "f3", "f4"],
        },
        "zeros": {
            "$": ["manifest", "closed_form", "newton_refined", "det_closed_form",
                  "spectrum_closed_form", "verdict"],
            "$.manifest.parameters": ["a", "b", "c", "d", "r", "tol", "seed"],
            "$.closed_form[]": _ZERO,
            "$.closed_form[].spectrum[]": _COMPLEX,
            "$.newton_refined[]": _ZERO + ["iterations", "converged", "reason"],
            "$.newton_refined[].spectrum[]": _COMPLEX,
            "$.spectrum_closed_form[]": _COMPLEX,
            "$.verdict": ["theorem_applicable", "note"],
        },
        "verify": {
            "$": ["manifest", "scaled"],
            "$.manifest.parameters": ["a", "b", "c", "d", "r", "epsilon"],
            "$.scaled[]": ["branch", "epsilon", "frame", "initial_state", "period",
                           "residual", "multipliers", "recurrence_defect"],
            "$.scaled[].multipliers[]": _COMPLEX,
        },
        "selftest": {
            "$": ["manifest", "checks", "pass"],
            "$.manifest.parameters": ["seed"],
            "$.checks[]": ["name", "value", "bound", "pass"],
        },
    }
    for argv in (["check"], ["spectrum"], ["favg", "--point", "1,0,0,0"],
                 ["zeros"], ["verify", "--epsilon", "0"], ["selftest"]):
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        assert _key_order(payload) == {"$.manifest": _MANIFEST, **expected[argv[0]]}, argv
