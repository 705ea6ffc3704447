import contextlib
import csv
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    code, out, err = run(capsys, "check", "--a", "abc")
    assert code == 3 and out == ""
    assert err == "input error: chenhopf check: argument --a: invalid float value: 'abc'\n"


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


def test_check_holds_where_the_gate_product_underflows(capsys):
    # b(a+d)r = -1e-400 rounds to -0.0, but its sign is the parity of its factors'
    # signs, and the zeros (a sqrt|g|/d, -sqrt|g|, ...) with sqrt|g| = 1e-200 are representable
    argv = ["--a=-1", "--b=1e-200", "--d=2", "--r=-1e-200"]
    code, payload, _ = run_json(capsys, "check", *argv)
    assert code == 0
    assert str(payload["report"]["b_times_a_plus_d_times_r"]) == "-0.0"
    assert payload["report"]["b_condition_holds"] is True
    code, payload, _ = run_json(capsys, "zeros", *argv)
    assert code == 0
    assert [zero["point"] for zero in payload["closed_form"]] == [
        [-5e-201, -1e-200, 5e-201, -5e-201], [5e-201, 1e-200, 5e-201, 5e-201]]


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
@pytest.mark.parametrize("point", ["nan,0,0,0", "0,0,inf,0", "0,-inf,0,0",
                                   "1e200,1,1,1", "1,1,1e200,1e200"])
def test_favg_nonfinite_point_exits_3(capsys, point, method):
    code, out, err = run(capsys, "favg", "--point", point, "--method", method, "--json")
    assert code == 3
    assert out == ""
    assert "finite" in err


def test_favg_default_nodes_are_the_library_default(capsys):
    argv = ("favg", "--point", "1,2,3,4", "--method", "quadrature")
    code, default, _ = run_json(capsys, *argv)
    assert code == 0
    assert default["manifest"]["parameters"]["nodes"] == averaging.QUADRATURE_NODES
    code, explicit, _ = run_json(capsys, *argv, "--nodes", "8")
    assert code == 0
    assert json.dumps(default["quadrature"]) == json.dumps(explicit["quadrature"])


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


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_zeros_nan_tol_exits_3(capsys, tol):
    code, out, err = run(capsys, "zeros", "--tol", tol)
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


@pytest.mark.parametrize("epsilon, line", [
    ("0.01", "shooting Newton stagnated after 3 iterations (best residual 4.115e-05)"),
    ("0.005", "shooting Newton stagnated after 3 iterations (best residual 1.043e-05)"),
    ("1e300", "state became non-finite near t = 1.32512e-299"),
    ("1e10", "state norm exceeded 1e+12 near t = 2.3997e-09 (blow-up)"),
], ids=["0.01", "0.005", "1e300", "1e10"])
def test_verify_failure_line_is_pinned(capsys, epsilon, line):
    # the exact lines README quotes: the stepper's arithmetic must not move them
    code, _, err = run(capsys, "verify", "--epsilon", epsilon)
    assert code == 2
    assert err == f"numerical failure: branch 1 failed: {line}\n"


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


def test_orbit_refuses_the_json_flag(capsys):
    # orbit writes CSV only, so --json is a usage error rather than a silent no-op
    code, out, err = run(capsys, "orbit", "--epsilon", "0", "--samples", "3", "--json")
    assert code == 3 and out == ""
    assert err == "input error: chenhopf: unrecognized arguments: --json\n"


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


@pytest.mark.parametrize("target, argv", [
    ("orbit_trajectory", ["orbit", "--epsilon", "0", "--samples", "1000000000"]),
    ("bifurcation_function_quadrature",
     ["favg", "--point", "1,2,3,4", "--method", "quadrature", "--nodes", "1000000000"]),
])
def test_allocation_failure_is_an_input_error(capsys, monkeypatch, target, argv):
    # a huge --samples or --nodes fails to allocate; the stand-in raises what
    # numpy would, so the test never allocates for real
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.8 GiB for an array")

    monkeypatch.setattr(f"chenhopf.cli.{target}", out_of_memory)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("input error")
    assert "Traceback" not in err


# ------------------------------------------------------------ exit-code contract

_PREFIX = {1: "hypothesis violation: ", 2: "numerical failure: ", 3: "input error: "}


@pytest.mark.parametrize("argv, code, ending", [
    # (a + c)**2 overflows in the closed-form origin spectrum
    (["spectrum", "--a", "1e154", "--d", "0"], 3, "overflows at a = 1e+154, c = 1e+154"),
    # |M|_2 overflows, so eig4 cannot form M - lambda I
    (["spectrum", "--a", "1.7e308", "--r", "1e-320"], 3, "the shifted matrices M - lambda I"),
    # the rotating integration fails at t = 0, and Phi(0) overflows mapping its state back
    (["sweep", "--d", "1.7e308", "--r", "1e-320", "--epsilons", "1e8,1e300"], 2,
     "field is non-finite at t = 0"),
    # a**4 overflows in the closed-form det Df
    (["zeros", "--d", "1e300"], 3, "d = 1e+300, r = 1.0"),
    # 2 a**2 (a+d)**2 underflows to 0 in the closed-form averaged function
    (["favg", "--a", "5e-324", "--d", "-1", "--point", "1,1,1,1", "--method", "closed"], 3,
     "point [1.0, 1.0, 1.0, 1.0]"),
    # the quadrature names its first non-finite sample entry only; node 0 is finite, as Phi(0) = I
    (["favg", "--b", "1e-320", "--point", "1.7e308,1e-320,0.5,-0", "--method", "quadrature",
      "--nodes", "64"], 3,
     "integrand returned non-finite value nan in column 0 at node 1 (t=0.09817477042468103)"),
    # the characteristic polynomial's coefficients overflow; --json would print -Infinity
    (["spectrum", "--b", "1e300", "--c", "1e154", "--json"], 3,
     "characteristic polynomial overflows at a = -1.0, b = 1e+300, c = 1e+154, d = 2.0, r = 1.0"),
    # the equilibrium Newton's Jacobian overflows; LAPACK would print to the C-level stdout
    (["sweep", "--r", "1e300", "--epsilons", "1e300"], 2, "Jacobian has non-finite entries"),
], ids=["spectrum-discriminant", "spectrum-eig4-norm", "sweep-map-back", "zeros-det",
        "favg-underflow", "favg-quadrature-row", "spectrum-char-poly", "sweep-newton-jacobian"])
def test_overflowing_derived_quantity_exits_with_one_line(capfd, argv, code, ending):
    # capfd also catches what LAPACK prints below Python
    assert main(argv) == code
    out, err = capfd.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(_PREFIX[code]), err
    assert lines[0].endswith(ending)
    assert len(lines[0].encode()) < 300, len(lines[0].encode())
    assert out == ""   # no partial payload, and nothing from LAPACK (" ** On entry")


def test_multi_line_failure_message_is_joined_into_one_line(capsys, monkeypatch):
    # a numpy repr of a matrix spans lines; the failure is still one stderr line
    def fails(*args, **kwargs):
        raise ValueError(f"matrix contains non-finite entries: {np.full((4, 4), np.nan)!r}")

    monkeypatch.setattr("chenhopf.cli.bifurcation_function", fails)
    code, out, err = run(capsys, "favg", "--point", "1,2,3,4", "--method", "closed")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("input error: matrix contains")
    assert err.rstrip().endswith("]])")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--json"],                                       # through _emit
    ["sweep", "--epsilons", "0.005,0.01", "--json"],              # the summary on stderr
])
def test_json_output_never_carries_a_non_standard_token(capsys, monkeypatch, argv):
    # json.dumps would print NaN; strict JSON makes it an input error before any output
    monkeypatch.setattr("chenhopf.cli.origin_char_poly", lambda params: np.array([1.0, np.nan]))
    monkeypatch.setattr("chenhopf.cli.branch_study",
                        lambda config, epsilons: orbits.BranchStudy([], {1: float("nan")}))
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("input error: Out of range float values are not JSON compliant")
    assert len(err.splitlines()) == 1


_VALUES = ["0", "-0", "5e-324", "1e-320", "0.5", "-1", "1e8", "1e154", "1e300", "1.7e308",
           "inf", "-inf", "nan"]
# at eps = 0.5 or 1e8 a shooting integration can spend MAX_STEPS, seconds per example
_EPSILONS = [v for v in _VALUES if v not in ("0.5", "1e8")]


_COMMANDS = ["check", "spectrum", "zeros", "favg", "verify", "sweep", "orbit", "selftest"]


@st.composite
def _usage_error(draw):
    """argv that argparse refuses, whatever the command."""
    command = draw(st.sampled_from(_COMMANDS))
    flag = "--seed" if command == "selftest" else "--a"
    return draw(st.sampled_from([
        [command, f"{flag}=x"],                  # a non-numeric value
        [command, flag],                         # a flag missing its value
        [command, "--no-such-flag=1"],           # an unknown flag
        ["favg", "--a=-1"],                      # a missing required flag
        ["sweep", "--json"],
        ["orbit", "--epsilon=0", "--json"],      # orbit writes CSV only
        ["no-such-command", f"{flag}=0"],        # an unknown command
    ]))


@st.composite
def _argv(draw):
    """(argv, whether it is a usage error)."""
    if draw(st.integers(0, 7)) == 0:
        return draw(_usage_error()), True
    value = st.sampled_from(_VALUES)
    command = draw(st.sampled_from(_COMMANDS))
    if command == "selftest":
        return [command, f"--seed={draw(value)}"] + ["--json"] * draw(st.booleans()), False
    argv = [command] + [f"--{flag}={draw(value)}" for flag in "abcdr" if draw(st.booleans())]
    if command == "zeros":
        argv.append(f"--tol={draw(value)}")
    elif command == "favg":
        argv += [f"--point={','.join(draw(st.lists(value, min_size=4, max_size=4)))}",
                 f"--method={draw(st.sampled_from(['closed', 'quadrature', 'both']))}",
                 f"--nodes={draw(st.sampled_from([0, 8, 9]))}"]
    elif command == "verify":
        argv.append(f"--epsilon={draw(st.sampled_from(_EPSILONS))}")
    elif command == "sweep":
        epsilons = draw(st.lists(st.sampled_from(_EPSILONS), min_size=1, max_size=2))
        argv.append(f"--epsilons={','.join(epsilons)}")
    elif command == "orbit":   # no --json: orbit writes CSV only
        return argv + [f"--epsilon={draw(st.sampled_from(_EPSILONS))}",
                       f"--branch={draw(st.integers(1, 3))}",
                       f"--samples={draw(st.integers(1, 3))}",
                       f"--frame={draw(st.sampled_from(['scaled', 'original']))}"], False
    return argv + ["--json"] * draw(st.booleans()), False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_argv())
# generated orbit argv rarely pass every gate, so the contract's exit 0 is pinned too
@example(case=(["orbit", "--epsilon=0", "--branch=2", "--samples=3", "--frame=original"], False))
@example(case=(["selftest", "--seed=-0", "--json"], False))
def test_generated_argv_keeps_the_exit_code_contract(case):
    argv, usage_error = case
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    if usage_error:
        assert code == 3, argv
    if argv[0] == "check" and code == 1:
        assert lines == []   # check's exit 1 is its verdict, reported on stdout
    elif code:
        assert len(lines) == 1 and lines[0].startswith(_PREFIX[code]), lines


@pytest.mark.parametrize("argv, code", [
    # a(a+d) overflows to -inf: human text exited 0 while --json exited 3
    (["check", "--a=-1e200", "--d=3e200"], 3),
    # b(a+d)r overflows to -inf: the verdict's exit 1 against --json's 3
    (["check", "--b=-1e200", "--d=-0", "--r=-1e200"], 3),
    # a(a+d) overflows to +inf
    (["check", "--a=3e200", "--b=1e200"], 3),
    (["spectrum", "--a", "1e154", "--d", "0"], 3),
    (["favg", "--point", "1e200,0,0,0", "--method", "quadrature"], 3),
    (["verify", "--epsilon", "0.01"], 2),
    (["zeros"], 0),
], ids=["check-a-overflow", "check-bdr-overflow", "check-a-overflow-positive",
        "spectrum-discriminant", "favg-quadrature-overflow", "verify-refusal", "zeros"])
def test_exit_code_and_stderr_do_not_depend_on_json(capsys, argv, code):
    human_code, _, human_err = run(capsys, *argv)
    json_code, _, json_err = run(capsys, *argv, "--json")
    assert human_code == json_code == code
    assert human_err == json_err
    assert len(human_err.splitlines()) == (1 if code else 0), human_err
    if argv[0] == "check":
        assert human_err.startswith("input error: Out of range float values are not JSON compliant: ")


def _leaves(doc, path=""):
    """(path, value) for each leaf of a JSON document, in document order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list) and doc and isinstance(doc[0], (dict, list)):
        for i, item in enumerate(doc):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, doc


@pytest.mark.parametrize("argv", [
    ["check"], ["spectrum"], ["favg", "--point", "0,0,1,0"], ["zeros"],
    ["verify", "--epsilon", "0"], ["selftest"],
    ["sweep", "--epsilons", "0.005,0.01", "--out", "{tmp}/sweep.csv"],
], ids=["check", "spectrum", "favg", "zeros", "verify", "selftest", "sweep"])
def test_human_text_is_the_json_payload(capsys, tmp_path, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = []
    for line in out.splitlines():
        path, sep, value = line.partition(": ")
        assert sep and path, line
        lines.append((path, json.loads(value)))
    _, payload, _ = run_json(capsys, *argv)
    del payload["manifest"]
    assert lines == list(_leaves(payload))


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
    assert err == f"numerical failure: selftest failed: {check}\n"


def test_selftest_failure_shows_in_the_human_text(capsys, monkeypatch):
    real = averaging.bifurcation_function_quadrature
    monkeypatch.setattr(averaging, "bifurcation_function_quadrature", _shifted(real, 1e-6))
    code, out, err = run(capsys, "selftest")
    assert code == 2
    assert err == "numerical failure: selftest failed: averaged function: closed vs quadrature\n"
    lines = out.splitlines()
    assert lines[0] == 'checks[0].name: "averaged function: closed vs quadrature"'
    assert lines[3] == "checks[0].pass: false" and lines[-1] == "pass: false"


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
