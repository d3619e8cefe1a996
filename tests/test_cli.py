import collections
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import PROBLEM_DIR, growing_mean_field_problem, scalar_social_problem
from mflq import ProblemData, cli, contraction, dichotomy, linalg, mfg, riccati, social
from mflq.cli import (
    MAX_GRID_POINTS,
    _time_grid,
    load_problem_file,
    main,
    parse_problem_dict,
    problem_to_dict,
    write_trajectory_csv,
)
from mflq.errors import MflqError, ProblemFileError
from mflq.mfg import solve_mfg
from mflq.problem import validate
from mflq.social import sce_residual, solve_sce
from test_problem import REJECTED

SCALAR = str(PROBLEM_DIR / "ex41.json")
TWO_STATE_STRONG = str(PROBLEM_DIR / "ex42_gamma2.json")
TWO_STATE_WEAK = str(PROBLEM_DIR / "ex42_gamma005.json")
GAME = str(PROBLEM_DIR / "ex43.json")
BOUNDARY = str(PROBLEM_DIR / "ex22_degenerate.json")


def file_id(value):
    """A test id for a problem file path: its stem, not the checkout's path."""
    return Path(value).stem if str(value).endswith(".json") else None


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestProblemFiles:
    def test_load_shipped_files(self):
        for path in (SCALAR, TWO_STATE_STRONG, TWO_STATE_WEAK, GAME, BOUNDARY):
            p = load_problem_file(path)
            assert p.n >= 1

    def test_round_trip(self):
        p = scalar_social_problem(D=[[0.2]])
        doc = problem_to_dict(p)
        again = parse_problem_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(again.A, p.A)
        assert np.array_equal(again.B, p.B)
        assert np.array_equal(again.Q, p.Q)
        assert np.array_equal(again.R, p.R)
        assert np.array_equal(again.Gamma, p.Gamma)
        assert np.array_equal(again.eta, p.eta)
        assert np.array_equal(again.x0, p.x0)
        assert np.array_equal(again.D, p.D)
        assert again.rho == p.rho

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.pop("A"), "A"),
        (lambda d: d.update(A=[[1.0, 2.0]]), "A"),
        (lambda d: d.update(eta=[1.0, 2.0]), "eta"),
        (lambda d: d.update(n="two"), "n"),
        (lambda d: d.update(rho="fast"), "rho"),
    ])
    def test_malformed_fields_name_the_field(self, mutate, needle):
        with open(SCALAR) as fh:
            doc = json.load(fh)
        mutate(doc)
        with pytest.raises(ProblemFileError) as err:
            parse_problem_dict(doc)
        assert needle in str(err.value)


class TestSolveSocialCommand:
    def test_reference_report(self, capsys, tmp_path):
        traj = tmp_path / "traj.csv"
        code, doc = run_json(capsys, [
            "solve-social", SCALAR, "--t-end", "5", "--dt", "0.01",
            "--traj-out", str(traj),
        ])
        assert code == 0
        assert doc["s0"][0] == pytest.approx(-0.5615, abs=1e-3)
        assert doc["Pi"][0][0] == pytest.approx(3.5616, abs=1e-3)
        res = np.sort([row["re"] for row in doc["spectrum"]])
        assert np.allclose(res, [-1.5, 1.5], atol=1e-6)
        assert doc["validation"]["failed_checks"] == []
        assert doc["timings"]["solve_seconds"] > 0.0

        lines = traj.read_text().splitlines()
        assert lines[0] == "t,xbar_1,s_1"
        t0 = lines[1].split(",")
        assert float(t0[0]) == 0.0
        # the CSV start matches the reported initial data exactly
        assert float(t0[1]) == doc["problem"]["x0"][0]
        assert float(t0[2]) == doc["s0"][0]

    def test_ode_residual_matches_api(self, capsys):
        code, doc = run_json(capsys, ["solve-social", TWO_STATE_STRONG,
                                      "--t-end", "3", "--dt", "0.02"])
        assert code == 0
        p = load_problem_file(TWO_STATE_STRONG)
        expected = sce_residual(solve_sce(p), p, _time_grid(3.0, 0.02))
        assert doc["residuals"]["ode_finite_difference"] == expected

    def test_trajectory_sampled_once(self, capsys, monkeypatch):
        calls = []
        real = dichotomy.evaluate_trajectory

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dichotomy, "evaluate_trajectory", counting)
        code, _ = run_json(capsys, ["solve-social", TWO_STATE_STRONG])
        assert code == 0
        assert len(calls) == 1

    def test_report_echo_round_trips(self, capsys):
        code, doc = run_json(capsys, ["solve-social", SCALAR])
        assert code == 0
        echoed = parse_problem_dict(doc["problem"])
        original = load_problem_file(SCALAR)
        assert np.array_equal(echoed.A, original.A)
        assert echoed.rho == original.rho

    @pytest.mark.parametrize("name", ["ex41", "ex43"])
    def test_scaled_cost_solved_as_by_api(self, capsys, tmp_path, name):
        # validate's axis check balances the Hamiltonian as the solver does
        p = load_problem_file(PROBLEM_DIR / f"{name}.json")
        doc = problem_to_dict(p)
        doc["Q"] = (1e12 * p.Q).tolist()
        doc["R"] = (1e12 * p.R).tolist()
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(doc))
        code, report = run_json(capsys, ["solve-social", str(scaled)])
        assert code == 0
        assert report["Pi"] == solve_sce(load_problem_file(scaled)).Pi.tolist()

    def test_boundary_case_exit_3(self, capsys):
        code = main(["solve-social", BOUNDARY])
        err = capsys.readouterr().err
        assert code == 3
        assert "imaginary" in err.lower()

    def test_missing_file_exit_4(self, capsys):
        assert main(["solve-social", str(PROBLEM_DIR / "nope.json")]) == 4

    def test_malformed_shape_exit_4(self, capsys, tmp_path):
        with open(SCALAR) as fh:
            doc = json.load(fh)
        doc["Q"] = [[1.0, 2.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve-social", str(bad)])
        err = capsys.readouterr().err
        assert code == 4
        assert "Q" in err

    @pytest.mark.parametrize("bad_d", [
        [[1.0], [1.0, 2.0]],  # ragged
        [["a"]],
        [[{"x": 1.0}]],
    ])
    def test_non_numeric_D_exit_4(self, capsys, tmp_path, bad_d):
        with open(SCALAR) as fh:
            doc = json.load(fh)
        doc["D"] = bad_d
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve-social", str(bad)])
        err = capsys.readouterr().err
        assert code == 4
        assert "field 'D' is not numeric" in err

    def test_no_controls_exit_4(self, capsys, tmp_path):
        bad = tmp_path / "no_controls.json"
        bad.write_text(json.dumps({
            "n": 1, "n1": 0, "rho": 1.0, "A": [[1.0]], "B": [[]],
            "Q": [[1.0]], "R": [], "Gamma": [[0.0]],
            "eta": [0.0], "x0": [0.0],
        }))
        code = main(["solve-social", str(bad)])
        err = capsys.readouterr().err
        assert code == 4
        assert "n1" in err

    @pytest.mark.parametrize("field,value", [
        ("x0", float("nan")), ("eta", float("inf")),
        # a row of B, rejected when parsed, before an SVD of B can fail
        pytest.param("B", [float("nan")], id="B-nan"),
    ])
    def test_non_finite_vector_exit_4(self, capsys, tmp_path, field, value):
        with open(SCALAR) as fh:
            doc = json.load(fh)
        doc[field] = [value]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve-social", str(bad)])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert f"{field} has non-finite entries" in err

    @pytest.mark.parametrize("flag,value", [("--t-end", "inf"), ("--dt", "nan")])
    def test_non_finite_grid_exit_4(self, capsys, flag, value):
        code = main(["solve-social", SCALAR, flag, value])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert "invalid grid" in err

    @pytest.mark.parametrize("t_end,dt", [
        ("1e300", "1e-10"),                   # the step count overflows
        (str(float(MAX_GRID_POINTS)), "1"),   # one point over the limit
    ])
    def test_oversized_grid_exit_4(self, capsys, monkeypatch, t_end, dt):
        def unreachable(*args, **kwargs):
            raise AssertionError("trajectory sampled on a rejected grid")

        monkeypatch.setattr(dichotomy, "evaluate_trajectory", unreachable)
        code = main(["solve-social", SCALAR, "--t-end", t_end, "--dt", dt])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert "invalid grid" in err

    def test_largest_grid_accepted(self):
        grid = _time_grid(float(MAX_GRID_POINTS - 1), 1.0)
        assert grid.size == MAX_GRID_POINTS
        assert grid[-1] == MAX_GRID_POINTS - 1

    def test_validation_failure_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "unstab.json"
        bad.write_text(json.dumps({
            "n": 1, "n1": 1, "rho": 1.0, "A": [[1.0]], "B": [[0.0]],
            "Q": [[1.0]], "R": [[1.0]], "Gamma": [[0.0]],
            "eta": [0.0], "x0": [0.0],
        }))
        code = main(["solve-social", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "stabilizability" in err


class TestSolveGameCommand:
    def test_reference_report(self, capsys):
        code, doc = run_json(capsys, ["solve-game", GAME])
        assert code == 0
        assert np.allclose(doc["s0"], [2.31075, -4.11538], atol=1e-3)
        res = sorted(row["re"] for row in doc["spectrum"])
        assert np.allclose(res, [-8.9356, -2.0950, 1.7783, 9.2522], atol=1e-3)
        assert doc["U11_condition"] < 1e12

    def test_zero_coupling_matches_social(self, capsys, tmp_path):
        with open(SCALAR) as fh:
            doc = json.load(fh)
        doc["Gamma"] = [[0.0]]
        path = tmp_path / "decoupled.json"
        path.write_text(json.dumps(doc))
        code_a, social = run_json(capsys, ["solve-social", str(path)])
        code_b, game = run_json(capsys, ["solve-game", str(path)])
        assert code_a == code_b == 0
        assert np.allclose(social["s0"], game["s0"], atol=1e-9)
        assert np.allclose(social["Pi"], game["Pi"], atol=1e-12)

    def test_boundary_case_exit_3(self, capsys):
        assert main(["solve-game", BOUNDARY]) == 3

    def test_trajectory_start_exact(self, capsys, tmp_path):
        traj = tmp_path / "game.csv"
        code, doc = run_json(capsys, ["solve-game", GAME, "--t-end", "2",
                                      "--dt", "0.1", "--traj-out", str(traj)])
        assert code == 0
        first = traj.read_text().splitlines()[1].split(",")
        assert [float(v) for v in first[1:3]] == doc["problem"]["x0"]
        assert [float(v) for v in first[3:5]] == doc["s0"]


COMMON_HEAD = ["command", "problem", "validation", "spectrum", "Pi"]
COMMON_TAIL = ["s0", "residuals", "timings"]
REPORT_SHAPES = {
    "solve-social": (solve_sce, ["Xplus", "A_C", "A_cl", "c"],
                     ["discounted_riccati", "auxiliary_riccati", "ode_finite_difference"]),
    "solve-game": (solve_mfg, ["M_mfg", "U11", "U12", "U21", "U22", "U11_condition",
                               "det_U11", "F11", "y2_offset"],
                   ["discounted_riccati"]),
}

# The shipped files, two problems the solvers certify though validate fails
# their PBH margin at its absolute threshold, and the rejected inputs.
FORK_INPUTS = [
    *((path.stem, load_problem_file(path)) for path in sorted(PROBLEM_DIR.glob("*.json"))),
    ("big_A", ProblemData(A=[[1e8]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                          Gamma=[[0.0]], eta=[1.0], rho=1.0, x0=[1.0])),
    ("tiny_B", ProblemData(A=[[3.0]], B=[[1e-9]], Q=[[1.0]], R=[[1.0]],
                           Gamma=[[0.0]], eta=[1.0], rho=1.0, x0=[1.0])),
    *((name, p) for name, p, _ in REJECTED),
]


class TestSolveReports:
    # ex42_gamma2's game matrix splits 1/3, so solve-game rejects it
    @pytest.mark.parametrize("command,path", [
        ("solve-social", SCALAR), ("solve-social", TWO_STATE_STRONG),
        ("solve-social", TWO_STATE_WEAK), ("solve-social", GAME),
        ("solve-game", SCALAR), ("solve-game", TWO_STATE_WEAK), ("solve-game", GAME),
    ], ids=file_id)
    def test_report_shape(self, capsys, command, path):
        solve, own_keys, residual_keys = REPORT_SHAPES[command]
        code, doc = run_json(capsys, [command, path])
        assert code == 0
        assert list(doc) == COMMON_HEAD + own_keys + COMMON_TAIL
        assert doc["command"] == command
        assert list(doc["residuals"]) == residual_keys
        assert list(doc["timings"]) == ["solve_seconds", "total_seconds"]
        assert 0.0 < doc["timings"]["solve_seconds"] <= doc["timings"]["total_seconds"]
        lam = np.linalg.eigvals(solve(load_problem_file(path)).decomposition.K)
        assert [(row["re"], row["im"]) for row in doc["spectrum"]] \
            == sorted((float(z.real), float(z.imag)) for z in lam)

    @pytest.mark.parametrize("command", ["solve-social", "solve-game"])
    @pytest.mark.parametrize("name,p", FORK_INPUTS, ids=[case[0] for case in FORK_INPUTS])
    def test_exit_0_exactly_when_the_api_solves(self, capsys, tmp_path, command, name, p):
        # validate's absolute PBH threshold fails big_A and tiny_B, which
        # the solvers certify; it must not veto them
        try:
            REPORT_SHAPES[command][0](p)
            solved = True
        except MflqError:
            solved = False
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem_to_dict(p)))
        code = main([command, str(path), "--t-end", "1", "--dt", "0.1"])
        out = capsys.readouterr().out
        assert (code == 0) == solved
        assert (out != "") == solved

    @pytest.mark.parametrize("command", ["solve-social", "solve-game"])
    def test_stable_drift_report_is_strict_json(self, capsys, tmp_path, command):
        # a stable A has no PBH test point: validate's margin is inf, which
        # the report writes as null, not as the non-JSON token Infinity
        p = ProblemData(A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], Gamma=[[0.5]],
                        eta=[0.2], rho=1.0, x0=[1.0])
        assert validate(p).stabilizability_margin == np.inf
        path = tmp_path / "stable.json"
        path.write_text(json.dumps(problem_to_dict(p)))
        assert main([command, str(path)]) == 0

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["validation"]["stabilizability_margin"] is None
        assert doc["validation"]["stabilizable"] is True

    @pytest.mark.parametrize("command", ["solve-social", "solve-game"])
    def test_overflowing_trajectory_exit_4(self, capsys, tmp_path, command):
        path = tmp_path / "growing.json"
        path.write_text(json.dumps(problem_to_dict(growing_mean_field_problem())))
        code = main([command, str(path), "--t-end", "2000", "--dt", "1"])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert "overflows before the grid end t = 2000" in err


class TestContractionCommand:
    def test_strong_coupling(self, capsys):
        code, doc = run_json(capsys, ["contraction", TWO_STATE_STRONG])
        assert code == 0
        assert doc["beta"] == pytest.approx(6.34694, rel=1e-2)
        assert doc["verdict"] == "not a contraction"

    def test_weak_coupling(self, capsys):
        code, doc = run_json(capsys, ["contraction", TWO_STATE_WEAK])
        assert code == 0
        assert doc["beta"] == pytest.approx(0.736681, rel=1e-2)
        assert doc["verdict"] == "contraction"

    def test_zero_coupling(self, capsys, tmp_path):
        with open(SCALAR) as fh:
            doc = json.load(fh)
        doc["Gamma"] = [[0.0]]
        path = tmp_path / "decoupled.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["contraction", str(path)])
        assert code == 0
        assert out["beta"] == 0.0
        assert out["verdict"] == "contraction"

    def test_non_finite_report_value_exit_3(self, capsys, monkeypatch, tmp_path):
        # the input was fine; JSON has no inf, so the report is refused unwritten
        monkeypatch.setattr(contraction, "contraction_bound", lambda p, pi: np.inf)
        out_path = tmp_path / "report.json"
        assert main(["contraction", SCALAR, "--out", str(out_path)]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "mflq: numerical failure: the report has a value "
                                  "that is not finite\n")
        assert not out_path.exists()


class TestSpectrumCommand:
    def test_social_systems(self, capsys):
        code, doc = run_json(capsys, ["spectrum", SCALAR, "--system", "social"])
        assert code == 0
        res = sorted(row["re"] for row in doc["eigenvalues"])
        assert np.allclose(res, [-1.5, 1.5], atol=1e-6)

        code, doc = run_json(capsys,
                             ["spectrum", TWO_STATE_STRONG, "--system", "social"])
        assert code == 0
        lam = sorted((row["re"], abs(row["im"])) for row in doc["eigenvalues"])
        assert np.allclose(lam, [(-1.0655, 0.6208), (-1.0655, 0.6208),
                                 (1.0655, 0.6208), (1.0655, 0.6208)], atol=1e-3)

    def test_game_system(self, capsys):
        code, doc = run_json(capsys, ["spectrum", GAME, "--system", "game"])
        assert code == 0
        res = sorted(row["re"] for row in doc["eigenvalues"])
        assert np.allclose(res, [-8.9356, -2.0950, 1.7783, 9.2522], atol=1e-3)

    # every shipped file and system that the matching solver accepts
    @pytest.mark.parametrize("system,name", [
        ("social", "ex41"), ("social", "ex42_gamma2"), ("social", "ex42_gamma005"),
        ("social", "ex43"), ("game", "ex41"), ("game", "ex42_gamma005"), ("game", "ex43"),
    ])
    def test_eigenvalues_of_the_matrix_the_solver_splits(self, capsys, system, name):
        solve = {"social": solve_sce, "game": solve_mfg}[system]
        path = str(PROBLEM_DIR / f"{name}.json")
        code, doc = run_json(capsys, ["spectrum", path, "--system", system])
        assert code == 0
        lam = np.linalg.eigvals(solve(load_problem_file(path)).decomposition.K)
        assert [(row["re"], row["im"]) for row in doc["eigenvalues"]] \
            == sorted((float(z.real), float(z.imag)) for z in lam)


class TestSimulateCommand:
    def test_deterministic_output(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = ["simulate", SCALAR, "--agents", "8", "--horizon", "1.0",
                "--dt", "0.01", "--reps", "3", "--seed", "11"]
        code_a, doc_a = run_json(capsys, argv + ["--out", str(out_a)])
        code_b, doc_b = run_json(capsys, argv + ["--threads", "4",
                                                 "--out", str(out_b)])
        assert code_a == code_b == 0
        assert doc_a == doc_b
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header == "replication,per_agent_cost,mean_field_gap,tail_bound"

    def test_single_agent_runs(self, capsys):
        code, doc = run_json(capsys, ["simulate", SCALAR, "--agents", "1",
                                      "--horizon", "0.5", "--reps", "1"])
        assert code == 0
        assert np.isfinite(doc["per_agent_cost_mean"])

    def test_zero_dt_exit_4(self, capsys):
        assert main(["simulate", SCALAR, "--dt", "0"]) == 4

    @pytest.mark.parametrize("source", [
        SCALAR, BOUNDARY, pytest.param(REJECTED[0][1], id="slow_uncontrollable")],
        ids=file_id)
    def test_missing_noise_matrix_exit_4_before_solving(self, capsys, tmp_path,
                                                        monkeypatch, source):
        # BOUNDARY has no dichotomy: a solve would exit 3 on it; validate
        # fails the rejected input, which must not relabel the missing D
        if isinstance(source, str):
            with open(source) as fh:
                doc = json.load(fh)
            del doc["D"], doc["n2"]
        else:
            doc = problem_to_dict(source)
        path = tmp_path / "no_noise.json"
        path.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(social, "solve_sce",
                            lambda *a, **k: calls.append(a) or solve_sce(*a, **k))
        assert main(["simulate", str(path)]) == 4
        assert "requires field 'D'" in capsys.readouterr().err
        assert calls == []

    def test_euler_step_too_long_exit_4(self, capsys, tmp_path):
        # the closed loop is near -1e8: at dt = 0.01 an Euler step multiplies
        # it by about -1e6, so the statistics would be inf and NaN
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(problem_to_dict(ProblemData(
            A=[[1e8]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], Gamma=[[0.0]],
            eta=[1.0], rho=1.0, x0=[1.0], D=[[0.1]]))))
        code = main(["simulate", str(path), "--agents", "4", "--horizon", "0.5",
                     "--reps", "2"])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert "step dt=0.01 is too long" in err


# Each is wrong whatever the problem; MISSING stands for a path whose
# directory does not exist.
ARGUMENT_ERRORS = [
    ["solve-social", "--dt", "0"],
    ["solve-social", "--t-end", "1e300", "--dt", "1e-10"],
    ["solve-social", "--out", "MISSING"],
    ["solve-game", "--traj-out", "MISSING"],
    ["contraction", "--out", "MISSING"],
    ["simulate", "--agents", "0"],
    ["simulate", "--horizon", "1e300", "--dt", "1e-10"],
]


class TestArgumentErrors:
    """A bad argument, grid or output path exits 4 with empty stdout before
    any solve: on a problem the solvers certify though validate fails it,
    on a rejected one and on one with no dichotomy."""

    @pytest.mark.parametrize("argv", ARGUMENT_ERRORS, ids=" ".join)
    @pytest.mark.parametrize("name", ["big_A", "slow_uncontrollable", "ex22_degenerate"])
    def test_exit_4_before_solving(self, capsys, monkeypatch, tmp_path, name, argv):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved despite a bad argument")

        for module, solve in ((social, "solve_sce"), (mfg, "solve_mfg"),
                              (riccati, "solve_discounted_are")):
            monkeypatch.setattr(module, solve, unreachable)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem_to_dict(dict(FORK_INPUTS)[name])))
        missing = str(tmp_path / "missing" / "r.json")
        code = main([argv[0], str(path)]
                    + [missing if arg == "MISSING" else arg for arg in argv[1:]])
        out, err = capsys.readouterr()
        assert (code, out) == (4, "")
        assert "validation" not in err


class TestValidateCalls:
    """``validate`` runs to fill a solve report and to explain a failed
    solve, nowhere else; each command factors `R` no more than it must."""

    @pytest.mark.parametrize("argv,code,validates,factorizations", [
        (["solve-social", TWO_STATE_STRONG], 0, 1, 2),
        (["solve-game", GAME], 0, 1, 2),
        (["contraction", TWO_STATE_STRONG], 0, 0, 2),
        (["spectrum", TWO_STATE_STRONG], 0, 0, 1),
        (["simulate", SCALAR, "--agents", "4", "--horizon", "0.5", "--reps", "2"], 0, 0, 2),
        # the game matrix splits 1/3: a failed solve, explained once
        (["solve-game", TWO_STATE_STRONG], 3, 1, 2),
    ], ids=lambda v: v if isinstance(v, int) else " ".join(a.split("/")[-1] for a in v))
    def test_calls_per_command(self, capsys, monkeypatch, argv, code, validates,
                               factorizations):
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(cli, "validate", counting("validate", cli.validate))
        monkeypatch.setattr(linalg, "dpotrf", counting("dpotrf", linalg.dpotrf))
        assert main(argv) == code
        assert (calls["validate"], calls["dpotrf"]) == (validates, factorizations)


class TestTrajectoryCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "t.csv"
        t = np.array([0.0, 0.5])
        xbar = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = np.array([[5.0, 6.0], [7.0, 8.0]])
        write_trajectory_csv(str(path), t, xbar, s)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,xbar_1,xbar_2,s_1,s_2"
        assert lines[1] == "0,1,2,5,6"
        assert len(lines) == 3
