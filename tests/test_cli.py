import json

import numpy as np
import pytest

from conftest import PROBLEM_DIR, scalar_social_problem
from mflq import dichotomy, social
from mflq.cli import (
    _time_grid,
    load_problem_file,
    main,
    parse_problem_dict,
    problem_to_dict,
    write_trajectory_csv,
)
from mflq.errors import ProblemFileError
from mflq.social import sce_residual, solve_sce

SCALAR = str(PROBLEM_DIR / "ex41.json")
TWO_STATE_STRONG = str(PROBLEM_DIR / "ex42_gamma2.json")
TWO_STATE_WEAK = str(PROBLEM_DIR / "ex42_gamma005.json")
GAME = str(PROBLEM_DIR / "ex43.json")
BOUNDARY = str(PROBLEM_DIR / "ex22_degenerate.json")


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

    @pytest.mark.parametrize("source", [SCALAR, BOUNDARY])
    def test_missing_noise_matrix_exit_4_before_solving(self, capsys, tmp_path,
                                                        monkeypatch, source):
        # BOUNDARY has no dichotomy: a solve would exit 3 on it
        with open(source) as fh:
            doc = json.load(fh)
        del doc["D"], doc["n2"]
        path = tmp_path / "no_noise.json"
        path.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(social, "solve_sce",
                            lambda *a, **k: calls.append(a) or solve_sce(*a, **k))
        assert main(["simulate", str(path)]) == 4
        assert "requires field 'D'" in capsys.readouterr().err
        assert calls == []


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
