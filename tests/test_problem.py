import json

import numpy as np
import pytest

from conftest import (
    PROBLEM_DIR,
    degenerate_boundary_problem,
    indefinite_social_problem,
    scalar_social_problem,
)
from mflq.cli import load_problem_file, main, problem_to_dict
from mflq.contraction import contraction_bound
from mflq.errors import (
    ImaginaryAxisEigenvalue,
    MflqError,
    NonPositiveR,
    StabilizabilityFailure,
)
from mflq.mfg import solve_mfg
from mflq.problem import ProblemData, gamma_weights, validate
from mflq.social import solve_sce


class TestProblemData:
    def test_dimensions(self, ):
        p = indefinite_social_problem()
        assert (p.n, p.n1, p.n2) == (2, 1, None)

    def test_vector_b_promoted(self):
        p = ProblemData(A=[[1.0]], B=[1.0], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0])
        assert p.B.shape == (1, 1)

    def test_noise_dimension(self):
        p = scalar_social_problem(D=[[0.2, 0.1]])
        assert p.n2 == 2

    @pytest.mark.parametrize("field,value", [
        ("Q", [[1.0, 0.5], [0.0, 1.0]]),       # asymmetric Q
        ("R", [[1.0, 0.5], [0.0, 1.0]]),       # asymmetric R
        ("eta", [1.0, 2.0, 3.0]),               # wrong length
        ("x0", [1.0]),                          # wrong length
    ])
    def test_bad_two_state_fields(self, field, value):
        base = dict(A=[[1.0, 0.0], [0.0, 1.0]], B=[[1.0], [1.0]],
                    Q=np.eye(2), R=np.eye(2) if field == "R" else [[1.0]],
                    Gamma=np.zeros((2, 2)), eta=[0.0, 0.0], rho=1.0,
                    x0=[0.0, 0.0])
        base[field] = value
        with pytest.raises(ValueError):
            ProblemData(**base)

    def test_no_controls_rejected(self):
        with pytest.raises(ValueError, match="B"):
            ProblemData(A=[[1.0]], B=np.zeros((1, 0)), Q=[[1.0]],
                        R=np.zeros((0, 0)), Gamma=[[0.0]], eta=[0.0],
                        rho=1.0, x0=[0.0])

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan])
    def test_bad_rho(self, rho):
        with pytest.raises(ValueError):
            scalar = scalar_social_problem()
            ProblemData(A=scalar.A, B=scalar.B, Q=scalar.Q, R=scalar.R,
                        Gamma=scalar.Gamma, eta=scalar.eta, rho=rho,
                        x0=scalar.x0)

    def test_control_gram(self):
        p = indefinite_social_problem()
        assert np.allclose(p.control_gram(), np.ones((2, 2)))

    @pytest.mark.parametrize("name", ["ex41", "ex43"])
    def test_solves_leave_the_problem_alone(self, name):
        # no solve may cache anything on its (frozen) input
        p = load_problem_file(PROBLEM_DIR / f"{name}.json")
        before = dict(vars(p))
        contents = {k: v.tobytes() for k, v in before.items() if isinstance(v, np.ndarray)}
        validate(p)
        t = np.linspace(0.0, 5.0, 51)
        sol = solve_sce(p)
        sol.trajectory(t)
        solve_mfg(p).trajectory(t)
        contraction_bound(p, sol.Pi)
        after = vars(p)
        assert after.keys() == before.keys()
        for k, v in before.items():
            assert after[k] is v, k
        for k, data in contents.items():
            assert after[k].tobytes() == data, k


class TestGammaWeights:
    def test_zero_coupling(self):
        q = np.diag([1.0, 2.0])
        eta = np.array([1.0, -1.0])
        w = gamma_weights(q, np.zeros((2, 2)), eta)
        assert np.allclose(w.Q_Gamma, 0.0)
        assert np.allclose(w.eta_Gamma, q @ eta)

    def test_identity_coupling(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        w = gamma_weights(q, np.eye(2), [1.0, 2.0])
        assert np.allclose(w.Q_Gamma, q)
        assert np.allclose(w.eta_Gamma, 0.0)

    def test_two_state_reference(self):
        p = indefinite_social_problem()
        w = gamma_weights(p.Q, p.Gamma, p.eta)
        assert np.allclose(w.Q_Gamma, [[0.5, 0.5], [0.5, 0.0]], atol=1e-12)
        assert np.allclose(w.eta_Gamma, [-1.0, 0.0], atol=1e-12)

    def test_difference_identity(self):
        # Q_Gamma == Q - (I - Gamma)' Q (I - Gamma) for any Gamma
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            g = rng.standard_normal((n, n))
            q = 0.5 * (g + g.T)
            gam = rng.standard_normal((n, n))
            w = gamma_weights(q, gam, np.zeros(n))
            ident = np.eye(n)
            expected = q - (ident - gam).T @ q @ (ident - gam)
            assert np.allclose(w.Q_Gamma, expected, atol=1e-12)


class TestValidate:
    def test_reference_case_passes(self):
        report = validate(scalar_social_problem())
        assert report.ok
        assert report.failures() == []
        assert report.axis_margin == pytest.approx(np.sqrt(4.25), abs=1e-9)

    def test_uncontrollable_unstable_flagged(self):
        p = ProblemData(A=[[1.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0])
        report = validate(p)
        assert not report.stabilizable
        assert "stabilizability" in report.failures()

    def test_indefinite_r_flagged(self):
        p = ProblemData(A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1e-14]],
                        Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0])
        report = validate(p)
        assert not report.r_positive_definite
        assert report.axis_ok is None

    def test_skipped_axis_check_not_listed_as_failed(self):
        # with R failing, the axis check never runs and must not be named
        p = ProblemData(A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1e-14]],
                        Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0])
        report = validate(p)
        assert not report.ok
        assert report.failures() == ["R_positive_definite"]

    def test_boundary_case_passes_validation(self):
        # the shifted Hamiltonian built from Q is off the axis even though
        # the downstream consistency matrix is degenerate
        report = validate(degenerate_boundary_problem())
        assert report.ok
        assert report.axis_margin == pytest.approx(1.0, abs=1e-9)


def scalar_problem(a, b, q, r):
    return ProblemData(A=[[a]], B=[[b]], Q=[[q]], R=[[r]], Gamma=[[0.0]],
                       eta=[1.0], rho=1.0, x0=[1.0])


# Rejected inputs and the error class each solver must name.  The first
# input's mode is uncontrollable yet decays under the discount
# (0 <= lam < rho/2): a successful discounted Riccati solve alone would not
# reject it.
REJECTED = [
    ("slow_uncontrollable", scalar_problem(0.25, 0.0, 1.0, 1.0),
     StabilizabilityFailure),
    ("fast_uncontrollable", scalar_problem(2.0, 0.0, 1.0, 1.0),
     StabilizabilityFailure),
    ("shifted_axis", scalar_problem(0.5, 1.0, -1.0, 1.0),
     ImaginaryAxisEigenvalue),
    ("tiny_R", scalar_problem(-1.0, 1.0, 1.0, 1e-13), NonPositiveR),
    ("unstabilizable_and_tiny_R", scalar_problem(2.0, 0.0, 1.0, 1e-13),
     StabilizabilityFailure),
]


class TestRejectionVerdicts:
    @pytest.mark.parametrize("name,p,error", REJECTED,
                             ids=[case[0] for case in REJECTED])
    def test_solvers_name_the_cause(self, name, p, error):
        with pytest.raises(error):
            solve_sce(p)
        with pytest.raises(error):
            solve_mfg(p)

    @pytest.mark.parametrize("name,p,error", REJECTED,
                             ids=[case[0] for case in REJECTED])
    def test_cli_exit_2(self, capsys, tmp_path, name, p, error):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem_to_dict(p)))
        assert main(["solve-social", str(path)]) == 2
        assert capsys.readouterr().out == ""


class TestCostScaling:
    """``(Q, R) -> c (Q, R)`` scales `Pi` and `s0` by `c`.  A solver may
    still reject a scaled problem, but what it accepts must be right."""

    @pytest.mark.parametrize("name", ["ex41", "ex42_gamma005", "ex42_gamma2",
                                      "ex43"])
    @pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
    def test_accepted_solutions_scale(self, name, solver):
        p = load_problem_file(PROBLEM_DIR / f"{name}.json")
        try:
            base = solver(p)
        except MflqError:
            base = None
        for c in (1e-8, 1e4, 1e8):
            scaled = ProblemData(A=p.A, B=p.B, Q=c * p.Q, R=c * p.R,
                                 Gamma=p.Gamma, eta=p.eta, rho=p.rho, x0=p.x0)
            try:
                sol = solver(scaled)
            except MflqError:
                continue
            assert base is not None, f"c={c} solves a problem rejected at c=1"
            for got, want, tol in ((sol.Pi, base.Pi, 1e-6),
                                   (sol.s0, base.s0, 1e-5)):
                err = np.abs(got / c - want).max() / np.abs(want).max()
                assert err <= tol, f"c={c}: relative error {err:.3e}"


def outcome(solver, p):
    """``(solution, None)``, or ``(None, error class)`` if `solver` rejects `p`."""
    try:
        return solver(p), None
    except MflqError as exc:
        return None, type(exc)


class TestTimeScaling:
    """``(A, B, Q, R, rho) -> c (A, B, Q, R, rho)`` is the same problem in
    time units ``1/c`` times as long: the verdict, `Pi`, `X_plus` and `s0`
    are unchanged, and the trajectory at time ``t/c`` is the original's at
    time `t`."""

    @pytest.mark.parametrize("name", ["ex22_degenerate", "ex41",
                                      "ex42_gamma005", "ex42_gamma2", "ex43"])
    @pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
    def test_time_units_do_not_matter(self, name, solver):
        p = load_problem_file(PROBLEM_DIR / f"{name}.json")
        base, base_error = outcome(solver, p)
        t = np.linspace(0.0, 10.0, 101)
        if base is not None:
            ref = np.hstack(base.trajectory(t))
        for c in (2.0**-20, 1e-3, 0.25, 4.0, 1e3, 2.0**20):
            scaled = ProblemData(A=c * p.A, B=c * p.B, Q=c * p.Q, R=c * p.R,
                                 Gamma=p.Gamma, eta=p.eta, rho=c * p.rho,
                                 x0=p.x0)
            sol, error = outcome(solver, scaled)
            assert error is base_error, f"c={c}: {error} against {base_error}"
            if sol is None:
                continue
            pairs = [(sol.Pi, base.Pi), (sol.s0, base.s0)]
            if hasattr(base, "X_plus"):
                pairs.append((sol.X_plus, base.X_plus))
            for got, want in pairs:
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), c
            traj = np.hstack(sol.trajectory(t / c))
            assert np.abs(traj - ref).max() <= 1e-11 * np.abs(ref).max(), c

    @pytest.mark.parametrize("name", ["ex41", "ex43"])
    @pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
    def test_long_horizon_trajectory_is_finite(self, name, solver):
        # exp(rho t/2) overflows past t = 1420 at rho = 1; the trajectory
        # must not be formed as the decaying z(t) times that factor
        p = load_problem_file(PROBLEM_DIR / f"{name}.json")
        base = solver(p)
        c = 2.0**20
        scaled = solver(ProblemData(A=c * p.A, B=c * p.B, Q=c * p.Q,
                                    R=c * p.R, Gamma=p.Gamma, eta=p.eta,
                                    rho=c * p.rho, x0=p.x0))
        t = np.array([0.0, 1e-3, 1e-2, 1.0, 5.0, 20.0, 1419.0, 1420.0, 1e5])
        ref = np.hstack(base.trajectory(t))
        for traj in (ref, np.hstack(scaled.trajectory(t / c))):
            assert np.isfinite(traj).all()
            assert np.abs(traj - ref).max() <= 1e-11 * np.abs(ref).max()
