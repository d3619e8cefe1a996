import contextlib
import json

import numpy as np
import pytest

from conftest import (
    PROBLEM_DIR,
    cost_problem,
    degenerate_boundary_problem,
    indefinite_social_problem,
    random_problem,
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
from mflq.linalg import default_axis_tol, weighted_gram
from mflq.mfg import solve_mfg
from mflq.problem import ProblemData, gamma_weights, validate
from mflq.riccati import solve_discounted_are
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
        ("B", np.ones((2, 1, 1))),              # not a matrix
        ("D", np.ones((2, 1, 1))),              # not a matrix
        ("B", 1.0),                             # a scalar
        ("D", 1.0),                             # a scalar
    ])
    def test_bad_two_state_fields(self, field, value):
        base = dict(A=[[1.0, 0.0], [0.0, 1.0]], B=[[1.0], [1.0]],
                    Q=np.eye(2), R=np.eye(2) if field == "R" else [[1.0]],
                    Gamma=np.zeros((2, 2)), eta=[0.0, 0.0], rho=1.0,
                    x0=[0.0, 0.0])
        base[field] = value
        with pytest.raises(ValueError, match=field):
            ProblemData(**base)

    def test_huge_asymmetric_q_rejected(self):
        # the squares of these entries overflow; the symmetry test must not
        with pytest.raises(ValueError, match="Q is not symmetric"):
            ProblemData(A=np.eye(2), B=[[1.0], [1.0]],
                        Q=[[1e200, 1e200], [0.0, 1e200]], R=[[1.0]],
                        Gamma=np.zeros((2, 2)), eta=[0.0, 0.0], rho=1.0,
                        x0=[0.0, 0.0])

    def test_huge_symmetric_q_accepted(self):
        # warnings are errors in this suite, so an overflow would fail here
        q = [[1e200, -3e199], [-3e199, 2e200]]
        p = ProblemData(A=np.eye(2), B=[[1.0], [1.0]], Q=q, R=[[1.0]],
                        Gamma=np.zeros((2, 2)), eta=[0.0, 0.0], rho=1.0,
                        x0=[0.0, 0.0])
        np.testing.assert_array_equal(p.Q, q)
        tol = default_axis_tol(p.Q)
        assert np.isfinite(tol) and tol > 1e-9 * 2e200

    @pytest.mark.parametrize("field", ["B", "eta", "x0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, field, value):
        base = dict(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], Gamma=[[0.0]],
                    eta=[0.0], rho=1.0, x0=[0.0])
        base[field] = [value]
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries$"):
            ProblemData(**base)

    def test_no_controls_rejected(self):
        with pytest.raises(ValueError, match="B"):
            ProblemData(A=[[1.0]], B=np.zeros((1, 0)), Q=[[1.0]],
                        R=np.zeros((0, 0)), Gamma=[[0.0]], eta=[0.0],
                        rho=1.0, x0=[0.0])

    def test_no_state_rejected(self):
        # validate and the solvers would fail inside numpy and LAPACK
        with pytest.raises(ValueError, match="^A must have at least one row"):
            ProblemData(A=np.zeros((0, 0)), B=np.zeros((0, 1)), Q=np.zeros((0, 0)),
                        R=[[1.0]], Gamma=np.zeros((0, 0)), eta=[], x0=[], rho=1.0)

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, True,
                                     pytest.param(np.array([1.0]), id="array"), "1"])
    def test_bad_rho(self, rho):
        with pytest.raises(ValueError, match="rho"):
            scalar = scalar_social_problem()
            ProblemData(A=scalar.A, B=scalar.B, Q=scalar.Q, R=scalar.R,
                        Gamma=scalar.Gamma, eta=scalar.eta, rho=rho,
                        x0=scalar.x0)

    @pytest.mark.parametrize("rho", [2, np.array(2.0), np.float32(2.0)],
                             ids=["int", "0d_array", "float32"])
    def test_rho_is_stored_as_a_float(self, rho):
        s = scalar_social_problem()
        p = ProblemData(A=s.A, B=s.B, Q=s.Q, R=s.R, Gamma=s.Gamma, eta=s.eta,
                        rho=rho, x0=s.x0)
        assert type(p.rho) is float and p.rho == 2.0
        assert json.loads(json.dumps(problem_to_dict(p)))["rho"] == 2.0

    def test_control_gram(self):
        p = indefinite_social_problem()
        assert np.allclose(weighted_gram(p.B, p.R), np.ones((2, 2)))

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
        w = gamma_weights(cost_problem(q, np.zeros((2, 2)), eta))
        assert np.allclose(w.Q_Gamma, 0.0)
        assert np.allclose(w.eta_Gamma, q @ eta)

    def test_identity_coupling(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        w = gamma_weights(cost_problem(q, np.eye(2), [1.0, 2.0]))
        assert np.allclose(w.Q_Gamma, q)
        assert np.allclose(w.eta_Gamma, 0.0)

    def test_two_state_reference(self):
        p = indefinite_social_problem()
        w = gamma_weights(p)
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
            w = gamma_weights(cost_problem(q, gam, np.zeros(n)))
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


class TestOverflowingControlGram:
    """``B inv(R) B'`` overflows at ``B = 1e160``: validation reports it,
    the solvers name it, and neither warns first."""

    def problem(self):
        return ProblemData(A=[[1.0, 0.0], [0.0, -1.0]], B=[[1e160], [1e160]],
                           Q=np.eye(2), R=[[1.0]], Gamma=np.zeros((2, 2)),
                           eta=np.zeros(2), rho=1.0, x0=np.ones(2))

    def test_validate_reports_the_axis_check_failed(self):
        report = validate(self.problem())
        assert report.axis_ok is False and report.axis_margin is None
        assert "shifted_hamiltonian_axis" in report.failures()

    @pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
    def test_solvers_name_the_gram(self, solver):
        with pytest.raises(ValueError, match="B inv\\(R\\) B'"):
            solver(self.problem())

    def test_cli_exit_2(self, capsys, tmp_path):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(problem_to_dict(self.problem())))
        assert main(["solve-social", str(path)]) == 2
        assert "shifted_hamiltonian_axis" in capsys.readouterr().err


def _scalar_tracking_problem(a, b, rho=1.0):
    return ProblemData(A=[[a]], B=[[b]], Q=[[1.0]], R=[[1.0]], Gamma=[[0.3]],
                       eta=[1.0], rho=rho, x0=[1.0])


# Finite problems whose data overflow in library arithmetic, by the matrix
# that overflows: A - (rho/2) I, the social coupling Q_Gamma, the closed loop
# A_o - M X of the discounted solve, and the rescaled eigenvalues of A itself.
OVERFLOWS = {
    "shifted_drift": _scalar_tracking_problem(-1.7e308, 1.0, rho=1.7e308),
    "coupling": ProblemData(A=np.diag([0.5, -1.0]), B=[[1.0], [0.5]], Q=np.eye(2),
                            R=[[1.0]], Gamma=1e200 * np.eye(2), eta=np.ones(2),
                            rho=1.0, x0=np.ones(2)),
    "closed_loop": _scalar_tracking_problem(1e200, 1e-100),
    "huge_drift": _scalar_tracking_problem(1e308, 1.0),
}
# numpy's own warning where it overflows: in add_diag, or in Gamma' Q Gamma
ADD_OVERFLOW = "overflow encountered in add"
MATMUL_OVERFLOW = "overflow encountered in matmul"
CLI_COMMANDS = ["solve-social", "solve-game", "spectrum", "contraction"]


class TestOverflowFromFiniteData:
    """Each matrix that can overflow from finite, checked data is checked
    where it is built, with the ``ValueError`` of a malformed argument that
    names it; `validate` reports on every problem, the CLI exits 2, 3 or 4,
    never 1, and no warning comes first unless numpy's own overflow."""

    def test_shifted_drift(self):
        p = OVERFLOWS["shifted_drift"]  # -1.7e308 - 0.85e308 overflows in add_diag
        with pytest.warns(RuntimeWarning, match=ADD_OVERFLOW):
            report = validate(p)
        assert report.failures() == ["shifted_hamiltonian_axis"]
        assert report.axis_ok is False and report.axis_margin is None
        for solver in (solve_sce, solve_mfg):
            with pytest.warns(RuntimeWarning, match=ADD_OVERFLOW), \
                    pytest.raises(ValueError, match=r"^A - \(rho/2\) I overflows$"):
                solver(p)

    def test_coupling(self):
        # Q_Gamma = 2e200 I - 1e400 I overflows; the game's Q Gamma does not
        p = OVERFLOWS["coupling"]
        assert validate(p).ok
        with pytest.warns(RuntimeWarning, match=MATMUL_OVERFLOW), \
                pytest.raises(ValueError, match="^the coupling block overflows$"):
            solve_sce(p)
        with pytest.raises(ImaginaryAxisEigenvalue):
            solve_mfg(p)
        pi = solve_discounted_are(p).X
        with pytest.warns(RuntimeWarning, match=MATMUL_OVERFLOW), \
                pytest.raises(ValueError, match="^Q_Gamma has non-finite entries$"):
            contraction_bound(p, pi)

    def test_closed_loop(self):
        # X is about 2e400: the closed loop is refused before the residual
        # of the Riccati equation is formed from it, which would warn
        p = OVERFLOWS["closed_loop"]
        assert validate(p).failures() == ["stabilizability"]
        for solver in (solve_sce, solve_mfg):
            with pytest.raises(ValueError, match="^the closed loop A_o - M X overflows$"):
                solver(p)

    def test_huge_drift(self):
        # eigenvalues scales max |A| >= 2^1023 by 2^-1024, and back
        p = OVERFLOWS["huge_drift"]
        report = validate(p)
        assert report.failures() == ["stabilizability"]
        assert report.stabilizability_margin == 1e-308
        for solver in (solve_sce, solve_mfg):
            with pytest.raises(StabilizabilityFailure, match="margin 1.000e-308"):
                solver(p)

    @pytest.mark.parametrize("name,codes,warnings,needle", [
        ("shifted_drift", [2, 2, 2, 2], [ADD_OVERFLOW] * 4, "shifted_hamiltonian_axis"),
        ("coupling", [4, 3, 4, 4], [MATMUL_OVERFLOW, None, MATMUL_OVERFLOW, MATMUL_OVERFLOW],
         "the coupling block overflows"),
        ("closed_loop", [2, 2, 2, 2], [None] * 4, "stabilizability (margins: PBH 1.000e-300"),
        ("huge_drift", [2, 2, 2, 2], [None] * 4, "stabilizability (margins: PBH 1.000e-308"),
    ], ids=["shifted_drift", "coupling", "closed_loop", "huge_drift"])
    def test_cli_exit_codes(self, capsys, tmp_path, name, codes, warnings, needle):
        # the exit codes of CLI_COMMANDS in order, and the cause on stderr
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem_to_dict(OVERFLOWS[name])))
        got = []
        for command, warning in zip(CLI_COMMANDS, warnings):
            with (pytest.warns(RuntimeWarning, match=warning) if warning
                  else contextlib.nullcontext()):
                got.append(main([command, str(path)]))
        assert got == codes
        assert needle in capsys.readouterr().err


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


def units_scaled(p, c):
    """`p` in control units ``1/c`` times as large: ``(B, R) -> (c B, c^2 R)``."""
    return ProblemData(A=p.A, B=c * p.B, Q=p.Q, R=c * c * p.R, Gamma=p.Gamma,
                       eta=p.eta, rho=p.rho, x0=p.x0)


class TestControlUnits:
    """``(B, R) -> (c B, c^2 R)`` leaves ``B inv(R) B'``, and with it the
    verdict, `Pi`, `s0` and the trajectory, unchanged: bit for bit at
    ``c = 2^k``, since :func:`linalg.weighted_gram` scales by powers of two."""

    @pytest.mark.parametrize("name", ["ex22_degenerate", "ex41",
                                      "ex42_gamma005", "ex42_gamma2", "ex43"])
    @pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
    def test_power_of_two_units_are_exact(self, name, solver):
        p = load_problem_file(PROBLEM_DIR / f"{name}.json")
        base, base_error = outcome(solver, p)
        t = np.linspace(0.0, 10.0, 101)
        if base is not None:
            ref = np.hstack(base.trajectory(t))
        for k in range(-8, 9):
            sol, error = outcome(solver, units_scaled(p, 2.0**k))
            assert error is base_error, k
            if sol is None:
                continue
            assert np.array_equal(sol.Pi, base.Pi), k
            assert np.array_equal(sol.s0, base.s0), k
            assert np.array_equal(np.hstack(sol.trajectory(t)), ref), k

    @pytest.mark.xfail(raises=NonPositiveR, strict=True,
                       reason="R * 1e-12 falls below the absolute definiteness "
                              "threshold 1e-10 * max(||R||, 1) (ROADMAP items 7 and 15)")
    @pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
    def test_micro_units_are_solved(self, solver):
        p = load_problem_file(PROBLEM_DIR / "ex41.json")
        base = solver(p)
        sol = solver(units_scaled(p, 1e-6))
        for got, want in ((sol.Pi, base.Pi), (sol.s0, base.s0)):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def state_transformed(p, s):
    """`p` in the state coordinates ``y = S x``: ``A -> S A inv(S)``,
    ``B -> S B``, ``Q -> inv(S)' Q inv(S)``, ``Gamma -> S Gamma inv(S)``,
    ``eta -> S eta`` and ``x0 -> S x0``."""
    s_inv = np.linalg.inv(s)
    q = s_inv.T @ p.Q @ s_inv
    return ProblemData(A=s @ p.A @ s_inv, B=s @ p.B, Q=0.5 * (q + q.T), R=p.R,
                       Gamma=s @ p.Gamma @ s_inv, eta=s @ p.eta, rho=p.rho,
                       x0=s @ p.x0)


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _shifted_gaussian(rng, n):
    return rng.standard_normal((n, n)) + 3.0 * np.eye(n)


def _powers_of_two(rng, n):
    return np.diag(2.0 ** rng.integers(-6, 7, size=n))


def _similarity_problems():
    shipped = [load_problem_file(path) for path in sorted(PROBLEM_DIR.glob("*.json"))]
    rng = np.random.default_rng(7)
    return shipped + [random_problem(rng, max_n=4) for _ in range(60)]


class TestStateSimilarity:
    """``x -> S x`` is the same problem in other state coordinates: the
    verdict is unchanged, ``Pi -> inv(S)' Pi inv(S)`` and the costate offset
    ``s0 -> inv(S)' s0``.  Checked back in the original coordinates, as
    ``S' Pi_S S`` against `Pi` and ``S' s0_S`` against `s0`, relative to
    their largest entries."""

    @pytest.fixture(scope="class")
    def problems(self):
        return _similarity_problems()

    @pytest.mark.parametrize("similarity,tol", [(_orthogonal, 1e-10),
                                                (_shifted_gaussian, 1e-10),
                                                (_powers_of_two, 1e-8)])
    @pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
    def test_state_coordinates_do_not_matter(self, problems, solver, similarity, tol):
        rng = np.random.default_rng(11)
        solved = 0
        for i, p in enumerate(problems):
            s = similarity(rng, p.n)
            base, base_error = outcome(solver, p)
            sol, error = outcome(solver, state_transformed(p, s))
            assert error is base_error, i
            if sol is None:
                continue
            solved += 1
            for got, want in ((s.T @ sol.Pi @ s, base.Pi), (s.T @ sol.s0, base.s0)):
                assert np.abs(got - want).max() <= tol * np.abs(want).max(), i
        assert solved > len(problems) // 2


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
