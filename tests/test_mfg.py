import numpy as np
import pytest

from conftest import PROBLEM_DIR, game_problem, random_problem, scaled_close
from mflq import linalg, social
from mflq.cli import load_problem_file
from mflq.errors import DichotomySplitFailure, ImaginaryAxisEigenvalue, MflqError
from mflq.mfg import build_mfg_matrix, solve_mfg
from mflq.problem import ProblemData, gamma_weights
from mflq.riccati import solve_discounted_are
from mflq.social import build_hamiltonian, solve_sce


class TestBuildMfgMatrix:
    def test_zero_coupling_matches_social_matrix(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, coupling="zero")
        are = solve_discounted_are(p.A, p.B, p.Q, p.R, p.rho)
        m_mfg = build_mfg_matrix(p, are)
        h = build_hamiltonian(are, gamma_weights(p.Q, p.Gamma, p.eta))
        assert np.allclose(m_mfg, h, atol=1e-12)

    def test_generally_not_hamiltonian(self):
        # with a generic coupling matrix, J @ M is not symmetric
        rng = np.random.default_rng(9)
        found_asymmetric = 0
        for _ in range(5):
            p = random_problem(rng, max_n=3)
            if p.n < 2:
                continue
            are = solve_discounted_are(p.A, p.B, p.Q, p.R, p.rho)
            m_mfg = build_mfg_matrix(p, are)
            n = p.n
            j = np.block([[np.zeros((n, n)), np.eye(n)],
                          [-np.eye(n), np.zeros((n, n))]])
            jm = j @ m_mfg
            if np.linalg.norm(jm - jm.T, "fro") > 1e-6:
                found_asymmetric += 1
        assert found_asymmetric > 0

    def test_lower_left_block_is_plain_product(self):
        p = game_problem()
        are = solve_discounted_are(p.A, p.B, p.Q, p.R, p.rho)
        m_mfg = build_mfg_matrix(p, are)
        assert np.allclose(m_mfg[2:, :2], p.Q @ p.Gamma)


class TestSolveMfg:
    def test_reference_game(self, game_case):
        sol = solve_mfg(game_case)
        assert np.allclose(sol.s0, [2.31075, -4.11538], atol=1e-3)
        lam = np.sort(np.linalg.eigvals(sol.M_mfg).real)
        assert np.allclose(lam, [-8.9356, -2.0950, 1.7783, 9.2522], atol=1e-3)
        assert sol.decomposition.U11_condition <= 1e12

    def test_u11_condition_estimates_the_one_norm_condition(self):
        # dgecon's estimate is a lower bound, and within a small factor
        rng = np.random.default_rng(31)
        solved = 0
        while solved < 20:
            p = random_problem(rng, max_n=6)
            try:
                d = solve_mfg(p).decomposition
            except MflqError:
                continue
            solved += 1
            exact = np.linalg.cond(d.U[:p.n, :p.n], 1)
            assert exact / 3.0 <= d.U11_condition <= exact * (1.0 + 1e-10)

    def test_zero_coupling_coincides_with_social(self):
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, 5.0, 51)
        for _ in range(6):
            p = random_problem(rng, coupling="zero")
            social = solve_sce(p)
            game = solve_mfg(p)
            assert scaled_close(social.s0, game.s0, 1e-9)
            xs, ss = social.trajectory(t)
            xg, sg = game.trajectory(t)
            assert scaled_close(xs, xg, 1e-9)
            assert scaled_close(ss, sg, 1e-9)

    def test_zero_data_zero_initial(self):
        p = ProblemData(A=[[-0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.3]], eta=[0.0], rho=1.0, x0=[0.0])
        sol = solve_mfg(p)
        assert np.allclose(sol.s0, 0.0, atol=1e-14)

    def test_degenerate_boundary_raises(self):
        # full tracking boundary case: coupling matrix loses the dichotomy
        p = ProblemData(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[1.0]], eta=[1.0], rho=1.0, x0=[1.0])
        with pytest.raises((ImaginaryAxisEigenvalue, DichotomySplitFailure)):
            solve_mfg(p)

    def test_ode_residual_along_trajectory(self, game_case):
        p = game_case
        sol = solve_mfg(p)
        h = 1e-4
        t = np.arange(0.0, 3.0, h)
        xbar, s = sol.trajectory(t)
        m = p.control_gram()
        rhs_x = xbar @ (p.A - m @ sol.Pi).T - s @ m.T
        rhs_s = (xbar @ (p.Q @ p.Gamma).T
                 + s @ (p.rho * np.eye(p.n) - p.A.T + sol.Pi @ m).T
                 + p.Q @ p.eta)
        fd_x = (xbar[2:] - xbar[:-2]) / (2.0 * h)
        fd_s = (s[2:] - s[:-2]) / (2.0 * h)
        scale = max(np.abs(xbar).max(), np.abs(s).max(), 1.0) \
            * (1.0 + np.linalg.norm(sol.M_mfg))
        assert np.abs(fd_x - rhs_x[1:-1]).max() <= 1e-5 * scale
        assert np.abs(fd_s - rhs_s[1:-1]).max() <= 1e-5 * scale

    def test_initial_condition_reproduces_x0(self, game_case):
        sol = solve_mfg(game_case)
        xbar, s = sol.trajectory(np.array([0.0]))
        assert np.allclose(xbar[0], game_case.x0, atol=1e-12)
        assert np.allclose(s[0], sol.s0, atol=1e-12)


@pytest.mark.parametrize("solve", [solve_sce, solve_mfg])
def test_one_cholesky_of_r_per_solve(monkeypatch, solve):
    # the discounted solve forms B inv(R) B' once, and the consistency
    # matrix is built from what it returned
    calls = []
    real = linalg.solve_spd

    def counting(a, b):
        calls.append(a)
        return real(a, b)

    monkeypatch.setattr(linalg, "solve_spd", counting)
    monkeypatch.setattr(social, "solve_spd", counting)
    solve(game_problem())
    assert len(calls) == 1


@pytest.mark.parametrize("solve,count", [(solve_mfg, 3), (solve_sce, 3)])
def test_lu_factorizations_per_solve(monkeypatch, solve, count):
    # the game splits through decompose_from_schur and solves for y1(0) on
    # the factors of U11 it kept; the social transform's U11 is the identity,
    # whose factors are built, not computed
    calls = []
    real = linalg.dgetrf

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "dgetrf", counting)
    solve(load_problem_file(PROBLEM_DIR / "ex43.json"))
    assert len(calls) == count


def direct_s0(sol, p):
    """Initial adjoint from the transform blocks: with ``ratio = U21 inv(U11)``,
    ``s0 = ratio x0 + (ratio U12 - U22) inv(F22 + rho/2 I) V22 Q eta``."""
    n = p.n
    d = sol.decomposition
    u11, u12 = d.U[:n, :n], d.U[:n, n:]
    u21, u22 = d.U[n:, :n], d.U[n:, n:]
    ratio = np.linalg.solve(u11.T, u21.T).T
    integral = np.linalg.solve(d.F22 + 0.5 * p.rho * np.eye(n),
                               d.V[n:, n:] @ (p.Q @ p.eta))
    return ratio @ p.x0 + (ratio @ u12 - u22) @ integral


class TestS0Oracle:
    """The shared decaying solve against the direct initial-value formula."""

    @staticmethod
    def assert_matches(sol, p):
        drift = np.abs(sol.s0 - direct_s0(sol, p)).max()
        assert drift <= 1e-8 * (1.0 + np.abs(sol.s0).max())

    def test_reference_game(self, game_case):
        self.assert_matches(solve_mfg(game_case), game_case)

    def test_random_games(self):
        rng = np.random.default_rng(31)
        solved = 0
        for _ in range(20):
            p = random_problem(rng)
            try:
                sol = solve_mfg(p)
            except MflqError:
                continue
            self.assert_matches(sol, p)
            solved += 1
        assert solved >= 15
