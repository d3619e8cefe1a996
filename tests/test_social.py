import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PROBLEM_DIR,
    data_only_matrix,
    degenerate_boundary_problem,
    forget_front_end,
    indefinite_social_problem,
    multiset_close,
    random_problem,
    scalar_social_problem,
    scaled_close,
)
from mflq.errors import (ImaginaryAxisEigenvalue, MflqError, NonPositiveR,
                         StabilizabilityFailure)
from mflq import riccati
from mflq.cli import load_problem_file, main
from mflq.linalg import eigenvalues, fro, spectral_abscissa, weighted_gram
from mflq.mfg import MfgSolution, solve_mfg
from mflq.problem import ProblemData, gamma_weights
from mflq.riccati import consistency_matrix, solve_discounted_are, stabilizability_margin
from mflq.social import (
    SceSolution,
    decentralized_strategy,
    sce_residual,
    solve_sce,
)


class TestBuildHamiltonian:
    def test_scalar_reference(self, scalar_social):
        are = solve_discounted_are(scalar_social)
        h = consistency_matrix(are, gamma_weights(scalar_social)[0])
        root = np.sqrt(4.25)
        assert np.allclose(h, [[-root, -1.0], [2.0, root]], atol=1e-9)

    def test_structure_oracle(self):
        # J @ H is symmetric for every valid instance
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_problem(rng)
            are = solve_discounted_are(p)
            h = consistency_matrix(are, gamma_weights(p)[0])
            n = p.n
            j = np.block([[np.zeros((n, n)), np.eye(n)],
                          [-np.eye(n), np.zeros((n, n))]])
            jh = j @ h
            assert np.linalg.norm(jh - jh.T, "fro") <= 1e-10 * (
                1.0 + np.linalg.norm(jh, "fro")
            )


class TestSolveSce:
    def test_pbh_tests_only_name_failures(self, monkeypatch):
        # a Hurwitz A - M Pi proves (A, B) stabilizable, so an accepted solve
        # runs no PBH test; a closed loop with a mode at Re >= 0 is tested
        # once, as (A - M Pi, B), and not again by the other solver, which
        # reuses the certified front end; a rejection runs at least one to
        # name it, on every call
        calls = []

        def counted(a, b):
            calls.append(a)
            return stabilizability_margin(a, b)

        monkeypatch.setattr(riccati, "stabilizability_margin", counted)
        rng = np.random.default_rng(41)
        seen = set()
        for _ in range(12):
            p = random_problem(rng)  # draws until validate accepts
            for first, second in ((solve_sce, solve_mfg), (solve_mfg, solve_sce)):
                forget_front_end()
                calls.clear()
                sol = first(p)
                closed = p.A - weighted_gram(p.B, p.R) @ sol.Pi
                hurwitz = spectral_abscissa(closed) < 0.0
                assert len(calls) == (0 if hurwitz else 1)
                assert all(np.allclose(a, closed) for a in calls)
                assert second(p).Pi is sol.Pi
                assert len(calls) == (0 if hurwitz else 1)
                seen.add(hurwitz)
        assert seen == {True, False}
        for p in (ProblemData(A=[[0.25]], B=[[0.0]], Q=[[1.0]], R=[[1.0]],
                              Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0]),
                  ProblemData(A=[[2.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]],
                              Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0]),
                  ProblemData(A=[[0.5]], B=[[1.0]], Q=[[-1.0]], R=[[1.0]],
                              Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0])):
            for solver in (solve_sce, solve_mfg):
                calls.clear()
                with pytest.raises(MflqError):
                    solver(p)
                assert len(calls) >= 1

    def test_one_pbh_test_per_cli_solve(self, monkeypatch):
        # validate's; the solve itself certifies by its closed loop
        calls = []

        def counted(a, b):
            calls.append(a)
            return stabilizability_margin(a, b)

        monkeypatch.setattr(riccati, "stabilizability_margin", counted)
        assert main(["solve-social", str(PROBLEM_DIR / "ex42_gamma2.json")]) == 0
        assert len(calls) == 1

    def test_scalar_reference_case(self, scalar_social):
        sol = solve_sce(scalar_social)
        root = np.sqrt(4.25)
        assert sol.Pi[0, 0] == pytest.approx(1.5 + root, abs=1e-9)
        assert sol.X_plus[0, 0] == pytest.approx(1.5 - root, abs=1e-9)
        assert sol.A_C[0, 0] == pytest.approx(-1.5, abs=1e-9)
        # the mean field evolves by A_C + (rho/2) I, the generator's leading block
        assert sol.bvp.y1_generator[0, 0] == pytest.approx(-1.0, abs=1e-9)
        assert sol.bvp.y2_offset[0] == pytest.approx(0.0, abs=1e-12)
        assert sol.s0[0] == pytest.approx(1.5 - root, abs=1e-9)
        # s0 = X_plus x0 + offset
        assert sol.s0[0] == pytest.approx(
            (sol.X_plus @ scalar_social.x0 + sol.bvp.y2_offset)[0], abs=1e-12
        )

    def test_scalar_trajectory(self, scalar_social):
        sol = solve_sce(scalar_social)
        t = np.linspace(0.0, 5.0, 501)
        xbar, s = sol.trajectory(t)
        assert np.abs(xbar[:, 0] - np.exp(-t)).max() <= 1e-9
        assert np.abs(s[:, 0] - sol.s0[0] * np.exp(-t)).max() <= 1e-9

    def test_zero_data_zero_solution(self):
        p = ProblemData(A=[[-0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[0.0], rho=1.0, x0=[0.0])
        sol = solve_sce(p)
        assert np.allclose(sol.s0, 0.0, atol=1e-14)
        xbar, s = sol.trajectory(np.linspace(0, 5, 50))
        assert np.abs(xbar).max() <= 1e-14
        assert np.abs(s).max() <= 1e-14

    def test_degenerate_boundary_raises(self):
        with pytest.raises(ImaginaryAxisEigenvalue):
            solve_sce(degenerate_boundary_problem())

    def test_unstabilizable_raises(self):
        p = ProblemData(A=[[1.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0])
        with pytest.raises(StabilizabilityFailure):
            solve_sce(p)

    def test_bad_r_raises(self):
        p = ProblemData(A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1e-13]],
                        Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0])
        with pytest.raises(NonPositiveR):
            solve_sce(p)

    def test_affine_manifold_along_trajectory(self):
        rng = np.random.default_rng(55)
        t = np.linspace(0.0, 8.0, 81)
        for _ in range(6):
            p = random_problem(rng)
            sol = solve_sce(p)
            xbar, s = sol.trajectory(t)
            recon = xbar @ sol.X_plus.T + sol.bvp.y2_offset
            assert scaled_close(s, recon, 1e-9)

    def test_nonpositive_coupling_class_always_solves(self):
        # coupling weight <= 0 with a stable shifted drift: the dichotomy
        # is guaranteed, so the solve must never hit the axis
        rng = np.random.default_rng(66)
        for _ in range(10):
            p = random_problem(rng, coupling="nonpositive", axis_margin=0.0)
            assert np.linalg.eigvalsh(gamma_weights(p)[0]).max() <= 1e-10
            sol = solve_sce(p)
            assert spectral_abscissa(sol.A_C) < 0.0

    def test_growth_class_membership(self):
        # the discounted trajectory norm, re-weighted by exp(rho t/4), stays
        # bounded and decreases past a short non-normal transient
        for p in (scalar_social_problem(), indefinite_social_problem()):
            sol = solve_sce(p)
            t = np.linspace(0.0, 20.0, 401)
            xbar, s = sol.trajectory(t)
            z = np.hstack([xbar, s]) * np.exp(-0.5 * p.rho * t)[:, None]
            weighted = np.linalg.norm(z, axis=1) * np.exp(0.25 * p.rho * t)
            peak = int(weighted.argmax())
            assert t[peak] <= 5.0
            assert (np.diff(weighted[peak:]) <= 1e-9).all()
            assert weighted[-1] <= 0.05 * weighted[0]

    def test_scalar_spectral_law(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 30:
            a = float(rng.uniform(-2, 2))
            b = float(rng.uniform(0.3, 2.0))
            q = float(rng.uniform(0.1, 3.0))
            r = float(rng.uniform(0.3, 2.0))
            rho = float(rng.uniform(0.5, 2.0))
            gam = float(rng.uniform(-1.0, 3.0))
            a_rho = a - rho / 2.0
            target = a_rho**2 + q * (b * b / r) * (1.0 - gam) ** 2
            p = ProblemData(A=[[a]], B=[[b]], Q=[[q]], R=[[r]],
                            Gamma=[[gam]], eta=[0.0], rho=rho, x0=[1.0])
            are = solve_discounted_are(p)
            h = consistency_matrix(are, gamma_weights(p)[0])
            lam = eigenvalues(h)
            assert scaled_close(lam[0] ** 2, target, 1e-9)
            assert scaled_close(lam[1] ** 2, target, 1e-9)
            done += 1


class TestDataOnlyMatrix:
    # ROADMAP item 3: the Riccati transform [[I, 0], [Pi, I]] takes
    # G_social = data_only_matrix(p, Q_Gamma), the discounted Hamiltonian of
    # the weight (I - Gamma)' Q (I - Gamma), to H.  On these draws the
    # identity held to 1.1e-9 relative (median 9.0e-16) and the spectra to
    # 1.9e-10; the tolerances leave a margin over both.
    def test_pi_plus_x_plus_is_p_gamma(self, random_draws):
        for i, p in enumerate(random_draws):
            sol = solve_sce(p)
            g = data_only_matrix(p, gamma_weights(p)[0])
            p_gamma = riccati.solve_care_stabilizing(g).Y
            assert fro(sol.Pi + sol.X_plus - p_gamma) <= 1e-8 * fro(p_gamma), i
            assert multiset_close(eigenvalues(sol.decomposition.K), eigenvalues(g), 1e-8), i


class TestSolutionRecord:
    def test_stores_no_copies(self):
        # X_plus and A_C are read from the decomposition, not stored beside it
        rng = np.random.default_rng(21)
        problems = [load_problem_file(PROBLEM_DIR / "ex41.json")]
        problems += [random_problem(rng) for _ in range(4)]
        for p in problems:
            sol = solve_sce(p)
            assert sol.A_C is sol.decomposition.F11
            assert sol.X_plus is sol.decomposition.Y

    def test_fields_are_the_game_records(self):
        names = [f.name for f in dataclasses.fields(SceSolution)]
        assert names == [f.name for f in dataclasses.fields(MfgSolution)]

    @pytest.mark.parametrize("solve", [solve_sce, solve_mfg])
    def test_fields_cannot_be_assigned(self, solve):
        sol = solve(load_problem_file(PROBLEM_DIR / "ex43.json"))
        for f in dataclasses.fields(sol):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sol, f.name, getattr(sol, f.name))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_zero_coupling_makes_the_two_systems_one(self, seed):
        # with Gamma = 0 both consistency matrices are [[F, -M], [0, -F']],
        # F = A - M Pi - (rho/2) I, and both forcings are Q eta: one system
        p = random_problem(np.random.default_rng(seed), max_n=6)
        p = dataclasses.replace(p, Gamma=np.zeros((p.n, p.n)))
        outcomes = []
        for solve in (solve_sce, solve_mfg):
            try:
                outcomes.append(solve(p))
            except MflqError as exc:
                outcomes.append(type(exc))
        social, game = outcomes
        if isinstance(social, type) or isinstance(game, type):
            assert social is game
            return
        assert np.array_equal(social.Pi, game.Pi)
        assert np.array_equal(social.decomposition.K, game.decomposition.K)
        grid = np.linspace(0.0, 5.0, 51)
        pairs = [(social.s0, game.s0),
                 *zip(social.trajectory(grid), game.trajectory(grid))]
        for a, b in pairs:
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


class TestDecentralizedStrategy:
    def test_scalar_gain(self, scalar_social):
        sol = solve_sce(scalar_social)
        strat = decentralized_strategy(sol, scalar_social)
        assert strat.K_x[0, 0] == pytest.approx(-(1.5 + np.sqrt(4.25)), abs=1e-9)
        ff = sol.trajectory(np.array([0.0]))[1] @ strat.feedforward_gain.T
        assert ff[0, 0] == pytest.approx(-sol.s0[0], abs=1e-12)

    def test_zero_b_gives_zero_gain(self):
        p = ProblemData(A=[[-1.0]], B=[[0.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[1.0], rho=1.0, x0=[1.0])
        sol = solve_sce(p)
        strat = decentralized_strategy(sol, p)
        assert strat.K_x.shape == (1, 1)
        assert np.allclose(strat.K_x, 0.0)

    def test_pure_feedback_when_offsets_vanish(self):
        p = ProblemData(A=[[-0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[0.0], rho=1.0, x0=[0.0])
        sol = solve_sce(p)
        strat = decentralized_strategy(sol, p)
        ff = sol.trajectory(np.linspace(0.0, 3.0, 10))[1] @ strat.feedforward_gain.T
        assert np.abs(ff).max() <= 1e-13


class TestSceResidual:
    def test_scalar_grid(self, scalar_social):
        sol = solve_sce(scalar_social)
        assert sce_residual(sol, scalar_social, np.arange(0.0, 5.0, 1e-3)) <= 1e-4

    def test_two_state_grid(self, indefinite_social):
        sol = solve_sce(indefinite_social)
        t = np.arange(0.0, 5.0, 1e-3)
        xbar, s = sol.trajectory(t)
        scale = max(np.abs(xbar).max(), np.abs(s).max(), 1.0)
        assert sce_residual(sol, indefinite_social, t) <= 1e-3 * scale

    def test_zero_solution(self):
        p = ProblemData(A=[[-0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.5]], eta=[0.0], rho=1.0, x0=[0.0])
        sol = solve_sce(p)
        assert sce_residual(sol, p, np.arange(0.0, 1.0, 1e-3)) == 0.0

    def test_zero_step_rejected(self, scalar_social):
        # the grid is uniform, but a central difference over it divides by 0
        sol = solve_sce(scalar_social)
        with pytest.raises(ValueError, match="positive step"):
            sce_residual(sol, scalar_social, np.zeros(3))

    def test_two_points_rejected(self, scalar_social):
        # a central difference needs a point on each side
        sol = solve_sce(scalar_social)
        with pytest.raises(ValueError, match="^need at least three grid points$"):
            sce_residual(sol, scalar_social, np.array([0.0, 0.1]))

    def test_nonuniform_grid_rejected(self, scalar_social):
        sol = solve_sce(scalar_social)
        with pytest.raises(ValueError):
            sce_residual(sol, scalar_social, np.array([0.0, 0.1, 0.3]))
