import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from conftest import (PROBLEM_DIR, decaying_trajectory, graph_decomposition,
                      graph_transform, growing_mean_field_problem, random_spectrum_matrix)
from mflq import ProblemData, dichotomy
from mflq.cli import load_problem_file
from mflq.dichotomy import (
    decompose_from_riccati,
    decompose_from_schur,
    evaluate_trajectory,
    solve_decaying,
    uniform_grid,
)
from mflq.errors import (DichotomySplitFailure, GraphSubspaceFailure,
                         ImaginaryAxisEigenvalue, MflqError, SingularMatrix)
from mflq.linalg import (CONDITION_LIMIT, add_diag, block_2x2, block_balance, eigenvalues,
                         lu_factor, lu_solve, mat_exp, real_schur_ordered,
                         spectral_abscissa)
from mflq.mfg import solve_mfg
from mflq.riccati import solve_care_stabilizing
from mflq.social import solve_sce


def random_dichotomy_instance(rng, max_n=3):
    """Splittable matrix, its decomposition, and random problem data."""
    n = int(rng.integers(1, max_n + 1))
    k, _, _ = random_spectrum_matrix(rng, n, n)
    d = graph_decomposition(k)
    rho = float(rng.uniform(0.6, 1.6))
    z1_0 = rng.standard_normal(n)
    psi0 = rng.standard_normal(2 * n)
    return d, z1_0, psi0, rho


def _random_solution(rng):
    d, z1_0, psi0, rho = random_dichotomy_instance(rng)
    return d, solve_decaying(d, z1_0, psi0, rho), rho


def _count_mat_exp(monkeypatch):
    """Record every exponential taken by the trajectory sampler."""
    calls = []

    def counted(a):
        calls.append(a)
        return mat_exp(a)

    monkeypatch.setattr(dichotomy, "mat_exp", counted)
    return calls


def scalar_aux_hamiltonian():
    """``[[a, -1], [2, -a]]`` with ``a = -sqrt(4.25)``: its auxiliary Riccati
    equation ``2 a X - X^2 - 2 = 0`` has the stabilizing root
    ``X = a + 1.5`` with closed loop ``a - X = -1.5``."""
    a_shift = -np.sqrt(4.25)
    return block_2x2(np.array([[a_shift]]), -1.0, 2.0, -a_shift), a_shift + 1.5


class TestDecomposeFromRiccati:
    def test_scalar_reference(self):
        k, x_plus = scalar_aux_hamiltonian()
        d = solve_care_stabilizing(k)
        assert np.allclose(d.Y, [[x_plus]])
        assert d.F11[0, 0] == pytest.approx(-1.5, abs=1e-12)
        assert graph_transform(d)[2][0, 1] == -1.0
        assert d.F22[0, 0] == pytest.approx(1.5, abs=1e-12)
        assert d.K is k

    def test_zero_solution_identity_transform(self):
        a = np.array([[-1.0, 0.3], [0.0, -2.0]])
        k = block_2x2(a, -np.eye(2), 0.0, -a.T)
        d = solve_care_stabilizing(k)
        assert np.allclose(d.Y, 0.0)
        assert np.allclose(d.F11, a)
        assert np.allclose(d.F22, -a.T)

    def test_unstable_closed_loop_rejected(self):
        # K = U T inv(U) with U = [[I, 0], [X, I]] and a non-symmetric X:
        # the stable subspace of K is the graph of X, but its symmetrized
        # part gives the closed loop diag(0.4, -0.6), so no aux is certified
        x = np.array([[1.0, 0.5], [-0.5, 1.0]])
        f12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = np.block([[-0.1 * np.eye(2), f12], [np.zeros((2, 2)), np.eye(2)]])
        u = block_2x2(np.eye(2), 0.0, x, np.eye(2))
        k = u @ t @ block_2x2(np.eye(2), 0.0, -x, np.eye(2))
        with pytest.raises(GraphSubspaceFailure, match="closed-loop margin -"):
            solve_care_stabilizing(k)

    def test_non_solution_rejected(self):
        # K = U T inv(U) is not Hamiltonian: its stable subspace is the graph
        # of a non-symmetric X, and the symmetrized graph, whose closed loop
        # diag(-1.5, -2.5) is stable, does not solve the Riccati equation of
        # the blocks of K
        x = np.array([[1.0, 0.5], [-0.5, 1.0]])
        f12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = np.block([[-2.0 * np.eye(2), f12], [np.zeros((2, 2)), np.eye(2)]])
        u = block_2x2(np.eye(2), 0.0, x, np.eye(2))
        k = u @ t @ block_2x2(np.eye(2), 0.0, -x, np.eye(2))
        with pytest.raises(GraphSubspaceFailure, match="failed certification"):
            solve_care_stabilizing(k)

    def test_block_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            a = rng.standard_normal((n, n)) - 1.5 * np.eye(n)
            c = rng.standard_normal((n, n))
            m = c @ c.T
            g = rng.standard_normal((n, n))
            k = block_2x2(a, -m, 0.5 * (g + g.T), -a.T)
            try:
                d = solve_care_stabilizing(k)
            except ImaginaryAxisEigenvalue:
                continue
            u, v, tri = graph_transform(d)
            nrm = np.linalg.norm(d.K, "fro")
            assert np.linalg.norm(v @ u - np.eye(2 * n), "fro") <= 1e-8 * 2 * n
            assert np.linalg.norm(v @ d.K @ u - tri, "fro") <= 1e-6 * (1.0 + nrm)
            assert spectral_abscissa(d.F11) < 0.0
            assert spectral_abscissa(-d.F22) < 0.0


class TestDecomposeFromSchur:
    def test_diagonal_already_split(self):
        d = graph_decomposition(np.diag([-1.0, -2.0, 3.0, 4.0]))
        lam = np.sort(eigenvalues(d.F11).real)
        assert np.allclose(lam, [-2.0, -1.0])
        assert np.allclose(d.Y, 0.0, atol=1e-12)

    def test_constructed_spectrum_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            k, stable_eigs, _ = random_spectrum_matrix(rng, n, n)
            d = graph_decomposition(k)
            got = np.sort_complex(eigenvalues(d.F11))
            want = np.sort_complex(np.array(stable_eigs))
            assert np.allclose(got, want, atol=1e-8 * (1 + np.abs(want).max()))

    def test_axis_eigenvalue(self):
        with pytest.raises(ImaginaryAxisEigenvalue):
            decompose_from_schur(np.diag([0.0, 1.0]))

    def test_split_failure(self):
        with pytest.raises(DichotomySplitFailure):
            decompose_from_schur(np.diag([-1.0, -2.0, -3.0, 4.0]))

    def test_graph_subspace_failure(self):
        # stable direction is the second axis: leading block of U is 0
        with pytest.raises(GraphSubspaceFailure):
            decompose_from_schur(np.diag([1.0, -1.0]))

    def test_invariants(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            k, _, _ = random_spectrum_matrix(rng, n, n)
            d = graph_decomposition(k)
            u, v, tri = graph_transform(d)
            assert np.linalg.norm(v @ u - np.eye(2 * n), "fro") <= 1e-8 * 2 * n
            assert np.linalg.norm(v @ d.K @ u - tri, "fro") <= \
                1e-7 * np.linalg.norm(d.K, "fro")


    @pytest.mark.parametrize("e", [-40, 30])
    def test_balanced_transform(self, e):
        # off-diagonal blocks 2^e apart: Y is c times the graph of the
        # balanced matrix's Schur vectors, exactly, and the transform
        # reduces the balanced matrix diag(I, I/c) K diag(I, cI)
        rng = np.random.default_rng(28)
        n = 2
        k, _, _ = random_spectrum_matrix(rng, n, n)
        k[n:, :n] *= 2.0**e
        y = decompose_from_schur(k)
        c = 2.0**round(0.5 * np.log2(np.linalg.norm(k[n:, :n])
                                     / np.linalg.norm(k[:n, n:])))
        _, w, _ = real_schur_ordered(block_balance(k)[0])
        lu, piv, _ = lu_factor(w[:n, :n])
        assert np.array_equal(y, c * lu_solve(lu, piv, w[n:, :n].T, trans=1).T)
        u, v, tri = graph_transform(graph_decomposition(k))
        assert np.linalg.norm(v @ u - np.eye(2 * n)) <= 1e-12
        t = np.diag(np.r_[np.ones(n), np.full(n, c)])
        t_inv = np.linalg.inv(t)
        balanced = t_inv @ k @ t
        assert np.linalg.norm(t_inv @ (v @ k @ u - tri) @ t) <= \
            1e-12 * np.linalg.norm(balanced)


class TestSolveDecaying:
    def test_scalar_reference(self):
        k, x_plus = scalar_aux_hamiltonian()
        d = solve_care_stabilizing(k)
        sol = solve_decaying(d, [1.0], np.zeros(2), 1.0)
        assert sol.z2_0[0] == pytest.approx(x_plus, abs=1e-12)
        assert np.allclose(sol.y2_offset, 0.0)

    def test_forcing_integral_quadrature_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            k, _, _ = random_spectrum_matrix(rng, n, n)
            d = graph_decomposition(k)
            rho = float(rng.uniform(0.5, 1.5))
            v = rng.standard_normal(n)
            closed = np.linalg.solve(d.F22 + 0.5 * rho * np.eye(n), v)
            graph = np.empty(n)
            for j in range(n):
                graph[j] = quad(
                    lambda tau, jj=j: (mat_exp(-d.F22 * tau) @ v)[jj]
                    * np.exp(-0.5 * rho * tau),
                    0.0, np.inf, limit=200,
                )[0]
            assert np.abs(closed - graph).max() <= 1e-8 * (1 + np.abs(closed).max())

    @pytest.mark.parametrize("solve", [solve_sce, solve_mfg])
    def test_non_normal_f22_meets_the_condition_limit(self, solve):
        # with Q tiny, F22 + (rho/2) I is close to [[1.5, c], [0, 1.5]]: its
        # eigenvalues stay near Re 1.5 while its condition grows with c
        def jordan_drift(c):
            return ProblemData(A=[[-1.0, c], [0.0, -1.0]], B=np.eye(2), R=np.eye(2),
                               Q=1e-12 * np.eye(2), Gamma=np.zeros((2, 2)),
                               eta=[1.0, 1.0], rho=1.0, x0=[1.0, 1.0])

        d = solve(jordan_drift(1.5e6)).decomposition
        assert 1e11 < lu_factor(add_diag(d.F22, 0.5))[2] <= CONDITION_LIMIT
        with pytest.raises(SingularMatrix, match=r"condition 7\.\d+e\+12, above 1e\+12"):
            solve(jordan_drift(1e7))

    def test_linearity(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            d, z1_a, psi_a, rho = random_dichotomy_instance(rng)
            z1_b = rng.standard_normal(d.n)
            psi_b = rng.standard_normal(2 * d.n)
            sol_a = solve_decaying(d, z1_a, psi_a, rho)
            sol_b = solve_decaying(d, z1_b, psi_b, rho)
            sol_ab = solve_decaying(d, z1_a + z1_b, psi_a + psi_b, rho)
            combined = sol_a.z2_0 + sol_b.z2_0
            assert np.abs(sol_ab.z2_0 - combined).max() <= \
                1e-9 * (1.0 + np.abs(combined).max())

    @pytest.mark.parametrize("path", sorted(PROBLEM_DIR.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_generator_stored_shifted(self, path):
        # [[F11 + (rho/2) I, forcing], [0, 0]] bit for bit, signed zeros
        # included; the social report's A_cl is that leading block
        p = load_problem_file(path)
        solved = 0
        for solve in (solve_sce, solve_mfg):
            try:
                sol = solve(p)
            except MflqError:
                continue
            solved += 1
            gen, n = sol.bvp.y1_generator, p.n
            assert gen.shape == (n + 1, n + 1)
            assert gen[n].tobytes() == np.zeros(n + 1).tobytes()
            lead = add_diag(sol.decomposition.F11, 0.5 * p.rho)
            assert gen[:n, :n].tobytes() == lead.tobytes()
        # the degenerate file fails both solvers
        assert solved or path.stem == "ex22_degenerate"


class TestEvaluateTrajectory:
    def test_initial_condition(self):
        rng = np.random.default_rng(52)
        d, z1_0, psi0, rho = random_dichotomy_instance(rng)
        sol = solve_decaying(d, z1_0, psi0, rho)
        z1, z2 = evaluate_trajectory(sol, d, [0.0])
        assert np.allclose(z1[0], sol.z1_0, atol=1e-12)
        assert np.allclose(z2[0], sol.z2_0, atol=1e-12)

    def test_against_adaptive_rk_oracle(self):
        rng = np.random.default_rng(63)
        t = np.linspace(0.0, 10.0, 201)
        for _ in range(5):
            d, z1_0, psi0, rho = random_dichotomy_instance(rng)
            sol = solve_decaying(d, z1_0, psi0, rho)
            z = decaying_trajectory(sol, d, rho, t)
            z0 = np.concatenate([sol.z1_0, sol.z2_0])
            ivp = solve_ivp(
                lambda s, y: d.K @ y + psi0 * np.exp(-0.5 * rho * s),
                (0.0, 10.0), z0, t_eval=t, rtol=1e-12, atol=1e-14,
                method="RK45",
            )
            assert ivp.success
            ref = ivp.y.T
            sup_err = np.abs(z - ref).max()
            assert sup_err <= 1e-6 * max(np.abs(ref).max(), 1.0)

    def test_residual_by_finite_differences(self):
        rng = np.random.default_rng(74)
        d, z1_0, psi0, rho = random_dichotomy_instance(rng)
        sol = solve_decaying(d, z1_0, psi0, rho)
        h = 1e-4
        t = np.arange(0.0, 2.0, h)
        z = decaying_trajectory(sol, d, rho, t)
        rhs = z @ d.K.T + np.exp(-0.5 * rho * t)[:, None] * psi0
        fd = (z[2:] - z[:-2]) / (2.0 * h)
        scale = 1.0 + np.abs(z).max() * (1.0 + np.linalg.norm(d.K))
        assert np.abs(fd - rhs[1:-1]).max() <= 1e-5 * scale

    def test_decay_envelope(self):
        # the weighted norm |z(t)| * exp(rho*t/4) must peak early and the
        # endpoint must sit below the initial value
        rng = np.random.default_rng(85)
        for _ in range(5):
            d, z1_0, psi0, rho = random_dichotomy_instance(rng)
            sol = solve_decaying(d, z1_0, psi0, rho)
            t = np.linspace(0.0, 20.0, 401)
            z = decaying_trajectory(sol, d, rho, t)
            weighted = np.linalg.norm(z, axis=1) * np.exp(0.25 * rho * t)
            peak = int(weighted.argmax())
            assert t[peak] <= 10.0
            assert weighted[-1] <= weighted[0] + 1e-9

    def test_perturbed_tail_blows_up(self):
        rng = np.random.default_rng(96)
        d, z1_0, psi0, rho = random_dichotomy_instance(rng)
        sol = solve_decaying(d, z1_0, psi0, rho)
        n = d.n
        lam_plus = float(eigenvalues(d.F22).real.min())
        t_end = np.log(1e5) / lam_plus
        delta = 1e-3
        # perturbation direction with the largest antistable content
        u, v, _ = graph_transform(d)
        proj_anti = u[:, n:] @ v[n:, :]
        _, _, vt = np.linalg.svd(proj_anti[:, n:])
        v = vt[0]
        z_end = decaying_trajectory(sol, d, rho, [t_end])[0]
        bump = mat_exp(d.K * t_end) @ np.concatenate([np.zeros(n), delta * v])
        scale = np.exp(-0.5 * rho * t_end)
        assert np.linalg.norm(z_end + bump) * scale > \
            10.0 * np.linalg.norm(z_end) * scale

    def test_repeated_points_match_distinct_grid(self):
        rng = np.random.default_rng(107)
        d, z1_0, psi0, rho = random_dichotomy_instance(rng)
        sol = solve_decaying(d, z1_0, psi0, rho)
        distinct = np.array([0.0, 0.5, 1.0, 2.5])
        repeated = np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 2.5, 2.5])
        ref = np.hstack(evaluate_trajectory(sol, d, distinct))
        z = np.hstack(evaluate_trajectory(sol, d, repeated))
        rows = np.searchsorted(distinct, repeated)
        np.testing.assert_allclose(z, ref[rows], rtol=1e-14, atol=1e-14)

    def test_grid_starting_after_zero_matches_full_grid(self):
        rng = np.random.default_rng(118)
        d, z1_0, psi0, rho = random_dichotomy_instance(rng)
        sol = solve_decaying(d, z1_0, psi0, rho)
        full = np.array([0.0, 0.75, 1.5, 3.0])
        ref = np.hstack(evaluate_trajectory(sol, d, full))
        z = np.hstack(evaluate_trajectory(sol, d, full[1:]))
        np.testing.assert_allclose(z, ref[1:], rtol=1e-14, atol=1e-14)

    def test_empty_grid(self):
        rng = np.random.default_rng(129)
        d, z1_0, psi0, rho = random_dichotomy_instance(rng)
        sol = solve_decaying(d, z1_0, psi0, rho)
        z1, z2 = evaluate_trajectory(sol, d, [])
        assert z1.shape == z2.shape == (0, d.n)

    @pytest.mark.parametrize("t", [
        np.linspace(0.0, 5.0, 1001),
        np.arange(0.0, 10.01, 0.01),
        np.arange(501) * 0.01,
    ], ids=["linspace", "arange", "i_times_dt"])
    def test_one_exponential_per_uniform_grid(self, monkeypatch, t):
        # the rounded steps of these grids are not all equal as floats
        assert len(set(np.diff(t).tolist())) > 1
        calls = _count_mat_exp(monkeypatch)
        d, sol, _ = _random_solution(np.random.default_rng(140))
        evaluate_trajectory(sol, d, t)
        assert len(calls) == 1

    def test_one_exponential_per_distinct_step_on_log_grid(self, monkeypatch):
        t = np.concatenate([[0.0], np.logspace(-3, 1, 200)])
        calls = _count_mat_exp(monkeypatch)
        d, sol, _ = _random_solution(np.random.default_rng(151))
        evaluate_trajectory(sol, d, t)
        assert len(calls) == len(set(np.diff(t).tolist())) == 200

    @pytest.mark.parametrize("t", [
        np.linspace(0.0, 5.0, 1001),
        np.arange(20000) * 1e-3,
        # uniform run, repeated points, a jump, a second run with another step
        np.concatenate([np.linspace(0.0, 1.0, 101), [1.0, 1.0, 2.7],
                        2.7 + np.arange(1, 301) * 0.003]),
        # consecutive steps equal to within rounding, yet drifting enough
        # over the grid that one exponential for all of it would be wrong
        np.arange(4000) * 1e-3 + 1.7e-15 * np.arange(4000) ** 2,
    ], ids=["uniform_1001", "uniform_20000", "mixed", "drifting"])
    def test_against_per_point_expm_oracle(self, t):
        rng = np.random.default_rng(162)
        for _ in range(3):
            d, sol, _ = _random_solution(rng)
            n = d.n
            w0 = np.concatenate([sol.z1_0, [1.0]])
            # every point, or about 1000 evenly spaced ones on long grids
            rows = np.unique(np.r_[np.arange(0, t.size, max(1, t.size // 1000)),
                                   t.size - 1])
            y1 = np.array([expm(sol.y1_generator * ti) @ w0
                           for ti in t[rows]])[:, :n]
            # the stored form is shifted: y2 is constant
            y2 = np.broadcast_to(sol.y2_offset, (rows.size, n))
            ref = np.hstack([y1, y2]) @ graph_transform(d)[0].T
            ref[t[rows] == 0.0] = np.concatenate([sol.z1_0, sol.z2_0])
            z = np.hstack(evaluate_trajectory(sol, d, t))[rows]
            assert np.abs(z - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_negative_time_rejected(self):
        d = graph_decomposition(np.diag([-1.0, 1.0]))
        sol = solve_decaying(d, [1.0], np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            evaluate_trajectory(sol, d, [-1.0, 0.0])

    def test_two_dimensional_grid_rejected(self):
        d = graph_decomposition(np.diag([-1.0, 1.0]))
        sol = solve_decaying(d, [1.0], np.zeros(2), 1.0)
        with pytest.raises(ValueError, match="^t_grid must be one-dimensional$"):
            evaluate_trajectory(sol, d, [[0.0, 1.0], [2.0, 3.0]])

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                                      [np.nan], [0.0, np.inf, np.inf],
                                      [-np.inf, 0.0]],
                             ids=["nan_inside", "inf_end", "nan_only",
                                  "inf_repeated", "minus_inf"])
    def test_non_finite_grid_rejected(self, grid):
        # the grid check names the grid, and no warning comes first
        sol = solve_sce(load_problem_file(PROBLEM_DIR / "ex41.json"))
        with pytest.raises(ValueError, match="^t_grid must be finite"):
            sol.trajectory(grid)

    @pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
    @pytest.mark.parametrize("grid", [[0.0, 0.0, 0.5, 2000.0],
                                      np.arange(2001) * 1.0],
                             ids=["one_long_step", "uniform"])
    def test_overflow_names_the_grid_end(self, solver, grid):
        # exp(0.67 * 2000) overflows, in the step exponential or in its
        # powers, with no warning first
        sol = solver(growing_mean_field_problem())
        with pytest.raises(ValueError, match="overflows before the grid end t = 2000$"):
            sol.trajectory(grid)


def _reference_equal_step_runs(t):
    """The run splitting of ``evaluate_trajectory`` as first written (a
    generator over ``np.diff`` and ``t.tolist()``), kept verbatim as the
    reference for the one-pass version."""
    if not t.size:
        return
    tol = 8.0 * np.finfo(float).eps * max(t[-1], 1.0)
    dt = np.diff(t, prepend=0.0)
    bounds = [0, *(np.flatnonzero(np.abs(np.diff(dt)) > tol) + 1).tolist(), t.size]
    pending = list(zip(bounds[:-1], bounds[1:]))[::-1]
    points = t.tolist()
    while pending:
        lo, hi = pending.pop()
        t_prev = points[lo - 1] if lo else 0.0
        count = hi - lo
        h = (points[hi - 1] - t_prev) / count
        if count > 2 and np.abs(
                t_prev + h * np.arange(1, count + 1) - t[lo:hi]).max() > tol:
            mid = (lo + hi) // 2
            pending += [(mid, hi), (lo, mid)]
            continue
        yield lo, hi, h


@st.composite
def step_grids(draw):
    """Sorted nonnegative grids: a ``linspace``, ``arange`` or ``i*dt`` run
    of up to 5,000 points, maybe shifted off 0, with repeated points and a
    jump."""
    kind = draw(st.sampled_from(["linspace", "arange", "i_times_dt"]))
    count = draw(st.integers(1, 5000))
    step = draw(st.floats(1e-4, 10.0))
    if kind == "linspace":
        t = np.linspace(0.0, step * (count - 1), count)
    elif kind == "arange":
        t = np.arange(0.0, step * (count - 0.5), step)
    else:
        t = np.arange(count) * step
    t = t + draw(st.sampled_from([0.0, 0.0, step, 0.37, 1e3]))
    repeats = draw(st.lists(st.integers(0, t.size - 1), max_size=5))
    t = np.sort(np.concatenate([t, t[repeats]]))
    jump_at = draw(st.integers(0, t.size))
    t[jump_at:] += draw(st.sampled_from([0.0, 0.5, 17.0]))
    return t


DRIFTING = np.arange(4000) * 1e-3 + 1.7e-15 * np.arange(4000) ** 2


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(t=step_grids())
@example(t=DRIFTING)
@example(t=np.array([]))
def test_equal_step_runs_match_reference(t):
    runs = dichotomy._equal_step_runs(t, np.diff(t, prepend=0.0))
    assert runs == list(_reference_equal_step_runs(t))


@pytest.mark.parametrize("t_end,dt", [(10.0, 0.01), (5.0, 0.005), (3.0, 0.02),
                                      (2000.0, 1.0), (0.5, 0.01), (5.0, 1e-3),
                                      (1.0, 0.1), (1.0, 1.0 / 3.0)])
def test_uniform_grid_ends_at_t_end(t_end, dt):
    grid = uniform_grid(t_end, dt)
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(t_end, rel=1e-12)
    assert len(grid) == round(t_end / dt) + 1


@pytest.mark.parametrize("t_end,dt", [(1.0, 0.6), (1.0, 0.3), (10.0, 0.03),
                                      (1.0 + 1e-6, 0.01)])
def test_uniform_grid_refuses_a_fractional_last_step(t_end, dt):
    with pytest.raises(ValueError, match="invalid grid.*not a whole number of steps"):
        uniform_grid(t_end, dt)


def test_decomposition_dataclass_roundtrip():
    # the graph of a stable basis remixed by an orthogonal factor, and the
    # blocks built from it by hand, give the same decaying solve
    rng = np.random.default_rng(107)
    d, z1_0, psi0, rho = random_dichotomy_instance(rng, max_n=3)
    n = d.n
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    _, w, _ = real_schur_ordered(d.K)
    basis = w[:, :n] @ q1
    y = np.linalg.solve(basis[:n].T, basis[n:].T).T
    k11, k12, k21, k22 = d.K[:n, :n], d.K[:n, n:], d.K[n:, :n], d.K[n:, n:]
    assert np.linalg.norm(k21 + k22 @ y - y @ k11 - y @ k12 @ y) <= \
        1e-10 * np.linalg.norm(d.K)
    remixed = decompose_from_riccati(d.K, y)
    base = solve_decaying(d, z1_0, psi0, rho)
    other = solve_decaying(remixed, z1_0, psi0, rho)
    assert np.abs(base.z2_0 - other.z2_0).max() <= \
        1e-8 * (1.0 + np.abs(base.z2_0).max())
