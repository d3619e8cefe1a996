"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Golden values are frozen reference solutions of the shipped
cases (cross-checked in-place by residual substitution where applicable);
property criteria run on seeded random instance families at the stated
counts and tolerances.
"""

import json

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import (
    PROBLEM_DIR,
    care_residual,
    decaying_trajectory,
    degenerate_boundary_problem,
    game_problem,
    graph_decomposition,
    graph_transform,
    hamiltonian,
    indefinite_social_problem,
    multiset_close,
    random_care_problem,
    random_problem,
    scalar_social_problem,
    scaled_close,
)
from mflq.cli import main
from mflq.contraction import contraction_bound
from mflq.dichotomy import solve_decaying
from mflq.errors import ImaginaryAxisEigenvalue
from mflq.linalg import eigenvalues, mat_exp, spectral_abscissa
from mflq.mfg import solve_mfg
from mflq.problem import ProblemData, gamma_weights
from mflq.riccati import consistency_matrix, solve_care_stabilizing, solve_discounted_are
from mflq.simulate import SimConfig, simulate
from mflq.social import decentralized_strategy, solve_sce


def as_multiset(values):
    return np.sort_complex(np.asarray(values, dtype=complex))


# ---------------------------------------------------------------------------
# Criterion 1: scalar social reference case, golden values.

def test_criterion_1_scalar_social_golden():
    p = scalar_social_problem()
    sol = solve_sce(p)
    assert sol.Pi[0, 0] == pytest.approx(3.5616, abs=1e-3)
    assert np.allclose(sol.decomposition.K, [[-2.0616, -1.0], [2.0, 2.0616]], atol=1e-3)
    lam = np.sort(eigenvalues(sol.decomposition.K).real)
    assert np.allclose(lam, [-1.5, 1.5], atol=1e-6)
    assert np.abs(eigenvalues(sol.decomposition.K).imag).max() <= 1e-6
    assert sol.X_plus[0, 0] == pytest.approx(-0.5615, abs=1e-3)
    assert sol.A_C[0, 0] == pytest.approx(-1.5, abs=1e-6)
    assert sol.s0[0] == pytest.approx(-0.5615, abs=1e-3)
    t = np.linspace(0.0, 5.0, 501)
    xbar, s = sol.trajectory(t)
    assert np.abs(xbar[:, 0] - np.exp(-t)).max() <= 1e-3
    assert np.abs(s[:, 0] - (-0.5616 * np.exp(-t))).max() <= 1e-3


# ---------------------------------------------------------------------------
# Criterion 2: two-state indefinite social case, golden values.

def test_criterion_2_two_state_indefinite_golden():
    p = indefinite_social_problem()
    sol = solve_sce(p)
    assert np.allclose(sol.Pi, [[3.5483, -5.6810], [-5.6810, 12.6724]],
                       atol=1e-3)
    expected_h = [
        [2.6327, -7.9914, -1.0, -1.0],
        [2.1327, -5.4914, -1.0, -1.0],
        [0.5, 0.5, -2.6327, -2.1327],
        [0.5, 0.0, 7.9914, 5.4914],
    ]
    assert np.allclose(sol.decomposition.K, expected_h, atol=1e-3)
    assert np.allclose(sol.X_plus, [[-2.0373, 2.7519], [2.7519, -4.1941]],
                       atol=1e-3)
    assert np.allclose(sol.A_C, [[1.9181, -6.5492], [1.4181, -4.0492]],
                       atol=1e-3)
    assert multiset_close(eigenvalues(sol.A_C),
                          [-1.0655 + 0.6208j, -1.0655 - 0.6208j], 1e-3)
    assert np.allclose(sol.s0, [2.3185, -3.7513], atol=1e-3)
    expected_eigs = as_multiset([
        -1.0655 + 0.6208j, -1.0655 - 0.6208j,
        1.0655 + 0.6208j, 1.0655 - 0.6208j,
    ])
    assert np.allclose(as_multiset(eigenvalues(sol.decomposition.K)), expected_eigs,
                       atol=1e-3)


# ---------------------------------------------------------------------------
# Criterion 3: game reference case, golden values.

def test_criterion_3_game_golden():
    p = game_problem()
    sol = solve_mfg(p)
    expected_m = [
        [14.7999, -42.0915, -1.0, -1.0],
        [10.7999, -28.0915, -1.0, -1.0],
        [5.0, 0.0, -14.7999, -10.7999],
        [2.5, 5.0, 42.0915, 28.0915],
    ]
    assert np.allclose(sol.decomposition.K, expected_m, atol=1e-3)
    lam = eigenvalues(sol.decomposition.K)
    assert np.abs(lam.imag).max() <= 1e-3
    assert np.allclose(np.sort(lam.real),
                       [-8.9356, -2.0950, 1.7783, 9.2522], atol=1e-3)
    assert np.allclose(sol.s0, [2.31075, -4.11538], atol=1e-3)


# ---------------------------------------------------------------------------
# Criterion 4: contraction constants of the comparison method.

def test_criterion_4_contraction_bounds():
    strong = indefinite_social_problem(gamma_scale=2.0)
    weak = indefinite_social_problem(gamma_scale=0.05)
    pi = solve_discounted_are(strong).Y
    beta_strong = contraction_bound(strong, pi)
    beta_weak = contraction_bound(weak, pi)
    assert beta_strong == pytest.approx(6.34694, rel=1e-2)
    assert beta_weak == pytest.approx(0.736681, rel=1e-2)
    assert beta_strong > 1.0 > beta_weak


# ---------------------------------------------------------------------------
# Criterion 5: the scalar boundary case must be detected, not solved.

def test_criterion_5_degenerate_detection():
    with pytest.raises(ImaginaryAxisEigenvalue):
        solve_sce(degenerate_boundary_problem())
    assert main(["solve-social", str(PROBLEM_DIR / "ex22_degenerate.json")]) == 3


# ---------------------------------------------------------------------------
# Criterion 6: property suites on random instance families.

def test_criterion_6a_care_random_suite():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        a, m, q = random_care_problem(rng, max_n=6)
        sol = solve_care_stabilizing(hamiltonian(a, m, q))
        norm_x = np.linalg.norm(sol.Y, "fro")
        assert care_residual(sol.Y, a, m, q) <= 1e-7 * (1.0 + norm_x**2)
        assert spectral_abscissa(sol.F11) < 0.0
        assert np.linalg.norm(sol.Y - sol.Y.T, "fro") <= 1e-8 * (1.0 + norm_x)


def test_criterion_6b_hamiltonian_spectrum_symmetry():
    rng = np.random.default_rng(2025)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        m = c @ c.T
        g = rng.standard_normal((n, n))
        q = 0.5 * (g + g.T)
        h = np.block([[a, -m], [-q, -a.T]])
        lam = eigenvalues(h)
        assert multiset_close(lam, -lam, 1e-8 * (1.0 + np.abs(lam).max()))


def _bvp_instances(count, seed=2026):
    from conftest import random_spectrum_matrix

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 4))
        k, _, _ = random_spectrum_matrix(rng, n, n)
        d = graph_decomposition(k)
        rho = float(rng.uniform(0.6, 1.6))
        z1_0 = rng.standard_normal(n)
        psi0 = rng.standard_normal(2 * n)
        out.append((d, z1_0, psi0, rho))
    return out


def test_criterion_6c_bvp_vs_adaptive_rk_oracle():
    t = np.linspace(0.0, 10.0, 101)
    for d, z1_0, psi0, rho in _bvp_instances(50):
        sol = solve_decaying(d, z1_0, psi0, rho)
        z = decaying_trajectory(sol, d, rho, t)
        z0 = np.concatenate([sol.z1_0, sol.z2_0])
        ivp = solve_ivp(
            lambda s, y: d.K @ y + psi0 * np.exp(-0.5 * rho * s),
            (0.0, 10.0), z0, t_eval=t, rtol=1e-12, atol=1e-14, method="RK45",
        )
        assert ivp.success
        ref = ivp.y.T
        assert np.abs(z - ref).max() <= 1e-6 * max(np.abs(ref).max(), 1.0)


def test_criterion_6d_initial_value_uniqueness_blowup():
    for d, z1_0, psi0, rho in _bvp_instances(50):
        n = d.n
        sol = solve_decaying(d, z1_0, psi0, rho)
        lam_plus = float(eigenvalues(d.F22).real.min())
        t_end = np.log(1e5) / lam_plus
        delta = 1e-3
        u, v, _ = graph_transform(d)
        proj_anti = u[:, n:] @ v[n:, :]
        _, _, vt = np.linalg.svd(proj_anti[:, n:])
        v = vt[0]
        z_end = decaying_trajectory(sol, d, rho, [t_end])[0]
        bump = mat_exp(d.K * t_end) @ np.concatenate([np.zeros(n), delta * v])
        weight = np.exp(-0.5 * rho * t_end)
        assert np.linalg.norm(z_end + bump) * weight > \
            10.0 * np.linalg.norm(z_end) * weight


def test_criterion_6e_zero_coupling_coincidence():
    rng = np.random.default_rng(2027)
    t = np.linspace(0.0, 5.0, 26)
    for _ in range(50):
        p = random_problem(rng, coupling="zero")
        social = solve_sce(p)
        game = solve_mfg(p)
        assert scaled_close(social.s0, game.s0, 1e-9)
        xs, ss = social.trajectory(t)
        xg, sg = game.trajectory(t)
        assert scaled_close(xs, xg, 1e-9)
        assert scaled_close(ss, sg, 1e-9)


def test_criterion_6f_affine_manifold_identity():
    rng = np.random.default_rng(2028)
    t = np.linspace(0.0, 8.0, 33)
    cases = [scalar_social_problem(), indefinite_social_problem()]
    cases += [random_problem(rng) for _ in range(20)]
    for p in cases:
        sol = solve_sce(p)
        xbar, s = sol.trajectory(t)
        recon = xbar @ sol.X_plus.T + sol.bvp.y2_offset
        assert scaled_close(s, recon, 1e-9)


def test_criterion_6g_scalar_spectral_law():
    rng = np.random.default_rng(2029)
    done = 0
    while done < 200:
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(0.3, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        q = float(rng.uniform(0.05, 3.0))
        r = float(rng.uniform(0.3, 2.0))
        rho = float(rng.uniform(0.5, 2.0))
        gam = float(rng.uniform(-1.0, 3.0))
        a_rho = a - rho / 2.0
        br2 = b * b / r
        target = a_rho**2 + q * br2 * (1.0 - gam) ** 2
        p = ProblemData(A=[[a]], B=[[b]], Q=[[q]], R=[[r]], Gamma=[[gam]],
                        eta=[0.0], rho=rho, x0=[1.0])
        are = solve_discounted_are(p)
        h = consistency_matrix(are, gamma_weights(p)[0])
        for lam in eigenvalues(h):
            assert scaled_close(lam**2, target, 1e-9)
        done += 1


# ---------------------------------------------------------------------------
# Criterion 7: simulator determinism, noise-free consistency, and
# mean-field-gap decay in the population size.

def test_criterion_7_simulator():
    # bitwise seed determinism, also across thread counts
    p = scalar_social_problem(D=[[0.2]])
    strat = decentralized_strategy(solve_sce(p), p)
    cfg = SimConfig(N=8, T=2.0, dt=0.01, replications=6, seed=123)
    first = simulate(p, strat, cfg)
    second = simulate(p, strat, cfg, threads=4)
    assert np.array_equal(first.per_rep_cost, second.per_rep_cost)
    assert np.array_equal(first.per_rep_gap, second.per_rep_gap)
    assert np.array_equal(first.per_rep_tail, second.per_rep_tail)

    # noise-free consistency with the deterministic closed loop
    p0 = scalar_social_problem(D=[[0.0]])
    strat0 = decentralized_strategy(solve_sce(p0), p0)
    quiet = simulate(p0, strat0, SimConfig(N=3, T=5.0, dt=1e-3))
    assert quiet.gap_mean <= 1e-3

    # mean-field gap decreases with N at a law-of-large-numbers-like rate
    sizes = (2, 8, 32, 128)
    gaps = []
    for n_agents in sizes:
        cfg = SimConfig(N=n_agents, T=5.0, dt=0.01, replications=64, seed=7)
        gaps.append(simulate(p, strat, cfg, threads=8).gap_mean)
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    assert -0.8 <= slope <= -0.2
