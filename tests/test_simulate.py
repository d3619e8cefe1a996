import dataclasses

import numpy as np
import pytest

from conftest import PROBLEM_DIR, random_problem, scalar_social_problem
from mflq.cli import load_problem_file
from mflq.problem import ProblemData
from mflq.simulate import MAX_POPULATION_ENTRIES, SimConfig, _initial_transform, simulate
from mflq.social import decentralized_strategy, solve_sce


def _strategy(p):
    return decentralized_strategy(solve_sce(p), p)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(N=0, T=1.0, dt=0.01),
        dict(N=4, T=1.0, dt=0.0),
        dict(N=4, T=1.0, dt=-0.1),
        dict(N=4, T=0.001, dt=0.01),
        dict(N=4, T=1.0, dt=0.01, replications=0),
        dict(N=4, T=1e300, dt=1e-10),  # T/dt overflows
        dict(N=1, T=1e3, dt=1e-6),     # 10^9 points, past the grid bound
        dict(N=4, T=1.0, dt=0.6),      # the grid would end at 1.2
    ])
    def test_misconfiguration_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("N", 2.5), ("N", True), ("N", 2.0), ("replications", 2.0),
        ("replications", np.True_), ("seed", 1.0), ("seed", False), ("seed", "3"),
    ], ids=["N_float", "N_bool", "N_whole_float", "replications_float",
            "replications_numpy_bool", "seed_float", "seed_bool", "seed_string"])
    def test_non_integer_counts_rejected(self, field, value):
        kwargs = {"N": 2, "T": 1.0, "dt": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            SimConfig(**kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            SimConfig(N=2, T=1.0, dt=0.1, seed=-1)

    def test_numpy_integers_accepted(self):
        p = scalar_social_problem(D=[[0.1]])
        cfg = SimConfig(N=np.int64(2), T=0.5, dt=0.1, replications=np.int32(2),
                        seed=np.uint64(5))
        result = simulate(p, _strategy(p), cfg)
        assert result.per_rep_cost.shape == (2,)


class TestSimulate:
    def test_requires_noise_matrix(self):
        p = scalar_social_problem(D=None)
        with pytest.raises(ValueError):
            simulate(p, _strategy(p), SimConfig(N=2, T=1.0, dt=0.1))

    def test_euler_step_must_decay_the_closed_loop(self):
        # a closed loop near -1e8 is multiplied by about -1e6 per step at
        # dt = 0.01; ex41's decays at that step
        stiff = ProblemData(A=[[1e8]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], Gamma=[[0.0]],
                            eta=[1.0], rho=1.0, x0=[1.0], D=[[0.1]])
        cfg = SimConfig(N=2, T=0.1, dt=0.01)
        with pytest.raises(ValueError, match="step dt=0.01 is too long"):
            simulate(stiff, _strategy(stiff), cfg)
        p = load_problem_file(PROBLEM_DIR / "ex41.json")
        assert np.isfinite(simulate(p, _strategy(p), cfg).cost_mean)

    def test_indefinite_initial_covariance_rejected(self):
        # the bound is relative to the largest |eigenvalue|: no floor of 1
        # lets a small negative covariance through as 0
        p = scalar_social_problem(D=[[0.2]])
        for cov in (-0.5, -1e-12):
            cfg = SimConfig(N=2, T=1.0, dt=0.1, init_cov=[[cov]])
            with pytest.raises(ValueError,
                               match="^init_cov must be positive semi-definite$"):
                simulate(p, _strategy(p), cfg)

    @pytest.mark.parametrize("cov, match", [
        ([[np.nan, 0.0], [0.0, 1.0]], "^init_cov has non-finite entries$"),
        ([[np.inf, 0.0], [0.0, 1.0]], "^init_cov has non-finite entries$"),
        ([1.0, 0.0, 0.0, 1.0], r"^init_cov must be square, got shape \(4,\)$"),
        ([[1.0, 0.2], [0.0, 1.0]], "^init_cov is not symmetric"),
        (np.eye(3), r"^init_cov must have shape \(2, 2\), got \(3, 3\)$"),
    ], ids=["nan", "inf", "flat", "asymmetric", "wrong_size"])
    def test_malformed_initial_covariance_rejected(self, cov, match):
        # checked as a problem's Q is, and named, before anything is drawn
        p = _shipped("ex43")
        cfg = SimConfig(N=2, T=1.0, dt=0.1, init_cov=cov)
        with pytest.raises(ValueError, match=match):
            simulate(p, _strategy(p), cfg)

    def test_non_finite_gain_rejected(self):
        # the closed-loop eigenvalues would rescale a NaN without end
        p = scalar_social_problem(D=[[0.2]])
        strategy = dataclasses.replace(_strategy(p), K_x=np.array([[np.nan]]))
        with pytest.raises(ValueError, match=r"^A \+ B K_x has non-finite entries$"):
            simulate(p, strategy, SimConfig(N=2, T=1.0, dt=0.1))

    def test_zero_problem_zero_cost(self):
        p = ProblemData(A=[[-0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                        Gamma=[[0.0]], eta=[0.0], rho=1.0, x0=[0.0],
                        D=[[0.0]])
        result = simulate(p, _strategy(p), SimConfig(N=4, T=1.0, dt=0.01,
                                                     replications=2))
        assert result.cost_mean == 0.0
        assert result.gap_mean == 0.0

    def test_seed_determinism_bitwise(self):
        p = scalar_social_problem(D=[[0.2]])
        strat = _strategy(p)
        cfg = SimConfig(N=8, T=2.0, dt=0.01, replications=5, seed=42)
        a = simulate(p, strat, cfg)
        b = simulate(p, strat, cfg)
        c = simulate(p, strat, cfg, threads=4)
        for other in (b, c):
            assert np.array_equal(a.per_rep_cost, other.per_rep_cost)
            assert np.array_equal(a.per_rep_gap, other.per_rep_gap)
            assert np.array_equal(a.per_rep_tail, other.per_rep_tail)

    def test_seed_sensitivity(self):
        p = scalar_social_problem(D=[[0.2]])
        strat = _strategy(p)
        a = simulate(p, strat, SimConfig(N=8, T=1.0, dt=0.01, seed=1))
        b = simulate(p, strat, SimConfig(N=8, T=1.0, dt=0.01, seed=2))
        assert not np.array_equal(a.per_rep_cost, b.per_rep_cost)

    def test_noise_free_matches_deterministic_closed_loop(self):
        # D = 0 and a common initial state: every agent follows the
        # deterministic closed-loop ODE, so the gap against the solved mean
        # field is pure Euler integration error, O(dt)
        p = scalar_social_problem(D=[[0.0]])
        strat = _strategy(p)
        cfg = SimConfig(N=3, T=5.0, dt=1e-3, replications=1, store_paths=True)
        result = simulate(p, strat, cfg)
        assert result.gap_mean <= 1e-3
        # the population-average path tracks the exponential-propagated
        # mean field pointwise as well
        xbar, _ = strat.solution.trajectory(result.t_grid)
        assert np.abs(result.mean_paths[0] - xbar).max() <= 1e-3

    def test_stderr_shrinks_with_replications(self):
        p = scalar_social_problem(D=[[0.3]])
        strat = _strategy(p)
        small = simulate(p, strat, SimConfig(N=4, T=1.0, dt=0.01,
                                             replications=8, seed=5))
        large = simulate(p, strat, SimConfig(N=4, T=1.0, dt=0.01,
                                             replications=64, seed=5))
        ratio = small.cost_stderr / large.cost_stderr
        # ~ sqrt(64/8) = 2.83, accepted within a factor of three
        assert 2.83 / 3.0 <= ratio <= 2.83 * 3.0

    def test_gap_shrinks_with_population(self):
        p = scalar_social_problem(D=[[0.2]])
        strat = _strategy(p)
        gaps = []
        for n_agents in (2, 8, 32, 128):
            cfg = SimConfig(N=n_agents, T=5.0, dt=0.01, replications=16, seed=9)
            gaps.append(simulate(p, strat, cfg, threads=4).gap_mean)
        assert gaps[0] > gaps[-1]
        slope = np.polyfit(np.log([2, 8, 32, 128]), np.log(gaps), 1)[0]
        assert -0.8 <= slope <= -0.2

    @pytest.mark.parametrize("kwargs", [
        dict(N=10**12, T=1.0, dt=0.01),
        dict(N=4, T=1.0, dt=0.01, replications=10**12),
        dict(N=1, T=5e3, dt=0.01, replications=300, store_paths=True),
    ], ids=["agents", "replications", "stored_paths"])
    def test_size_past_the_bound_refused_before_allocating(self, monkeypatch, kwargs):
        p = scalar_social_problem(D=[[0.2]])
        strat = _strategy(p)

        def allocate(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(np, "empty", allocate)
        monkeypatch.setattr(np.random, "default_rng", allocate)
        with pytest.raises(ValueError, match=r"^simulation too large: an array of shape "
                           rf"\(.+\) has more than {MAX_POPULATION_ENTRIES} entries$"):
            simulate(p, strat, SimConfig(**kwargs))

    def test_tail_bound_reported(self):
        p = scalar_social_problem(D=[[0.2]])
        strat = _strategy(p)
        result = simulate(p, strat, SimConfig(N=4, T=3.0, dt=0.01,
                                              replications=2))
        assert np.isfinite(result.per_rep_tail).all()
        assert (result.per_rep_tail >= 0.0).all()

    def test_initial_covariance_spread(self):
        p = scalar_social_problem(D=[[0.0]])
        strat = _strategy(p)
        cfg = SimConfig(N=64, T=0.5, dt=0.01, replications=1, seed=3,
                        init_cov=[[0.5]])
        result = simulate(p, strat, cfg)
        # dispersed initial states leave a visible mean-field gap
        assert result.gap_mean > 1e-3


def test_euler_error_first_order_in_dt():
    # deterministic Euler error against the matrix-exponential trajectory
    # roughly halves when the step halves
    p = scalar_social_problem(D=[[0.0]])
    strat = _strategy(p)
    errs = []
    for dt in (2e-3, 1e-3):
        cfg = SimConfig(N=1, T=1.0, dt=dt, replications=1, store_paths=True)
        result = simulate(p, strat, cfg)
        xbar, _ = strat.solution.trajectory(result.t_grid)
        errs.append(np.abs(result.mean_paths[0] - xbar).max())
    assert errs[1] <= 0.7 * errs[0]


# ---------------------------------------------------------------------------
# Exact oracle: the expected per-agent discounted cost of the recursion the
# simulator runs, not of the SDE it discretizes.

def expected_cost(p, strategy, cfg, t_grid):
    """Expected per-agent cost of the Euler-Maruyama recursion, truncated at
    the horizon, and the mean path ``m_k``.

    The agents are i.i.d. under the decentralized strategy.  With
    ``F = I + (A + B K_x) dt`` the mean follows ``m_{k+1} = F m_k + B uff_k dt``
    and the deviation covariance ``P_{k+1} = F P_k F' + D D' dt``.  The cost
    couples an agent to the empirical mean of N agents, which adds
    ``-(P Gamma' + Gamma P)/N + Gamma P Gamma'/N`` to the covariance of
    ``x_i - Gamma xbar - eta``; the control covariance is ``K_x P K_x'``.
    """
    n, k_x, gam = p.n, strategy.K_x, p.Gamma
    dt = t_grid[1] - t_grid[0]
    uff = strategy.solution.trajectory(t_grid)[1] @ strategy.feedforward_gain.T
    f = np.eye(n) + (p.A + p.B @ k_x) * dt
    m = p.x0
    cov = np.zeros((n, n)) if cfg.init_cov is None else np.asarray(cfg.init_cov, float)
    means = [m]
    total = 0.0
    for k in range(t_grid.size - 1):
        e = m - gam @ m - p.eta
        cov_e = cov - (cov @ gam.T + gam @ cov) / cfg.N + gam @ cov @ gam.T / cfg.N
        u = k_x @ m + uff[k]
        level = (e @ p.Q @ e + np.trace(p.Q @ cov_e)
                 + u @ p.R @ u + np.trace(p.R @ k_x @ cov @ k_x.T))
        total += np.exp(-p.rho * t_grid[k]) * level * dt
        m = f @ m + p.B @ uff[k] * dt
        cov = f @ cov @ f.T + p.D @ p.D.T * dt
        means.append(m)
    return total, np.array(means)


def _shipped(name):
    return load_problem_file(PROBLEM_DIR / f"{name}.json")


@pytest.mark.parametrize("name", ["ex41", "ex43"])
def test_noise_free_cost_matches_exact_oracle(name):
    p = _shipped(name)
    p = dataclasses.replace(p, D=0.0 * p.D)
    strat = _strategy(p)
    cfg = SimConfig(N=4, T=2.0, dt=0.01, replications=2, store_paths=True)
    result = simulate(p, strat, cfg)
    exact, means = expected_cost(p, strat, cfg, result.t_grid)
    assert np.abs(result.per_rep_cost - exact).max() <= 1e-12 * abs(exact)
    scale = np.abs(means).max()
    for path in result.mean_paths:
        assert np.abs(path - means).max() <= 1e-12 * scale


@pytest.mark.parametrize("name", ["ex41", "ex43"])
@pytest.mark.parametrize("agents", [8, 32])
@pytest.mark.parametrize("spread", [False, True])
def test_noisy_cost_within_four_stderr_of_exact_oracle(name, agents, spread):
    p = _shipped(name)
    strat = _strategy(p)
    init_cov = 0.1 * np.eye(p.n) + 0.05 if spread else None
    cfg = SimConfig(N=agents, T=2.0, dt=0.01, replications=64, seed=31,
                    init_cov=init_cov)
    result = simulate(p, strat, cfg)
    exact, _ = expected_cost(p, strat, cfg, result.t_grid)
    assert abs(result.cost_mean - exact) <= 4.0 * result.cost_stderr


def reference_replication(p, strategy, cfg, rep):
    """Replication `rep` stepped on its own, as a loop over time steps:
    its mean path, agent-average cost, mean-field gap and tail bound."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
    steps = max(1, int(round(cfg.T / cfg.dt)))
    t = np.arange(steps + 1) * cfg.dt
    xbar, s = strategy.solution.trajectory(t)
    uff = s @ strategy.feedforward_gain.T
    chol = _initial_transform(p, cfg)
    x = p.x0 + rng.standard_normal((cfg.N, p.n)) @ chol.T
    a_cl = p.A + p.B @ strategy.K_x
    path, cost, gap = [], np.zeros(cfg.N), 0.0
    for k in range(steps + 1):
        x_mean = x.mean(axis=0)
        path.append(x_mean)
        gap = max(gap, float(np.linalg.norm(x_mean - xbar[k])))
        u = x @ strategy.K_x.T + uff[k]
        dev = x - (p.Gamma @ x_mean + p.eta)
        level = (np.einsum("ij,jk,ik->i", dev, p.Q, dev)
                 + np.einsum("ij,jk,ik->i", u, p.R, u))
        if k == steps:
            break
        cost += np.exp(-p.rho * t[k]) * level * cfg.dt
        noise = rng.standard_normal((cfg.N, p.n2)) * np.sqrt(cfg.dt)
        x = x + (x @ a_cl.T + uff[k] @ p.B.T) * cfg.dt + noise @ p.D.T
    tail = np.exp(-p.rho * t[-1]) * level.mean() / p.rho
    return np.array(path), cost.mean(), gap, tail


@pytest.mark.parametrize("case", ["ex43", "random"])
def test_array_stepping_matches_per_replication_loop(case):
    # same random streams, so the mean paths are bit-identical; the cost
    # sums run in another order, so they agree to a few ulps
    if case == "random":
        p = random_problem(np.random.default_rng(8), max_n=4, with_noise=True)
    else:
        p = _shipped(case)
    strat = _strategy(p)
    cfg = SimConfig(N=16, T=1.0, dt=0.01, replications=3, seed=4,
                    init_cov=0.2 * np.eye(p.n), store_paths=True)
    result = simulate(p, strat, cfg)
    for rep in range(cfg.replications):
        path, cost, gap, tail = reference_replication(p, strat, cfg, rep)
        assert np.array_equal(result.mean_paths[rep], path)
        assert result.per_rep_cost[rep] == pytest.approx(cost, rel=1e-14)
        assert result.per_rep_gap[rep] == pytest.approx(gap, rel=1e-14)
        assert result.per_rep_tail[rep] == pytest.approx(tail, rel=1e-14)
