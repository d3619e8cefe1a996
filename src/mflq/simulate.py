"""Monte Carlo simulation of the N-agent population under the decentralized
strategies.

Each replication integrates all N coupled state SDEs with Euler-Maruyama,
using independent Brownian increments per agent, and accumulates the
discounted per-agent running costs by a left-endpoint Riemann sum truncated
at the horizon.  The mean-field gap compares the finite-population average
state against the solved deterministic mean field at every grid point.  All
replications are stepped together as one ``(replications, N, n)`` array.

Randomness is fully reproducible: replication r draws its initial states,
then one noise block per step, from a generator seeded by
``SeedSequence(seed, spawn_key=(r,))``, whatever runs beside it.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dichotomy import uniform_grid
from .linalg import as_square, as_symmetric, dsyev, eigenvalues

# an array of the population (replications x agents x the widest of n, n1
# and n2), or of stored mean paths, has at most this many entries
MAX_POPULATION_ENTRIES = 10**8


@dataclass(frozen=True)
class SimConfig:
    """Population size, grid, replication count and initial-state spread.

    The grid is :func:`dichotomy.uniform_grid` of `T` and `dt`, whose
    bounds are checked here.  The agents' initial states are i.i.d.
    Gaussian draws around the problem's ``x0``, the initial mean field the
    strategy is solved from, with covariance ``init_cov``, a finite,
    symmetric, positive semi-definite n-by-n matrix that :func:`simulate`
    checks; it defaults to zero (all agents start at ``x0``).  `N`,
    `replications` and `seed` are Python or numpy integers, not ``bool``;
    ``N, replications >= 1`` and ``seed >= 0``.
    """

    N: int
    T: float
    dt: float
    replications: int = 1
    seed: int = 0
    init_cov: Optional[np.ndarray] = None
    store_paths: bool = field(default=False)

    def __post_init__(self):
        for name in ("N", "replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.N < 1:
            raise ValueError(f"need at least one agent, got N={self.N}")
        uniform_grid(self.T, self.dt)
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SimResult:
    """Cost and consistency statistics across replications.

    ``per_rep_cost[r]`` is the agent-average discounted cost of replication
    r (truncated at the horizon; ``per_rep_tail[r]`` bounds the discarded
    tail as ``exp(-rho*T)/rho`` times the terminal running-cost level).
    ``per_rep_gap[r]`` is the sup over the grid of the distance between the
    population average state and the deterministic mean field.
    """

    t_grid: np.ndarray
    per_rep_cost: np.ndarray
    per_rep_gap: np.ndarray
    per_rep_tail: np.ndarray
    cost_mean: float
    cost_stderr: float
    gap_mean: float
    gap_std: float
    tail_mean: float
    mean_paths: Optional[list] = None


def _initial_transform(p, cfg):
    """A square root ``L`` of ``init_cov = L L'``, from ``dsyev`` on its lower
    triangle.  ``ValueError`` unless ``init_cov`` is checked like `Q`
    (:func:`linalg.as_symmetric`), is n-by-n and positive semi-definite."""
    if cfg.init_cov is None:
        return np.zeros((p.n, p.n))
    cov = as_symmetric(cfg.init_cov, "init_cov")
    if cov.shape != (p.n, p.n):
        raise ValueError(f"init_cov must have shape {(p.n, p.n)}, got {cov.shape}")
    w, v, info = dsyev(cov, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyev did not converge (info {info})")
    if w[0] < -1e-10 * abs(w).max():
        raise ValueError("init_cov must be positive semi-definite")
    return v * np.sqrt(np.clip(w, 0.0, None))


def _running_cost(p, x, u, x_mean):
    dev = x - (x_mean @ p.Gamma.T + p.eta)[:, None, :]
    return (np.einsum("rij,rij->ri", dev @ p.Q, dev)
            + np.einsum("rij,rij->ri", u @ p.R, u))


def simulate(p, strategy, cfg, threads=1):
    """Run `cfg.replications` independent population simulations.

    `strategy` must come from a solved consistency system (it supplies the
    feedback gain, the feedforward input and the deterministic mean field).
    The problem's noise matrix `D` is required here even if zero, and the
    Euler step ``1 + lam dt`` must decay every decaying mode `lam` of the
    closed loop ``A + B K_x``: ``ValueError`` if the closed loop is not
    finite, or if ``|1 + lam dt| >= 1`` for a mode with ``Re lam < 0``.
    All replications are stepped together as one ``(replications, N, n)``
    array; `threads` is accepted for compatibility and has no effect.
    ``ValueError``, before anything is allocated, if that array (as wide
    as the widest of n, n1, n2) or the stored mean paths would have more
    than :data:`MAX_POPULATION_ENTRIES` entries.
    """
    if p.D is None:
        raise ValueError("simulation requires the noise matrix D")
    reps = cfg.replications
    shapes = [(reps, cfg.N, max(p.n, p.n1, p.n2))]
    if cfg.store_paths:
        shapes.append((reps, round(cfg.T / cfg.dt) + 1, p.n))
    for shape in shapes:
        if math.prod(shape) > MAX_POPULATION_ENTRIES:
            raise ValueError(f"simulation too large: an array of shape {shape} has more "
                             f"than {MAX_POPULATION_ENTRIES} entries")
    a_cl = as_square(p.A + p.B @ strategy.K_x, "A + B K_x")
    lam = eigenvalues(a_cl)
    lam = lam[lam.real < 0]
    growth = np.abs(1.0 + lam * cfg.dt)
    if np.any(growth >= 1.0):
        k = int(np.argmax(growth))
        raise ValueError(f"step dt={cfg.dt} is too long for the closed-loop mode "
                         f"{lam[k]:.6g}: |1 + lam dt| = {growth[k]:.6g} >= 1")
    t_grid = uniform_grid(cfg.T, cfg.dt)
    steps = t_grid.size - 1
    xbar, s = strategy.solution.trajectory(t_grid)
    uff = s @ strategy.feedforward_gain.T
    rngs = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(r,)))
            for r in range(reps)]
    chol = _initial_transform(p, cfg)
    draws = np.empty((reps, cfg.N, p.n))
    for rng, block in zip(rngs, draws):
        rng.standard_normal(out=block)
    x = p.x0 + draws @ chol.T
    dt = float(t_grid[1] - t_grid[0])
    sq_dt = np.sqrt(dt)
    discount = np.exp(-p.rho * t_grid[:-1])
    noise = np.empty((reps, cfg.N, p.n2))
    cost = np.zeros((reps, cfg.N))
    gaps = np.zeros(reps)
    paths = np.empty((reps, t_grid.size, p.n)) if cfg.store_paths else None
    for k in range(steps + 1):
        x_mean = x.mean(axis=1)
        if paths is not None:
            paths[:, k] = x_mean
        dev = x_mean - xbar[k]
        gaps = np.maximum(gaps, np.sqrt((dev * dev).sum(axis=1)))  # norm(dev, axis=1), bit for bit
        u = x @ strategy.K_x.T + uff[k]
        if k == steps:
            break
        cost += discount[k] * _running_cost(p, x, u, x_mean) * dt
        drift = x @ a_cl.T + uff[k] @ p.B.T
        for rng, block in zip(rngs, noise):
            rng.standard_normal(out=block)
        x = x + drift * dt + (noise * sq_dt) @ p.D.T
    # the discarded tail, bounded by the terminal running-cost level
    tails = (np.exp(-p.rho * float(t_grid[-1]))
             * _running_cost(p, x, u, x_mean).mean(axis=1) / p.rho)
    costs = cost.mean(axis=1)
    return SimResult(
        t_grid=t_grid,
        per_rep_cost=costs,
        per_rep_gap=gaps,
        per_rep_tail=tails,
        cost_mean=float(costs.mean()),
        cost_stderr=float(costs.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
        gap_mean=float(gaps.mean()),
        gap_std=float(gaps.std(ddof=1)) if reps > 1 else 0.0,
        tail_mean=float(tails.mean()),
        mean_paths=list(paths) if paths is not None else None,
    )
