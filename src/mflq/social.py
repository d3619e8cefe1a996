"""Social-optimum pipeline for the LQ mean-field model.

The consistency system for the mean field ``xbar`` and the adjoint offset
``s`` is a forward linear ODE pair with one free initial condition ``s(0)``.
After discounting the unknowns by ``exp(-rho*t/2)`` the coefficient matrix
becomes the Hamiltonian ``H = [[As, -B inv(R) B'], [Q_Gamma, -As']]`` with
``As = A - B inv(R) B' Pi - (rho/2) I``; the stabilizing solution
``X_plus`` of the auxiliary Riccati equation with Hamiltonian `H`
block-triangularizes `H` through ``[[I, 0], [X_plus, I]]``, and the unique
initial value ``s0`` keeping ``(xbar, s)`` in the admissible growth class
follows in closed form.  The ordered Schur forms of the two Riccati solves
also decide existence: no separate validation pass runs on the solve path,
and the auxiliary solve runs no PBH test, since ``As`` is the closed loop
the discounted solve certified stable.

The induced decentralized strategy for every agent is the linear feedback
``u_i(t) = K_x x_i(t) - inv(R) B' s(t)`` with ``K_x = -inv(R) B' Pi``.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import dichotomy, riccati
from .linalg import block_2x2, solve_spd
from .problem import discounted_riccati, gamma_weights

__all__ = [
    "SceSolution",
    "StrategySpec",
    "build_hamiltonian",
    "decentralized_strategy",
    "sce_residual",
    "solve_sce",
]


@dataclass(frozen=True)
class SceSolution:
    """Closed-form solution of the social consistency system.

    `A_C` is the stable matrix governing the discounted pair; the mean field
    itself evolves by ``A_cl = A_C + (rho/2) I`` (spectral abscissa below
    ``rho/2``).  Along the whole trajectory ``s(t) = X_plus @ xbar(t) +
    offset`` holds identically.
    """

    Pi: np.ndarray
    H: np.ndarray
    X_plus: np.ndarray
    A_C: np.ndarray
    offset: np.ndarray
    s0: np.ndarray
    A_cl: np.ndarray
    rho: float
    decomposition: dichotomy.DichotomyDecomposition
    bvp: dichotomy.BvpSolution
    pi_residual: float
    aux_residual: float
    solve_seconds: float

    @property
    def n(self):
        return self.Pi.shape[0]

    trajectory = dichotomy.sample_trajectory


@dataclass(frozen=True)
class StrategySpec:
    """Decentralized strategy ``u_i(t, x) = K_x @ x + feedforward(t)`` where
    ``feedforward(t) = feedforward_gain @ s(t)``."""

    K_x: np.ndarray
    feedforward_gain: np.ndarray
    solution: SceSolution

    def feedforward(self, t_grid):
        """Feedforward input samples, shape ``(len(t_grid), n1)``."""
        _, s = self.solution.trajectory(t_grid)
        return s @ self.feedforward_gain.T


def build_hamiltonian(are, w):
    """Hamiltonian ``[[As, -M], [Q_Gamma, -As']]`` of the discounted
    consistency system, from the discounted Riccati solution `are`: its `M`
    is ``B inv(R) B'`` and its closed loop is
    ``As = A - (rho/2) I - M Pi``."""
    return block_2x2(are.closed_loop, -are.M, w.Q_Gamma, -are.closed_loop.T)


def solve_sce(p):
    """Solve the social consistency system end to end.

    Pipeline, the game's shape: the front end
    :func:`problem.discounted_riccati` for `Pi`, assemble `H`, decompose it
    by the auxiliary solution `X_plus` (:func:`riccati.stabilizing_solution`
    on `H`), and extract ``s0`` and the trajectory generators.  The two
    Riccati solves' Schur forms are the axis tests.

    Raises :class:`StabilizabilityFailure` or :class:`NonPositiveR` when the
    standing assumptions fail, :class:`ImaginaryAxisEigenvalue` when no
    dichotomy exists (e.g. the scalar boundary case where the drift equals
    half the discount rate under full mean-field tracking), and
    :class:`GraphSubspaceFailure` when a Riccati solution fails certification.
    """
    t_start = time.perf_counter()
    are = discounted_riccati(p)
    w = gamma_weights(p.Q, p.Gamma, p.eta)
    h = build_hamiltonian(are, w)
    aux = riccati.stabilizing_solution(h)
    d = dichotomy.decompose_from_riccati(h, aux)
    n = p.n
    psi0 = np.concatenate([np.zeros(n), w.eta_Gamma])
    bvp = dichotomy.solve_decaying(d, p.x0, psi0, p.rho)
    return SceSolution(
        Pi=are.X,
        H=h,
        X_plus=aux.X,
        A_C=aux.closed_loop,
        offset=bvp.y2_offset,
        s0=bvp.z2_0,
        A_cl=aux.closed_loop + 0.5 * p.rho * np.eye(n),
        rho=p.rho,
        decomposition=d,
        bvp=bvp,
        pi_residual=are.residual,
        aux_residual=aux.residual,
        solve_seconds=time.perf_counter() - t_start,
    )


def decentralized_strategy(sol, p):
    """Strategy gains induced by a solved consistency system."""
    gain = -solve_spd(p.R, p.B.T)
    return StrategySpec(K_x=gain @ sol.Pi, feedforward_gain=gain, solution=sol)


def sce_residual(sol, p, t_grid):
    """Max central-difference residual of the consistency ODE pair.

    Samples ``(xbar, s)`` on the uniform grid, differentiates by central
    differences at interior points and compares with the right-hand sides.
    Returns the max-norm residual over both equations.
    """
    t = np.asarray(t_grid, dtype=float)
    return _sce_residual(sol, p, t, *sol.trajectory(t))


def _sce_residual(sol, p, t, xbar, s):
    """:func:`sce_residual` from the samples ``(xbar, s)`` on the grid `t`."""
    if t.size < 3:
        raise ValueError("need at least three grid points")
    dt = np.diff(t)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("t_grid must be uniform")
    m = p.control_gram()
    w = gamma_weights(p.Q, p.Gamma, p.eta)
    rhs_x = xbar @ (p.A - m @ sol.Pi).T - s @ m.T
    rhs_s = (xbar @ w.Q_Gamma.T
             + s @ (p.rho * np.eye(p.n) - p.A.T + sol.Pi @ m).T
             + w.eta_Gamma)
    fd_x = (xbar[2:] - xbar[:-2]) / (2.0 * dt[0])
    fd_s = (s[2:] - s[:-2]) / (2.0 * dt[0])
    res_x = np.abs(fd_x - rhs_x[1:-1]).max()
    res_s = np.abs(fd_s - rhs_s[1:-1]).max()
    return float(max(res_x, res_s))
