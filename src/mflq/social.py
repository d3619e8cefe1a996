"""Social-optimum pipeline for the LQ mean-field model.

The consistency system for the mean field ``xbar`` and the adjoint offset
``s`` is a forward linear ODE pair with one free initial condition ``s(0)``.
After discounting the unknowns by ``exp(-rho*t/2)`` the coefficient matrix
becomes the Hamiltonian ``H = [[As, -B inv(R) B'], [Q_Gamma, -As']]`` with
``As = A - B inv(R) B' Pi - (rho/2) I``, built like the game's matrix by
:func:`riccati.consistency_matrix`; the stabilizing solution ``X_plus`` of
the auxiliary Riccati equation with Hamiltonian `H` is the graph of its
stable invariant subspace, and ``[[I, 0], [X_plus, I]]`` block-triangularizes
`H`, as the game's graph does its matrix; the unique initial value ``s0``
keeping ``(xbar, s)`` in the admissible growth class follows in closed
form.  The ordered Schur forms of the two Riccati solves
also decide existence: no separate validation pass runs on the solve path,
and the auxiliary solve runs no PBH test, since ``As`` is the closed loop
that :func:`riccati.solve_discounted_are` certified stable, along with
``(A, B)`` stabilizable.  The game fills the same record
(:class:`dichotomy.ConsistencySolution`).

The induced decentralized strategy for every agent is the linear feedback
``u_i(t) = K_x x_i(t) - inv(R) B' s(t)`` with ``K_x = -inv(R) B' Pi``.
"""

from dataclasses import dataclass

import numpy as np

from . import dichotomy, riccati
from .linalg import solve_spd
from .problem import gamma_weights


class SceSolution(dichotomy.ConsistencySolution):
    """Closed-form solution of the social consistency system, in the game's
    record.  The Hamiltonian `H` is ``decomposition.K``.

    `X_plus` and `A_C` are read where they are held: `X_plus` is the graph
    `Y` of the transform ``U = [[I, 0], [X_plus, I]]``; `A_C` is `F11`, the
    stable matrix governing the discounted pair; the mean field evolves by
    ``A_C + (rho/2) I``, the leading block of ``bvp.y1_generator``.
    ``s(t) = X_plus @ xbar(t) + bvp.y2_offset`` holds along the whole trajectory.
    """

    trajectory = dichotomy.sample_trajectory

    @property
    def X_plus(self):
        return self.decomposition.Y

    @property
    def A_C(self):
        return self.decomposition.F11


@dataclass(frozen=True)
class StrategySpec:
    """Decentralized strategy ``u_i(t, x) = K_x @ x + feedforward_gain @ s(t)``,
    with ``s`` the offset of ``solution.trajectory``."""

    K_x: np.ndarray
    feedforward_gain: np.ndarray
    solution: SceSolution


def solve_sce(p):
    """Solve the social consistency system end to end.

    Pipeline, the game's shape: the front end
    :func:`riccati.solve_discounted_are` for `Pi`, assemble `H`, decompose it
    by the auxiliary solution `X_plus` (:func:`riccati.solve_care_stabilizing`
    on `H`, which returns the decomposition), and extract ``s0`` and the
    trajectory generators.  The two Riccati solves' Schur forms are the axis
    tests; a front end on the last certified data is reused, with its `Pi`.

    Raises :class:`StabilizabilityFailure` or :class:`NonPositiveR` when the
    standing assumptions fail, :class:`ImaginaryAxisEigenvalue` when no
    dichotomy exists (e.g. the scalar boundary case where the drift equals
    half the discount rate under full mean-field tracking), and
    :class:`GraphSubspaceFailure` when a Riccati solution fails certification.
    """
    are = riccati.solve_discounted_are(p)
    q_gamma, eta_gamma = gamma_weights(p)
    d = riccati.solve_care_stabilizing(riccati.consistency_matrix(are, q_gamma))
    return SceSolution.from_split(p, are, d, eta_gamma)


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
    if not (dt[0] > 0.0 and np.allclose(dt, dt[0], rtol=1e-9, atol=0.0)):
        raise ValueError("t_grid must be uniform with a positive step")
    m = -sol.decomposition.K[:p.n, p.n:]  # B inv(R) B', as the solve built it
    q_gamma, eta_gamma = gamma_weights(p)
    rhs_x = xbar @ (p.A - m @ sol.Pi).T - s @ m.T
    rhs_s = (xbar @ q_gamma.T
             + s @ (p.rho * np.eye(p.n) - p.A.T + sol.Pi @ m).T
             + eta_gamma)
    fd_x = (xbar[2:] - xbar[:-2]) / (2.0 * dt[0])
    fd_s = (s[2:] - s[:-2]) / (2.0 * dt[0])
    res_x = np.abs(fd_x - rhs_x[1:-1]).max()
    res_s = np.abs(fd_s - rhs_s[1:-1]).max()
    return float(max(res_x, res_s))
