"""Mean-field game pipeline.

The game's consistency system has the same shape as the social one but with
lower-left coupling block ``Q @ Gamma`` (generally asymmetric) and forcing
``Q @ eta``, so the coefficient matrix is not Hamiltonian and the analytic
Riccati transform is unavailable.  The stable/antistable splitting is
instead constructed generically from the ordered real Schur form; the rest
of the machinery (the front end for `Pi`, closed-form decaying solve,
trajectory generators) is shared with the social pipeline.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import dichotomy
from .linalg import block_2x2
from .problem import discounted_riccati

__all__ = ["MfgSolution", "build_mfg_matrix", "solve_mfg"]


@dataclass(frozen=True)
class MfgSolution:
    """Solved game consistency system with its splitting transform."""

    Pi: np.ndarray
    M_mfg: np.ndarray
    decomposition: dichotomy.DichotomyDecomposition
    s0: np.ndarray
    bvp: dichotomy.BvpSolution
    rho: float
    pi_residual: float
    solve_seconds: float

    @property
    def n(self):
        return self.Pi.shape[0]

    trajectory = dichotomy.sample_trajectory


def build_mfg_matrix(p, are):
    """Coefficient matrix ``[[As, -M], [Q Gamma, -As']]`` of the discounted
    game system, with ``M = B inv(R) B'`` and the closed loop
    ``As = A - (rho/2) I - M Pi`` taken from the discounted Riccati
    solution `are`; the lower-left block is the plain product
    ``Q @ Gamma``, not its symmetrized counterpart."""
    return block_2x2(are.closed_loop, -are.M, p.Q @ p.Gamma, -are.closed_loop.T)


def solve_mfg(p):
    """Solve the game consistency system via the ordered Schur splitting,
    after the front end shared with the social solver
    (:func:`problem.discounted_riccati`).

    Raises :class:`StabilizabilityFailure` or :class:`NonPositiveR` when the
    standing assumptions fail, :class:`ImaginaryAxisEigenvalue` when a
    spectrum touches the axis, :class:`DichotomySplitFailure` when the
    stable/antistable split is not n/n, and :class:`GraphSubspaceFailure`
    when the leading transform block is numerically singular.
    """
    t_start = time.perf_counter()
    are = discounted_riccati(p)
    m_mfg = build_mfg_matrix(p, are)
    d = dichotomy.decompose_from_schur(m_mfg)
    psi0 = np.concatenate([np.zeros(p.n), p.Q @ p.eta])
    bvp = dichotomy.solve_decaying(d, p.x0, psi0, p.rho)
    return MfgSolution(
        Pi=are.X,
        M_mfg=m_mfg,
        decomposition=d,
        s0=bvp.z2_0,
        bvp=bvp,
        rho=p.rho,
        pi_residual=are.residual,
        solve_seconds=time.perf_counter() - t_start,
    )
