"""Mean-field game pipeline.

The game's consistency system has the same shape as the social one, and
the same builder :func:`riccati.consistency_matrix`, but with lower-left
coupling block ``Q @ Gamma`` (generally asymmetric) and forcing
``Q @ eta``, so the coefficient matrix `M_mfg` is not Hamiltonian and the
analytic Riccati transform is unavailable.  The stable/antistable splitting
is instead constructed generically from the ordered real Schur form; the
rest of the machinery (the front end :func:`riccati.solve_discounted_are`
for `Pi`, closed-form decaying solve, trajectory generators) is shared with
the social pipeline.
"""

from dataclasses import dataclass

import numpy as np

from . import dichotomy, riccati

__all__ = ["MfgSolution", "solve_mfg"]


@dataclass(frozen=True)
class MfgSolution:
    """Solved game consistency system with its splitting transform; the
    coefficient matrix `M_mfg` is ``decomposition.K``."""

    Pi: np.ndarray
    decomposition: dichotomy.DichotomyDecomposition
    s0: np.ndarray
    bvp: dichotomy.BvpSolution
    pi_residual: float

    trajectory = dichotomy.sample_trajectory


def solve_mfg(p):
    """Solve the game consistency system via the ordered Schur splitting,
    after the front end shared with the social solver
    (:func:`riccati.solve_discounted_are`).

    Raises :class:`StabilizabilityFailure` or :class:`NonPositiveR` when the
    standing assumptions fail, :class:`ImaginaryAxisEigenvalue` when a
    spectrum touches the axis, :class:`DichotomySplitFailure` when the
    stable/antistable split is not n/n, and :class:`GraphSubspaceFailure`
    when the leading transform block is numerically singular.
    """
    are = riccati.solve_discounted_are(p)
    d = dichotomy.decompose_from_schur(riccati.consistency_matrix(are, p.Q @ p.Gamma))
    psi0 = np.concatenate([np.zeros(p.n), p.Q @ p.eta])
    bvp = dichotomy.solve_decaying(d, p.x0, psi0, p.rho)
    return MfgSolution(
        Pi=are.X,
        decomposition=d,
        s0=bvp.z2_0,
        bvp=bvp,
        pi_residual=are.residual,
    )
