"""Mean-field game pipeline.

The game's consistency system has the same shape as the social one, and
the same builder :func:`riccati.consistency_matrix`, but with lower-left
coupling block ``Q @ Gamma`` (generally asymmetric) and forcing
``Q @ eta``, so the coefficient matrix `M_mfg` is not Hamiltonian and the
graph `Y` of its stable invariant subspace solves a non-symmetric
algebraic Riccati equation (Guo & Laub, SIAM J. Matrix Anal. Appl. 22,
2000).  Otherwise the pipeline is the social one: the graph of the
ordered Schur form, certified by :func:`dichotomy.decompose_from_riccati`
as the one graph transform, gives the decaying solve, the trajectory and
the shared record (:meth:`dichotomy.ConsistencySolution.from_split`).
"""

from . import dichotomy, riccati


class MfgSolution(dichotomy.ConsistencySolution):
    """Solved game consistency system, in the social record; the
    coefficient matrix `M_mfg` is ``decomposition.K``."""

    trajectory = dichotomy.sample_trajectory


def solve_mfg(p):
    """Solve the game consistency system by the certified graph of its
    ordered Schur splitting, after the social solver's front end
    (:func:`riccati.solve_discounted_are`, reused right after `solve_sce`).

    Raises :class:`StabilizabilityFailure` or :class:`NonPositiveR` when the
    standing assumptions fail, :class:`ImaginaryAxisEigenvalue` when a
    spectrum touches the axis, :class:`DichotomySplitFailure` when the
    stable/antistable split is not n/n, and :class:`GraphSubspaceFailure`
    when the leading transform block is numerically singular or the graph
    fails certification.
    """
    are = riccati.solve_discounted_are(p)
    k = riccati.consistency_matrix(are, p.Q @ p.Gamma)
    d = dichotomy.decompose_from_riccati(k, dichotomy.decompose_from_schur(k))
    return MfgSolution.from_split(p, are, d, p.Q @ p.eta)
