"""Continuous-time algebraic Riccati equations via stable Schur vectors.

Solves ``X A_o + A_o' X - X M X + Q_o = 0`` for the stabilizing (maximal)
symmetric solution.  The kernel :func:`solve_care_stabilizing` takes the
Hamiltonian ``[[A_o, -M], [-Q_o, -A_o']]`` of square `A_o`, symmetric
positive semi-definite `M` and symmetric, possibly indefinite, `Q_o`.  It
must have no eigenvalues on the imaginary axis, and ``(A_o, M)`` must be
stabilizable; neither is tested apart from the solve, whose Schur form and
certified closed loop decide both, and no ``(A_o, M)`` PBH test runs.  `X`
is read off the basis `U` (orthogonal up to balancing) of the stable
invariant subspace that :func:`dichotomy.decompose_from_schur` computes,
the splitting the game uses too: ``X = U21 @ inv(U11)``.

The discounted equation ``rho*Pi = Pi A + A' Pi - Pi B inv(R) B' Pi + Q``
reduces to it by ``A -> A - (rho/2) I``, with the Hamiltonian of
:func:`discounted_hamiltonian`; :func:`solve_discounted_are`, which takes
the checked :class:`problem.ProblemData`, is the front end of every solver
and command.  It certifies ``(A, B)`` by the outcome: the full PBH test
runs only on a failed solve (its verdict wins over the failure's own, an
`R` failure included), and on an accepted one only at the modes of
``A - M Pi`` with ``Re >= 0``, since feedback keeps the PBH rank.  From its
solution, :func:`consistency_matrix` builds the matrix each solver splits.
"""

from dataclasses import dataclass

import numpy as np

from .dichotomy import decompose_from_schur
from .errors import GraphSubspaceFailure, MflqError, NonPositiveR, StabilizabilityFailure
from .linalg import (add_diag, block_2x2, dlange, dsyev, eigenvalues, fro, lu_solve,
                     spectral_abscissa, weighted_gram)

__all__ = [
    "StabilizingRiccatiSolution",
    "care_residual",
    "consistency_matrix",
    "discounted_hamiltonian",
    "r_definiteness",
    "require_stabilizable",
    "solve_care_stabilizing",
    "solve_discounted_are",
    "stabilizability_margin",
]

# a pair whose scaled PBH margin is at or below this is unstabilizable
PBH_TOL = 1e-8


@dataclass(frozen=True)
class StabilizingRiccatiSolution:
    """Symmetric solution with a certified stable closed loop
    ``closed_loop = A_o - M X``, and the `M` the solve used.

    `residual` is the Frobenius norm of the equation evaluated at `X`;
    `spectrum_margin` is ``-max Re eig(closed_loop) > 0``.
    """

    X: np.ndarray
    M: np.ndarray
    closed_loop: np.ndarray
    residual: float
    spectrum_margin: float


def care_residual(x, a_o, m, q_o):
    """Frobenius norm of ``X A_o + A_o' X - X M X + Q_o`` at ``X = x``."""
    r = x @ a_o + a_o.T @ x - x @ m @ x + q_o
    return fro(r)


def stabilizability_margin(a, b):
    """Smallest scaled PBH singular value over the closed right half plane.

    For every eigenvalue ``lam`` of `a` with ``Re lam >= 0`` the test matrix
    ``[lam*I - a, b]`` must have full row rank; the margin returned is the
    minimum of its smallest singular values divided by ``1 + ||a|| + ||b||``.
    A conjugate eigenvalue gives the conjugate test matrix, with the same
    singular values, so only ``Im lam >= 0`` is tested, in one stacked SVD
    call.  Returns ``inf`` when `a` is already stable.
    """
    n = a.shape[0]
    scale = 1.0 + fro(a) + fro(b)
    lam = eigenvalues(a)
    lam = lam[(lam.real >= 0.0) & (lam.imag >= 0.0)]
    if not lam.size:
        return np.inf
    tests = np.empty((lam.size, n, n + b.shape[1]), dtype=complex)
    tests[:, :, :n] = 0.0 - a  # lam I - a, as 0 - a_ij off the diagonal
    tests[:, range(n), range(n)] += lam[:, None]
    tests[:, :, n:] = b
    sigma = np.linalg.svd(tests, compute_uv=False)[:, -1]
    return float(sigma.min() / scale)


def require_stabilizable(a, b):
    """Raise :class:`StabilizabilityFailure` unless the PBH margin of
    ``(A, B) = (a, b)`` exceeds :data:`PBH_TOL`."""
    margin = stabilizability_margin(a, b)
    if not margin > PBH_TOL:
        raise StabilizabilityFailure(
            f"(A, B) fails the PBH stabilizability test (margin {margin:.3e})"
        )


def r_definiteness(R):
    """Smallest eigenvalue of `R` (``dsyev`` on its lower triangle) and
    whether it clears the positive definiteness threshold
    ``1e-10 * max(||R||_F, 1)``."""
    w, _, info = dsyev(R, compute_v=0, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyev did not converge (info {info})")
    r_min = float(w[0])
    return r_min, r_min > 1e-10 * max(fro(R), 1.0)


def solve_care_stabilizing(h):
    """Certified stabilizing solution of
    ``X A_o + A_o' X - X M X + Q_o = 0`` from its Hamiltonian
    ``h = [[A_o, -M], [-Q_o, -A_o']]``: split it by
    :func:`dichotomy.decompose_from_schur`, form ``X = U21 @ inv(U11)``
    from the leading n Schur vectors, symmetrized as ``(X + X') / 2``, and
    certify the stability of ``A_o - M X`` and the residual relative to
    ``||Q_o|| + 2||A_o|| ||X|| + ||M|| ||X||^2`` (Sun 1997).  No PBH test.

    Raises
    ------
    ImaginaryAxisEigenvalue
        If the Hamiltonian spectrum touches the imaginary axis, i.e. the
        exponential dichotomy needed by the method does not exist.
    DichotomySplitFailure
        If the split is not n/n; a Hamiltonian off the axis always splits
        n/n, so only a non-Hamiltonian `h` gets here.
    GraphSubspaceFailure
        If `U11` is numerically singular (1-norm condition estimate from
        its LU factors > 1e12): the stable subspace is not a graph
        subspace; or if certification fails.
    ValueError
        If the closed loop ``A_o - M X`` overflows.
    """
    d = decompose_from_schur(h)
    n = d.n
    # X U11 = U21, solved as U11' X' = U21' on the factors of U11
    x = lu_solve(*d.U11_lu, d.U[n:, :n].T, trans=1).T
    x = 0.5 * (x + x.T)
    a_o, m, q_o = h[:n, :n], -h[:n, n:], -h[n:, :n]
    closed_loop = a_o - m @ x
    if not dlange("M", closed_loop) < np.inf:  # NaN fails too
        raise ValueError("the closed loop A_o - M X overflows")
    residual = care_residual(x, a_o, m, q_o)
    margin_cl = -spectral_abscissa(closed_loop)
    nx = fro(x)
    scale = fro(q_o) + nx * (2.0 * fro(a_o) + fro(m) * nx)
    if margin_cl <= 0.0 or residual > 1e-7 * scale:
        raise GraphSubspaceFailure(
            f"solution failed certification (residual {residual:.3e}, "
            f"closed-loop margin {margin_cl:.3e})"
        )
    return StabilizingRiccatiSolution(
        X=x, M=m, closed_loop=closed_loop, residual=residual,
        spectrum_margin=margin_cl,
    )


def discounted_hamiltonian(p, m):
    """Hamiltonian ``[[A_o, -m], [-Q, -A_o']]`` of the discounted Riccati
    equation of the problem `p`, with ``A_o = A - (rho/2) I`` and `m` its
    ``B inv(R) B'``: what :func:`solve_discounted_are` splits and
    :func:`problem.validate` tests for the axis.  ``ValueError`` if `A_o`
    is not finite."""
    a_o = add_diag(p.A, -0.5 * p.rho)
    if not dlange("M", a_o) < np.inf:
        raise ValueError("A - (rho/2) I overflows")
    return block_2x2(a_o, -m, -p.Q, -a_o.T)


def consistency_matrix(are, coupling):
    """Consistency matrix ``[[As, -M], [coupling, -As']]`` from the discounted
    Riccati solution `are`, its closed loop `As` and ``M = B inv(R) B'``: the
    social `H` for ``coupling = Q_Gamma``, the game's `M_mfg` for ``Q @ Gamma``.
    ``ValueError`` if `coupling` is not finite."""
    if not dlange("M", coupling) < np.inf:
        raise ValueError("the coupling block overflows")
    return block_2x2(are.closed_loop, -are.M, coupling, -are.closed_loop.T)


def solve_discounted_are(p):
    """Stabilizing solution of the discounted Riccati equation of the
    checked problem `p`, with ``(A, B)`` certified stabilizable.

    Solves ``rho*Pi = Pi A + A' Pi - Pi B inv(R) B' Pi + Q`` such that
    ``A - B inv(R) B' Pi - (rho/2) I`` is stable, by applying
    :func:`solve_care_stabilizing` to its :func:`discounted_hamiltonian`,
    the Hamiltonian of the shifted data ``(A - (rho/2) I, B inv(R) B', Q)``.

    `R` must be positive definite, which `ProblemData` does not check
    (:class:`NonPositiveR`); the inverse enters only through a Cholesky solve
    against ``B'``.  Any failure, or a closed-loop mode with ``Re >= 0`` that
    fails the PBH test, becomes a :class:`StabilizabilityFailure` when
    ``(A, B)`` fails it.
    """
    try:
        min_eig_r, r_ok = r_definiteness(p.R)
        if not r_ok:
            raise NonPositiveR(f"R must be positive definite (min eig {min_eig_r:.3e})")
        are = solve_care_stabilizing(discounted_hamiltonian(p, weighted_gram(p.B, p.R)))
    except MflqError:
        require_stabilizable(p.A, p.B)
        raise
    if are.spectrum_margin <= 0.5 * p.rho:
        if not stabilizability_margin(add_diag(are.closed_loop, 0.5 * p.rho), p.B) > PBH_TOL:
            require_stabilizable(p.A, p.B)
    return are
