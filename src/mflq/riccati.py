"""Continuous-time algebraic Riccati equations via stable Schur vectors.

Solves ``X A_o + A_o' X - X M X + Q_o = 0`` for the stabilizing (maximal)
symmetric solution.  The state weight `Q_o` may be indefinite; what is
required is that the associated 2n-by-2n Hamiltonian matrix has no
eigenvalues on the imaginary axis and that ``(A_o, M)`` is stabilizable.
The solution is read off the basis `U` (orthogonal up to balancing) of the
stable invariant subspace that :func:`dichotomy.decompose_from_schur`
computes, the same splitting the game uses: its leading n rows form an
invertible block ``U11``, and ``X = U21 @ inv(U11)``.

:func:`stabilizing_solution` does this on a given Hamiltonian and certifies
the result; the ``(A_o, M)`` PBH test only names the cause of a failure.

The discounted Riccati equation
``rho*Pi = Pi A + A' Pi - Pi B inv(R) B' Pi + Q`` reduces to the same
solver by shifting ``A -> A - (rho/2) I``.
"""

from dataclasses import dataclass

import numpy as np

from .dichotomy import decompose_from_schur
from .errors import GraphSubspaceFailure, MflqError, NonPositiveR, StabilizabilityFailure
from .linalg import (as_square, as_symmetric, block_2x2, eigenvalues, lu_solve,
                     spectral_abscissa, weighted_gram)

__all__ = [
    "CareProblem",
    "StabilizingRiccatiSolution",
    "care_hamiltonian",
    "care_residual",
    "r_definiteness",
    "require_stabilizable",
    "solve_care_stabilizing",
    "solve_discounted_are",
    "stabilizability_margin",
    "stabilizing_solution",
]

# a pair whose scaled PBH margin is at or below this is unstabilizable
PBH_TOL = 1e-8


@dataclass(frozen=True)
class CareProblem:
    """Data ``(A_o, M, Q_o)`` of the Riccati equation
    ``X A_o + A_o' X - X M X + Q_o = 0``.

    `M` must be symmetric positive semi-definite; `Q_o` symmetric but not
    necessarily sign-definite.
    """

    A_o: np.ndarray
    M: np.ndarray
    Q_o: np.ndarray

    def __post_init__(self):
        self._set(as_square(self.A_o, "A_o"), as_symmetric(self.M, "M"),
                  as_symmetric(self.Q_o, "Q_o"))
        min_eig = float(np.linalg.eigvalsh(0.5 * (self.M + self.M.T)).min())
        if min_eig < -1e-10 * max(np.linalg.norm(self.M, "fro"), 1.0):
            raise ValueError(f"M is not positive semi-definite (min eig {min_eig:.3e})")

    def _set(self, a, m, q):
        if not (a.shape == m.shape == q.shape):
            raise ValueError("A_o, M, Q_o must share one square shape")
        for name, value in (("A_o", a), ("M", m), ("Q_o", q)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _of_checked(cls, a, m, q):
        """Of blocks checked but for their shapes: square `A_o`, symmetric
        `Q_o`, `M` from :func:`linalg.weighted_gram`."""
        return object.__new__(cls)._set(a, m, q)

    @property
    def n(self):
        return self.A_o.shape[0]


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


def care_hamiltonian(p):
    """2n-by-2n Hamiltonian ``[[A_o, -M], [-Q_o, -A_o']]`` of the problem."""
    return block_2x2(p.A_o, -p.M, -p.Q_o, -p.A_o.T)


def care_residual(x, a_o, m, q_o):
    """Frobenius norm of ``X A_o + A_o' X - X M X + Q_o`` at ``X = x``."""
    x = np.asarray(x, dtype=float)
    r = x @ a_o + a_o.T @ x - x @ m @ x + q_o
    return float(np.linalg.norm(r, "fro"))


def stabilizability_margin(a, b):
    """Smallest scaled PBH singular value over the closed right half plane.

    For every eigenvalue ``lam`` of `a` with ``Re lam >= 0`` the test matrix
    ``[lam*I - a, b]`` must have full row rank; the margin returned is the
    minimum of its smallest singular values divided by ``1 + ||a|| + ||b||``.
    A conjugate eigenvalue gives the conjugate test matrix, with the same
    singular values, so only ``Im lam >= 0`` is tested, in one stacked SVD
    call.  Returns ``inf`` when `a` is already stable.
    """
    a = as_square(a, "A")
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    scale = 1.0 + float(np.linalg.norm(a, "fro")) + float(np.linalg.norm(b, "fro"))
    lam = eigenvalues(a)
    lam = lam[(lam.real >= 0.0) & (lam.imag >= 0.0)]
    if not lam.size:
        return np.inf
    tests = np.empty((lam.size, n, n + b.shape[1]), dtype=complex)
    tests[:, :, :n] = lam[:, None, None] * np.eye(n) - a
    tests[:, :, n:] = b
    sigma = np.linalg.svd(tests, compute_uv=False)[:, -1]
    return float(sigma.min() / scale)


def require_stabilizable(a, b, pair):
    """Raise :class:`StabilizabilityFailure`, naming the `pair`, unless the
    PBH margin of ``(a, b)`` exceeds :data:`PBH_TOL`."""
    margin = stabilizability_margin(a, b)
    if not margin > PBH_TOL:
        raise StabilizabilityFailure(
            f"{pair} fails the PBH stabilizability test (margin {margin:.3e})"
        )


def r_definiteness(R):
    """Smallest eigenvalue of `R` and whether it clears the positive
    definiteness threshold ``1e-10 * max(||R||_F, 1)``."""
    r_min = float(np.linalg.eigvalsh(R).min())
    return r_min, r_min > 1e-10 * max(float(np.linalg.norm(R, "fro")), 1.0)


def stabilizing_solution(h):
    """Certified stabilizing solution from the Hamiltonian
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
    """
    d = decompose_from_schur(h)
    n = d.n
    # X U11 = U21, solved as U11' X' = U21' on the factors of U11
    x = lu_solve(*d.U11_lu, d.U[n:, :n].T, trans=1).T
    x = 0.5 * (x + x.T)
    a_o, m, q_o = h[:n, :n], -h[:n, n:], -h[n:, :n]
    closed_loop = a_o - m @ x
    residual = care_residual(x, a_o, m, q_o)
    margin_cl = -spectral_abscissa(closed_loop)
    nx = np.linalg.norm(x)
    scale = np.linalg.norm(q_o) + nx * (2.0 * np.linalg.norm(a_o) + np.linalg.norm(m) * nx)
    if margin_cl <= 0.0 or residual > 1e-7 * scale:
        raise GraphSubspaceFailure(
            f"solution failed certification (residual {residual:.3e}, "
            f"closed-loop margin {margin_cl:.3e})"
        )
    return StabilizingRiccatiSolution(
        X=x, M=m, closed_loop=closed_loop, residual=residual,
        spectrum_margin=margin_cl,
    )


def solve_care_stabilizing(p):
    """Stabilizing solution of a :class:`CareProblem` by
    :func:`stabilizing_solution`; if that raises, a failed ``(A_o, M)`` PBH
    test makes it a :class:`StabilizabilityFailure`."""
    try:
        return stabilizing_solution(care_hamiltonian(p))
    except MflqError:
        require_stabilizable(p.A_o, p.M, "(A_o, M)")
        raise


def solve_discounted_are(A, B, Q, R, rho):
    """Stabilizing solution of the discounted Riccati equation.

    Solves ``rho*Pi = Pi A + A' Pi - Pi B inv(R) B' Pi + Q`` such that
    ``A - B inv(R) B' Pi - (rho/2) I`` is stable, by applying
    :func:`solve_care_stabilizing` to the shifted data
    ``(A - (rho/2) I, B inv(R) B', Q)``.

    `R` must be symmetric positive definite (:class:`NonPositiveR` otherwise);
    the inverse enters only through a Cholesky solve against ``B'``.
    """
    A = as_square(A, "A")
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    Q = as_symmetric(Q, "Q")
    R = as_symmetric(R, "R")
    min_eig_r, r_ok = r_definiteness(R)
    if not r_ok:
        raise NonPositiveR(f"R must be positive definite (min eig {min_eig_r:.3e})")
    m = weighted_gram(B, R)
    shifted = A - 0.5 * rho * np.eye(A.shape[0])
    return solve_care_stabilizing(CareProblem._of_checked(shifted, m, Q))
