"""Continuous-time algebraic Riccati equations via stable Schur vectors.

Solves ``X A_o + A_o' X - X M X + Q_o = 0`` for the stabilizing (maximal)
symmetric solution.  The kernel :func:`solve_care_stabilizing` takes the
Hamiltonian ``[[A_o, -M], [-Q_o, -A_o']]`` of square `A_o`, symmetric
positive semi-definite `M` and symmetric, possibly indefinite, `Q_o`.  It
must have no eigenvalues on the imaginary axis, and ``(A_o, M)`` must be
stabilizable; neither is tested apart from the solve, whose Schur form and
certified closed loop decide both, and no ``(A_o, M)`` PBH test runs.  `X`
is the graph ``U21 @ inv(U11)`` of the stable invariant subspace that
:func:`dichotomy.decompose_from_schur` computes, and
:func:`dichotomy.decompose_from_riccati` certifies it, as it certifies the
game's non-symmetric graph: the solution is that graph's
:class:`dichotomy.DichotomyDecomposition`, with ``Y = X`` and the closed
loop ``F11 = A_o - M X``.

The discounted equation ``rho*Pi = Pi A + A' Pi - Pi B inv(R) B' Pi + Q``
reduces to it by ``A -> A - (rho/2) I``, with the Hamiltonian of
:func:`discounted_hamiltonian`; :func:`solve_discounted_are`, which takes
the checked :class:`problem.ProblemData`, is the front end of every solver
and command.  It certifies ``(A, B)`` by the outcome: the full PBH test
runs only on a solve that fails with an :class:`MflqError` (its verdict
wins over the failure's own, an `R` failure included; an overflow's
``ValueError`` is left as it is), and on an accepted one only at the modes of
``A - M Pi`` with ``Re >= 0``, since feedback keeps the PBH rank.  A call on
the data of its last certified solution returns that read-only record, and
:func:`consistency_matrix` builds from it the matrix each solver splits.
"""

import numpy as np

from .dichotomy import decompose_from_riccati, decompose_from_schur
from .errors import MflqError, NonPositiveR, StabilizabilityFailure
from .linalg import add_diag, block_2x2, dlange, dsyev, eigenvalues, fro, weighted_gram

# a pair whose scaled PBH margin is at or below this is unstabilizable
PBH_TOL = 1e-8
_last = [None, None]  # key and solution of the last certified solve_discounted_are


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
    tests.reshape(lam.size, -1)[:, ::n + b.shape[1] + 1] += lam[:, None]  # the diagonals
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
    ``h = [[A_o, -M], [-Q_o, -A_o']]``, as the
    :class:`dichotomy.DichotomyDecomposition` of `h` with ``Y = X`` and
    closed loop ``F11 = A_o - M X``: the graph ``X = U21 @ inv(U11)`` of its
    stable Schur vectors (:func:`dichotomy.decompose_from_schur`, whose
    errors it raises: an axis eigenvalue means that the dichotomy the method
    needs does not exist), symmetrized as ``(X + X') / 2`` and certified by
    :func:`dichotomy.decompose_from_riccati`.  No PBH test."""
    x = decompose_from_schur(h)
    return decompose_from_riccati(h, 0.5 * (x + x.T))


def discounted_hamiltonian(p, m):
    """Hamiltonian ``[[A_o, -m], [-Q, -A_o']]`` of the discounted Riccati
    equation of the problem `p`, with ``A_o = A - (rho/2) I`` and `m` its
    ``B inv(R) B'``: what :func:`solve_discounted_are` splits and
    :func:`problem.validate` tests for the axis.  ``ValueError`` if `A_o`
    is not finite."""
    with np.errstate(over="ignore"):  # an overflow raises below
        a_o = add_diag(p.A, -0.5 * p.rho)
    if not dlange("M", a_o) < np.inf:
        raise ValueError("A - (rho/2) I overflows")
    return block_2x2(a_o, -m, -p.Q, -a_o.T)


def consistency_matrix(are, coupling):
    """Consistency matrix ``[[As, -M], [coupling, -As']]`` from the discounted
    Riccati solution `are`, its closed loop ``As = are.F11`` and the block
    ``-M = -B inv(R) B'`` of its Hamiltonian: the social `H` for
    ``coupling = Q_Gamma``, the game's `M_mfg` for ``Q @ Gamma``.
    ``ValueError`` if `coupling` is not finite."""
    if not dlange("M", coupling) < np.inf:
        raise ValueError("the coupling block overflows")
    return block_2x2(are.F11, are.K[:are.n, are.n:], coupling, -are.F11.T)


def solve_discounted_are(p):
    """Stabilizing solution ``Pi = Y`` of the discounted Riccati equation
    of the checked problem `p`, with ``(A, B)`` certified stabilizable, as
    the certified graph of its Hamiltonian.

    Solves ``rho*Pi = Pi A + A' Pi - Pi B inv(R) B' Pi + Q`` such that
    ``A - B inv(R) B' Pi - (rho/2) I`` is stable, by applying
    :func:`solve_care_stabilizing` to its :func:`discounted_hamiltonian`,
    the Hamiltonian of the shifted data ``(A - (rho/2) I, B inv(R) B', Q)``.

    `R` must be positive definite, which `ProblemData` does not check
    (:class:`NonPositiveR`); the inverse enters only through a Cholesky solve
    against ``B'``.  A failure raised as an :class:`MflqError`, `R`'s
    included, or a closed-loop mode with ``Re >= 0`` that fails the PBH
    test, becomes a :class:`StabilizabilityFailure` when ``(A, B)`` fails
    it.  The ``ValueError`` of an overflow (of ``B inv(R) B'``,
    ``A - (rho/2) I`` or the closed loop) leaves unchanged, with no PBH
    test, even where ``(A, B)`` would fail it.  A failure is not kept; the
    last certified solution is, with the key `rho` and the shape, strides and
    bytes of `A`, `B`, `Q` and `R`, and a call with an equal key returns it:
    ``solve_mfg(p)`` right after ``solve_sce(p)`` shares its `Pi`.  The
    record's `K`, `Y`, `F11` and `F22` are read-only.
    """
    key = (p.rho, *((x.shape, x.strides, x.tobytes()) for x in (p.A, p.B, p.Q, p.R)))
    last_key, last = _last  # one read, so a hit returns the record of its key
    if last_key == key:
        return last
    try:
        min_eig_r, r_ok = r_definiteness(p.R)
        if not r_ok:
            raise NonPositiveR(f"R must be positive definite (min eig {min_eig_r:.3e})")
        are = solve_care_stabilizing(discounted_hamiltonian(p, weighted_gram(p.B, p.R)))
    except MflqError:
        require_stabilizable(p.A, p.B)
        raise
    if are.spectrum_margin <= 0.5 * p.rho:
        # A - M Pi as A + K12 Pi: F11 + (rho/2) I would carry an error of eps rho/2
        if not stabilizability_margin(p.A + are.K[:p.n, p.n:] @ are.Y, p.B) > PBH_TOL:
            require_stabilizable(p.A, p.B)
    for x in (are.K, are.Y, are.F11, are.F22):
        x.flags.writeable = False
    _last[:] = key, are
    return are
