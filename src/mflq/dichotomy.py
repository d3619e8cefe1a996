"""Decaying solutions of linear ODEs with an exponential dichotomy.

The systems handled here have the form ``dz/dt = K z + psi0 * exp(-rho*t/2)``
with ``z`` of dimension 2n and `K` admitting an invertible transform `U` such
that ``inv(U) K U`` is block upper triangular with a stable leading block
`F11` and an antistable trailing block `F22`.  Under that splitting there is
exactly one choice of the trailing half ``z2(0)`` of the initial state, for a
given leading half ``z1(0)``, that keeps the solution bounded (indeed
exponentially decaying) on ``[0, inf)``; every other choice blows up at the
antistable rate.

Two constructions of the transform are supported: the analytic one from a
certified stabilizing Riccati solution (unit-triangular `U`) and the generic
one from an ordered real Schur form (`U` orthogonal up to balancing).  The latter,
:func:`decompose_from_schur`, is the one splitting of the package: the
Riccati solves (:func:`riccati.solve_care_stabilizing`) and the game both
split through it, so its axis test, n/n check and condition limit are
written once.  The improper integral behind the bounded choice is
evaluated in closed form as a linear solve.  The solution is stored
shifted by ``rho/2``: it is ``exp(-rho*t/2)`` times a solution whose
trailing transformed half is constant, which is the undiscounted form the
callers sample, and no ``exp(rho*t/2)`` factor can overflow on a long
horizon.  Trajectory samples come from an augmented matrix exponential, not
ODE stepping: one exponential per run of equal grid steps, with the states
along the run filled by repeated squaring, so a uniform grid of N points
costs one exponential and about ``log2(N)`` small products.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DichotomySplitFailure, GraphSubspaceFailure
from .linalg import (CONDITION_LIMIT, add_diag, block_2x2, block_balance, fill_powers,
                     lu_factor, lu_solve, mat_exp, real_schur_ordered, solve_linear)

__all__ = [
    "BvpSolution",
    "DichotomyDecomposition",
    "decompose_from_riccati",
    "decompose_from_schur",
    "evaluate_trajectory",
    "sample_trajectory",
    "solve_decaying",
]


@dataclass(frozen=True)
class DichotomyDecomposition:
    """Invertible `U` (with inverse `V`) block-triangularizing the source
    matrix `K`: ``V K U = [[F11, F12], [0, F22]]`` with `F11` stable and
    `-F22` stable.  The leading n-by-n block `U11` of `U` is invertible;
    `U11_lu` holds its pivoted LU factors ``(lu, piv)`` and
    `U11_condition` the ``dgecon`` estimate of its 1-norm condition
    (:func:`linalg.lu_factor`), exactly 1 for the Riccati transform."""

    U: np.ndarray
    V: np.ndarray
    F11: np.ndarray
    F12: np.ndarray
    F22: np.ndarray
    U11_lu: tuple
    U11_condition: float
    K: np.ndarray

    @property
    def n(self):
        return self.F11.shape[0]


@dataclass(frozen=True)
class BvpSolution:
    """Initial data and generator of the unique decaying solution, shifted
    by ``rho/2``: the decaying solution is ``exp(-rho*t/2)`` times the one
    described here.

    In transformed coordinates ``y = V z`` the trailing half is the constant
    ``y2 = y2_offset`` and the leading half is propagated by
    ``exp(y1_generator * t)`` acting on ``(y1_0, 1)``, where the shifted
    generator is ``[[F11 + (rho/2) I, forcing], [0, 0]]``.
    """

    z1_0: np.ndarray
    z2_0: np.ndarray
    y1_0: np.ndarray
    y2_offset: np.ndarray
    y1_generator: np.ndarray


def decompose_from_riccati(K, aux):
    """Dichotomy transform of ``K = [[A_shift, -M], [Q_coupling, -A_shift']]``
    from `aux`, the certified solution (a
    :class:`riccati.StabilizingRiccatiSolution`) of its Riccati equation
    ``X A_shift + A_shift' X - X M X - Q_coupling = 0``.

    ``U = [[I, 0], [X, I]]`` triangularizes `K` exactly, with
    ``F11 = A_shift - M X`` (the certified stable closed loop),
    ``F12 = -M`` and ``F22 = -F11'``; nothing is checked again here, and
    ``U11 = I`` is its own LU factorization (no pivoting).
    """
    n = aux.X.shape[0]
    ident = add_diag(np.zeros((n, n)), 1.0)
    return DichotomyDecomposition(
        U=block_2x2(ident, 0.0, aux.X, ident), V=block_2x2(ident, 0.0, -aux.X, ident),
        F11=aux.closed_loop, F12=K[:n, n:], F22=-aux.closed_loop.T,
        U11_lu=(ident, np.arange(n, dtype=np.int32)), U11_condition=1.0, K=K,
    )


def decompose_from_schur(K):
    """Dichotomy transform of a generic 2n-by-2n matrix from the ordered
    real Schur form ``W S W'`` of ``inv(T) K T`` (:func:`linalg.block_balance`):
    ``U = T W`` and ``V = W' inv(T)``, exact scalings of the orthogonal `W`.
    The axis tolerance is that of the balanced matrix.

    Raises
    ------
    ImaginaryAxisEigenvalue
        If the spectrum touches the imaginary axis.
    DichotomySplitFailure
        If the stable/antistable split is not n/n.
    GraphSubspaceFailure
        If the leading n-by-n block of `U` has 1-norm condition estimate
        above :data:`linalg.CONDITION_LIMIT`, 1e12.
    """
    n = K.shape[0] // 2
    balanced, c = block_balance(K)
    s, w, k_stable = real_schur_ordered(balanced)
    if k_stable != n:
        raise DichotomySplitFailure(
            f"stable/antistable split is {k_stable}/{2 * n - k_stable}, need {n}/{n}"
        )
    lu, piv, condition = lu_factor(w[:n, :n])
    if not condition <= CONDITION_LIMIT:
        raise GraphSubspaceFailure(
            f"leading transform block has condition {condition:.3e}; "
            "the stable subspace is not a graph subspace"
        )
    u, v = w, w.T
    if c != 1.0:
        scale = np.repeat([1.0, c], n)  # the diagonal of T
        u, v = u * scale[:, None], v / scale
    return DichotomyDecomposition(
        U=u,
        V=v,
        F11=s[:n, :n],
        F12=s[:n, n:],
        F22=s[n:, n:],
        U11_lu=(lu, piv),
        U11_condition=float(condition),
        K=K,
    )


def solve_decaying(d, z1_0, psi0, rho):
    """Unique decaying solution of ``dz/dt = K z + psi0 exp(-rho*t/2)``.

    Given the leading initial half ``z1(0)``, computes the only trailing
    half ``z2(0)`` for which the solution stays bounded on ``[0, inf)``.
    The trailing transformed component must equal
    ``y2(t) = c * exp(-rho*t/2)`` with
    ``c = -inv(F22 + (rho/2) I) @ (V @ psi0)[n:]``,
    the closed form of ``-int_0^inf exp(-F22*s) (V psi)(s) ds`` (convergent
    because ``-F22`` is stable and ``rho > 0``); the leading transformed
    initial value then follows from ``U11 y1(0) = z1(0) - U12 c``, solved
    on the factors `U11_lu` of the decomposition.  The result is stored
    shifted by ``rho/2`` (:class:`BvpSolution`): ``y2 = c`` is constant and
    the generator is ``[[F11 + (rho/2) I, F12 c + (V psi0)[:n]], [0, 0]]``.
    """
    n = d.n
    v_psi = d.V @ psi0
    c = -solve_linear(add_diag(d.F22, 0.5 * rho), v_psi[n:])
    y1_0 = lu_solve(*d.U11_lu, z1_0 - d.U[:n, n:] @ c)
    z2_0 = d.U[n:, :n] @ y1_0 + d.U[n:, n:] @ c
    forcing = d.F12 @ c + v_psi[:n]
    generator = np.zeros((n + 1, n + 1))
    generator[:n, :n] = add_diag(d.F11, 0.5 * rho)
    generator[:n, n] = forcing
    return BvpSolution(z1_0=z1_0, z2_0=z2_0, y1_0=y1_0, y2_offset=c,
                       y1_generator=generator)


def evaluate_trajectory(sol, d, t_grid):
    """Sample the shifted decaying solution ``exp(rho*t/2) z(t)`` on a
    nonnegative time grid; no factor ``exp(+-rho*t/2)`` is applied.

    The grid is cut into maximal runs of equal steps.  A run of `L` steps
    from ``t_prev`` takes one matrix exponential ``E = exp(y1_generator*h)``
    with ``h = (t_last - t_prev) / L`` and fills the augmented states
    ``E^1 w ... E^L w`` of ``w = (y1, theta)`` by doubling, so a uniform
    grid costs one exponential and about ``log2(L)`` small products, with
    no integration drift.  The i-th point of a run is evaluated at
    ``t_prev + i*h``, at most a few ulps from its grid value; ``y2`` is
    the constant ``y2_offset``.  Returns an array of shape
    ``(len(t_grid), 2n)`` whose rows are ``exp(rho*t/2) z(t)``.

    Raises ``ValueError``, naming the grid end, if a sample overflows.
    """
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t.ndim != 1:
        raise ValueError("t_grid must be one-dimensional")
    dt = t.copy()  # the steps from 0, unless the end is not finite (inf - inf warns)
    dt[1:] -= t[:-1] if t.size and t[-1] < np.inf else 0.0
    if t.size and not (dt.min() >= 0.0 and t[-1] < np.inf):  # NaN fails both
        raise ValueError("t_grid must be finite, nonnegative and nondecreasing")
    n = d.n
    w = np.concatenate([sol.y1_0, [1.0]])
    states = np.empty((t.size, n + 1))
    steps = {}
    # a growing solution overflows once its growth rate times t_end nears 709
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for lo, hi, h in _equal_step_runs(t, dt):
                if h == 0.0:
                    states[lo:hi] = w
                else:
                    stepper = steps.get(h)
                    if stepper is None:
                        stepper = steps[h] = mat_exp(sol.y1_generator * h)
                    np.matmul(stepper, w, out=states[lo])
                    fill_powers(stepper, states[lo:hi])
                w = states[hi - 1]
            y = np.empty((t.size, 2 * n))
            y[:, :n] = states[:, :n]
            y[:, n:] = sol.y2_offset
            z = y @ d.U.T
        except OverflowError:
            z = None
    if z is None or not np.isfinite(z).all():
        raise ValueError(f"the trajectory overflows before the grid end t = {t[-1]:g}")
    # z(0) is (z1_0, z2_0) by construction; bypass the transform roundoff
    zeros = np.searchsorted(t, 0.0, "right")  # the zero times lead the grid
    z[:zeros, :n], z[:zeros, n:] = sol.z1_0, sol.z2_0
    return z


def _equal_step_runs(t, dt):
    """The ``(lo, hi, h)`` of the maximal runs ``t[lo:hi]`` of equal steps of
    the sorted grid `t`, whose steps from 0 are `dt`, in grid order.

    Two steps are equal when they differ by at most ``8 eps max(t_end, 1)``,
    which covers the rounding of ``linspace``, ``arange`` and ``i*dt``
    grids.  The run's step ``h = (t[hi-1] - t_prev) / (hi - lo)`` makes its
    endpoint exact.  A run of more than two steps must also stay within that
    tolerance of ``t_prev + i*h`` at every point, so slowly drifting steps
    cannot add up; a run that does not is bisected.
    """
    if not t.size:
        return []
    tol = 8.0 * np.finfo(float).eps * max(t[-1], 1.0)
    bounds = [0, *(np.flatnonzero(np.abs(np.diff(dt)) > tol) + 1).tolist(), t.size]
    pending, runs = list(zip(bounds[:-1], bounds[1:]))[::-1], []
    while pending:
        lo, hi = pending.pop()
        t_prev = float(t[lo - 1]) if lo else 0.0
        count = hi - lo
        h = (float(t[hi - 1]) - t_prev) / count
        if count > 2 and np.abs(
                t_prev + h * np.arange(1, count + 1) - t[lo:hi]).max() > tol:
            mid = (lo + hi) // 2
            pending += [(mid, hi), (lo, mid)]
            continue
        runs.append((lo, hi, h))
    return runs


def sample_trajectory(self, t_grid):
    """Sample ``(xbar(t), s(t))`` on a nonnegative grid.

    The ``trajectory`` method of the social and the game solutions, which
    both carry ``bvp`` and ``decomposition``.  Returns two arrays of shape
    ``(len(t_grid), n)``: the undiscounted pair is the shifted form that
    :func:`evaluate_trajectory` samples, as stored."""
    n = self.decomposition.n
    z = evaluate_trajectory(self.bvp, self.decomposition, t_grid)
    return z[:, :n], z[:, n:]
