"""Decaying solutions of linear ODEs with an exponential dichotomy.

The systems handled here have the form ``dz/dt = K z + psi0 * exp(-rho*t/2)``
with ``z`` of dimension 2n and `K` splitting n/n across the imaginary axis.
Its stable invariant subspace is the graph ``[I; Y]`` of an n-by-n `Y`,
the solution of the Riccati equation
``K21 + K22 Y - Y K11 - Y K12 Y = 0`` with a stable ``K11 + K12 Y``; for
a Hamiltonian `K` it is the symmetric stabilizing solution, for the game's
matrix a non-symmetric one.  :func:`decompose_from_schur` computes `Y`
from the ordered real Schur form, the one splitting of the package: the
Riccati solves (:func:`riccati.solve_care_stabilizing`) and the game both
go through it, so its axis test, n/n check and condition limit are written
once.  :func:`decompose_from_riccati` certifies every `Y` it returns and
builds the one record of the certified graph, with the one transform
``U = [[I, 0], [Y, I]]``, under which there is exactly one choice
of the trailing half ``z2(0) = Y z1(0) + c`` of the initial state that
keeps the solution bounded (indeed exponentially decaying) on
``[0, inf)``; every other choice blows up at the antistable rate.  The
improper integral behind `c` is evaluated in closed form as a linear
solve.  The solution is stored shifted by ``rho/2``: it is
``exp(-rho*t/2)`` times a solution with ``z2 = Y z1 + c`` at every time,
which is the undiscounted form the callers sample, and no
``exp(rho*t/2)`` factor can overflow on a long horizon; both solvers
fill the one record :class:`ConsistencySolution` with it.  Trajectory
samples come from an augmented matrix exponential, not ODE stepping: one
exponential per run of equal grid steps, with the states along the run
filled by repeated squaring, so a uniform grid of N points costs one
exponential and about ``log2(N)`` small products.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DichotomySplitFailure, GraphSubspaceFailure
from .linalg import (CONDITION_LIMIT, add_diag, block_balance, dlange, fill_powers, fro,
                     lu_factor, lu_solve, mat_exp, real_schur_ordered, solve_linear,
                     spectral_abscissa)

# a uniform grid (:func:`uniform_grid`) has at most this many points
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class DichotomyDecomposition:
    """The certified graph ``[I; Y]`` of the stable invariant subspace of
    the source matrix `K` (:func:`decompose_from_riccati`) and its
    transform: with ``U = [[I, 0], [Y, I]]`` and its inverse
    ``V = [[I, 0], [-Y, I]]``, ``V K U = [[F11, K12], [0, F22]]``, where
    ``F11 = K11 + K12 Y`` is stable and ``F22 = K22 - Y K12`` antistable.

    `residual` is the Frobenius norm of the graph's Riccati equation at `Y`;
    `spectrum_margin` is ``-max Re eig(F11) > 0``.
    """

    K: np.ndarray
    Y: np.ndarray
    F11: np.ndarray
    F22: np.ndarray
    residual: float
    spectrum_margin: float

    @property
    def n(self):
        return self.F11.shape[0]


@dataclass(frozen=True)
class BvpSolution:
    """Initial data and generator of the unique decaying solution, shifted
    by ``rho/2``: the decaying solution is ``exp(-rho*t/2)`` times the one
    described here.

    In transformed coordinates ``y = V z`` the leading half is ``z1`` and
    the trailing half is the constant ``y2 = y2_offset``; the leading half
    is propagated by ``exp(y1_generator * t)`` acting on ``(z1_0, 1)``,
    where the shifted generator is ``[[F11 + (rho/2) I, forcing], [0, 0]]``.
    """

    z1_0: np.ndarray
    z2_0: np.ndarray
    y2_offset: np.ndarray
    y1_generator: np.ndarray


@dataclass(frozen=True)
class ConsistencySolution:
    """A solved consistency system, social or game: the Riccati solution
    `Pi`, the certified graph of the consistency matrix ``decomposition.K``,
    the decaying solution `bvp` with ``s0 = bvp.z2_0``, and the Riccati
    residual of `Pi` (that of the graph is ``decomposition.residual``)."""

    Pi: np.ndarray
    decomposition: DichotomyDecomposition
    s0: np.ndarray
    bvp: BvpSolution
    pi_residual: float

    @classmethod
    def from_split(cls, p, are, d, forcing):
        """The record of the problem `p` from the decompositions `are` of its
        Riccati equation and `d` of its consistency matrix, and the forcing
        ``(0, forcing)`` of :func:`solve_decaying` from ``x0``."""
        bvp = solve_decaying(d, p.x0, np.concatenate([np.zeros(p.n), forcing]), p.rho)
        return cls(Pi=are.Y, decomposition=d, s0=bvp.z2_0, bvp=bvp,
                   pi_residual=are.residual)


def decompose_from_riccati(K, Y):
    """The one check of a graph ``[I; Y]`` of the stable invariant subspace
    of `K`, symmetric or not, and the one constructor of its
    :class:`DichotomyDecomposition`.

    :class:`GraphSubspaceFailure` unless the closed loop
    ``F11 = K11 + K12 Y`` is stable and the residual
    ``K21 + K22 Y - Y K11 - Y K12 Y`` of the subspace's Riccati equation is
    within 1e-7 of ``||K21|| + (||K11|| + ||K22||) ||Y|| + ||K12|| ||Y||^2``
    (Sun 1997), which for a Hamiltonian is the residual of
    ``X A_o + A_o' X - X M X + Q_o = 0`` and its scale; ``ValueError`` if
    the closed loop overflows."""
    n = len(Y)
    k11, k12, k21, k22 = K[:n, :n], K[:n, n:], K[n:, :n], K[n:, n:]
    f11 = k11 + k12 @ Y
    if not dlange("M", f11) < np.inf:  # NaN fails too
        raise ValueError("the closed loop A_o - M X overflows")
    y_k12 = Y @ k12  # for the residual and for F22
    residual = fro(Y @ k11 - k22 @ Y + y_k12 @ Y - k21)
    margin = -spectral_abscissa(f11)
    ny = fro(Y)
    scale = fro(k21) + ny * (fro(k11) + fro(k22) + fro(k12) * ny)
    if margin <= 0.0 or residual > 1e-7 * scale:
        raise GraphSubspaceFailure(
            f"solution failed certification (residual {residual:.3e}, "
            f"closed-loop margin {margin:.3e})"
        )
    return DichotomyDecomposition(K=K, Y=Y, F11=f11, F22=k22 - y_k12,
                                  residual=residual, spectrum_margin=margin)


def decompose_from_schur(K):
    """The graph ``Y = U21 inv(U11)`` of the stable invariant subspace of a
    2n-by-2n matrix, from the ordered real Schur form ``W S W'`` of
    ``inv(T) K T`` (:func:`linalg.block_balance`): ``U = T W``, an exact
    scaling of the orthogonal `W`.  The axis tolerance is that of the
    balanced matrix.  `Y` is solved on the LU factors of ``U11 = W11``;
    :func:`decompose_from_riccati` checks it, symmetrized first by
    :func:`riccati.solve_care_stabilizing` for a Hamiltonian.

    Raises
    ------
    ImaginaryAxisEigenvalue
        If the spectrum touches the imaginary axis.
    DichotomySplitFailure
        If the stable/antistable split is not n/n.
    GraphSubspaceFailure
        If `U11` has 1-norm condition estimate above
        :data:`linalg.CONDITION_LIMIT`, 1e12.
    """
    n = K.shape[0] // 2
    balanced, c = block_balance(K)
    _, w, k_stable = real_schur_ordered(balanced)
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
    # Y U11 = U21 with U21 = c W21, solved as U11' Y' = U21' on the factors of U11
    return lu_solve(lu, piv, c * w[n:, :n].T, trans=1).T


def solve_decaying(d, z1_0, psi0, rho):
    """Unique decaying solution of ``dz/dt = K z + psi0 exp(-rho*t/2)``.

    Given the leading initial half ``z1(0)``, computes the only trailing
    half ``z2(0) = Y z1(0) + c`` for which the solution stays bounded on
    ``[0, inf)``.  The trailing transformed component
    ``y2 = z2 - Y z1`` must equal ``c * exp(-rho*t/2)`` with
    ``c = -inv(F22 + (rho/2) I) @ (psi0[n:] - Y psi0[:n])``,
    the closed form of ``-int_0^inf exp(-F22*s) (V psi)(s) ds`` (convergent
    because ``-F22`` is stable and ``rho > 0``).  The result is stored
    shifted by ``rho/2`` (:class:`BvpSolution`): ``y2 = c`` is constant and
    the generator is ``[[F11 + (rho/2) I, K12 c + psi0[:n]], [0, 0]]``.
    """
    n = d.n
    c = -solve_linear(add_diag(d.F22, 0.5 * rho), psi0[n:] - d.Y @ psi0[:n])
    generator = np.zeros((n + 1, n + 1))
    generator[:n, :n] = d.F11
    generator.reshape(-1)[:n * (n + 2):n + 2] += 0.5 * rho  # the diagonal of F11
    generator[:n, n] = d.K[:n, n:] @ c + psi0[:n]
    return BvpSolution(z1_0=z1_0, z2_0=d.Y @ z1_0 + c, y2_offset=c,
                       y1_generator=generator)


def evaluate_trajectory(sol, d, t_grid):
    """Sample the shifted decaying solution ``exp(rho*t/2) z(t)`` on a
    nonnegative time grid; no factor ``exp(+-rho*t/2)`` is applied.

    The grid is cut into maximal runs of equal steps.  A run of `L` steps
    from ``t_prev`` takes one matrix exponential ``E = exp(y1_generator*h)``
    with ``h = (t_last - t_prev) / L`` and fills the augmented states
    ``E^1 w ... E^L w`` of ``w = (z1, theta)`` by doubling, so a uniform
    grid costs one exponential and about ``log2(L)`` small products, with
    no integration drift.  The i-th point of a run is evaluated at
    ``t_prev + i*h``, at most a few ulps from its grid value.  Returns the
    halves ``(z1, z2)`` of ``exp(rho*t/2) z(t)``, two arrays of shape
    ``(len(t_grid), n)``, with ``z2 = z1 Y' + y2_offset``.

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
    w = np.concatenate([sol.z1_0, [1.0]])
    states = np.empty((t.size, n + 1))
    z1 = states[:, :n]
    # a growing solution overflows once its growth rate times t_end nears 709
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for lo, hi, h in _equal_step_runs(t, dt):
                if h == 0.0:
                    states[lo:hi] = w
                else:
                    stepper = mat_exp(sol.y1_generator * h)
                    np.matmul(stepper, w, out=states[lo])
                    fill_powers(stepper, states[lo:hi])
                w = states[hi - 1]
            z2 = z1 @ d.Y.T + sol.y2_offset
        except OverflowError:
            z2 = None
    if z2 is None or not (np.isfinite(z1).all() and np.isfinite(z2).all()):
        raise ValueError(f"the trajectory overflows before the grid end t = {t[-1]:g}")
    # z2(0) is z2_0 by construction; bypass the product's roundoff
    z2[:np.searchsorted(t, 0.0, "right")] = sol.z2_0  # the zero times lead the grid
    return z1, z2


def uniform_grid(t_end, dt):
    """The grid ``i * dt``, ``i = 0 ... round(t_end / dt)``, of the solve
    commands and :func:`simulate.simulate`.  ``ValueError`` unless
    ``0 < dt <= t_end < inf``, it has at most :data:`MAX_GRID_POINTS` points
    and ``t_end / dt`` is within a relative 1e-9 of a whole number of steps,
    checked before anything is allocated."""
    if not (0.0 < dt <= t_end < np.inf and t_end / dt < MAX_GRID_POINTS - 0.5):
        raise ValueError(f"invalid grid: t_end={t_end}, dt={dt} (need "
                         f"0 < dt <= t_end, at most {MAX_GRID_POINTS} points)")
    steps = round(t_end / dt)
    if abs(t_end / dt - steps) > 1e-9 * steps:
        raise ValueError(f"invalid grid: t_end={t_end}, dt={dt} (not a whole number of steps)")
    return np.arange(steps + 1) * dt


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

    The ``trajectory`` method of the social and the game solutions, each
    a :class:`ConsistencySolution`.  Returns two arrays of shape
    ``(len(t_grid), n)``: the undiscounted pair is the shifted form that
    :func:`evaluate_trajectory` samples, as stored."""
    return evaluate_trajectory(self.bvp, self.decomposition, t_grid)
