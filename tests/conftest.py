"""Shared fixtures and random-instance generators for the test suite."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mflq import ProblemData, riccati, validate
from mflq.dichotomy import decompose_from_riccati, decompose_from_schur, evaluate_trajectory
from mflq.errors import MflqError
from mflq.linalg import add_diag, block_2x2, eigenvalues, fro, weighted_gram
from mflq.problem import gamma_weights

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"


# ---------------------------------------------------------------------------
# Reference cases used throughout.  The frozen numbers are cross-checked by
# closed forms and residual substitution in the tests that use them.

def scalar_social_problem(D=None):
    """Scalar case a=2, b=1, q=2, r=1, rho=1, full mean-field tracking."""
    return ProblemData(A=[[2.0]], B=[[1.0]], Q=[[2.0]], R=[[1.0]],
                       Gamma=[[1.0]], eta=[1.0], rho=1.0, x0=[1.0], D=D)


def indefinite_social_problem(gamma_scale=2.0):
    """Two-state case with indefinite Q and indefinite coupling weight."""
    return ProblemData(
        A=[[1.0, -1.0], [0.0, 2.0]],
        B=[[1.0], [1.0]],
        Q=[[1.0, 0.0], [0.0, -0.5]],
        R=[[1.0]],
        Gamma=(gamma_scale * np.array([[1.0, 0.0], [0.5, 1.0]])),
        eta=[1.0, 0.0],
        rho=1.0,
        x0=[1.0, 1.0],
    )


def game_problem():
    """Two-state game case with strongly unstable open-loop drift."""
    return ProblemData(
        A=[[5.0, -5.0], [0.0, 10.0]],
        B=[[1.0], [1.0]],
        Q=np.eye(2),
        R=[[1.0]],
        Gamma=[[5.0, 0.0], [2.5, 5.0]],
        eta=[1.0, 0.0],
        rho=2.0,
        x0=[1.0, 1.0],
    )


def growing_mean_field_problem():
    """Scalar case a=0.9, b=q=r=1, Gamma=0.9, rho=2 whose mean field grows:
    at rate 0.86 under the social solution and 0.67 under the game's."""
    return ProblemData(A=[[0.9]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Gamma=[[0.9]], eta=[1.0], rho=2.0, x0=[1.0])


def degenerate_boundary_problem():
    """Scalar boundary case (drift = rho/2, full tracking): the consistency
    matrix has a double zero eigenvalue and no dichotomy exists."""
    return ProblemData(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Gamma=[[1.0]], eta=[1.0], rho=1.0, x0=[1.0], D=[[0.2]])


def lq_problem(A, B, Q, R, rho):
    """The discounted LQ data ``(A, B, Q, R, rho)`` as a :class:`ProblemData`
    with no coupling, zero `eta` and unit `x0`: the input of
    :func:`riccati.solve_discounted_are`."""
    n = np.shape(A)[0]
    return ProblemData(A=A, B=B, Q=Q, R=R, Gamma=np.zeros((n, n)), eta=np.zeros(n),
                       rho=rho, x0=np.ones(n))


def cost_problem(Q, Gamma, eta):
    """The cost data ``(Q, Gamma, eta)`` as a :class:`ProblemData` with
    ``A = 0``, one unit control and zero `x0`: the input of
    :func:`problem.gamma_weights`."""
    n = np.shape(Q)[0]
    return ProblemData(A=np.zeros((n, n)), B=np.ones((n, 1)), Q=Q, R=[[1.0]],
                       Gamma=Gamma, eta=eta, rho=1.0, x0=np.zeros(n))


def forget_front_end():
    """Drop the certified front end that :func:`riccati.solve_discounted_are`
    keeps and reuses on equal data, so that the next solve is cold."""
    riccati._last[:] = None, None


@pytest.fixture(autouse=True)
def cold_front_end():
    """Every test starts with no certified front end kept."""
    forget_front_end()


@pytest.fixture
def scalar_social():
    return scalar_social_problem()


@pytest.fixture
def indefinite_social():
    return indefinite_social_problem()


@pytest.fixture
def game_case():
    return game_problem()


# ---------------------------------------------------------------------------
# Random-instance generators.  All draw from a caller-provided Generator so
# test runs are reproducible; rejection loops enforce the preconditions the
# solvers state (stabilizability, axis margins) with a safety margin.

def random_spectrum_matrix(rng, n_stable, n_anti, rate_lo=0.3, rate_hi=1.2):
    """Matrix with known stable/antistable eigenvalue counts.

    Real parts are drawn from +-[rate_lo, rate_hi]; about half the room is
    spent on complex-conjugate pairs.  Returns (K, stable_eigs, anti_eigs).
    """
    def half(count, sign):
        blocks = []
        eigs = []
        left = count
        while left > 0:
            if left >= 2 and rng.random() < 0.5:
                re = sign * rng.uniform(rate_lo, rate_hi)
                im = rng.uniform(0.2, 1.5)
                blocks.append(np.array([[re, im], [-im, re]]))
                eigs += [complex(re, im), complex(re, -im)]
                left -= 2
            else:
                re = sign * rng.uniform(rate_lo, rate_hi)
                blocks.append(np.array([[re]]))
                eigs.append(complex(re, 0.0))
                left -= 1
        return blocks, eigs

    stable_blocks, stable_eigs = half(n_stable, -1.0)
    anti_blocks, anti_eigs = half(n_anti, +1.0)
    m = n_stable + n_anti
    core = np.zeros((m, m))
    pos = 0
    for blk in stable_blocks + anti_blocks:
        k = blk.shape[0]
        core[pos:pos + k, pos:pos + k] = blk
        pos += k
    # well-conditioned but non-orthogonal similarity
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    scales = np.exp(rng.uniform(-0.4, 0.4, size=m))
    p = q1 @ np.diag(scales) @ q2
    k_mat = p @ core @ np.linalg.inv(p)
    return k_mat, stable_eigs, anti_eigs


def hamiltonian(a_o, m, q_o):
    """The Hamiltonian ``[[A_o, -M], [-Q_o, -A_o']]`` of the Riccati
    equation ``X A_o + A_o' X - X M X + Q_o = 0``: the input of
    :func:`riccati.solve_care_stabilizing`."""
    return block_2x2(a_o, -m, -q_o, -a_o.T)


def data_only_matrix(p, q_c):
    """ROADMAP item 3's ``G_c = [[A_o, -M], [-(Q - q_c), -A_o']]`` of the
    problem `p`, with ``A_o = A - (rho/2) I`` and ``M = B inv(R) B'``: the
    consistency matrix before the front end's transform, with
    ``q_c = Q_Gamma`` for the social problem and ``Q Gamma`` for the game."""
    return hamiltonian(add_diag(p.A, -0.5 * p.rho), weighted_gram(p.B, p.R), p.Q - q_c)


def care_residual(x, a_o, m, q_o):
    """Frobenius norm of ``X A_o + A_o' X - X M X + Q_o`` at ``X = x``."""
    r = x @ a_o + a_o.T @ x - x @ m @ x + q_o
    return fro(r)


def random_care_problem(rng, max_n=6, axis_margin=1e-3):
    """Stabilizable Riccati data ``(A_o, M, Q_o)`` with possibly indefinite
    state weight and a Hamiltonian spectrum at least `axis_margin` away
    from the axis."""
    from mflq.riccati import stabilizability_margin

    while True:
        n = int(rng.integers(1, max_n + 1))
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        m_rank = int(rng.integers(1, n + 1))
        c = rng.standard_normal((n, m_rank))
        m = c @ c.T
        g = rng.standard_normal((n, n))
        q = 0.5 * (g + g.T)
        if stabilizability_margin(a, m) <= 1e-6:
            continue
        m = 0.5 * (m + m.T)
        lam = eigenvalues(hamiltonian(a, m, q))
        if np.abs(lam.real).min() <= axis_margin:
            continue
        return a, m, q


def random_problem(rng, max_n=4, coupling="generic", with_noise=False,
                   axis_margin=1e-3):
    """Random valid problem instance.

    `coupling` selects the mean-field weight: "generic" (dense Gamma),
    "zero" (no coupling) or "nonpositive" (Gamma = c*I with c in [2, 4] and
    Q >= 0, which forces the coupling-adjusted state weight <= 0).
    Rejection keeps only instances passing validation whose consistency
    matrix spectrum is at least `axis_margin` off the axis.
    """
    while True:
        n = int(rng.integers(1, max_n + 1))
        n1 = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, n)) * 0.8
        b = rng.standard_normal((n, n1))
        if coupling == "nonpositive":
            g = rng.standard_normal((n, n))
            q = g @ g.T / n + 0.1 * np.eye(n)
            gam = float(rng.uniform(2.0, 4.0)) * np.eye(n)
        else:
            g = rng.standard_normal((n, n))
            q = 0.5 * (g + g.T)
            gam = np.zeros((n, n)) if coupling == "zero" \
                else rng.standard_normal((n, n)) * 0.5
        ell = rng.standard_normal((n1, n1))
        r = ell @ ell.T / n1 + 0.3 * np.eye(n1)
        eta = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        rho = float(rng.uniform(0.5, 2.0))
        d = 0.2 * rng.standard_normal((n, max(1, n - 1))) if with_noise else None
        try:
            p = ProblemData(A=a, B=b, Q=q, R=r, Gamma=gam, eta=eta,
                            rho=rho, x0=x0, D=d)
        except ValueError:
            continue
        report = validate(p)
        if not report.ok or report.stabilizability_margin < 1e-4:
            continue
        if report.axis_margin < axis_margin:
            continue
        # also require the coupled consistency matrix to be splittable
        from mflq.riccati import consistency_matrix, solve_discounted_are

        try:
            are = solve_discounted_are(p)
        except (MflqError, ValueError):
            continue
        h = consistency_matrix(are, gamma_weights(p)[0])
        lam = eigenvalues(h)
        if np.abs(lam.real).min() <= axis_margin:
            continue
        return p


@pytest.fixture(scope="session")
def random_draws():
    """300 ``random_problem(max_n=6)`` draws from ``default_rng(2026)``,
    the draws of the API corpus of ``tools/same_outputs.py``."""
    rng = np.random.default_rng(2026)
    return [random_problem(rng, max_n=6) for _ in range(300)]


# ---------------------------------------------------------------------------
# Scalar problems with an exact verdict.  For n = 1, with a_o = a - rho/2 and
# m = b^2/r, the discounted Hamiltonian has eigenvalues +-sqrt(d1),
# d1 = a_o^2 + m q, and its closed loop is -sqrt(d1); the consistency matrix
# [[-sqrt(d1), -m], [c, sqrt(d1)]] then has eigenvalues +-sqrt(d1 - m c), with
# c = Q_Gamma = q gamma (2 - gamma) for the social solve and q gamma for the
# game.  With b != 0 a solver must solve iff d1 > 0 and its own d2 > 0.
# Every double is a dyadic rational, so Fraction decides both signs exactly.

# a gap sqrt(|d|) above this times the scale is decided: more than 1,000 times
# the axis tolerance 1e-9 (1 + ||K||_F) of either matrix
DECIDED = 1e-5


def scalar_discriminants(p):
    """``(d1, {"social": d2, "game": d2}, scale)`` of the scalar problem
    `p`, in rationals from its doubles; `scale` is ``1 + |a_o| + m + |q|``."""
    a, b, q, r, g, rho = (Fraction(float(x)) for x in
                          (p.A[0, 0], p.B[0, 0], p.Q[0, 0], p.R[0, 0], p.Gamma[0, 0], p.rho))
    a_o, m = a - rho / 2, b * b / r
    d1 = a_o * a_o + m * q
    d2 = {"social": a_o * a_o + m * q * (1 - g) ** 2, "game": a_o * a_o + m * q * (1 - g)}
    return d1, d2, 1 + abs(a_o) + m + abs(q)


def scalar_decided(discriminants, solver, rel):
    """Whether ``sqrt(|d1|)`` and ``sqrt(|d2|)`` of `solver` ("social" or
    "game") both exceed ``rel * scale``, from the
    :func:`scalar_discriminants` of a scalar problem."""
    d1, d2, scale = discriminants
    bound = (Fraction(rel) * scale) ** 2
    return abs(d1) > bound and abs(d2[solver]) > bound


def random_scalar_problem(rng):
    """Scalar problem with ``a, q ~ U(-3, 3)``, ``|b|`` uniform in
    ``[1e-2, 2]`` of either sign, ``r ~ U(0.1, 3)``, ``gamma ~ U(-1, 3)``,
    ``rho ~ U(0.2, 3)`` and ``eta, x0 ~ U(-2, 2)``."""
    a, q = rng.uniform(-3.0, 3.0, 2)
    b = rng.choice([-1.0, 1.0]) * rng.uniform(1e-2, 2.0)
    eta, x0 = rng.uniform(-2.0, 2.0, 2)
    return ProblemData(A=[[a]], B=[[b]], Q=[[q]], R=[[rng.uniform(0.1, 3.0)]],
                       Gamma=[[rng.uniform(-1.0, 3.0)]], eta=[eta],
                       rho=rng.uniform(0.2, 3.0), x0=[x0])


def full_tracking_problem(rng):
    """Scalar full-tracking boundary: ``gamma = 1``, ``rho = k/8`` for k in
    2..23 and ``a = rho/2``, so ``a_o = 0`` and ``d2 = 0`` for both solvers
    exactly; ``b, q, r`` log-uniform in ``[1e-2, 1e2]``, ``eta, x0 ~ U(-2, 2)``."""
    rho = int(rng.integers(2, 24)) / 8
    b, q, r = 10.0 ** rng.uniform(-2.0, 2.0, 3)
    eta, x0 = rng.uniform(-2.0, 2.0, 2)
    return ProblemData(A=[[rho / 2]], B=[[b]], Q=[[q]], R=[[r]], Gamma=[[1.0]],
                       eta=[eta], rho=rho, x0=[x0])


def degenerate_cost_problem(rng, k):
    """Scalar problem with ``Q = -a_o^2/m``, so ``d1 = 0`` exactly and no
    stabilizing solution exists, in the state units ``x -> 2^k x``.  The
    dyadic ``a_o = +-i/8`` (i in 1..16), ``rho = j/8`` (j in 2..23) and
    ``m = 2^e`` (e in -4..4) keep every product exact: ``B = 2^k``,
    ``R = 1/m``, ``Q = -a_o^2/(m 4^k)``; ``gamma ~ U(-1, 3)`` and ``eta, x0``
    are ``U(-2, 2)`` times ``2^k``."""
    a_o = rng.choice([-1.0, 1.0]) * int(rng.integers(1, 17)) / 8
    rho = int(rng.integers(2, 24)) / 8
    m = 2.0 ** int(rng.integers(-4, 5))
    eta, x0 = np.ldexp(rng.uniform(-2.0, 2.0, 2), k)
    return ProblemData(A=[[a_o + rho / 2]], B=[[2.0**k]], Q=[[-a_o * a_o / m / 4.0**k]],
                       R=[[1 / m]], Gamma=[[rng.uniform(-1.0, 3.0)]], eta=[eta],
                       rho=rho, x0=[x0])


def direct_sum_problem(rng, emax):
    """``(p, blocks, S)``: the direct sum of 1-3 :func:`random_scalar_problem`
    blocks, which share the first block's `rho`, in the coordinates
    ``x -> S x`` with ``S = diag(2^e) P``, `P` a random permutation and `e`
    integers with ``|e| <= emax``.  ``A -> S A inv(S)``, ``B -> S B``,
    ``Q -> inv(S)' Q inv(S)``, ``Gamma -> S Gamma inv(S)``, ``eta -> S eta``
    and ``x0 -> S x0``; `R` does not change.  Every product has one nonzero
    term that is a power of two times a block's entry, so it is exact, and
    the verdict is the AND of the blocks'; ``S' s0`` stacks the blocks' `s0`."""
    k = int(rng.integers(1, 4))
    blocks = [random_scalar_problem(rng) for _ in range(k)]
    blocks = [dataclasses.replace(b, rho=blocks[0].rho) for b in blocks]
    e = rng.integers(-emax, emax + 1, k)
    s = np.ldexp(np.eye(k)[rng.permutation(k)], e[:, None])
    s_inv = np.ldexp(s.T, -2 * e[None, :])  # P' diag(2^-e)
    a, b, q, r, g, eta, x0 = (np.array([getattr(blk, name).flat[0] for blk in blocks])
                              for name in ("A", "B", "Q", "R", "Gamma", "eta", "x0"))
    p = ProblemData(A=s @ np.diag(a) @ s_inv, B=s @ np.diag(b),
                    Q=s_inv.T @ np.diag(q) @ s_inv, R=np.diag(r),
                    Gamma=s @ np.diag(g) @ s_inv, eta=s @ eta, rho=blocks[0].rho,
                    x0=s @ x0)
    return p, blocks, s


def multiset_close(a, b, tol):
    """Greedy complex multiset match within `tol` (robust to sort ties)."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    if len(a) != len(b):
        return False
    for za in a:
        dists = [abs(za - zb) for zb in b]
        j = int(np.argmin(dists))
        if dists[j] > tol:
            return False
        b.pop(j)
    return True


def scaled_close(actual, expected, tol):
    """|actual - expected| <= tol * (1 + magnitude), elementwise sup."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = 1.0 + max(np.abs(actual).max(initial=0.0),
                      np.abs(expected).max(initial=0.0))
    return float(np.abs(actual - expected).max(initial=0.0)) <= tol * scale


def decaying_trajectory(sol, d, rho, t_grid):
    """The decaying solution ``z(t)`` itself: the stored shifted form that
    :func:`dichotomy.evaluate_trajectory` samples, times ``exp(-rho*t/2)``."""
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))
    return np.hstack(evaluate_trajectory(sol, d, t)) * np.exp(-0.5 * rho * t)[:, None]


def graph_decomposition(k):
    """The splitting of a generic 2n-by-2n `k`, as the game splits its
    matrix: the certified graph of the ordered Schur form's stable
    subspace, and its transform."""
    return decompose_from_riccati(k, decompose_from_schur(k))


def graph_transform(d):
    """``(U, V, T)`` of the decomposition `d`: ``U = [[I, 0], [Y, I]]``, its
    inverse ``V = [[I, 0], [-Y, I]]`` and the block triangular
    ``T = [[F11, K12], [0, F22]]`` that ``V K U`` equals."""
    n = d.n
    ident = np.eye(n)
    return (block_2x2(ident, 0.0, d.Y, ident), block_2x2(ident, 0.0, -d.Y, ident),
            block_2x2(d.F11, d.K[:n, n:], 0.0, d.F22))
