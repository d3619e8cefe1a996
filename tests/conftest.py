"""Shared fixtures and random-instance generators for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from mflq import ProblemData, validate
from mflq.linalg import block_2x2, eigenvalues
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


def degenerate_boundary_problem():
    """Scalar boundary case (drift = rho/2, full tracking): the consistency
    matrix has a double zero eigenvalue and no dichotomy exists."""
    return ProblemData(A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Gamma=[[1.0]], eta=[1.0], rho=1.0, x0=[1.0], D=[[0.2]])


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
        lam = eigenvalues(block_2x2(a, -m, -q, -a.T))
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
        from mflq.riccati import solve_discounted_are
        from mflq.social import build_hamiltonian

        try:
            are = solve_discounted_are(p.A, p.B, p.Q, p.R, p.rho)
        except Exception:
            continue
        h = build_hamiltonian(are, gamma_weights(p.Q, p.Gamma, p.eta))
        lam = eigenvalues(h)
        if np.abs(lam.real).min() <= axis_margin:
            continue
        return p


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
