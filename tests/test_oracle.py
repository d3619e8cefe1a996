"""Forward errors against a 40-digit reference, and exact cost scaling.

The reference takes the stable eigenvectors ``W`` of each 2n-by-2n matrix
in ``mpmath`` (``mp.eig``) and forms its graph ``W2 inv(W1)``: `Pi` from
the discount-shifted Hamiltonian, `X_plus` from the social Hamiltonian
`H`.  ``s0`` of the decaying solution of ``z' = K z + psi0 exp(-rho t/2)``
is in closed form: ``z_p = -inv(K + rho/2 I) psi0`` is the particular
solution, and ``z(0) - z_p`` must lie in the stable subspace, so
``s0 = z_p2 + W2 inv(W1) (x0 - z_p1)``.  Every matrix is rebuilt from the
double-precision inputs, so the reference solves the same rounded problem.
"""

import mpmath as mp
import numpy as np
import pytest

from conftest import PROBLEM_DIR, random_problem
from mflq import ProblemData, solve_mfg, solve_sce
from mflq.cli import load_problem_file
from mflq.errors import (DichotomySplitFailure, ImaginaryAxisEigenvalue,
                         MflqError, NonPositiveR)

SOLVABLE = ["ex41", "ex42_gamma005", "ex42_gamma2", "ex43"]
DIGITS = 40

# forward error of a solution, relative to its largest entry; the largest
# seen on these inputs is 1.3e-13 (X_plus)
TOL = 1e-12


def _mp(a):
    return mp.matrix(np.atleast_2d(np.asarray(a, dtype=float)).tolist())


def _blocks(a11, a12, a21, a22):
    n = a11.rows
    out = mp.matrix(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            out[i, j], out[i, n + j] = a11[i, j], a12[i, j]
            out[n + i, j], out[n + i, n + j] = a21[i, j], a22[i, j]
    return out


def _graph(k):
    """``(W2 inv(W1), min |Re lam|)`` from the eigenpairs of the 2n-by-2n
    `k`; the graph is None when the split is not n/n."""
    m = k.rows
    n = m // 2
    lam, vecs = mp.eig(k)
    axis_distance = min(abs(mp.re(z)) for z in lam)
    stable = [i for i in range(m) if mp.re(lam[i]) < 0]
    if len(stable) != n:
        return None, axis_distance
    w = mp.matrix(m, n)
    for col, i in enumerate(stable):
        for r in range(m):
            w[r, col] = vecs[r, i]
    return w[n:, :] * mp.inverse(w[:n, :]), axis_distance


def _s0(k, graph, x0, psi0, rho):
    n = graph.rows
    zp = -mp.lu_solve(k + rho / 2 * mp.eye(2 * n), psi0)
    return zp[n:, 0] + graph * (x0 - zp[:n, 0])


def _real(a):
    return np.array([[float(mp.re(a[i, j])) for j in range(a.cols)]
                     for i in range(a.rows)])


def reference(p):
    """``Pi``, ``X_plus``, ``s0_social`` and ``s0_game`` at 40 digits, and
    ``H_axis_distance``, the least ``|Re lam|`` over the spectrum of `H`.
    An entry is None when its matrix does not split n/n."""
    with mp.workdps(DIGITS):
        n = p.n
        rho = mp.mpf(p.rho)
        a, b, q, r = _mp(p.A), _mp(p.B), _mp(p.Q), _mp(p.R)
        gam, eta, x0 = _mp(p.Gamma), _mp(p.eta).T, _mp(p.x0).T
        ident = mp.eye(n)
        zero = mp.matrix(n, 1)
        m = b * mp.inverse(r) * b.T
        a_o = a - rho / 2 * ident
        pi, _ = _graph(_blocks(a_o, -m, -q, -a_o.T))
        pi = (pi + pi.T) / 2
        a_s = a_o - m * pi
        q_gamma = gam.T * q + q * gam - gam.T * q * gam
        out = {"Pi": _real(pi)}
        for key, k, forcing in (
                ("social", _blocks(a_s, -m, q_gamma, -a_s.T),
                 (ident - gam.T) * q * eta),
                ("game", _blocks(a_s, -m, q * gam, -a_s.T), q * eta)):
            graph, axis_distance = _graph(k)
            out[f"s0_{key}"] = None if graph is None else _real(
                _s0(k, graph, x0, _stack(zero, forcing), rho))[:, 0]
            if key == "social":
                out["X_plus"] = None if graph is None else _real(graph)
                out["H_axis_distance"] = axis_distance
        return out


def _stack(top, bottom):
    n = top.rows
    out = mp.matrix(2 * n, 1)
    for i in range(n):
        out[i, 0], out[n + i, 0] = top[i, 0], bottom[i, 0]
    return out


def _rel(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def _scaled(p, cost=1.0, unit=1.0):
    """`p` with ``(Q, R) -> cost (Q, R)`` and ``(B, R) -> (unit B, unit^2 R)``."""
    return ProblemData(A=p.A, B=unit * p.B, Q=cost * p.Q,
                       R=cost * unit**2 * p.R, Gamma=p.Gamma, eta=p.eta,
                       rho=p.rho, x0=p.x0, D=p.D)


def check_against_reference(p):
    ref = reference(p)
    sol = solve_sce(p)
    assert _rel(sol.Pi, ref["Pi"]) <= TOL
    assert _rel(sol.X_plus, ref["X_plus"]) <= TOL
    assert _rel(sol.s0, ref["s0_social"]) <= TOL
    if ref["s0_game"] is None:
        with pytest.raises(DichotomySplitFailure):
            solve_mfg(p)
    else:
        game = solve_mfg(p)
        assert _rel(game.Pi, ref["Pi"]) <= TOL
        assert _rel(game.s0, ref["s0_game"]) <= TOL


SCALINGS = [
    {"cost": c} for c in (1e-8, 1e8, 1e12, 2.0**-30, 2.0**40)
] + [
    {"unit": c} for c in (1e-3, 1e3, 2.0**-10, 2.0**20)
]


@pytest.mark.parametrize("name", SOLVABLE)
@pytest.mark.parametrize("scaling", [{}] + SCALINGS,
                         ids=lambda s: ",".join(f"{k}={v:g}" for k, v in s.items())
                         or "unscaled")
def test_shipped_files_match_reference(name, scaling):
    check_against_reference(
        _scaled(load_problem_file(PROBLEM_DIR / f"{name}.json"), **scaling))


@pytest.mark.parametrize("name", SOLVABLE)
def test_unit_scaling_below_r_threshold_is_rejected(name):
    # R * 1e-12 falls below the absolute definiteness threshold
    # 1e-10 * max(||R||, 1), which TestRejectionVerdicts pins ("tiny_R")
    p = _scaled(load_problem_file(PROBLEM_DIR / f"{name}.json"), unit=1e-6)
    for solver in (solve_sce, solve_mfg):
        with pytest.raises(NonPositiveR):
            solver(p)


def test_large_drift_matches_reference():
    # A = 1e8: the PBH margin scaled by 1 + ||A|| + ||B|| is 1e-8 here, but
    # the certified closed loop proves stabilizability
    check_against_reference(ProblemData(
        A=[[1e8]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], Gamma=[[0.5]],
        eta=[1.0], rho=1.0, x0=[1.0]))


def test_random_problems_match_reference():
    rng = np.random.default_rng(2024)
    for _ in range(4):
        check_against_reference(random_problem(rng, max_n=4))


DEGENERATE_COSTS = [1e8, 1e12, 2.0**40]


@pytest.mark.parametrize("cost", DEGENERATE_COSTS)
def test_scaled_boundary_case_is_on_axis(cost):
    # ex22 at scaled cost is still the boundary case: the 40-digit
    # spectrum of H has an eigenvalue on the axis
    p = _scaled(load_problem_file(PROBLEM_DIR / "ex22_degenerate.json"), cost=cost)
    assert reference(p)["H_axis_distance"] <= mp.mpf(10) ** -20


@pytest.mark.parametrize("cost", [
    pytest.param(c, marks=pytest.mark.xfail(
        reason="the defective double eigenvalue at 0 splits by about "
               "sqrt(eps ||H||), above the axis tolerance, for some roundings; "
               "the boundary case is then solved (ROADMAP items 3 and 5)",
        strict=True)) if c == 1e12 else c
    for c in DEGENERATE_COSTS
])
def test_scaled_boundary_case_rejected(cost):
    p = _scaled(load_problem_file(PROBLEM_DIR / "ex22_degenerate.json"), cost=cost)
    for solver in (solve_sce, solve_mfg):
        with pytest.raises(ImaginaryAxisEigenvalue):
            solver(p)


@pytest.mark.parametrize("name", SOLVABLE)
@pytest.mark.parametrize("solver", [solve_sce, solve_mfg])
def test_power_of_two_cost_scaling_is_exact(name, solver):
    """``(Q, R) -> 2^k (Q, R)`` scales `Pi` and ``s0`` by exactly ``2^k``:
    the balancing, the Schur split and ``B inv(R) B'`` all scale by powers
    of two.  Below ``k = -33``, ``R = 2^k`` fails the absolute definiteness
    threshold ``1e-10 * max(||R||, 1)`` and is rejected as NonPositiveR."""
    p = load_problem_file(PROBLEM_DIR / f"{name}.json")
    try:
        base = solver(p)
    except MflqError as exc:
        base = type(exc)
    for k in range(-40, 41):
        c = 2.0**k
        scaled = _scaled(p, cost=c)
        if np.linalg.eigvalsh(scaled.R).min() <= 1e-10:
            with pytest.raises(NonPositiveR):
                solver(scaled)
        elif isinstance(base, type):
            with pytest.raises(base):
                solver(scaled)
        else:
            sol = solver(scaled)
            assert np.array_equal(sol.Pi, c * base.Pi), k
            assert np.array_equal(sol.s0, c * base.s0), k
