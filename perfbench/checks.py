"""Correctness checks of every benchmark operation, recomputed with numpy
from the matrices the library returns.  Each check returns a list of
failure messages; an empty list means the output is correct."""

import numpy as np

from instances import consistency_system, control_gram, gamma_weights

RESIDUAL_RTOL = 1e-9    # Riccati residual relative to the size of its terms
ORACLE_RTOL = 1e-6      # agreement with the scipy oracle
BETA_RTOL = 1e-5        # contraction constant against adaptive quadrature


def rel_err(actual, expected):
    """Max-norm difference relative to 1 + the size of `expected`."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return np.inf
    return float(np.abs(actual - expected).max(initial=0.0)
                 / (1.0 + np.abs(expected).max(initial=0.0)))


def _care_check(label, x, a, m, q, out):
    """``X A + A' X - X M X + Q = 0`` with ``A - M X`` stable."""
    x = np.asarray(x, dtype=float)
    res = x @ a + a.T @ x - x @ m @ x + q
    scale = (np.linalg.norm(q) + 2.0 * np.linalg.norm(a) * np.linalg.norm(x)
             + np.linalg.norm(m) * np.linalg.norm(x) ** 2 + 1.0)
    if np.linalg.norm(res) > RESIDUAL_RTOL * scale:
        out.append(f"{label}: Riccati residual {np.linalg.norm(res):.3e}")
    if np.linalg.eigvals(a - m @ x).real.max() >= 0.0:
        out.append(f"{label}: closed loop not stable")


def check_pi(data, pi, oracle, out):
    n = data["A"].shape[0]
    shifted = data["A"] - 0.5 * data["rho"] * np.eye(n)
    _care_check("Pi", pi, shifted, control_gram(data), data["Q"], out)
    if rel_err(pi, oracle["Pi"]) > ORACLE_RTOL:
        out.append(f"Pi differs from oracle by {rel_err(pi, oracle['Pi']):.3e}")


def _check_s0(label, s0, oracle, out):
    err = rel_err(s0, oracle[label])
    if err > ORACLE_RTOL:
        out.append(f"{label} differs from oracle by {err:.3e}")
    golden = oracle.get("golden", {}).get(label)
    if golden is not None:
        value, tol = golden
        if np.abs(np.asarray(s0) - value).max() > tol:
            out.append(f"{label} misses frozen golden {value}")


def check_social(data, sol, oracle):
    """Discounted and auxiliary Riccati solutions, closed loops and ``s0``."""
    out = []
    check_pi(data, sol.Pi, oracle, out)
    n = data["A"].shape[0]
    m = control_gram(data)
    a_shift = data["A"] - m @ sol.Pi - 0.5 * data["rho"] * np.eye(n)
    q_gamma, _ = gamma_weights(data)
    _care_check("X_plus", sol.X_plus, a_shift, m, -q_gamma, out)
    if rel_err(sol.A_C, a_shift - m @ sol.X_plus) > ORACLE_RTOL:
        out.append("A_C is not A_shift - M X_plus")
    _check_s0("s0_social", sol.s0, oracle, out)
    return out


def check_game(data, sol, oracle):
    out = []
    check_pi(data, sol.Pi, oracle, out)
    _check_s0("s0_game", sol.s0, oracle, out)
    return out


def check_trajectory(data, pi, s0, t, xbar, s, game=False):
    """``xbar(0) = x0``, ``s(0) = s0`` and the ODE pair
    ``(xbar, s)' = G (xbar, s) + f`` by three-point finite differences on
    the (possibly non-uniform) grid.

    The truncation error of the difference quotient at a point with
    neighbouring steps h1, h2 is at most ``h1 h2 / 6 * |z'''|``, and
    ``z''' = G^2 z'``, so the tolerance is that bound with a factor of two,
    plus roundoff of the quotient.
    """
    out = []
    t = np.asarray(t, dtype=float)
    z = np.hstack([np.asarray(xbar, float), np.asarray(s, float)])
    n = data["A"].shape[0]
    if z.shape != (t.size, 2 * n):
        return [f"trajectory shape {z.shape}, expected {(t.size, 2 * n)}"]
    if t[0] == 0.0:
        if rel_err(z[0, :n], data["x0"]) > 1e-12:
            out.append("xbar(0) differs from x0")
        if rel_err(z[0, n:], s0) > 1e-9:
            out.append("s(0) differs from s0")
    k, psi0 = consistency_system(data, pi, game)
    g = k + 0.5 * data["rho"] * np.eye(2 * n)
    rhs = z @ g.T + psi0
    h1 = (t[1:-1] - t[:-2])[:, None]
    h2 = (t[2:] - t[1:-1])[:, None]
    deriv = (-h2 / (h1 * (h1 + h2)) * z[:-2]
             + (h2 - h1) / (h1 * h2) * z[1:-1]
             + h1 / (h2 * (h1 + h2)) * z[2:])
    resid = np.abs(deriv - rhs[1:-1]).max(axis=1)
    g2 = np.linalg.norm(g) ** 2
    tol = (h1 * h2)[:, 0] / 3.0 * g2 * np.linalg.norm(rhs, axis=1).max() \
        + 1e3 * np.finfo(float).eps * np.abs(z).max() / np.minimum(h1, h2)[:, 0] \
        + 1e-12
    bad = resid > tol
    if bad.any():
        i = int(np.argmax(resid / tol))
        out.append(f"trajectory violates the ODE at t={t[i + 1]:.4g} "
                   f"(residual {resid[i]:.3e} > {tol[i]:.3e})")
    return out


def check_beta(beta, oracle):
    out = []
    if not np.isfinite(beta) or abs(beta - oracle["beta"]) > BETA_RTOL * oracle["beta"]:
        out.append(f"contraction beta {beta!r} vs oracle {oracle['beta']:.8g}")
    golden = oracle.get("golden", {}).get("beta")
    if golden is not None and abs(beta - golden[0]) > golden[1] * golden[0]:
        out.append(f"contraction beta {beta!r} misses frozen golden {golden[0]}")
    return out


def check_eigenvalues(rows, matrix):
    """A reported spectrum (``[{"re", "im"}]``) against numpy's."""
    got = np.sort_complex(np.array([r["re"] + 1j * r["im"] for r in rows]))
    want = np.sort_complex(np.linalg.eigvals(matrix))
    scale = 1.0 + np.abs(want).max()
    if got.shape != want.shape or np.abs(got - want).max() > 1e-8 * scale:
        return ["spectrum differs from numpy's eigenvalues"]
    return []


def same_sim(a, b):
    """Bit-identical simulation outputs."""
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("per_rep_cost", "per_rep_gap", "per_rep_tail"))


def check_sim(result, reps):
    out = []
    for f in ("per_rep_cost", "per_rep_gap", "per_rep_tail"):
        arr = np.asarray(getattr(result, f))
        if arr.shape != (reps,) or not np.isfinite(arr).all():
            out.append(f"simulate {f} has shape {arr.shape} or non-finite values")
    return out
