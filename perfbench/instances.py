"""Seeded, certified workload inputs and their oracle values.

Everything here uses numpy and scipy only and never imports ``mflq``, so a
change to the library cannot change what the benchmark feeds it or what it
compares the results against.  Each generated problem is certified before
use: `R` positive definite, ``(A, B)`` controllable with a PBH margin, the
discounted Riccati equation solvable by ``scipy.linalg.solve_continuous_are``,
and both consistency matrices (social `H`, game `M`) splitting n/n with a
clear margin off the imaginary axis and a well-conditioned graph basis.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEM_DIR = os.path.join(ROOT, "problems")

# Shipped files solvable by both pipelines; ex22_degenerate must be rejected.
SHIPPED_SOLVABLE = ("ex41", "ex42_gamma005", "ex42_gamma2", "ex43")

# Frozen reference values of tests/test_acceptance.py for the shipped files:
# (value, absolute tolerance) for s0, (value, relative tolerance) for beta.
GOLDEN = {
    "ex41": {"s0_social": ([-0.5615], 1e-3)},
    "ex42_gamma2": {"s0_social": ([2.3185, -3.7513], 1e-3),
                    "beta": (6.34694, 1e-2)},
    "ex42_gamma005": {"beta": (0.736681, 1e-2)},
    "ex43": {"s0_game": ([2.31075, -4.11538], 1e-3)},
}

AXIS_MARGIN = 0.02      # min |Re lambda| of every split matrix
PBH_MARGIN = 1e-3       # scaled controllability margin of (A, B)
BASIS_COND = 1e4        # condition of the leading block of the stable basis

FIELDS = ("A", "B", "Q", "R", "Gamma", "eta", "x0", "rho", "D")


@dataclass
class Instance:
    """One workload input.  `expect` names the MflqError subclass the
    library must raise, or is None for an input that must be solved."""

    name: str
    data: dict
    expect: Optional[str] = None
    oracle: dict = field(default_factory=dict)
    path: Optional[str] = None      # problem file the library reads, if any


class NotCertified(Exception):
    """A random draw missed a certification margin; draw again."""


# ---------------------------------------------------------------------------
# Oracles.

def control_gram(data):
    b, r = data["B"], data["R"]
    m = b @ np.linalg.solve(r, b.T)
    return 0.5 * (m + m.T)


def gamma_weights(data):
    q, g, eta = data["Q"], data["Gamma"], data["eta"]
    q_gamma = g.T @ q + q @ g - g.T @ q @ g
    return 0.5 * (q_gamma + q_gamma.T), (np.eye(q.shape[0]) - g.T) @ (q @ eta)


def discounted_pi(data):
    """Stabilizing solution of ``rho Pi = Pi A + A' Pi - Pi M Pi + Q``."""
    n = data["A"].shape[0]
    shifted = data["A"] - 0.5 * data["rho"] * np.eye(n)
    try:
        pi = sla.solve_continuous_are(shifted, data["B"], data["Q"], data["R"])
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NotCertified(str(exc)) from exc
    return 0.5 * (pi + pi.T)


def consistency_system(data, pi, game):
    """Discounted coefficient matrix and forcing of the ``(xbar, s)`` pair."""
    n = data["A"].shape[0]
    m = control_gram(data)
    a_shift = data["A"] - m @ pi - 0.5 * data["rho"] * np.eye(n)
    if game:
        lower, forcing = data["Q"] @ data["Gamma"], data["Q"] @ data["eta"]
    else:
        lower, forcing = gamma_weights(data)
    k = np.block([[a_shift, -m], [lower, -a_shift.T]])
    return k, np.concatenate([np.zeros(n), forcing])


def decaying_s0(k, x0, psi0, rho):
    """Initial adjoint ``s0`` of the unique decaying solution of
    ``z' = K z + psi0 exp(-rho t / 2)``, from scipy's ordered real Schur
    form.  Also returns the split size, axis margin and basis condition;
    NotCertified when scipy cannot order the form."""
    m = k.shape[0]
    n = m // 2
    try:
        t, u, sdim = sla.schur(k, output="real", sort="lhp")
    except np.linalg.LinAlgError as exc:   # reordering too ill-conditioned
        raise NotCertified(str(exc)) from exc
    lam = np.linalg.eigvals(k)
    u1, u2 = u[:, :n], u[:, n:]
    c = -np.linalg.solve(t[n:, n:] + 0.5 * rho * np.eye(n), u2.T @ psi0)
    y1 = np.linalg.solve(u1[:n], x0 - u2[:n] @ c)
    s0 = u1[n:] @ y1 + u2[n:] @ c
    return s0, int(sdim), float(np.abs(lam.real).min()), float(np.linalg.cond(u1[:n]))


def pbh_margin(a, b):
    """Smallest scaled PBH singular value over all eigenvalues of `a`."""
    n = a.shape[0]
    scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(b)
    return min(
        np.linalg.svd(np.hstack([lam * np.eye(n) - a, b.astype(complex)]),
                      compute_uv=False)[-1]
        for lam in np.linalg.eigvals(a)
    ) / scale


def norm_integral(a, c):
    """``int_0^inf ||expm(a t) c||_F dt`` by adaptive quadrature."""
    val, _ = quad(lambda t: np.linalg.norm(sla.expm(a * t) @ c), 0.0, np.inf,
                  epsabs=0.0, epsrel=1e-10, limit=400)
    return val


def contraction_beta(data, pi):
    """Contraction constant by quadrature independent of the library's
    truncated Simpson rule."""
    n = data["A"].shape[0]
    m = control_gram(data)
    a_shift = data["A"] - m @ pi - 0.5 * data["rho"] * np.eye(n)
    q_gamma, _ = gamma_weights(data)
    return norm_integral(a_shift, m) * norm_integral(a_shift.T, q_gamma)


def certify(data, with_beta=False, game_may_split_badly=False):
    """Oracle values of a problem that must be solved, or NotCertified.

    With `game_may_split_badly`, a game matrix that is clearly off the axis
    but splits other than n/n is accepted and recorded as the expected
    DichotomySplitFailure of the game solve."""
    if np.linalg.eigvalsh(data["R"]).min() <= 0.0:
        raise NotCertified("R not positive definite")
    if pbh_margin(data["A"], data["B"]) < PBH_MARGIN:
        raise NotCertified("(A, B) too close to uncontrollable")
    n = data["A"].shape[0]
    shifted = data["A"] - 0.5 * data["rho"] * np.eye(n)
    m = control_gram(data)
    hamiltonian = np.block([[shifted, -m], [-data["Q"], -shifted.T]])
    if np.abs(np.linalg.eigvals(hamiltonian).real).min() < AXIS_MARGIN:
        raise NotCertified("Riccati Hamiltonian too close to the axis")
    pi = discounted_pi(data)
    residual = pi @ shifted + shifted.T @ pi - pi @ m @ pi + data["Q"]
    if np.linalg.norm(residual) > 1e-9 * (1.0 + np.linalg.norm(pi)) ** 2:
        raise NotCertified("scipy Riccati solution inaccurate")
    if np.linalg.eigvals(shifted - m @ pi).real.max() >= -AXIS_MARGIN:
        raise NotCertified("discounted closed loop not clearly stable")
    oracle = {"Pi": pi}
    for game in (False, True):
        k, psi0 = consistency_system(data, pi, game)
        s0, sdim, margin, cond = decaying_s0(k, data["x0"], psi0, data["rho"])
        if game and game_may_split_badly and sdim != n and margin >= AXIS_MARGIN:
            oracle["game_error"] = "DichotomySplitFailure"
            continue
        if sdim != n or margin < AXIS_MARGIN or cond > BASIS_COND:
            raise NotCertified("consistency matrix split not certified")
        oracle["s0_game" if game else "s0_social"] = s0
    if with_beta:
        oracle["beta"] = contraction_beta(data, pi)
    return oracle


# ---------------------------------------------------------------------------
# Random problems.

def _similar(rng, core):
    """``P core inv(P)`` with a well-conditioned, non-orthogonal `P`."""
    m = core.shape[0]
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    p = q1 @ np.diag(np.exp(rng.uniform(-0.3, 0.3, size=m))) @ q2
    return p @ core @ np.linalg.inv(p)


def _modes(rng, count, sign):
    """Real 1x1 and complex 2x2 blocks with real parts of the given sign."""
    blocks = []
    while count > 0:
        re = sign * rng.uniform(0.1, 1.5)
        if count >= 2 and rng.random() < 0.5:
            im = rng.uniform(0.2, 2.0)
            blocks.append(np.array([[re, im], [-im, re]]))
            count -= 2
        else:
            blocks.append(np.array([[re]]))
            count -= 1
    return blocks


def _block_diag(blocks, n):
    out = np.zeros((n, n))
    pos = 0
    for blk in blocks:
        k = blk.shape[0]
        out[pos:pos + k, pos:pos + k] = blk
        pos += k
    return out


def random_data(rng, n, n1, n_unstable, noise=False):
    """Uncertified problem data: open-loop `A` with `n_unstable` modes in the
    right half plane (real and complex mixed), a symmetric `Q` with some
    negative eigenvalues, and coupling of log-uniform strength so that the
    contraction constant falls on both sides of 1."""
    core = _block_diag(_modes(rng, n_unstable, 1.0)
                       + _modes(rng, n - n_unstable, -1.0), n)
    a = _similar(rng, core)
    b = rng.standard_normal((n, n1)) / np.sqrt(n1)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q_eigs = rng.uniform(0.2, 2.0, size=n)
    q_eigs[rng.random(n) < 0.25] *= -0.25
    q = (v * q_eigs) @ v.T
    ell = rng.standard_normal((n1, n1))
    r = ell @ ell.T / n1 + 0.5 * np.eye(n1)
    gamma = np.exp(rng.uniform(np.log(0.05), np.log(2.0))) \
        * rng.standard_normal((n, n)) / np.sqrt(n)
    data = {
        "A": a, "B": b, "Q": 0.5 * (q + q.T), "R": 0.5 * (r + r.T),
        "Gamma": gamma, "eta": rng.standard_normal(n),
        "x0": rng.standard_normal(n), "rho": float(rng.uniform(0.5, 2.0)),
        "D": None,
    }
    if noise:
        data["D"] = 0.2 * rng.standard_normal((n, max(1, n // 2)))
    return data


def certified_problem(rng, name, n, n1, n_unstable, noise=False,
                      with_beta=False):
    """Draw until the problem passes certification."""
    for _ in range(200):
        data = random_data(rng, n, n1, n_unstable, noise)
        try:
            oracle = certify(data, with_beta)
        except NotCertified:
            continue
        return Instance(name, data, None, oracle)
    raise RuntimeError(f"no certified draw for {name}")


def _rotate(rng, data):
    """The same problem in random orthogonal state coordinates."""
    n = data["A"].shape[0]
    s, _ = np.linalg.qr(rng.standard_normal((n, n)))
    out = dict(data)
    for key in ("A", "Q", "Gamma"):
        out[key] = s @ data[key] @ s.T
    for key in ("B", "eta", "x0"):
        out[key] = s @ data[key]
    out["Q"] = 0.5 * (out["Q"] + out["Q"].T)
    return out


def degenerate_data(rng):
    """Scalar boundary case ``a = rho/2``, ``b = q = r = 1`` with full
    tracking ``Gamma = 1`` and random `rho`: the consistency matrix has a
    double zero eigenvalue, so ImaginaryAxisEigenvalue must be raised."""
    rho = float(rng.uniform(0.5, 2.0))
    one = np.ones((1, 1))
    return {"A": 0.5 * rho * one, "B": one, "Q": one, "R": one, "Gamma": one,
            "eta": rng.standard_normal(1), "x0": rng.standard_normal(1),
            "rho": rho, "D": None}


def unstabilizable_data(rng, n):
    """An uncontrollable mode at ``lam > rho/2``, unstable even after
    discounting, so StabilizabilityFailure must be raised."""
    rho = float(rng.uniform(0.5, 2.0))
    lam = 0.5 * rho + rng.uniform(0.2, 1.0)
    if n == 1:
        data = random_data(rng, 1, 1, 0)
        data.update(A=np.array([[lam]]), B=np.zeros((1, 1)), rho=rho)
        return data
    data = random_data(rng, n, max(1, n // 2), 0)
    a = data["A"].copy()
    a[0, :] = 0.0
    a[0, 0] = lam
    b = data["B"].copy()
    b[0, :] = 0.0
    data.update(A=a, B=b, rho=rho)
    return _rotate(rng, data)


# ---------------------------------------------------------------------------
# Shipped problem files.

def read_problem_file(path):
    """Parse a shipped JSON problem file into arrays (independent of the
    library's own reader)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    data = {key: np.array(doc[key], dtype=float)
            for key in ("A", "B", "Q", "R", "Gamma", "eta", "x0")}
    data["rho"] = float(doc["rho"])
    data["D"] = np.array(doc["D"], dtype=float) if doc.get("D") else None
    return data


def shipped(name, with_beta=False):
    path = os.path.join(PROBLEM_DIR, name + ".json")
    data = read_problem_file(path)
    oracle = certify(data, with_beta, game_may_split_badly=True)
    oracle["golden"] = GOLDEN.get(name, {})
    return Instance(name, data, None, oracle, path)


def problem_doc(data):
    """JSON document in the problem-file format."""
    n, n1 = data["B"].shape
    doc = {"n": n, "n1": n1, "rho": data["rho"]}
    for key in ("A", "B", "Q", "R", "Gamma", "eta", "x0"):
        doc[key] = np.asarray(data[key]).tolist()
    if data.get("D") is not None:
        doc["n2"] = data["D"].shape[1]
        doc["D"] = data["D"].tolist()
    return doc


# ---------------------------------------------------------------------------
# Workload instance lists, in their fixed order.

def _with_rejects(rng, solvable, sizes):
    """Insert a must-reject input after every fifth solvable one (one
    operation in six), alternating the scalar boundary case with an
    unstabilizable problem of the workload's sizes."""
    out = []
    k = 0
    for i, inst in enumerate(solvable):
        out.append(inst)
        if i % 5 == 4:
            if k % 2 == 0:
                out.append(Instance("degenerate", degenerate_data(rng),
                                    "ImaginaryAxisEigenvalue"))
            else:
                n = sizes[(k // 2) % len(sizes)]
                out.append(Instance(f"unstabilizable-n{n}",
                                    unstabilizable_data(rng, n),
                                    "StabilizabilityFailure"))
            k += 1
    return out


def sweep_small(seed, rounds=2):
    """All (n, n1) with 1 <= n1 <= n <= 8, drawn `rounds` times, plus the
    four solvable shipped files each round, with one input in six rejected."""
    rng = np.random.default_rng([seed, 1])
    solvable = []
    for r in range(rounds):
        pairs = [(n, n1) for n in range(1, 9) for n1 in range(1, n + 1)]
        for j in rng.permutation(len(pairs)):
            n, n1 = pairs[j]
            n_unstable = int(rng.integers(0, n + 1))
            solvable.append(certified_problem(
                rng, f"r{r}-n{n}-m{n1}-u{n_unstable}", n, n1, n_unstable))
        solvable.extend(shipped(name) for name in SHIPPED_SOLVABLE)
    return _with_rejects(rng, solvable, sizes=(1, 2, 4, 8))


def large_n(seed):
    """n in {32, 48, 64} with the open-loop unstable share stepping through
    0, 1/4, 1/2, 3/4 and 1; one input in six rejected at the same sizes."""
    rng = np.random.default_rng([seed, 2])
    sizes = (32, 48, 64)
    shares = (0.0, 0.25, 0.5, 0.75, 1.0)
    solvable = []
    for i in range(15):
        n = sizes[i % 3]
        n_unstable = int(round(shares[i % 5] * n))
        n1 = max(1, n // (2, 4, 8)[(i // 3) % 3])
        solvable.append(certified_problem(
            rng, f"n{n}-m{n1}-u{n_unstable}", n, n1, n_unstable))
    return _with_rejects(rng, solvable, sizes=sizes)


def montecarlo(seed):
    """ex41 and ex43 from the shipped files plus noisy n = 4..8 problems,
    each with its contraction constant."""
    rng = np.random.default_rng([seed, 3])
    out = [shipped("ex41", with_beta=True), shipped("ex43", with_beta=True)]
    for n in range(4, 9):
        n1 = int(rng.integers(1, n + 1))
        n_unstable = int(rng.integers(0, n + 1))
        out.append(certified_problem(rng, f"n{n}-m{n1}-u{n_unstable}", n, n1,
                                     n_unstable, noise=True, with_beta=True))
    return out


def cli_files(seed, directory):
    """The shipped files with their oracles, plus a seeded unstabilizable
    problem and a seeded malformed document written into `directory`."""
    rng = np.random.default_rng([seed, 4])
    out = [shipped(name, with_beta=name.startswith("ex42"))
           for name in SHIPPED_SOLVABLE]
    path = os.path.join(PROBLEM_DIR, "ex22_degenerate.json")
    out.append(Instance("ex22_degenerate", read_problem_file(path),
                        "ImaginaryAxisEigenvalue", path=path))
    unstab = unstabilizable_data(rng, int(rng.integers(1, 4)))
    bad = random_data(rng, 2, 1, 1)
    bad_doc = problem_doc(bad)
    bad_doc["A"] = [[1.0, 2.0], [3.0]]  # ragged row
    for name, data, doc, expect in (
            ("unstabilizable", unstab, problem_doc(unstab),
             "StabilizabilityFailure"),
            ("malformed", bad, bad_doc, "ProblemFileError")):
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out.append(Instance(name, data, expect, path=path))
    return out


def workload_inputs(workload, seed, directory):
    """The instance list of a workload, in its fixed order."""
    if workload == "cli-cold":
        return cli_files(seed, directory)
    return {"sweep-small": sweep_small, "large-n": large_n,
            "montecarlo": montecarlo}[workload](seed)


def save_inputs(insts, directory):
    """Write the instance list without oracles, for set-up probes."""
    arrays = {}
    index = []
    for i, inst in enumerate(insts):
        index.append({"name": inst.name, "expect": inst.expect,
                      "path": inst.path})
        for key in FIELDS:
            if inst.data.get(key) is not None:
                arrays[f"{i}.{key}"] = np.asarray(inst.data[key], dtype=float)
    np.savez(os.path.join(directory, "inputs.npz"), **arrays)
    with open(os.path.join(directory, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh)


def load_inputs(directory):
    with open(os.path.join(directory, "inputs.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    with np.load(os.path.join(directory, "inputs.npz")) as arrays:
        out = []
        for i, entry in enumerate(index):
            data = {key: None for key in FIELDS}
            for key in FIELDS:
                if f"{i}.{key}" in arrays:
                    data[key] = arrays[f"{i}.{key}"]
            data["rho"] = float(data["rho"])
            out.append(Instance(entry["name"], data, entry["expect"],
                                path=entry["path"]))
    return out
