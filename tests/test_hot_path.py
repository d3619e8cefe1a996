"""The solve and trajectory path takes its norms and the eigenvalues of `R`
from LAPACK directly (:func:`linalg.fro`, ``dlange``, ``dsyev``), and so
does the simulator's factor of ``init_cov``; on small matrices numpy's
wrappers cost more than the routines.  It shifts diagonals in place
(:func:`linalg.add_diag`) rather than building identities, and
builds its solutions with their constructors, not ``dataclasses.replace``.
These tests fail if a wrapper, an identity or a ``replace`` comes back onto
that path; the Pade approximant of :func:`linalg.mat_exp` is the one place
that builds an identity.  A certified splitting reads its closed-loop
spectrum as ``dgeev``'s real parts (:func:`linalg.spectral_abscissa`), so
:func:`linalg.eigenvalues`, which builds the complex spectrum, is called
by the solves only for the PBH test.  ``trajectory()`` samples the stored
shifted solution as it is, with no rebuilt solution and no shifted copy."""

import dataclasses
import sys

import numpy as np

from conftest import PROBLEM_DIR, random_problem
from mflq import dichotomy, linalg, riccati
from mflq.cli import load_problem_file
from mflq.contraction import contraction_bound
from mflq.errors import MflqError
from mflq.mfg import solve_mfg
from mflq.problem import validate
from mflq.simulate import SimConfig, simulate
from mflq.social import decentralized_strategy, solve_sce


def _problems():
    shipped = [load_problem_file(path) for path in sorted(PROBLEM_DIR.glob("*.json"))]
    rng = np.random.default_rng(14)
    drawn = [random_problem(rng, max_n=n) for n in (1, 2, 4, 6)]
    return shipped + drawn


def _count_wrapper_calls(monkeypatch):
    calls = []
    for name in ("norm", "eigvalsh", "eig", "eigh", "cond"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _count_identities_and_replaces(monkeypatch):
    """Record ``np.eye`` calls from anywhere but the Pade approximant, and
    ``dataclasses.replace`` calls, also through a name a module imported."""
    calls = []
    real_eye, real_replace = np.eye, dataclasses.replace
    pade = linalg._pade_approximant.__code__

    def eye(*args, **kwargs):
        caller = sys._getframe(1).f_code
        if caller is not pade:
            calls.append(f"np.eye from {caller.co_name}")
        return real_eye(*args, **kwargs)

    def replace(*args, **kwargs):
        calls.append("dataclasses.replace")
        return real_replace(*args, **kwargs)

    monkeypatch.setattr(np, "eye", eye)
    monkeypatch.setattr(dataclasses, "replace", replace)
    for name, module in list(sys.modules.items()):
        if name.startswith("mflq") and getattr(module, "replace", None) is real_replace:
            monkeypatch.setattr(module, "replace", replace)
    return calls


def _validate_solve_and_sample(problems):
    """Validate, solve both ways, sample each solution, take one
    contraction bound and simulate one spread population; returns the
    solutions."""
    grid = np.linspace(0.0, 5.0, 101)
    solutions = []
    for p in problems:
        validate(p)
        for solve in (solve_sce, solve_mfg):
            try:
                solutions.append(solve(p))
            except MflqError:
                continue
            solutions[-1].trajectory(grid)
    contraction_bound(problems[-1], solutions[-1].Pi)
    p = next(p for p in problems if p.n == 2)  # a shipped file, with D
    cfg = SimConfig(N=4, T=0.5, dt=0.1, init_cov=[[0.2, 0.1], [0.1, 0.3]])
    simulate(p, decentralized_strategy(solve_sce(p), p), cfg)
    return solutions


def test_solves_and_trajectories_call_no_numpy_norm(monkeypatch):
    problems = _problems()
    calls = _count_wrapper_calls(monkeypatch)
    solutions = _validate_solve_and_sample(problems)
    # the degenerate file fails both solvers, ex42_gamma2's coupling the game
    assert len(solutions) == 2 * len(problems) - 3
    assert calls == []


def test_solves_and_trajectories_build_no_identity_and_call_no_replace(monkeypatch):
    problems = _problems()
    calls = _count_identities_and_replaces(monkeypatch)
    solutions = _validate_solve_and_sample(problems)
    assert len(solutions) == 2 * len(problems) - 3
    assert calls == []


def test_solves_call_eigenvalues_only_for_the_pbh_test(monkeypatch):
    problems = _problems()
    callers = []
    real = linalg.eigenvalues

    def eigenvalues(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("mflq") and getattr(module, "eigenvalues", None) is real:
            monkeypatch.setattr(module, "eigenvalues", eigenvalues)
    grid = np.linspace(0.0, 5.0, 101)
    solved = 0
    for p in problems:
        for solve in (solve_sce, solve_mfg):
            try:
                solve(p).trajectory(grid)
                solved += 1
            except MflqError:
                continue
    assert solved == 2 * len(problems) - 3
    pbh = riccati.stabilizability_margin.__code__
    assert pbh in callers  # the degenerate file's failed solves run the PBH test
    assert [code.co_name for code in callers if code is not pbh] == []


def test_solves_check_no_symmetry_again(monkeypatch):
    # ProblemData made Q and R symmetric when it was built; the solves take
    # the checked problem and repeat none of it
    problems = _problems()
    calls = []
    real = linalg.as_symmetric

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("mflq") and getattr(module, "as_symmetric", None) is real:
            monkeypatch.setattr(module, "as_symmetric", counting)
    solved = 0
    for p in problems:
        for solve in (solve_sce, solve_mfg):
            try:
                solve(p)
                solved += 1
            except MflqError:
                continue
    assert solved == 2 * len(problems) - 3
    assert calls == []


def test_trajectory_rebuilds_no_solution_and_shifts_no_diagonal(monkeypatch):
    # the stored generator is already the shifted one that trajectory() samples
    problems = _problems()
    solutions = _validate_solve_and_sample(problems)
    calls = []
    real_bvp, real_add_diag = dichotomy.BvpSolution, dichotomy.add_diag

    def bvp(*args, **kwargs):
        calls.append("BvpSolution")
        return real_bvp(*args, **kwargs)

    def add_diag(*args, **kwargs):
        calls.append("add_diag")
        return real_add_diag(*args, **kwargs)

    monkeypatch.setattr(dichotomy, "BvpSolution", bvp)
    monkeypatch.setattr(dichotomy, "add_diag", add_diag)
    grid = np.linspace(0.0, 5.0, 101)
    for sol in solutions:
        sol.trajectory(grid)
    assert len(solutions) == 2 * len(problems) - 3
    assert calls == []
