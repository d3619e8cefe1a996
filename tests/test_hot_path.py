"""The solve and trajectory path takes its norms and the eigenvalues of `R`
from LAPACK directly (:func:`linalg.fro`, ``dlange``, ``dsyev``); on small
matrices numpy's wrappers cost more than the routines.  These tests fail if
a wrapper comes back onto that path."""

import numpy as np

from conftest import PROBLEM_DIR, random_problem
from mflq.cli import load_problem_file
from mflq.contraction import contraction_bound
from mflq.errors import MflqError
from mflq.mfg import solve_mfg
from mflq.problem import validate
from mflq.social import solve_sce


def _problems():
    shipped = [load_problem_file(path) for path in sorted(PROBLEM_DIR.glob("*.json"))]
    rng = np.random.default_rng(14)
    drawn = [random_problem(rng, max_n=n) for n in (1, 2, 4, 6)]
    return shipped + drawn


def _count_wrapper_calls(monkeypatch):
    calls = []
    for name in ("norm", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_solves_and_trajectories_call_no_numpy_norm(monkeypatch):
    problems = _problems()
    calls = _count_wrapper_calls(monkeypatch)
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
    # the degenerate file fails both solvers, ex42_gamma2's coupling the game
    assert len(solutions) == 2 * len(problems) - 3
    contraction_bound(problems[-1], solutions[-1].Pi)
    assert calls == []
