import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (PROBLEM_DIR, hamiltonian, lq_problem, random_care_problem,
                      random_problem)
from mflq import riccati
from mflq.cli import load_problem_file
from mflq.errors import (
    DichotomySplitFailure,
    GraphSubspaceFailure,
    ImaginaryAxisEigenvalue,
    MflqError,
    NonPositiveR,
    StabilizabilityFailure,
)
from mflq.linalg import spectral_abscissa
from mflq.mfg import solve_mfg
from mflq.problem import ProblemData, validate
from mflq.riccati import (
    PBH_TOL,
    care_residual,
    solve_care_stabilizing,
    solve_discounted_are,
    stabilizability_margin,
)
from mflq.social import solve_sce


def scalar_discounted_solution(a, b, q, r, rho):
    """Closed form of the scalar discounted Riccati equation: the larger
    root of `br2 * Pi^2 - 2*(a - rho/2) * Pi - q = 0`."""
    a_rho = a - rho / 2.0
    br2 = b * b / r
    return (a_rho + np.sqrt(a_rho**2 + q * br2)) / br2


def scalar_care(a_o, m, q_o):
    """:func:`solve_care_stabilizing` on 1-by-1 blocks."""
    return solve_care_stabilizing(hamiltonian(np.array([[a_o]]), np.array([[m]]),
                                              np.array([[q_o]])))


class TestCareResidual:
    def test_exact_scalar_solution(self):
        one = np.array([[1.0]])
        assert care_residual(one, np.zeros((1, 1)), one, one) == pytest.approx(0.0, abs=1e-15)

    def test_zero_candidate(self):
        n = 4
        zero, ident = np.zeros((n, n)), np.eye(n)
        assert care_residual(zero, zero, ident, ident) == pytest.approx(np.sqrt(n))


class TestSolveCareStabilizing:
    def test_scalar_unit(self):
        sol = scalar_care(0.0, 1.0, 1.0)
        assert sol.X[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sol.closed_loop[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert sol.spectrum_margin == pytest.approx(1.0, abs=1e-12)

    def test_scalar_negative_weight(self):
        # shifted scalar data with sign-flipped coupling weight
        a_o = 2.0 - scalar_discounted_solution(2.0, 1.0, 2.0, 1.0, 1.0) - 0.5
        sol = scalar_care(a_o, 1.0, -2.0)
        assert sol.X[0, 0] == pytest.approx(-0.5615528128, abs=1e-9)
        assert sol.closed_loop[0, 0] == pytest.approx(-1.5, abs=1e-9)

    def test_axis_eigenvalue_raises(self):
        with pytest.raises(ImaginaryAxisEigenvalue):
            scalar_care(0.0, 1.0, -1.0)

    def test_unstabilizable_raises(self):
        # the kernel runs no (A_o, M) PBH test; the front end names the pair
        with pytest.raises(StabilizabilityFailure, match=r"^\(A, B\) fails"):
            solve_discounted_are(lq_problem([[1.0]], [[0.0]], [[1.0]], [[1.0]], 1.0))

    def test_core_refuses_unstabilizable_without_pbh(self):
        # the stable eigenvector of [[1, 0], [-1, -1]] is (0, 1): W11 = 0
        h = np.array([[1.0, 0.0], [-1.0, -1.0]])
        with pytest.raises(GraphSubspaceFailure):
            solve_care_stabilizing(h)

    def test_non_hamiltonian_split_failure(self):
        # a Hamiltonian off the axis splits n/n; this matrix splits 3/1
        with pytest.raises(DichotomySplitFailure):
            solve_care_stabilizing(np.diag([-1.0, -2.0, -3.0, 4.0]))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_certified(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            a, m, q = random_care_problem(rng)
            sol = solve_care_stabilizing(hamiltonian(a, m, q))
            norm_x = np.linalg.norm(sol.X, "fro")
            assert np.linalg.norm(sol.X - sol.X.T, "fro") <= 1e-8 * (1.0 + norm_x)
            assert care_residual(sol.X, a, m, q) <= 1e-7 * (1.0 + norm_x**2)
            assert spectral_abscissa(sol.closed_loop) < 0.0

    def test_graph_subspace_identity(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            a, m, q = random_care_problem(rng)
            h = hamiltonian(a, m, q)
            sol = solve_care_stabilizing(h)
            stack = np.vstack([np.eye(a.shape[0]), sol.X])
            lhs = h @ stack
            rhs = stack @ sol.closed_loop
            scale = 1.0 + np.linalg.norm(h, "fro") * (1.0 + np.linalg.norm(sol.X))
            assert np.linalg.norm(lhs - rhs, "fro") <= 1e-7 * scale


class TestAgainstEstablishedSolver:
    def test_matches_scipy_on_definite_instances(self):
        # independent cross-check on the positive semi-definite subclass,
        # where scipy's Riccati solver applies
        import scipy.linalg as sla

        rng = np.random.default_rng(88)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            c = rng.standard_normal((n, n))
            q = c.T @ c + 0.1 * np.eye(n)
            try:
                ref = sla.solve_continuous_are(a, b, q, np.eye(b.shape[1]))
            except np.linalg.LinAlgError:
                continue
            sol = solve_care_stabilizing(hamiltonian(a, b @ b.T, q))
            gap = np.linalg.norm(sol.X - ref, "fro")
            assert gap <= 1e-8 * (1.0 + np.linalg.norm(ref, "fro"))
            checked += 1


class TestScalarMaximality:
    def test_larger_root_returned(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            a = float(rng.uniform(-2, 2))
            m = float(rng.uniform(0.2, 3.0))
            q = float(rng.uniform(-2, 3.0))
            if a * a + m * q <= 1e-2:  # keep away from the axis boundary
                continue
            roots = np.roots([m, -2.0 * a, -q])
            sol = scalar_care(a, m, q)
            assert sol.X[0, 0] == pytest.approx(max(roots.real), abs=1e-9)


class TestSolveDiscountedAre:
    def test_scalar_reference(self):
        sol = solve_discounted_are(lq_problem([[2.0]], [[1.0]], [[2.0]], [[1.0]], 1.0))
        assert sol.X[0, 0] == pytest.approx(3.5615528128, abs=1e-9)
        # closed loop of the shifted problem is stable
        assert sol.spectrum_margin > 0.0

    def test_scalar_closed_form_random(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 100:
            a = float(rng.uniform(-2, 3))
            b = float(rng.uniform(0.3, 2.0)) * (1 if rng.random() < 0.5 else -1)
            q = float(rng.uniform(0.05, 3.0))
            r = float(rng.uniform(0.2, 2.0))
            rho = float(rng.uniform(0.3, 2.0))
            expected = scalar_discounted_solution(a, b, q, r, rho)
            sol = solve_discounted_are(lq_problem([[a]], [[b]], [[q]], [[r]], rho))
            assert sol.X[0, 0] == pytest.approx(expected, rel=1e-9, abs=1e-9)
            done += 1

    def test_discounted_equation_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            g = rng.standard_normal((n, n))
            q = 0.5 * (g + g.T)
            r = np.eye(n)
            rho = float(rng.uniform(0.4, 1.6))
            try:
                sol = solve_discounted_are(lq_problem(a, b, q, r, rho))
            except ImaginaryAxisEigenvalue:
                continue
            pi = sol.X
            res = (pi @ a + a.T @ pi - pi @ b @ b.T @ pi + q - rho * pi)
            assert np.linalg.norm(res, "fro") <= 1e-7 * (
                1.0 + np.linalg.norm(pi, "fro") ** 2
            )
            shifted_cl = a - b @ b.T @ pi - 0.5 * rho * np.eye(n)
            assert spectral_abscissa(shifted_cl) < 0.0

    def test_shift_equivalence(self):
        import scipy.linalg as sla

        a, b, q, r, rho = 1.3, 0.7, 0.9, 1.1, 0.8
        via_discount = solve_discounted_are(lq_problem([[a]], [[b]], [[q]], [[r]], rho))
        b_mat = np.array([[b]])
        gram = b_mat @ sla.cho_solve(sla.cho_factor(np.array([[r]])), b_mat.T)
        direct = solve_care_stabilizing(hamiltonian(np.array([[a - rho / 2.0]]), gram,
                                                    np.array([[q]])))
        assert via_discount.X[0, 0] == direct.X[0, 0]

    def test_mismatched_shapes_rejected(self):
        # the front end takes a ProblemData, which compares the shapes when built
        with pytest.raises(ValueError, match="Q and Gamma must match"):
            lq_problem(np.eye(2), [[1.0], [0.0]], [[1.0]], [[1.0]], 1.0)
        with pytest.raises(ValueError, match="B must have 2 rows"):
            lq_problem(np.eye(2), [[1.0, 0.0]], np.eye(2), np.eye(2), 1.0)

    def test_shapes_checked_before_pbh(self):
        # unstabilizable and R too small, but the malformed data is named first
        with pytest.raises(ValueError, match="B must have 2 rows"):
            lq_problem(2.0 * np.eye(2), [[0.0]], np.eye(2), [[1e-13]], 1.0)

    @pytest.mark.parametrize("a,b,r", [
        ([[0.2]], [[0.0]], [[1.0]]),
        (np.diag([0.2, 1.0]), [[0.0], [1.0]], [[1.0]]),
        ([[2.0]], [[0.0]], [[1e-13]]),
    ], ids=["solved-scalar", "solved-two-state", "tiny-r"])
    def test_unstabilizable_pair_rejected(self, a, b, r):
        # the first two solve, with an uncontrollable mode 0.2 < rho/2 left
        # in the closed loop; the third fails the R check first
        with pytest.raises(StabilizabilityFailure, match=r"\(A, B\)"):
            solve_discounted_are(lq_problem(a, b, np.eye(np.shape(a)[0]), r, 1.0))

    @pytest.mark.parametrize("solve", ["front_end", "social", "game"])
    @pytest.mark.parametrize("s", [1e-2, 1.0, 1e2, 1e5])
    def test_axis_failure_not_blamed_on_stabilizability(self, solve, s):
        # (A, B) is stabilizable at every s, and the shifted Hamiltonian has
        # eigenvalues within ~5e-9 of the axis: one cause, whatever the
        # control units.  The PBH margin of (A_o, M) scales with s^2, so a
        # test on it would blame stabilizability for small s.
        a, b, q = [[0.7]], [[1e-5 * s]], [[-4e8 / s**2]]
        p = ProblemData(A=a, B=b, Q=q, R=[[1.0]], Gamma=[[0.0]], eta=[0.0],
                        rho=1.0, x0=[1.0])
        run = {"front_end": lambda: solve_discounted_are(p),
               "social": lambda: solve_sce(p), "game": lambda: solve_mfg(p)}[solve]
        with pytest.raises(ImaginaryAxisEigenvalue):
            run()

    def test_asymmetric_q_rejected(self):
        # by ProblemData, before any solve
        with pytest.raises(ValueError, match="Q is not symmetric"):
            lq_problem(np.eye(2), np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.eye(2), 1.0)

    def test_indefinite_q_accepted(self):
        # decoupled scalar equations, each with the closed-form solution
        q = [1.0, -5.0]
        p = lq_problem(3.0 * np.eye(2), np.eye(2), np.diag(q), np.eye(2), 1.0)
        sol = solve_discounted_are(p)
        expected = [scalar_discounted_solution(3.0, 1.0, qi, 1.0, 1.0) for qi in q]
        assert sol.X == pytest.approx(np.diag(expected), rel=1e-9, abs=1e-9)
        assert sol.spectrum_margin > 0.0

    def test_non_positive_r(self):
        with pytest.raises(NonPositiveR):
            solve_discounted_are(lq_problem([[1.0]], [[1.0]], [[1.0]], [[-1.0]], 1.0))
        with pytest.raises(NonPositiveR):
            solve_discounted_are(lq_problem([[1.0]], [[1.0]], [[1.0]], [[0.0]], 1.0))


def _record_calls(monkeypatch, name):
    """Record the arguments and result of every call of ``riccati.<name>``,
    also through a name another ``mflq`` module imported."""
    calls = []
    real = getattr(riccati, name)

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("mflq") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, recording)
    return calls


def _kernel_problems():
    shipped = [load_problem_file(path) for path in sorted(PROBLEM_DIR.glob("*.json"))]
    rng = np.random.default_rng(5)
    return shipped + [random_problem(rng, max_n=n) for n in (1, 2, 4)]


class TestOneKernel:
    """Every Riccati equation is solved by the one kernel
    :func:`riccati.solve_care_stabilizing`, on a Hamiltonian, and the
    discounted Hamiltonian has the one builder
    :func:`riccati.discounted_hamiltonian`."""

    @pytest.mark.parametrize("solver,per_solve", [(solve_sce, 2), (solve_mfg, 1)])
    def test_kernel_calls_per_solve(self, monkeypatch, solver, per_solve):
        # the front end's discounted equation, and the social auxiliary one
        calls = _record_calls(monkeypatch, "solve_care_stabilizing")
        solved = 0
        for p in _kernel_problems():
            calls.clear()
            try:
                solver(p)
            except MflqError:
                continue
            solved += 1
            assert len(calls) == per_solve
        assert solved >= 6

    def test_validate_and_the_front_end_build_one_matrix(self, monkeypatch):
        calls = _record_calls(monkeypatch, "discounted_hamiltonian")
        for p in _kernel_problems():
            calls.clear()
            validate(p)
            assert len(calls) == 1
            solve_discounted_are(p)
            assert len(calls) == 2
            (_, tested), (_, split) = calls
            assert np.array_equal(tested, split)


class TestStabilizabilityMargin:
    def test_stable_matrix_is_inf(self):
        assert stabilizability_margin(-np.eye(2), np.zeros((2, 1))) == np.inf

    def test_uncontrollable_unstable(self):
        assert stabilizability_margin(np.array([[1.0]]), np.array([[0.0]])) == 0.0

    def test_controllable(self):
        assert stabilizability_margin(np.array([[1.0]]), np.array([[1.0]])) > 0.1


def reference_margin(a, b):
    """The per-eigenvalue PBH loop the stacked SVD replaced: one SVD of
    ``[lam*I - a, b]`` for every eigenvalue with ``Re lam >= 0``,
    conjugates included."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    scale = 1.0 + float(np.linalg.norm(a, "fro")) + float(np.linalg.norm(b, "fro"))
    margin = np.inf
    for lam in np.linalg.eigvals(a):
        if lam.real < 0.0:
            continue
        test = np.hstack([lam * np.eye(n) - a, b.astype(complex)])
        sigma = np.linalg.svd(test, compute_uv=False)[-1]
        margin = min(margin, float(sigma) / scale)
    return float(margin)


PBH_KINDS = ["random", "conjugate", "repeated", "defective", "uncontrollable",
             "zero_b", "on_axis", "stable"]


@st.composite
def pbh_pairs(draw, kind):
    """``(a, b)`` with 2 <= n <= 8 and 1 <= m <= n, shaped by `kind`."""
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n))
    entries = st.floats(-2.0, 2.0, allow_nan=False, width=64)
    g = draw(arrays(float, (n, n), elements=entries))
    b = draw(arrays(float, (n, m), elements=entries))
    lam = draw(st.floats(0.0, 2.0))
    q, _ = np.linalg.qr(g + 3.0 * np.eye(n))
    core = np.triu(g, 1)
    if kind == "random":
        return g, b
    if kind == "zero_b":
        return g, np.zeros((n, m))
    if kind == "stable":
        return -g @ g.T - 0.1 * np.eye(n), b
    if kind == "on_axis":
        # exactly triangular, so the 0 and +-i*w eigenvalues come out exact
        core[np.diag_indices(n)] = np.diag(g)
        core[0, 0] = core[1, 1] = core[1, 0] = 0.0
        core[0, 1] = lam
        core[1, 0] = -lam
        return core, b
    if kind == "conjugate":
        core[np.diag_indices(n)] = np.diag(g)
        core[0, 0] = core[1, 1] = lam
        core[0, 1], core[1, 0] = 1.0 + lam, -1.0 - lam
    elif kind == "repeated":
        core = np.diag(np.where(np.arange(n) < n // 2 + 1, lam, np.diag(g)))
    elif kind == "defective":
        core = lam * np.eye(n) + np.eye(n, k=1)
    else:  # uncontrollable: left eigenvector e1 of `core` annihilates b
        core = np.tril(g)
        core[0, 0] = lam + 0.5
        b = b.copy()
        b[0] = 0.0
        b = q @ b
    return q @ core @ q.T, b


@pytest.mark.parametrize("kind", PBH_KINDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stacked_pbh_margin_matches_reference_loop(kind, data):
    a, b = data.draw(pbh_pairs(kind))
    margin = stabilizability_margin(a, b)
    ref = reference_margin(a, b)
    if kind in ("stable", "empty"):
        assert ref == np.inf
    if ref == np.inf:
        assert margin == np.inf
    else:
        assert margin == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert (margin > PBH_TOL) == (ref > PBH_TOL)
