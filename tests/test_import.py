"""What ``import mflq`` exports, and how it loads its LAPACK wrappers,
checked in fresh interpreters: the ``scipy.linalg`` package init stays out
of ``import mflq``, and the extension module is shared with
``scipy.linalg`` in either import order."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mflq

SRC = Path(__file__).resolve().parent.parent / "src"


def test_public_names():
    # a name leaves (or joins) the public API only by an edit here
    assert mflq.__all__ == [
        "GammaWeights",
        "MfgSolution",
        "ProblemData",
        "SceSolution",
        "SimConfig",
        "SimResult",
        "StrategySpec",
        "ValidationReport",
        "contraction_bound",
        "decentralized_strategy",
        "errors",
        "gamma_weights",
        "sce_residual",
        "simulate",
        "solve_mfg",
        "solve_sce",
        "validate",
    ]
    assert all(hasattr(mflq, name) for name in mflq.__all__)


# the __all__ of each submodule; `errors` holds only its exception classes
# and declares none
SUBMODULE_NAMES = {
    "cli": ["load_problem_file", "main", "parse_problem_dict", "problem_to_dict"],
    "contraction": ["contraction_bound", "decaying_norm_integral"],
    "dichotomy": ["BvpSolution", "ConsistencySolution", "DichotomyDecomposition",
                  "decompose_from_riccati", "decompose_from_schur", "evaluate_trajectory",
                  "sample_trajectory", "solve_decaying", "uniform_grid"],
    "errors": None,
    "linalg": ["CONDITION_LIMIT", "add_diag", "as_square", "as_symmetric", "block_2x2",
               "block_balance", "default_axis_tol", "eigenvalues", "fill_powers", "fro",
               "lu_factor", "lu_solve", "mat_exp", "real_schur_ordered", "solve_linear",
               "solve_spd", "spectral_abscissa", "weighted_gram"],
    "mfg": ["MfgSolution", "solve_mfg"],
    "problem": ["GammaWeights", "ProblemData", "ValidationReport", "gamma_weights",
                "validate"],
    "riccati": ["consistency_matrix", "discounted_hamiltonian", "r_definiteness",
                "require_stabilizable", "solve_care_stabilizing", "solve_discounted_are",
                "stabilizability_margin"],
    "simulate": ["SimConfig", "SimResult", "simulate"],
    "social": ["SceSolution", "StrategySpec", "decentralized_strategy", "sce_residual",
               "solve_sce"],
}


def test_submodules_are_pinned():
    assert sorted(m.name for m in pkgutil.iter_modules(mflq.__path__)) \
        == sorted(SUBMODULE_NAMES)


@pytest.mark.parametrize("module", sorted(SUBMODULE_NAMES))
def test_submodule_public_names(module):
    # a name leaves (or joins) a submodule's __all__ only by an edit here
    mod = importlib.import_module(f"mflq.{module}")
    names = getattr(mod, "__all__", None)
    assert names == SUBMODULE_NAMES[module]
    assert all(hasattr(mod, name) for name in names or ())


def run_fresh(code):
    """Run `code` in a new interpreter that imports ``mflq`` from the
    checkout; return its stripped stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_skips_scipy_linalg_init():
    out = run_fresh(
        "import sys, mflq.cli\n"
        "print('scipy.linalg' in sys.modules,"
        " 'scipy.linalg._flapack' in sys.modules)")
    assert out == "False True"


def test_scipy_linalg_after_mflq_reuses_the_extension():
    out = run_fresh(
        "import numpy as np, mflq, mflq.linalg, scipy.linalg\n"
        "print(scipy.linalg.lapack.dgees is mflq.linalg.dgees)\n"
        "k = np.array([[1.0, 2.0], [-3.0, 0.5]])\n"
        "t, z = scipy.linalg.schur(k)\n"
        "print(np.allclose(z @ t @ z.T, k))")
    assert out.split() == ["True", "True"]


def test_mflq_after_scipy_linalg_reuses_the_extension():
    out = run_fresh(
        "import sys, scipy.linalg\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "import mflq.linalg\n"
        "print(mflq.linalg.dgees is scipy.linalg.lapack.dgees,"
        " mflq.linalg.dgetrf is flapack.dgetrf)")
    assert out == "True True"


def test_missing_extension_raises_import_error(tmp_path):
    out = run_fresh(
        "import scipy\n"
        f"scipy.__path__ = [{str(tmp_path)!r}]\n"
        "try:\n"
        "    import mflq\n"
        "except ImportError as exc:\n"
        "    print(exc.name, '|', exc)\n")
    name, message = out.split(" | ")
    assert name == "scipy.linalg._flapack"
    assert message.startswith("LAPACK extension scipy.linalg._flapack not found")
