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


# every submodule of the package; `mflq.__all__` is the one declaration of
# public names, so none of them declares its own
SUBMODULES = ["cli", "contraction", "dichotomy", "errors", "linalg", "mfg", "problem",
              "riccati", "simulate", "social"]


def test_submodules_are_pinned():
    assert sorted(m.name for m in pkgutil.iter_modules(mflq.__path__)) == SUBMODULES


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_public_names(module):
    # a second list of public names comes back only by an edit here
    assert not hasattr(importlib.import_module(f"mflq.{module}"), "__all__")


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
