"""Solvers for infinite-horizon discounted LQ mean-field social optimization
and mean-field games, built on a Hamiltonian-matrix invariant-subspace
decomposition, plus a fixed-point contraction-bound comparison and an
N-agent Monte Carlo consistency simulator.

The API is ``mflq.__all__``, :mod:`mflq.errors` and the ``mflq`` command.
Submodule functions are internal: their kernels take float64 arrays that the
library built from a checked :class:`ProblemData`, and check none of it."""

from . import errors
from .contraction import contraction_bound
from .mfg import MfgSolution, solve_mfg
from .problem import GammaWeights, ProblemData, ValidationReport, gamma_weights, validate
from .simulate import SimConfig, SimResult, simulate
from .social import SceSolution, StrategySpec, decentralized_strategy, sce_residual, solve_sce

__version__ = "0.1.0"

__all__ = [
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
