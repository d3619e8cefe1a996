"""Command-line interface.

Commands: ``solve-social``, ``solve-game``, ``contraction``, ``simulate``,
``spectrum``.  Problems are JSON documents with integer fields ``n``, ``n1``
(and ``n2`` when a noise matrix is present), row-major nested arrays ``A``,
``B``, ``D``, ``Q``, ``R``, ``Gamma``, vectors ``eta``, ``x0`` and the
number ``rho``.  The reader checks only the format and that the declared
dimensions match the arrays; :class:`ProblemData` checks the arrays as it
checks an API caller's.  Reports are JSON on stdout; trajectories are CSV
files with header ``t,xbar_1..xbar_n,s_1..s_n``.

Every command loads the problem, checks its own arguments, solves, then
reports.  Exit codes: 0 success, 2 validation failure, 3 dichotomy or
numerical failure, 4 I/O, parse or argument error, whatever the problem.
"""

import argparse
import errno
import functools
import json
import os
import sys
import time

import numpy as np

from . import contraction as contraction_mod
from . import mfg as mfg_mod
from . import riccati
from . import social as social_mod
from .dichotomy import uniform_grid
from .errors import (
    DichotomySplitFailure,
    GraphSubspaceFailure,
    ImaginaryAxisEigenvalue,
    MflqError,
    NonPositiveR,
    ProblemFileError,
    StabilizabilityFailure,
    UnstableGenerator,
)
from .linalg import eigenvalues
from .problem import ProblemData, gamma_weights, validate
from .simulate import SimConfig, simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DICHOTOMY = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# Problem files.

# the arrays every problem document holds, in the order the echo writes them
_ARRAY_FIELDS = ("A", "B", "Q", "R", "Gamma", "eta", "x0")


def _field(doc, name):
    if name not in doc:
        raise ProblemFileError(f"missing field '{name}'")
    return doc[name]


def _int_field(doc, name):
    value = _field(doc, name)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProblemFileError(f"field '{name}' must be an integer")
    return value


def _array_field(doc, name):
    value = _field(doc, name)
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(f"field '{name}' is not numeric") from exc


def parse_problem_dict(doc):
    """Build :class:`ProblemData` from a parsed problem document, checking
    only the format: a JSON object, integers ``n, n1 >= 1`` (and ``n2``),
    numeric arrays, and declared dimensions that match the arrays."""
    if not isinstance(doc, dict):
        raise ProblemFileError("problem document must be a JSON object")
    n = _int_field(doc, "n")
    n1 = _int_field(doc, "n1")
    if n < 1 or n1 < 1:
        raise ProblemFileError("dimensions n, n1 must be positive")
    rho = _field(doc, "rho")
    d = _array_field(doc, "D") if doc.get("D") is not None else None
    n2 = _int_field(doc, "n2") if d is not None and "n2" in doc else None
    arrays = {name: _array_field(doc, name) for name in _ARRAY_FIELDS}
    try:
        p = ProblemData(**arrays, rho=rho, D=d)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    for name, declared, actual in (("n", n, p.n), ("n1", n1, p.n1), ("n2", n2, p.n2)):
        if declared is not None and declared != actual:
            raise ProblemFileError(f"field '{name}' is {declared}, "
                                   f"but the arrays give {actual}")
    return p


def load_problem_file(path):
    """Read and parse a JSON problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read '{path}': {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ProblemFileError(f"invalid JSON in '{path}': {exc}") from exc
    return parse_problem_dict(doc)


def problem_to_dict(p):
    """Echo a problem as a document that re-parses to identical data."""
    doc = {
        "n": p.n,
        "n1": p.n1,
        "rho": p.rho,
    }
    doc.update((name, getattr(p, name).tolist()) for name in _ARRAY_FIELDS)
    if p.D is not None:
        doc["n2"] = p.n2
        doc["D"] = p.D.tolist()
    return doc


# ---------------------------------------------------------------------------
# Output helpers.

def _spectrum_rows(matrix):
    return [{"re": float(z.real), "im": float(z.imag)}
            for z in np.sort_complex(eigenvalues(matrix))]


def _validation_dict(report):
    # a stable A has no PBH test point: its margin is inf, which JSON lacks
    margin = report.stabilizability_margin
    return {**vars(report), "stabilizability_margin": margin if margin < np.inf else None,
            "failed_checks": report.failures()}


def _emit(doc, out_path=None):
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:  # the output, not the input, is at fault: exit 3
        raise MflqError("the report has a value that is not finite") from None
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_csv(path, header, columns):
    """Write `header`, then the rows of `columns` with 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=header, comments="")


def write_trajectory_csv(path, t_grid, xbar, s):
    """Write `t,xbar_1..xbar_n,s_1..s_n` rows with 17 significant digits."""
    names = [f"{v}_{i}" for v in ("xbar", "s") for i in range(1, xbar.shape[1] + 1)]
    _write_csv(path, ",".join(["t", *names]), (t_grid, xbar, s))


# ---------------------------------------------------------------------------
# Commands.

class _ExplainedFailure(Exception):
    """A failed solve of a problem that :func:`problem.validate` fails."""


def _solve(p, solve):
    """``solve(p)``; on failure, :func:`problem.validate`'s verdicts on `p`
    replace the error if they fail too.  They never veto a certified solve."""
    try:
        return solve(p)
    except (MflqError, ValueError):
        report = validate(p)
        if report.ok:
            raise
        raise _ExplainedFailure("; ".join(report.failures())
                                + f" (margins: PBH {report.stabilizability_margin:.3e}, "
                                  f"R {report.r_min_eigenvalue:.3e}, "
                                  f"axis {report.axis_margin})")


def _solve_report(solve, own_keys, args, p):
    """``solve-social`` and ``solve-game``: solve, sample the trajectory,
    write the CSV, then report the common keys around the command's own,
    which ``own_keys(sol, p, grid, xbar, s)`` returns with the residuals
    that follow the discounted Riccati one."""
    grid = uniform_grid(args.t_end, args.dt)
    started = time.perf_counter()
    sol = _solve(p, solve)
    solve_seconds = time.perf_counter() - started
    xbar, s = sol.trajectory(grid)
    if args.traj_out:
        write_trajectory_csv(args.traj_out, grid, xbar, s)
    keys, residuals = own_keys(sol, p, grid, xbar, s)
    doc = {
        "command": args.command,
        "problem": problem_to_dict(p),
        "validation": _validation_dict(validate(p)),
        "spectrum": _spectrum_rows(sol.decomposition.K),
        "Pi": sol.Pi.tolist(),
        **keys,
        "s0": sol.s0.tolist(),
        "residuals": {"discounted_riccati": sol.pi_residual, **residuals},
        "timings": {
            "solve_seconds": solve_seconds,
            "total_seconds": time.perf_counter() - started,
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def _social_keys(sol, p, grid, xbar, s):
    return {
        "Xplus": sol.X_plus.tolist(),
        "A_C": sol.A_C.tolist(),
        "A_cl": sol.bvp.y1_generator[:p.n, :p.n].tolist(),  # A_C + (rho/2) I
        "c": sol.bvp.y2_offset.tolist(),
    }, {
        "auxiliary_riccati": sol.decomposition.residual,
        "ode_finite_difference": social_mod._sce_residual(sol, p, grid, xbar, s),
    }


def _game_keys(sol, p, grid, xbar, s):
    d = sol.decomposition
    return {
        "M_mfg": d.K.tolist(),
        "Y": d.Y.tolist(),
        "F11": d.F11.tolist(),
        "y2_offset": sol.bvp.y2_offset.tolist(),
    }, {"auxiliary_riccati": d.residual}


def _cmd_contraction(args, p):
    are = _solve(p, riccati.solve_discounted_are)
    beta = contraction_mod.contraction_bound(p, are.Y)
    doc = {
        "command": "contraction",
        "problem": problem_to_dict(p),
        "beta": beta,
        "verdict": "contraction" if beta < 1.0 else "not a contraction",
        "note": "upper bound on the fixed-point map constant; may not be tight",
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_simulate(args, p):
    cfg = SimConfig(N=args.agents, T=args.horizon, dt=args.dt,
                    replications=args.reps, seed=args.seed)
    if p.D is None:
        raise ProblemFileError("simulation requires field 'D' in the problem file")
    sol = _solve(p, social_mod.solve_sce)
    strategy = social_mod.decentralized_strategy(sol, p)
    result = simulate(p, strategy, cfg)
    if args.out:
        _write_csv(args.out, "replication,per_agent_cost,mean_field_gap,tail_bound",
                   (np.arange(cfg.replications), result.per_rep_cost,
                    result.per_rep_gap, result.per_rep_tail))
    doc = {
        "command": "simulate",
        "agents": cfg.N,
        "horizon": cfg.T,
        "dt": cfg.dt,
        "replications": cfg.replications,
        "seed": cfg.seed,
        "per_agent_cost_mean": result.cost_mean,
        "per_agent_cost_stderr": result.cost_stderr,
        "mean_field_gap_mean": result.gap_mean,
        "mean_field_gap_std": result.gap_std,
        "cost_tail_bound_mean": result.tail_mean,
    }
    _emit(doc)
    return EXIT_OK


def _cmd_spectrum(args, p):
    are = _solve(p, riccati.solve_discounted_are)
    coupling = gamma_weights(p)[0] if args.system == "social" else p.Q @ p.Gamma
    doc = {
        "command": "spectrum",
        "system": args.system,
        "eigenvalues": _spectrum_rows(riccati.consistency_matrix(are, coupling)),
    }
    _emit(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.

def _print_error(check, message):
    sys.stderr.write(f"mflq: {check} failure: {message}\n")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mflq",
        description="LQ mean-field social optimization and games via "
                    "invariant-subspace decomposition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, out_help="write the report here instead of stdout"):
        sp.add_argument("problem", help="path to a JSON problem file")
        sp.add_argument("--out", default=None, help=out_help)

    for name, solve, own_keys in (("solve-social", social_mod.solve_sce, _social_keys),
                                  ("solve-game", mfg_mod.solve_mfg, _game_keys)):
        sp = sub.add_parser(name)
        add_common(sp)
        sp.add_argument("--t-end", type=float, default=10.0,
                        help="trajectory end time (default 10)")
        sp.add_argument("--dt", type=float, default=0.01,
                        help="trajectory step (default 0.01)")
        sp.add_argument("--traj-out", default=None,
                        help="write a trajectory CSV to this path")
        sp.set_defaults(handler=functools.partial(_solve_report, solve, own_keys))

    sp = sub.add_parser("contraction")
    add_common(sp)
    sp.set_defaults(handler=_cmd_contraction)

    sp = sub.add_parser("simulate")
    add_common(sp, "write the per-replication CSV here; the report still "
                   "goes to stdout")
    sp.add_argument("--agents", type=int, default=32)
    sp.add_argument("--horizon", type=float, default=5.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--reps", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    sp.set_defaults(handler=_cmd_simulate)

    sp = sub.add_parser("spectrum")
    add_common(sp)
    sp.add_argument("--system", choices=("social", "game"), default="social")
    sp.set_defaults(handler=_cmd_spectrum)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        p = load_problem_file(args.problem)
        for path in (args.out, vars(args).get("traj_out")):
            if path and not os.path.isdir(os.path.dirname(path) or os.curdir):
                # what open(path, "w") raises, but before the solve
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        return args.handler(args, p)
    except (ProblemFileError, ValueError) as exc:
        _print_error("input", str(exc))
        return EXIT_IO
    except (_ExplainedFailure, StabilizabilityFailure, NonPositiveR,
            UnstableGenerator) as exc:
        _print_error("validation", str(exc))
        return EXIT_VALIDATION
    except (ImaginaryAxisEigenvalue, DichotomySplitFailure,
            GraphSubspaceFailure) as exc:
        _print_error("dichotomy", str(exc))
        return EXIT_DICHOTOMY
    except MflqError as exc:
        _print_error("numerical", str(exc))
        return EXIT_DICHOTOMY
    except OSError as exc:
        _print_error("io", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
