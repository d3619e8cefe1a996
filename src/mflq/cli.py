"""Command-line interface.

Commands: ``solve-social``, ``solve-game``, ``contraction``, ``simulate``,
``spectrum``.  Problems are JSON documents with integer fields ``n``, ``n1``
(and ``n2`` when a noise matrix is present), row-major nested arrays ``A``,
``B``, ``D``, ``Q``, ``R``, ``Gamma``, vectors ``eta``, ``x0`` and the
number ``rho``.  Reports are JSON on stdout; trajectories are CSV files
with header ``t,xbar_1..xbar_n,s_1..s_n``.

Exit codes: 0 success, 2 validation failure, 3 dichotomy or numerical
failure, 4 I/O or parse error.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import contraction as contraction_mod
from . import mfg as mfg_mod
from . import social as social_mod
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
from .problem import ProblemData, discounted_riccati, gamma_weights, validate
from .simulate import SimConfig, simulate

__all__ = ["load_problem_file", "main", "parse_problem_dict", "problem_to_dict"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DICHOTOMY = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# Problem files.

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


def _matrix_field(doc, name, rows, cols):
    arr = _array_field(doc, name)
    if arr.shape != (rows, cols):
        raise ProblemFileError(
            f"field '{name}' must be {rows}x{cols}, got shape {arr.shape}"
        )
    return arr


def _vector_field(doc, name, size):
    arr = _array_field(doc, name)
    if arr.shape != (size,):
        raise ProblemFileError(f"field '{name}' must have length {size}")
    return arr


def parse_problem_dict(doc):
    """Build :class:`ProblemData` from a parsed problem document."""
    if not isinstance(doc, dict):
        raise ProblemFileError("problem document must be a JSON object")
    n = _int_field(doc, "n")
    n1 = _int_field(doc, "n1")
    if n < 1 or n1 < 1:
        raise ProblemFileError("dimensions n, n1 must be positive")
    rho = _field(doc, "rho")
    if not isinstance(rho, (int, float)) or isinstance(rho, bool):
        raise ProblemFileError("field 'rho' must be a number")
    d = None
    if "D" in doc and doc["D"] is not None:
        n2 = _int_field(doc, "n2") if "n2" in doc else None
        arr = _array_field(doc, "D")
        if arr.ndim != 2 or arr.shape[0] != n:
            raise ProblemFileError(f"field 'D' must have {n} rows")
        if n2 is not None and arr.shape[1] != n2:
            raise ProblemFileError(f"field 'D' must be {n}x{n2} per declared n2")
        d = arr
    try:
        return ProblemData(
            A=_matrix_field(doc, "A", n, n),
            B=_matrix_field(doc, "B", n, n1),
            Q=_matrix_field(doc, "Q", n, n),
            R=_matrix_field(doc, "R", n1, n1),
            Gamma=_matrix_field(doc, "Gamma", n, n),
            eta=_vector_field(doc, "eta", n),
            x0=_vector_field(doc, "x0", n),
            rho=float(rho),
            D=d,
        )
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc


def load_problem_file(path):
    """Read and parse a JSON problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"invalid JSON in '{path}': {exc}") from exc
    return parse_problem_dict(doc)


def problem_to_dict(p):
    """Echo a problem as a document that re-parses to identical data."""
    doc = {
        "n": p.n,
        "n1": p.n1,
        "rho": p.rho,
        "A": p.A.tolist(),
        "B": p.B.tolist(),
        "Q": p.Q.tolist(),
        "R": p.R.tolist(),
        "Gamma": p.Gamma.tolist(),
        "eta": p.eta.tolist(),
        "x0": p.x0.tolist(),
    }
    if p.D is not None:
        doc["n2"] = p.n2
        doc["D"] = p.D.tolist()
    return doc


# ---------------------------------------------------------------------------
# Output helpers.

def _spectrum_rows(matrix):
    lam = np.linalg.eigvals(matrix)
    order = np.lexsort((lam.imag, lam.real))
    return [{"re": float(z.real), "im": float(z.imag)} for z in lam[order]]


def _validation_dict(report):
    return {
        "stabilizable": report.stabilizable,
        "stabilizability_margin": report.stabilizability_margin,
        "r_positive_definite": report.r_positive_definite,
        "r_min_eigenvalue": report.r_min_eigenvalue,
        "axis_ok": report.axis_ok,
        "axis_margin": report.axis_margin,
        "failed_checks": report.failures(),
    }


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(doc, out_path=None):
    text = json.dumps(doc, indent=2, default=_json_default)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _time_grid(t_end, dt):
    if dt <= 0.0 or t_end < dt:
        raise ProblemFileError(f"invalid grid: t_end={t_end}, dt={dt}")
    steps = int(round(t_end / dt))
    return np.arange(steps + 1) * dt


def write_trajectory_csv(path, t_grid, xbar, s):
    """Write `t,xbar_1..xbar_n,s_1..s_n` rows with 17 significant digits."""
    n = xbar.shape[1]
    header = "t," + ",".join(f"xbar_{i+1}" for i in range(n)) \
        + "," + ",".join(f"s_{i+1}" for i in range(n))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for k, t in enumerate(t_grid):
            row = [t, *xbar[k], *s[k]]
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# Commands.

def _cmd_solve_social(args, p, report):
    started = time.perf_counter()
    sol = social_mod.solve_sce(p)
    grid = _time_grid(args.t_end, args.dt)
    xbar, s = sol.trajectory(grid)
    if args.traj_out:
        write_trajectory_csv(args.traj_out, grid, xbar, s)
    ode_residual = social_mod._sce_residual(sol, p, grid, xbar, s)
    doc = {
        "command": "solve-social",
        "problem": problem_to_dict(p),
        "validation": _validation_dict(report),
        "spectrum": _spectrum_rows(sol.H),
        "Pi": sol.Pi.tolist(),
        "Xplus": sol.X_plus.tolist(),
        "A_C": sol.A_C.tolist(),
        "A_cl": sol.A_cl.tolist(),
        "c": sol.offset.tolist(),
        "s0": sol.s0.tolist(),
        "residuals": {
            "discounted_riccati": sol.pi_residual,
            "auxiliary_riccati": sol.aux_residual,
            "ode_finite_difference": ode_residual,
        },
        "timings": {
            "solve_seconds": sol.solve_seconds,
            "total_seconds": time.perf_counter() - started,
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_solve_game(args, p, report):
    started = time.perf_counter()
    sol = mfg_mod.solve_mfg(p)
    grid = _time_grid(args.t_end, args.dt)
    xbar, s = sol.trajectory(grid)
    if args.traj_out:
        write_trajectory_csv(args.traj_out, grid, xbar, s)
    n = p.n
    u = sol.decomposition.U
    doc = {
        "command": "solve-game",
        "problem": problem_to_dict(p),
        "validation": _validation_dict(report),
        "spectrum": _spectrum_rows(sol.M_mfg),
        "Pi": sol.Pi.tolist(),
        "M_mfg": sol.M_mfg.tolist(),
        "U11": u[:n, :n].tolist(),
        "U12": u[:n, n:].tolist(),
        "U21": u[n:, :n].tolist(),
        "U22": u[n:, n:].tolist(),
        "U11_condition": sol.decomposition.U11_condition,
        "det_U11": float(np.linalg.det(u[:n, :n])),
        "F11": sol.decomposition.F11.tolist(),
        "y2_offset": sol.bvp.y2_offset.tolist(),
        "s0": sol.s0.tolist(),
        "residuals": {"discounted_riccati": sol.pi_residual},
        "timings": {
            "solve_seconds": sol.solve_seconds,
            "total_seconds": time.perf_counter() - started,
        },
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_contraction(args, p, report):
    are = discounted_riccati(p)
    beta = contraction_mod.contraction_bound(p, are.X)
    doc = {
        "command": "contraction",
        "problem": problem_to_dict(p),
        "beta": beta,
        "verdict": "contraction" if beta < 1.0 else "not a contraction",
        "note": "upper bound on the fixed-point map constant; may not be tight",
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_simulate(args, p, report):
    try:
        cfg = SimConfig(N=args.agents, T=args.horizon, dt=args.dt,
                        replications=args.reps, seed=args.seed)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    if p.D is None:
        raise ProblemFileError("simulation requires field 'D' in the problem file")
    sol = social_mod.solve_sce(p)
    strategy = social_mod.decentralized_strategy(sol, p)
    result = simulate(p, strategy, cfg, threads=args.threads)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("replication,per_agent_cost,mean_field_gap,tail_bound\n")
            for r in range(cfg.replications):
                fh.write(f"{r},{result.per_rep_cost[r]:.17g},"
                         f"{result.per_rep_gap[r]:.17g},"
                         f"{result.per_rep_tail[r]:.17g}\n")
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


def _cmd_spectrum(args, p, report):
    are = discounted_riccati(p)
    if args.system == "social":
        w = gamma_weights(p.Q, p.Gamma, p.eta)
        matrix = social_mod.build_hamiltonian(are, w)
    else:
        matrix = mfg_mod.build_mfg_matrix(p, are)
    doc = {
        "command": "spectrum",
        "system": args.system,
        "eigenvalues": _spectrum_rows(matrix),
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

    def add_common(sp):
        sp.add_argument("problem", help="path to a JSON problem file")
        sp.add_argument("--out", default=None, help="write the report here "
                        "instead of stdout")

    for name, fn in (("solve-social", _cmd_solve_social),
                     ("solve-game", _cmd_solve_game)):
        sp = sub.add_parser(name)
        add_common(sp)
        sp.add_argument("--t-end", type=float, default=10.0,
                        help="trajectory end time (default 10)")
        sp.add_argument("--dt", type=float, default=0.01,
                        help="trajectory step (default 0.01)")
        sp.add_argument("--traj-out", default=None,
                        help="write a trajectory CSV to this path")
        sp.set_defaults(handler=fn)

    sp = sub.add_parser("contraction")
    add_common(sp)
    sp.set_defaults(handler=_cmd_contraction)

    sp = sub.add_parser("simulate")
    add_common(sp)
    sp.add_argument("--agents", type=int, default=32)
    sp.add_argument("--horizon", type=float, default=5.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--reps", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="accepted for compatibility; has no effect")
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
        report = validate(p)
        if not report.ok:
            _print_error("validation", "; ".join(report.failures())
                         + f" (margins: PBH {report.stabilizability_margin:.3e}, "
                           f"R {report.r_min_eigenvalue:.3e}, "
                           f"axis {report.axis_margin})")
            return EXIT_VALIDATION
        return args.handler(args, p, report)
    except ProblemFileError as exc:
        _print_error("input", str(exc))
        return EXIT_IO
    except (StabilizabilityFailure, NonPositiveR, UnstableGenerator) as exc:
        _print_error("validation", str(exc))
        return EXIT_VALIDATION
    except (ImaginaryAxisEigenvalue, DichotomySplitFailure,
            GraphSubspaceFailure) as exc:
        _print_error("dichotomy", str(exc))
        return EXIT_DICHOTOMY
    except MflqError as exc:
        _print_error("numerical", str(exc))
        return EXIT_DICHOTOMY
    except ValueError as exc:
        _print_error("input", str(exc))
        return EXIT_IO
    except OSError as exc:
        _print_error("io", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
