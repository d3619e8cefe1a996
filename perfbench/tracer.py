"""Spans around the public functions of each ``mflq`` module, installed from
outside the library.

The tracer rebinds every listed function in every ``mflq.*`` namespace that
holds it (so names pulled in with ``from .linalg import ...`` are covered)
and patches the listed methods on their classes.  Spans are kept in memory
as ``[name, start_ns, end_ns, parent, op, raised, capture]`` and reduced at
the end; self time is a span's duration minus its child spans, so per
operation the self times add up to the operation's traced wall time.

Only the standard library is imported here: the CLI child imports this
module before ``mflq`` to time that import.
"""

import functools
import sys
import threading
import time

# (module, attribute path) of every traced function, in layer order.
TARGETS = (
    ("problem", "ProblemData.__post_init__"),
    ("problem", "validate"),
    ("riccati", "solve_discounted_are"),
    ("riccati", "solve_care_stabilizing"),
    ("riccati", "stabilizability_margin"),
    ("linalg", "real_schur_ordered"),
    ("linalg", "eigenvalues"),
    ("linalg", "mat_exp"),
    ("linalg", "solve_linear"),
    ("dichotomy", "decompose_from_riccati"),
    ("dichotomy", "decompose_from_schur"),
    ("dichotomy", "solve_decaying"),
    ("dichotomy", "evaluate_trajectory"),
    ("social", "solve_sce"),
    ("social", "SceSolution.trajectory"),
    ("mfg", "solve_mfg"),
    ("mfg", "MfgSolution.trajectory"),
    ("contraction", "contraction_bound"),
    ("contraction", "decaying_norm_integral"),
    ("simulate", "simulate"),
    ("cli", "main"),
    ("cli", "load_problem_file"),
    ("cli", "write_trajectory_csv"),
)


def span_name(module, path):
    """Metric prefix of a traced function; the constructor is named after
    its class."""
    return f"{module}.{path.removesuffix('.__post_init__')}"


NAMES = tuple(span_name(m, p) for m, p in TARGETS)

# Spans whose positional arguments are kept, to count work from the inputs.
CAPTURED = ("riccati.stabilizability_margin", "social.SceSolution.trajectory",
            "mfg.MfgSolution.trajectory", "simulate.simulate")

OP = "op"


class Tracer:
    """In-memory span recorder.  Use ``install``/``uninstall`` around the
    traced phase and ``operation(op_id)`` around each operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans
        clock = time.perf_counter_ns
        capture = name in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0, 0, stack[-1] if stack else None, self.op, False,
                   args if capture else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target found in the loaded ``mflq`` modules.  Returns
        the names of targets that do not exist in this version."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "mflq" or name.startswith("mflq.")}
        missing = []
        for (module, path), name in zip(TARGETS, NAMES):
            owner = modules.get(f"mflq.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if cls_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return missing

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original back, in reverse order of patching."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def operation(self, op_id):
        return _Operation(self, op_id)


class _Operation:
    """Root span of one benchmark operation."""

    def __init__(self, tracer, op_id):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        tr = self.tracer
        tr.op = self.op_id
        self.rec = [OP, 0, 0, None, self.op_id, False, None]
        tr._stack().append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[1] = time.perf_counter_ns()
        return self.rec

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.op = None
        return False


def reduce_captures(spans):
    """Replace captured arguments by the work they imply: unstable
    eigenvalues tested by PBH, trajectory grid points, agent steps."""
    import numpy as np

    for rec in spans:
        args = rec[6]
        if args is None or isinstance(args, (int, float)):
            continue
        name = rec[0]
        if name == "riccati.stabilizability_margin":
            rec[6] = int((np.linalg.eigvals(np.asarray(args[0], float)).real
                          >= 0.0).sum())
        elif name == "simulate.simulate":
            cfg = args[2]
            rec[6] = cfg.N * max(1, int(round(cfg.T / cfg.dt))) * cfg.replications
        else:
            rec[6] = int(np.atleast_1d(np.asarray(args[1])).size)
    return spans


def self_times(spans):
    """Self time of every span, in nanoseconds."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] is not None:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def _has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, n_ops):
    """Per-layer metrics of the traced phase, as ``{name: (value, unit)}``.

    Calls, self time and raised exceptions are per operation.  The derived
    ratios are measured where the work happens: PBH SVDs from the matrices
    passed in, matrix exponentials per trajectory point inside
    ``evaluate_trajectory``, exponentials inside the contraction quadrature,
    and simulator self time per agent step.
    """
    own = self_times(spans)
    calls = dict.fromkeys(NAMES, 0)
    self_ns = dict.fromkeys(NAMES, 0)
    errors = dict.fromkeys(NAMES, 0)
    pbh = traj_points = agent_steps = traj_exps = contraction_exps = 0
    op_remainder = 0
    for idx, rec in enumerate(spans):
        name = rec[0]
        if rec[4] is None:
            continue            # outside any operation, e.g. in a check
        if name == OP:
            op_remainder += own[idx]
            continue
        if name not in calls:
            continue
        calls[name] += 1
        self_ns[name] += own[idx]
        errors[name] += rec[5]
        if name == "riccati.stabilizability_margin":
            pbh += rec[6]
        elif name == "simulate.simulate":
            agent_steps += rec[6]
        elif name.endswith(".trajectory"):
            traj_points += rec[6]
        elif name == "linalg.mat_exp":
            if _has_ancestor(spans, idx, "dichotomy.evaluate_trajectory"):
                traj_exps += 1
            elif _has_ancestor(spans, idx, "contraction.decaying_norm_integral"):
                contraction_exps += 1
    ops = max(n_ops, 1)
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = (calls[name] / ops, "1/op")
        out[f"{name}.self_ms"] = (self_ns[name] / ops / 1e6, "ms")
        out[f"{name}.errors"] = (errors[name] / ops, "1/op")
    out["op.remainder_ms"] = (op_remainder / ops / 1e6, "ms")
    out["riccati.pbh_svds"] = (pbh / ops, "1/op")
    out["linalg.mat_exp.per_traj_point"] = (
        traj_exps / traj_points if traj_points else 0.0, "1")
    out["contraction.mat_exp_calls"] = (contraction_exps / ops, "1/op")
    out["simulate.ns_per_agent_step"] = (
        self_ns["simulate.simulate"] / agent_steps if agent_steps else 0.0, "ns")
    return out


def check_additivity(spans):
    """Per operation, self times sum to the operation's wall time: nothing
    is counted twice and nothing is lost.  Returns the offending op ids."""
    own = self_times(spans)
    total = {}
    wall = {}
    for idx, rec in enumerate(spans):
        total[rec[4]] = total.get(rec[4], 0) + own[idx]
        if rec[0] == OP:
            wall[rec[4]] = rec[2] - rec[1]
    return [op for op in wall if total.get(op) != wall[op]]
