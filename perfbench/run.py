"""mflq benchmark: one closed-loop client running one workload.

Usage::

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation.  With ``--trace 1`` it runs the same operations twice, first
plain and then with spans around the library's public functions, and reports
per-layer self time and counts plus the tracing overhead.  Every operation
is checked for correctness; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
nonzero when any check failed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep-small", "large-n", "montecarlo", "cli-cold")

SETUP_PROBES = 5         # set-up is measured this many times; median reported
MIN_OPS = 20             # a median needs ten samples on each side
TRACE_SPLIT = 0.4        # share of --seconds for the untraced half of a traced run
CHILD_TIMEOUT_S = 170.0
REF_SHARE = 0.05         # reference time after each operation, share of its wall


def import_mflq():
    """Import the library from this checkout's ``src``, never from an
    installed copy, so a checkout without it fails."""
    sys.path.insert(0, SRC)
    import mflq
    import mflq.cli

    if not os.path.abspath(mflq.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"mflq imported from {mflq.__file__}, not {SRC}")
    return mflq


def percentile(samples, q):
    """The q-th percentile, or None when fewer than ten samples lie beyond
    it (a median needs 20 samples, a p90 needs 100)."""
    if len(samples) * (100 - q) / 100 < 10:
        return None
    import numpy as np

    return float(np.percentile(samples, q))


class Record:
    """One operation: schedule index, wall time, per-call times, failures,
    and the host-speed scale measured right after it (1 without one)."""

    __slots__ = ("index", "wall", "calls", "fails", "scale")

    def __init__(self, index, wall, calls, fails):
        self.index, self.wall, self.calls, self.fails = index, wall, calls, fails
        self.scale = 1.0


def run_op(wl, k, tracer=None, op_id=None):
    """Run and check operation k; the check is outside the timed region."""
    span = tracer.operation(op_id) if tracer is not None else None
    if span is not None:
        span.__enter__()
    t0 = time.perf_counter()
    try:
        calls, out = wl.run(k)
    except Exception as exc:  # any escape is a failed operation, not a crash
        calls, out, fails = {}, None, [f"raised {type(exc).__name__}: {exc}"]
    else:
        fails = None
    wall = time.perf_counter() - t0
    if span is not None:
        span.__exit__(None, None, None)
    if fails is None:
        fails = wl.check(k, out)
    return Record(k, wall, calls, fails)


def measure(wl, seconds=None, count=None, tracer=None, first_op=0,
            min_ops=MIN_OPS, whole_rounds=False, reference=None):
    """Closed loop over the schedule: for `seconds` and at least `min_ops`
    operations, or exactly `count` operations.  With `whole_rounds` it
    stops only after a complete pass over the schedule, so every run
    weighs the inputs alike.  With a `reference` (see workloads.py), it
    runs after each operation for REF_SHARE of its wall time and gives the
    factor that scales the operation to the nominal host speed."""
    records = []
    start = time.perf_counter()
    while True:
        done = len(records)
        if count is not None:
            if done >= count:
                break
        elif (done >= min_ops and not (whole_rounds and done % len(wl))
              and time.perf_counter() - start >= seconds):
            break
        k = (first_op + done) % len(wl)
        rec = run_op(wl, k, tracer, op_id=done)
        if reference is not None:
            rec.scale = reference.nominal / reference(REF_SHARE * rec.wall)
        records.append(rec)
    return records


def environment(import_s):
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "loadavg": os.getloadavg(),
        "commit": commit,
        "import_mflq_s": import_s,
    }


def blas_threads():
    """Thread count OpenBLAS reports, as found (never set here)."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def interp_ms(samples=5):
    """Median wall time of a bare interpreter start."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def setup_seconds(args, workdir):
    """Median over fresh processes of: process start to ``import mflq`` done,
    plus building the inputs with the program's constructors, plus one
    warm-up operation.  Generating the inputs is the benchmark's own work
    and is not counted."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--probe", workdir,
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True)
        marker = proc.stdout.readline()
        t1 = time.perf_counter()
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or marker.strip() != "imported":
            raise SystemExit(f"set-up probe failed with code {proc.returncode}")
        phases = json.loads(rest.strip().splitlines()[-1])
        samples.append(t1 - t0 + phases["build_s"] + phases["warm_s"])
    return statistics.median(samples), samples


def probe(args):
    """Child process of `setup_seconds`."""
    mflq = import_mflq()
    print("imported", flush=True)
    import instances
    import workloads

    wl = workloads.make(args.workload, mflq, instances.load_inputs(args.probe),
                        args.seed, args.probe)
    t0 = time.perf_counter()
    wl.build()
    t1 = time.perf_counter()
    wl.run(0)
    t2 = time.perf_counter()
    print(json.dumps({"build_s": t1 - t0, "warm_s": t2 - t1}))
    return 0


def end_to_end(wl, records, setup_s):
    """Gated metrics, plus the per-call figures printed for reading.  Times
    of a run with a reference are scaled to the nominal host speed."""
    walls = [r.wall * r.scale for r in records]
    gated = {
        "setup_s": (setup_s, "s"),
        "problems_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    samples = {}
    for r in records:
        for kind, sec in r.calls.items():
            samples.setdefault(kind, []).append(sec * r.scale * 1e3)
    detail = {"op_ms_p50": ([w * 1e3 for w in walls], 50),
              "op_ms_p90": ([w * 1e3 for w in walls], 90)}
    for kind, qs in (("solve_social", (50, 90)), ("solve_game", (50, 90)),
                     ("trajectory", (50,)), ("reject", (50,)),
                     ("contraction", (50,)), ("cli", (50, 90))):
        for q in qs:
            if kind in samples:
                detail[f"{kind}_ms_p{q}"] = (samples[kind], q)
    import workloads

    rates = {}
    if isinstance(wl, workloads.MonteCarlo):
        steps = sum(wl.agent_steps(r.index) for r in records)
        rates["sim_agent_steps_per_s"] = steps / (sum(samples["sim"]) / 1e3)
        rates["sim_agent_steps_per_s_mt"] = (sum(s for s, _ in wl.threaded)
                                             / sum(t for _, t in wl.threaded))
    failed = sum(1 for r in records if r.fails)
    rates["error_ratio"] = failed / len(records)
    if wl.reference is not None:
        raw = [r.wall for r in records]
        rates["op_ms_p50 unscaled"] = percentile([w * 1e3 for w in raw], 50)
        rates["problems_per_s unscaled"] = len(raw) / sum(raw)
        rates["host speed vs nominal"] = statistics.median(
            r.scale for r in records)
    return gated, detail, rates


def report_line(name, value, unit, note=""):
    print(f"  {name:28s} {value:14.6g} {unit:6s} {note}".rstrip())


def merge_child_spans(tracer, wl):
    """Attach each CLI child's spans under the parent's operation span.
    The clocks agree: perf_counter_ns is CLOCK_MONOTONIC on Linux."""
    op_span = {rec[4]: idx for idx, rec in enumerate(tracer.spans)
               if rec[0] == "op"}
    for op_id, path in enumerate(wl.child_spans):
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        offset = len(tracer.spans)
        for rec in child:
            rec[3] = op_span[op_id] if rec[3] is None else rec[3] + offset
            rec[4] = op_id
            tracer.spans.append(rec)


def traced_run(args, wl, import_ms):
    """Untraced, then traced, over the same operations."""
    import tracer as tracing
    import workloads

    cli = isinstance(wl, workloads.Cli)
    plain = measure(wl, seconds=args.seconds * TRACE_SPLIT, min_ops=1)
    tr = tracing.Tracer()
    missing = tr.install()
    if cli:
        wl.trace_dir = tempfile.mkdtemp(dir=wl.workdir)
    try:
        traced = measure(wl, count=len(plain), tracer=tr)
    finally:
        tr.uninstall()
    if cli:
        merge_child_spans(tr, wl)
        imports = [(r[2] - r[1]) / 1e6 for r in tr.spans if r[0] == "cli.import"]
        import_ms = statistics.median(imports)
    tracing.reduce_captures(tr.spans)
    broken = tracing.check_additivity(tr.spans)
    if broken:
        raise SystemExit(f"self times do not add up for operations {broken[:5]}")
    metrics = tracing.layer_metrics(tr.spans, len(traced))
    records = plain + traced
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.interp_ms"] = (interp_ms(), "ms")
    metrics["trace.overhead_ratio"] = (
        sum(r.wall for r in traced) / sum(r.wall for r in plain), "1")
    metrics["error_ratio"] = (
        sum(1 for r in records if r.fails) / len(records), "1")
    if missing:
        print(f"  functions not found in this version: {', '.join(missing)}")
    return records, metrics


def run_workload(args):
    t0 = time.perf_counter()
    mflq = import_mflq()
    import_s = time.perf_counter() - t0
    import instances
    import workloads

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(import_s)))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        insts = instances.workload_inputs(args.workload, args.seed, workdir)
        setup_s = None
        if not args.trace:
            instances.save_inputs(insts, workdir)
            setup_s, setup_samples = setup_seconds(args, workdir)
        wl = workloads.make(args.workload, mflq, insts, args.seed, workdir)
        wl.build()
        warm = run_op(wl, 0)
        if args.trace:
            records, metrics = traced_run(args, wl, import_s * 1e3)
        else:
            records = measure(wl, seconds=args.seconds, first_op=1,
                              whole_rounds=True,
                              reference=wl.reference)
    records = [warm] + records
    failures = [(r.index, f) for r in records for f in r.fails]
    for k, msg in failures[:20]:
        print(f"FAILED op {k}: {msg}", file=sys.stderr)
    print(f"operations {len(records)} (incl. warm-up), failed "
          f"{sum(1 for r in records if r.fails)}")
    if args.trace:
        out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    else:
        gated, detail, rates = end_to_end(wl, records[1:], setup_s)
        print("end-to-end (gated):")
        for name, (value, unit) in gated.items():
            report_line(name, value, unit, f"(n={len(records) - 1})"
                        if name == "problems_per_s" else "")
        print(f"  setup samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
        print("per call (not gated):")
        for name, (samples, q) in detail.items():
            value = percentile(samples, q)
            if value is None:
                print(f"  {name:28s} {'not reported':>14s}        "
                      f"(n={len(samples)}: fewer than ten beyond p{q})")
            else:
                report_line(name, value, "ms", f"(n={len(samples)})")
        for name, value in rates.items():
            unit = {"error_ratio": "1", "op_ms_p50 unscaled": "ms",
                    "host speed vs nominal": "1"}.get(name, "1/s")
            report_line(name, value, unit)
        out = {name: {"value": v, "unit": u} for name, (v, u) in gated.items()}
    failed = sum(1 for r in records if r.fails)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in turn, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        code = code or proc.returncode
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        return probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
