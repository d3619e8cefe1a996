"""The four closed-loop workloads of the mflq benchmark.

A workload is a fixed, seeded list of operations run one at a time by a
single client, each started only after the previous one returned, the way
a script calling the library waits for each result.  ``run(k)`` performs
operation k and returns the wall time of each library call in it with the
raw results; ``check(k, out)`` verifies the results afterwards, outside the
timed region.
"""

import json
import os
import resource
import subprocess
import sys
import threading
import time

import numpy as np
import scipy.linalg as sla

import checks
from instances import FIELDS, consistency_system

now = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
NPROC = os.cpu_count() or 1

UNIFORM_GRID = np.linspace(0.0, 5.0, 1001)
LOG_GRID = np.concatenate([[0.0], np.logspace(-3.0, 1.0, 200)])
SIM_T, SIM_DT, SIM_REPS = 5.0, 0.01, 4
SIM_AGENTS = (128, 1024)
CLI_TIMEOUT_S = 120.0


def expect_error(mflq, raised, expected):
    """Failures for an input that must raise `expected` (an MflqError
    subclass name) but raised `raised` (an exception or None)."""
    cls = getattr(mflq.errors, expected)
    if raised is None:
        return [f"not rejected; expected {expected}"]
    if not isinstance(raised, cls):
        return [f"raised {type(raised).__name__}, expected {expected}"]
    return []


class Reference:
    """Host-speed reference: a fixed piece of benchmark code timed right
    after each operation.  On a shared host the speed of the operations
    drifts by tens of percent within a minute and a reference of the same
    kind drifts with them, so ``wall * nominal / reference time`` is the
    operation's time at the host speed where the reference takes
    `nominal` seconds."""

    nominal = 1.0

    def kernel(self):
        raise NotImplementedError

    def __call__(self, budget):
        """Mean time of one kernel run, repeated for at least `budget` s."""
        start = now()
        runs = 0
        while True:
            self.kernel()
            runs += 1
            elapsed = now() - start
            if elapsed >= budget:
                return elapsed / runs


class KernelReference(Reference):
    """For short interpreter-bound library calls: a Python loop of 8x8
    products plus a 16x16 real Schur form, eigenvalues and solve."""

    nominal = 1e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a8 = rng.standard_normal((8, 8))
        self.a16 = rng.standard_normal((16, 16))
        self.w = rng.standard_normal(8)

    def kernel(self):
        w = self.w
        for _ in range(100):
            w = self.a8 @ w
            w /= np.abs(w).max()
        sla.schur(self.a16, output="real")
        np.linalg.eigvals(self.a16)
        np.linalg.solve(self.a16, self.a16)


class InterpreterReference(Reference):
    """For process start-up: a bare ``python -c pass``."""

    nominal = 0.1

    def kernel(self):
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=CLI_TIMEOUT_S)


class Workload:
    """Common set-up: the program's own constructors build the inputs.
    A workload with a `reference` reports times at the nominal host speed
    of that reference."""

    reference = None

    def __init__(self, mflq, insts):
        self.mflq = mflq
        self.insts = insts
        self.inputs = None

    def build(self):
        m = self.mflq
        self.inputs = [
            m.cli.load_problem_file(inst.path) if inst.path
            else m.ProblemData(**{k: inst.data[k] for k in FIELDS})
            for inst in self.insts
        ]

    def __len__(self):
        return len(self.insts)

    def peak_rss_mb(self):
        """Peak resident memory of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Solve(Workload):
    """sweep-small and large-n: per input, ``solve_sce``, its trajectory on
    the workload's grid, then ``solve_mfg``.  A must-reject input is one
    ``solve_sce`` call that must raise the expected error."""

    def __init__(self, mflq, insts, grid):
        super().__init__(mflq, insts)
        self.grid = grid

    def run(self, k):
        m = self.mflq
        p = self.inputs[k]
        if self.insts[k].expect is not None:
            t0 = now()
            try:
                m.solve_sce(p)
            except m.errors.MflqError as exc:
                return {"reject": now() - t0}, exc
            return {"reject": now() - t0}, None
        t0 = now()
        sol = m.solve_sce(p)
        t1 = now()
        xbar, s = sol.trajectory(self.grid)
        t2 = now()
        try:
            game = m.solve_mfg(p)
        except m.errors.MflqError as exc:
            game = exc
        t3 = now()
        return ({"solve_social": t1 - t0, "trajectory": t2 - t1,
                 "solve_game": t3 - t2}, (sol, xbar, s, game))

    def check(self, k, out):
        inst = self.insts[k]
        if inst.expect is not None:
            return expect_error(self.mflq, out, inst.expect)
        sol, xbar, s, game = out
        fails = checks.check_social(inst.data, sol, inst.oracle)
        fails += checks.check_trajectory(inst.data, sol.Pi, sol.s0, self.grid,
                                         xbar, s)
        game_error = inst.oracle.get("game_error")
        if game_error:
            raised = game if isinstance(game, Exception) else None
            return fails + expect_error(self.mflq, raised, game_error)
        if isinstance(game, Exception):
            return fails + [f"solve_mfg raised {type(game).__name__}: {game}"]
        return fails + checks.check_game(inst.data, game, inst.oracle)


class MonteCarlo(Workload):
    """montecarlo: per (input, N), ``solve_sce`` and the decentralized
    strategy, ``contraction_bound`` and ``simulate`` with one thread.  The
    first time an (input, N) comes up, ``simulate`` also runs with one
    thread per processor, after the timed operation: it is the noisiest
    call on a shared host, so it is timed on its own and must be
    bit-identical to the single-threaded result.  Every repeat must be
    bit-identical to the first."""

    def __init__(self, mflq, insts, seed):
        super().__init__(mflq, insts)
        self.seed = seed
        self.ops = [(i, n) for i in range(len(insts)) for n in SIM_AGENTS]
        self.first = {}
        self.threaded = []      # (agent steps, seconds) of the threaded runs

    def __len__(self):
        return len(self.ops)

    def agent_steps(self, k):
        return self.ops[k][1] * int(round(SIM_T / SIM_DT)) * SIM_REPS

    def run(self, k):
        m = self.mflq
        i, agents = self.ops[k]
        p = self.inputs[i]
        t0 = now()
        sol = m.solve_sce(p)
        strategy = m.decentralized_strategy(sol, p)
        t1 = now()
        beta = m.contraction_bound(p, sol.Pi)
        t2 = now()
        cfg = m.SimConfig(N=agents, T=SIM_T, dt=SIM_DT, replications=SIM_REPS,
                          seed=self.seed * 100 + i)
        single = m.simulate(p, strategy, cfg, threads=1)
        t3 = now()
        return ({"solve_social": t1 - t0, "contraction": t2 - t1,
                 "sim": t3 - t2}, (sol, beta, single, strategy, cfg))

    def check(self, k, out):
        inst = self.insts[self.ops[k][0]]
        sol, beta, single, strategy, cfg = out
        fails = checks.check_social(inst.data, sol, inst.oracle)
        fails += checks.check_beta(beta, inst.oracle)
        fails += checks.check_sim(single, SIM_REPS)
        first = self.first.get(self.ops[k])
        if first is None:
            self.first[self.ops[k]] = single
            t0 = now()
            multi = self.mflq.simulate(self.inputs[self.ops[k][0]], strategy,
                                       cfg, threads=NPROC)
            self.threaded.append((self.agent_steps(k), now() - t0))
            if not checks.same_sim(single, multi):
                fails.append(f"simulate differs between 1 and {NPROC} threads")
        elif not checks.same_sim(single, first):
            fails.append("simulate differs from an earlier call with the same seed")
        return fails


class Cli(Workload):
    """cli-cold: one ``mflq <command>`` subprocess per operation, covering
    all five commands over the shipped files and the three failure exit
    codes.  Outputs go to files in the workload's scratch directory."""

    def __init__(self, mflq, insts, seed, workdir):
        super().__init__(mflq, insts)
        self.workdir = workdir
        self.by_name = {inst.name: inst for inst in insts}
        self.trace_dir = None      # set to collect spans from each child
        self.child_spans = []      # span files, one per traced call in order
        self.rss_kb = 0
        self.first_sim = None
        path = {inst.name: inst.path for inst in insts}
        traj = ("--t-end", "5", "--dt", "0.005")
        sim = ("--agents", "32", "--horizon", "5", "--dt", "0.01",
               "--reps", "4", "--seed", str(seed))
        self.ops = [
            ("solve-social", "ex41", traj, 0),
            ("solve-social", "ex42_gamma005", traj, 0),
            ("solve-social", "ex42_gamma2", traj, 0),
            ("solve-game", "ex43", traj, 0),
            ("solve-game", "ex42_gamma005", traj, 0),
            ("solve-game", "ex42_gamma2", (), 3),
            ("contraction", "ex42_gamma2", (), 0),
            ("contraction", "ex42_gamma005", (), 0),
            ("simulate", "ex41", sim, 0),
            ("simulate", "ex41", sim + ("--threads", "1"), 0),
            ("spectrum", "ex42_gamma2", ("--system", "social"), 0),
            ("spectrum", "ex43", ("--system", "game"), 0),
            ("solve-social", "ex22_degenerate", (), 3),
            ("solve-social", "unstabilizable", (), 2),
            ("solve-social", "malformed", (), 4),
        ]
        self.argv = []
        for k, (cmd, name, extra, _) in enumerate(self.ops):
            argv = [cmd, path[name], *extra]
            if cmd in ("solve-social", "solve-game"):
                argv += ["--traj-out", self._file(k, "csv")]
            if cmd == "simulate":
                argv += ["--out", self._file(k, "csv")]
            self.argv.append(argv)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.env = env

    def peak_rss_mb(self):
        """Peak resident memory of the largest CLI child."""
        return self.rss_kb / 1024.0

    def _file(self, k, ext):
        return os.path.join(self.workdir, f"op{k}.{ext}")

    def build(self):
        self.inputs = [self.mflq.cli.load_problem_file(inst.path)
                       for inst in self.insts if inst.expect != "ProblemFileError"]

    def __len__(self):
        return len(self.ops)

    def run(self, k):
        if self.trace_dir is None:
            cmd = [sys.executable, "-c",
                   "import sys; from mflq.cli import main; sys.exit(main())"]
        else:
            spans = os.path.join(self.trace_dir,
                                 f"spans{len(self.child_spans)}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans]
        out_path = self._file(k, "stdout")
        with open(out_path, "wb") as out, open(self._file(k, "stderr"), "wb") as err:
            t0 = now()
            proc = subprocess.Popen(cmd + self.argv[k], stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        if self.trace_dir is not None:
            self.child_spans.append(spans)
        with open(out_path, "r", encoding="utf-8") as fh:
            stdout = fh.read()
        return {"cli": t1 - t0}, (proc.returncode, stdout)

    def check(self, k, out):
        code, stdout = out
        cmd, name, _, want = self.ops[k]
        if code != want:
            return [f"mflq {cmd} {name} exited {code}, expected {want}"]
        if want != 0:
            return []
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return [f"mflq {cmd} {name} printed no JSON report"]
        inst = self.by_name[name]
        data, oracle = inst.data, inst.oracle
        if cmd in ("solve-social", "solve-game"):
            game = cmd == "solve-game"
            pi = np.array(doc["Pi"])
            s0 = np.array(doc["s0"])
            fails = []
            checks.check_pi(data, pi, oracle, fails)
            label = "s0_game" if game else "s0_social"
            if checks.rel_err(s0, oracle[label]) > checks.ORACLE_RTOL:
                fails.append(f"{label} differs from oracle")
            golden = oracle["golden"].get(label)
            if golden and np.abs(s0 - golden[0]).max() > golden[1]:
                fails.append(f"{label} misses frozen golden {golden[0]}")
            rows = np.loadtxt(self._file(k, "csv"), delimiter=",", skiprows=1,
                              ndmin=2)
            n = data["A"].shape[0]
            return fails + checks.check_trajectory(
                data, pi, s0, rows[:, 0], rows[:, 1:1 + n], rows[:, 1 + n:], game)
        if cmd == "contraction":
            return checks.check_beta(doc["beta"], oracle)
        if cmd == "spectrum":
            matrix, _ = consistency_system(data, oracle["Pi"],
                                           doc["system"] == "game")
            return checks.check_eigenvalues(doc["eigenvalues"], matrix)
        # simulate: finite statistics, bit-identical across repeated calls
        # and between one thread (--threads 1) and one per processor
        with open(self._file(k, "csv"), "r", encoding="utf-8") as fh:
            table = fh.read()
        rows = table.strip().splitlines()[1:]
        values = [float(v) for row in rows for v in row.split(",")]
        fails = []
        if len(rows) != SIM_REPS or not np.isfinite(values).all():
            fails.append("simulate wrote a malformed statistics table")
        if self.first_sim is None:
            self.first_sim = (stdout, table)
        elif self.first_sim != (stdout, table):
            fails.append("simulate output differs from an earlier call")
        return fails


def make(name, mflq, insts, seed, workdir):
    if name == "sweep-small":
        wl = Solve(mflq, insts, UNIFORM_GRID)
        wl.reference = KernelReference()
        return wl
    if name == "large-n":
        return Solve(mflq, insts, LOG_GRID)
    if name == "montecarlo":
        return MonteCarlo(mflq, insts, seed)
    wl = Cli(mflq, insts, seed, workdir)
    wl.reference = InterpreterReference()
    return wl

