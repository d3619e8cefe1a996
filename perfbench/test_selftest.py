"""Self-tests of the benchmark itself.

Run with ``python3 -m pytest -q perfbench/test_selftest.py`` from the
repository root.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import instances  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

mflq = run.import_mflq()


def _same(a, b):
    assert [i.name for i in a] == [i.name for i in b]
    for x, y in zip(a, b):
        assert x.expect == y.expect
        for key in instances.FIELDS:
            u, v = x.data[key], y.data[key]
            assert (u is None and v is None) or np.array_equal(u, v)


def test_generator_is_deterministic_per_seed(tmp_path):
    _same(instances.sweep_small(5), instances.sweep_small(5))
    _same(instances.montecarlo(5), instances.montecarlo(5))
    _same(instances.cli_files(5, tmp_path), instances.cli_files(5, tmp_path))
    other = instances.sweep_small(6)
    assert not np.array_equal(instances.sweep_small(5)[0].data["A"],
                              other[0].data["A"])


def test_generator_imports_no_mflq():
    code = ("import sys; sys.path.insert(0, %r); import instances; "
            "instances.montecarlo(1); "
            "sys.exit(any(m == 'mflq' or m.startswith('mflq.') "
            "for m in sys.modules))" % HERE)
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _every_function(tmp_path):
    """A tiny run through every traced function, inside one operation."""
    ex41 = os.path.join(instances.PROBLEM_DIR, "ex41.json")
    ex43 = os.path.join(instances.PROBLEM_DIR, "ex43.json")
    traj = str(tmp_path / "traj.csv")
    out = str(tmp_path / "out.json")
    for argv in (["solve-social", ex41, "--t-end", "1", "--traj-out", traj],
                 ["solve-game", ex43, "--t-end", "1", "--traj-out", traj],
                 ["contraction", ex41],
                 ["simulate", ex41, "--agents", "4", "--horizon", "0.1",
                  "--reps", "2", "--threads", "1", "--out", traj],
                 ["spectrum", ex43, "--system", "game", "--out", out]):
        assert mflq.cli.main(argv) == 0


def test_tracer_spans_every_function_and_restores(tmp_path):
    modules = [m for name, m in sys.modules.items()
               if name == "mflq" or name.startswith("mflq.")]
    before = [dict(vars(m)) for m in modules]
    methods = (mflq.ProblemData.__post_init__, mflq.SceSolution.trajectory,
               mflq.MfgSolution.trajectory)
    tr = tracer.Tracer()
    assert tr.install() == []
    try:
        with tr.operation(0):
            _every_function(tmp_path)
    finally:
        tr.uninstall()
    seen = {rec[0] for rec in tr.spans}
    assert set(tracer.NAMES) <= seen
    assert tracer.check_additivity(tr.spans) == []
    for mod, saved in zip(modules, before):
        for key, value in saved.items():
            assert vars(mod)[key] is value, f"{mod.__name__}.{key} not restored"
    assert (mflq.ProblemData.__post_init__, mflq.SceSolution.trajectory,
            mflq.MfgSolution.trajectory) == methods


class _CorruptS0(workloads.Solve):
    """Returns the true solution with s0 perturbed by 1e-3."""

    def run(self, k):
        calls, out = super().run(k)
        if self.insts[k].expect is None:
            sol = out[0]
            out = (dataclasses.replace(sol, s0=sol.s0 + 1e-3),) + out[1:]
        return calls, out


def test_corrupted_result_counts_in_error_ratio():
    insts = instances.sweep_small(2, rounds=1)[:6]
    honest = workloads.Solve(mflq, insts, workloads.UNIFORM_GRID)
    honest.build()
    records = run.measure(honest, count=len(insts))
    assert all(not r.fails for r in records)
    corrupt = _CorruptS0(mflq, insts, workloads.UNIFORM_GRID)
    corrupt.build()
    records = run.measure(corrupt, count=len(insts))
    solvable = sum(inst.expect is None for inst in insts)
    assert sum(1 for r in records if r.fails) == solvable
    _, _, rates = run.end_to_end(corrupt, records, setup_s=1.0)
    assert rates["error_ratio"] == pytest.approx(solvable / len(insts))


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(19)), 50) is None
    assert run.percentile(list(range(20)), 50) == pytest.approx(9.5)
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile(list(range(100)), 90) is not None
