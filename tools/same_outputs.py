"""Compare what ``mflq`` computes at a git revision and in the working tree.

    python tools/same_outputs.py --base REV [--expect FILE]

Two corpora run once with REV's ``src`` and once with the working tree's,
each tree in its own subprocess:

- the CLI corpus, 18 problems times 23 command lines (414 cases) and 15
  malformed documents under ``solve-social`` alone, through
  ``mflq.cli.main``: each case's exit code, stdout (without the reports'
  ``"timings"``), stderr, warnings and the digest of every file it writes
  (the trajectory CSV of ``solve-social`` and ``solve-game``, the
  replication CSV of ``simulate``, the report of ``spectrum --out``);
- the API corpus, 665 problems (the 5 shipped files, the 4 solvable ones
  with ``rho·10^k`` for 8 powers k up to 20, the ``sweep_small`` inputs of
  ``perfbench/instances.py`` for seeds 1-3, 300 ``random_problem(max_n=6)``
  draws of ``tests/conftest.py``, 20 scalar problems of its exact-verdict
  family, 10 decided draws and 5 on each exact boundary, and 20 of its
  exact direct sums, 10 in state units ``2^e`` with ``|e| <= 4`` and 10
  with ``|e| <= 20``): `validate`'s report and, for each solve, the error
  class and message or the bytes of `Pi`, `s0`, `X_plus`, `A_C`,
  `pi_residual`, the decomposition's `Y`, `F11`, `F22`, `K`, `residual`
  and `spectrum_margin`, the decaying solution's `y2_offset` and
  `y1_generator`, and the trajectories on two grids.  The solves run in
  the order ``game_first``, ``social``, ``game``: ``game_first`` is the
  game with a cold front end, and ``social`` and ``game`` reuse its
  certified discounted Riccati solution where the tree keeps it
  (``riccati.solve_discounted_are`` on equal data), so within one tree
  each ``game`` record is a reuse checked against the cold
  ``game_first``.
  (The contraction bound `beta` of the shipped files is in the CLI
  corpus, through ``mflq contraction``.)

The API corpus is generated once, with the working tree's code, and both
trees are handed the same arrays.  A solution field that only one tree
has is named and left out of the comparison.  Every case or record that
differs is printed; an API record whose arrays differ only in the signs
of zeros is counted apart and does not count as a difference.  The tool
exits 1 if a differing case or record is not listed in FILE (one id per
line; ``#`` starts a comment), or if in either tree a ``game_first``
record differs from its ``game`` record and ``<name> game_first`` is not
listed.  REV's ``src`` is exported with ``git archive`` into a
temporary directory, so nothing is fetched and the repository's worktrees
are left alone.  Last it prints the lines of ``src/mflq/*.py`` in REV and in
the working tree, as ``src/ lines: BASE -> TREE (DELTA)``.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _scalar(a, b, q, r, **extra):
    return {"n": 1, "n1": 1, "rho": 1.0, "A": [[a]], "B": [[b]], "Q": [[q]],
            "R": [[r]], "Gamma": [[0.0]], "eta": [1.0], "x0": [1.0], **extra}


NOISE = {"n2": 1, "D": [[0.1]]}


def _stiff(b, gamma):
    # the shifted drift is diag(-1e-3, -1e3), too stiff for the quadrature
    return {"n": 2, "n1": 1, "rho": 1e-3, "A": [[-5e-4, 0.0], [0.0, -999.9995]],
            "B": b, "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
            "Gamma": [[gamma, 0.0], [0.0, gamma]], "eta": [1.0, 1.0], "x0": [1.0, 1.0]}


# Besides the shipped files: problems the solvers certify though validate's
# absolute thresholds fail them, the control-Gram overflow, a mean field
# that grows, stiff drifts whose contraction bound is exactly 0 by a zero
# factor, and the rejected inputs of each error class.
EXTRA_PROBLEMS = {
    "big_A": _scalar(1e8, 1.0, 1.0, 1.0),
    "big_A_noisy": _scalar(1e8, 1.0, 1.0, 1.0, **NOISE),
    "tiny_B_fast": _scalar(3.0, 1e-9, 1.0, 1.0, **NOISE),
    "tiny_B_slow": _scalar(0.7, 1e-9, 1.0, 1.0, **NOISE),
    "gram_overflow": {"n": 2, "n1": 1, "rho": 1.0, "A": [[1.0, 0.0], [0.0, -1.0]],
                      "B": [[1e160], [1e160]], "Q": [[1.0, 0.0], [0.0, 1.0]],
                      "R": [[1.0]], "Gamma": [[0.0, 0.0], [0.0, 0.0]],
                      "eta": [0.0, 0.0], "x0": [1.0, 1.0]},
    "growing_mean_field": {**_scalar(0.9, 1.0, 1.0, 1.0), "rho": 2.0,
                           "Gamma": [[0.9]]},
    "slow_uncontrollable": _scalar(0.25, 0.0, 1.0, 1.0),
    "fast_uncontrollable": _scalar(2.0, 0.0, 1.0, 1.0),
    "shifted_axis": _scalar(0.5, 1.0, -1.0, 1.0),
    "tiny_R": _scalar(-1.0, 1.0, 1.0, 1e-13),
    "unstabilizable_and_tiny_R": _scalar(2.0, 0.0, 1.0, 1e-13),
    "stiff_no_control": _stiff([[0.0], [0.0]], 0.5),
    "stiff_no_coupling": _stiff([[0.0], [1.0]], 0.0),
}

# relative to the directory the cases run in, where it does not exist
MISSING_OUT = "missing/r.json"
# relative to the same directory; emptied after each case
OUT_DIR = "out"

VARIANTS = [
    ["solve-social"],
    ["solve-social", "--dt", "0"],
    ["solve-social", "--t-end", "1e300", "--dt", "1e-10"],
    ["solve-social", "--t-end", "2000", "--dt", "1"],
    ["solve-social", "--out", MISSING_OUT],
    ["solve-social", "--t-end", "3", "--dt", "0.02", "--traj-out", f"{OUT_DIR}/traj.csv"],
    # 1 / 0.6 is not a whole number of steps
    ["solve-social", "--t-end", "1", "--dt", "0.6", "--traj-out", f"{OUT_DIR}/traj.csv"],
    ["solve-game"],
    ["solve-game", "--dt", "0"],
    ["solve-game", "--t-end", "2000", "--dt", "1"],
    ["solve-game", "--t-end", "3", "--dt", "0.02", "--traj-out", f"{OUT_DIR}/traj.csv"],
    ["contraction"],
    ["contraction", "--out", MISSING_OUT],
    ["spectrum", "--system", "social"],
    ["spectrum", "--system", "game"],
    ["spectrum", "--system", "game", "--out", f"{OUT_DIR}/report.json"],
    ["simulate", "--agents", "4", "--horizon", "0.5", "--reps", "2"],
    ["simulate", "--agents", "4", "--horizon", "0.5", "--reps", "3",
     "--out", f"{OUT_DIR}/reps.csv"],
    ["simulate", "--agents", "4", "--horizon", "1", "--dt", "0.6", "--reps", "2",
     "--out", f"{OUT_DIR}/reps.csv"],
    ["simulate", "--agents", "0"],
    ["simulate", "--horizon", "1e300", "--dt", "1e-10"],
    ["simulate", "--horizon", "1e14", "--dt", "1e-3"],
    ["simulate", "--dt", "0"],
]


def _problem_texts():
    texts = {path.stem: path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "problems").glob("*.json"))}
    texts.update((name, json.dumps(doc)) for name, doc in EXTRA_PROBLEMS.items())
    return texts


# Edits of ex42_gamma2 that the file reader or ProblemData refuses.
MALFORMED_FIELDS = {
    "A_2x3": {"A": [[1.0, -1.0, 0.0], [0.0, 2.0, 0.0]]},
    "n_declared": {"n": 3},
    "n1_declared": {"n1": 2},
    "n2_declared": {"n2": 2},
    "B_vector": {"B": [1.0, 1.0]},
    "D_vector": {"D": [0.1, 0.1]},
    "eta_column": {"eta": [[1.0], [0.0]]},
    "rho_null": {"rho": None},
    "rho_string": {"rho": "fast"},
    # integers past numpy's, which ProblemData converts with float() first:
    # 10**20 reads as 1e20, and 10**400 overflows a float
    "rho_integer_1e20": {"rho": 10**20},
    "rho_integer_1e400": {"rho": 10**400},
    "R_wrong_size": {"R": [[1.0, 0.0], [0.0, 1.0]]},
}


def _malformed_files():
    """Documents that exit 4 whatever the command (all but
    ``rho_integer_1e20``, which the reader refused before integer rates
    were converted), each run under ``solve-social`` alone: the problem is
    loaded before anything else."""
    doc = json.loads((ROOT / "problems" / "ex42_gamma2.json").read_bytes())
    files = {f"malformed_{name}": json.dumps({**doc, **fields}).encode()
             for name, fields in MALFORMED_FIELDS.items()}
    files["malformed_not_an_object"] = json.dumps([doc]).encode()
    files["malformed_nested_too_deep"] = b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    files["malformed_not_utf8"] = b'{"n": 2, "rho": "\xff"}'
    return files


def _without_timings(stdout):
    if not stdout.startswith("{"):
        return stdout
    doc = json.loads(stdout)
    doc.pop("timings", None)
    return json.dumps(doc, indent=2) + "\n"


def _run_case(main, argv, out_dir=None):
    """Run one command line; the record holds the digest of every file the
    command wrote into `out_dir`, which is emptied for the next case."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        # as in a fresh process: each warning once per code location
        warnings.simplefilter("default")
        try:
            code = main(argv)
        except Exception as exc:  # the CLI would exit 1 with a traceback
            code = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    files = {}
    for path in sorted(Path(out_dir).iterdir()) if out_dir else ():
        files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        path.unlink()
    return {
        "exit": code,
        "stdout": _without_timings(out.getvalue()),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": files,
    }


def run_corpus():
    """Run every case through the importable ``mflq``; return
    ``{case id: record}``."""
    from mflq.cli import main

    records = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.mkdir(OUT_DIR)
        try:
            for name, text in _problem_texts().items():
                Path(f"{name}.json").write_text(text, encoding="utf-8")
                for variant in VARIANTS:
                    argv = [variant[0], f"{name}.json", *variant[1:]]
                    records[" ".join([name, *variant])] = _run_case(main, argv, OUT_DIR)
            for name, data in _malformed_files().items():
                Path(f"{name}.json").write_bytes(data)
                records[f"{name} solve-social"] = _run_case(
                    main, ["solve-social", f"{name}.json"], OUT_DIR)
        finally:
            os.chdir(cwd)
    return records


# ---------------------------------------------------------------------------
# The API corpus.

FIELDS = ("A", "B", "Q", "R", "Gamma", "eta", "x0", "rho", "D")
# the shipped files that a solver solves, and the powers k of their rho·10^k
# family, which reaches the scales where a graph can fail certification
SOLVABLE_FILES = ("ex41", "ex42_gamma005", "ex42_gamma2", "ex43")
RHO_POWERS = (0, 4, 8, 12, 15, 16, 18, 20)
# the state units 2^k of the exact-verdict family's degenerate-cost records
STATE_POWERS = (-20, -8, 0, 8, 20)
# the solves of an API record, in order: the game first, with a cold front end
SOLVES = ("game_first", "social", "game")
GRIDS = {"uniform": np.linspace(0.0, 10.0, 1001),
         "log": np.concatenate([[0.0], np.logspace(-3.0, 1.0, 50)])}


def _exact_verdict_problems(rng):
    """``[(name, problem)]``: 10 scalar draws whose verdict is decided
    exactly (``tests/test_verdicts.py``) and 5 from each of its two exact
    boundaries, the degenerate cost in state units ``2^k`` for k in
    :data:`STATE_POWERS`."""
    from conftest import (DECIDED, degenerate_cost_problem, full_tracking_problem,
                          random_scalar_problem, scalar_decided, scalar_discriminants)

    problems = []
    while len(problems) < 10:
        p = random_scalar_problem(rng)
        disc = scalar_discriminants(p)
        if all(scalar_decided(disc, solver, DECIDED) for solver in ("social", "game")):
            problems.append((f"exact {len(problems)}", p))
    problems += [(f"full tracking {i}", full_tracking_problem(rng)) for i in range(5)]
    problems += [(f"degenerate cost {i} 2^{k}", degenerate_cost_problem(rng, k))
                 for i, k in enumerate(STATE_POWERS)]
    return problems


def api_problems(seeds=(1, 2, 3), draws=300):
    """``[(name, fields)]``: the shipped files, the solvable ones with
    ``rho·10^k`` for k in :data:`RHO_POWERS`, the ``sweep_small`` inputs of
    `seeds`, `draws` ``random_problem(max_n=6)`` draws from
    ``default_rng(2026)``, 20 scalar problems of the exact-verdict family
    from ``default_rng(2036)`` and its direct sums at ``|e| <= 4`` and
    ``|e| <= 20``, 10 each, from ``default_rng(2038)``, made with the
    working tree's ``src``, ``tests/conftest.py`` and
    ``perfbench/instances.py``."""
    for sub in ("perfbench", "tests", "src"):
        if str(ROOT / sub) not in sys.path:
            sys.path.insert(0, str(ROOT / sub))
    import instances
    from conftest import direct_sum_problem, random_problem

    files = {path.stem: instances.read_problem_file(str(path))
             for path in sorted((ROOT / "problems").glob("*.json"))}
    problems = [(f"file {stem}", data) for stem, data in files.items()]
    problems += [(f"rho 1e{k} {stem}", {**files[stem], "rho": files[stem]["rho"] * 10.0**k})
                 for stem in SOLVABLE_FILES for k in RHO_POWERS]
    for seed in seeds:
        problems += [(f"sweep {seed}/{i} {inst.name}", inst.data)
                     for i, inst in enumerate(instances.sweep_small(seed))]
    rng = np.random.default_rng(2026)
    for i in range(draws):
        p = random_problem(rng, max_n=6)
        problems.append((f"random {i}", {f: getattr(p, f) for f in FIELDS}))
    problems += [(name, {f: getattr(p, f) for f in FIELDS})
                 for name, p in _exact_verdict_problems(np.random.default_rng(2036))]
    rng = np.random.default_rng(2038)
    for emax in (4, 20):
        problems += [(f"direct sum |e|<={emax} {i}",
                      {f: getattr(direct_sum_problem(rng, emax)[0], f) for f in FIELDS})
                     for i in range(10)]
    return problems


def _digest(x):
    """The shape of `x` as float64, the digest of its bytes, and that of the
    bytes of ``x + 0.0``, in which every -0.0 is +0.0."""
    a = np.ascontiguousarray(x, dtype=float)
    return {"shape": list(a.shape),
            "bits": hashlib.sha256(a.tobytes()).hexdigest(),
            "zero_blind": hashlib.sha256((a + 0.0).tobytes()).hexdigest()}


def _outcome(compute):
    try:
        return compute()
    except Exception as exc:  # an error is an outcome to compare
        return {"error": type(exc).__name__, "message": str(exc)}


def _solution_record(sol):
    """The digests of the solution's fields, of its decomposition's and of
    its decaying solution's, of those in the lists that the tree's records
    have."""
    d, bvp = sol.decomposition, getattr(sol, "bvp", None)
    record = {key: _digest(getattr(sol, key))
              for key in ("Pi", "s0", "X_plus", "A_C", "pi_residual") if hasattr(sol, key)}
    record.update((key, _digest(getattr(d, key)))
                  for key in ("Y", "F11", "F22", "K", "residual", "spectrum_margin")
                  if hasattr(d, key))
    record.update((f"bvp.{key}", _digest(getattr(bvp, key)))
                  for key in ("y2_offset", "y1_generator") if hasattr(bvp, key))
    for name, grid in GRIDS.items():
        record[f"trajectory {name}"] = _outcome(
            lambda: dict(zip(("xbar", "s"), map(_digest, sol.trajectory(grid)))))
    return record


def _api_record(fields):
    from mflq import ProblemData, mfg, riccati, social, validate

    try:
        p = ProblemData(**fields)
    except ValueError as exc:
        return {"problem": {"error": type(exc).__name__, "message": str(exc)}}
    record = {"validate": {key: _digest(value) if isinstance(value, float) else value
                           for key, value in vars(validate(p)).items()}}
    if hasattr(riccati, "_last"):  # the front end kept from the last record
        riccati._last[:] = None, None
    for solver in SOLVES:
        solve = social.solve_sce if solver == "social" else mfg.solve_mfg
        record[solver] = _outcome(lambda: _solution_record(solve(p)))
    return record


def run_api(problems):
    """Run the API corpus `problems` (from :func:`api_problems`) through the
    importable ``mflq``; return ``{problem name: record}``."""
    return {name: _api_record(fields) for name, fields in problems}


def _zero_blind(record):
    if isinstance(record, dict):
        return {key: _zero_blind(value) for key, value in record.items() if key != "bits"}
    return record


def shared_fields(base, head):
    """The API records `base` and `head` with each pair of solution records
    cut to the fields that both trees record, and the names of the fields
    cut from each; an error outcome is compared whole."""
    cut = {"base": set(), "head": set()}
    base, head = dict(base), dict(head)
    for name in base.keys() & head.keys():
        old, new = dict(base[name]), dict(head[name])
        for solver in SOLVES:
            a, b = old.get(solver), new.get(solver)
            if a is None or b is None or "error" in a or "error" in b:
                continue
            cut["base"].update(a.keys() - b.keys())
            cut["head"].update(b.keys() - a.keys())
            old[solver] = {key: value for key, value in a.items() if key in b}
            new[solver] = {key: value for key, value in b.items() if key in a}
        base[name], head[name] = old, new
    return base, head, cut


def only_signed_zeros(base, head):
    """Whether two records that differ agree but for the signs of zeros."""
    return _zero_blind(base) == _zero_blind(head)


def game_first_differs(api):
    """Names of the API records whose ``game_first`` (a cold front end)
    differs from their ``game`` (after the social solve), in corpus order."""
    return [name for name, record in api.items()
            if record.get("game_first") != record.get("game")]


def differing(base, head):
    """Case ids whose records differ, in corpus order."""
    return [case for case in {**base, **head} if base.get(case) != head.get(case)]


def src_lines(tree):
    """Lines of the modules ``src/mflq/*.py`` under `tree`, counted as
    ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (Path(tree) / "src" / "mflq").glob("*.py"))


def _records(tree, corpus):
    src = tree / "src"
    child = subprocess.run(
        [sys.executable, __file__, "--record", str(corpus)], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
    doc = json.loads(child.stdout)
    if Path(doc["mflq"]).resolve().parent != src.resolve():
        raise RuntimeError(f"imported {doc['mflq']}, not the mflq under {src}")
    return doc["cases"], doc["api"]


def _summary(record):
    if record is None:
        return "absent"
    first = (record["stderr"].splitlines() or [""])[0]
    files = ", ".join(f"{name} {digest[:12]}" for name, digest in record["files"].items())
    return f"exit {record['exit']}, stdout {len(record['stdout'])} chars, " \
           f"stderr {first!r}, {len(record['warnings'])} warnings, files [{files}]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare the working tree with")
    parser.add_argument("--expect",
                        help="file of the case and record ids expected to differ")
    parser.add_argument("--record", metavar="CORPUS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        import mflq

        problems = pickle.loads(Path(args.record).read_bytes())
        json.dump({"mflq": str(Path(mflq.__file__).parent), "cases": run_corpus(),
                   "api": run_api(problems)}, sys.stdout)
        return 0
    if not args.base:
        parser.error("--base is required")
    expected = set()
    if args.expect:
        for line in Path(args.expect).read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                expected.add(line)

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        corpus = Path(tmp) / "api_corpus.pickle"
        corpus.write_bytes(pickle.dumps(api_problems()))
        base, base_api = _records(Path(tmp), corpus)
        head, head_api = _records(ROOT, corpus)
        lines = src_lines(tmp), src_lines(ROOT)

    changed = differing(base, head)
    by_class = collections.Counter(
        (base[c]["exit"] if c in base else None, head[c]["exit"] if c in head else None)
        for c in changed)
    for case in changed:
        mark = "expected" if case in expected else "UNEXPECTED"
        print(f"{mark}: {case}\n  base: {_summary(base.get(case))}\n"
              f"  head: {_summary(head.get(case))}")
    print(f"{len(head)} cases, {len(changed)} differ")
    for (old, new), count in sorted(by_class.items(), key=str):
        print(f"  exit {old} -> {new}: {count}")

    base_api, head_api, cut = shared_fields(base_api, head_api)
    for tree, keys in cut.items():
        if keys:
            print(f"solution fields recorded in the {tree} tree only, not compared: "
                  f"{', '.join(sorted(keys))}")
    api_changed = differing(base_api, head_api)
    zeros = [name for name in api_changed
             if name in base_api and name in head_api
             and only_signed_zeros(base_api[name], head_api[name])]
    api_changed = [name for name in api_changed if name not in zeros]
    for name in api_changed:
        mark = "expected" if name in expected else "UNEXPECTED"
        old, new = base_api.get(name, {}), head_api.get(name, {})
        keys = [key for key in {**old, **new} if old.get(key) != new.get(key)]
        print(f"{mark}: {name}\n  differs in: {', '.join(keys)}")
    print(f"{len(head_api)} API records, {len(api_changed)} differ, "
          f"{len(zeros)} more only in the signs of zeros")
    for tree, api in (("base", base_api), ("head", head_api)):
        reuses = [f"{name} game_first" for name in game_first_differs(api)]
        for case in reuses:
            mark = "expected" if case in expected else "UNEXPECTED"
            print(f"{mark}: {case} differs from game in the {tree} tree")
        print(f"{len(reuses)} {tree} API records whose game_first differs from game")
        api_changed += reuses
    print(f"src/ lines: {lines[0]} -> {lines[1]} ({lines[1] - lines[0]:+d})")
    unexpected = [c for c in changed + api_changed if c not in expected]
    if unexpected:
        print(f"{len(unexpected)} differences not listed in --expect")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
