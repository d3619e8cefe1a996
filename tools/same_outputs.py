"""Compare what the ``mflq`` CLI prints at a git revision and in the working tree.

    python tools/same_outputs.py --base REV [--expect FILE]

Runs a fixed corpus, 16 problems times 17 command lines (272 cases),
through ``mflq.cli.main``: once with REV's ``src`` and once with the working
tree's, each in its own subprocess.  Each case's exit code, stdout (without
the reports' ``"timings"``), stderr and warnings are compared.  Every case
that differs is printed with a count per exit-code change, and the tool
exits 1 if a differing case is not listed in FILE (one case id per line;
``#`` starts a comment).  REV's ``src`` is exported with ``git archive``
into a temporary directory, so nothing is fetched and the repository's
worktrees are left alone.
"""

import argparse
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _scalar(a, b, q, r, **extra):
    return {"n": 1, "n1": 1, "rho": 1.0, "A": [[a]], "B": [[b]], "Q": [[q]],
            "R": [[r]], "Gamma": [[0.0]], "eta": [1.0], "x0": [1.0], **extra}


NOISE = {"n2": 1, "D": [[0.1]]}

# Besides the shipped files: problems the solvers certify though validate's
# absolute thresholds fail them, the control-Gram overflow, a mean field
# that grows, and the rejected inputs of each error class.
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
}

# relative to the directory the cases run in, where it does not exist
MISSING_OUT = "missing/r.json"

VARIANTS = [
    ["solve-social"],
    ["solve-social", "--dt", "0"],
    ["solve-social", "--t-end", "1e300", "--dt", "1e-10"],
    ["solve-social", "--t-end", "2000", "--dt", "1"],
    ["solve-social", "--out", MISSING_OUT],
    ["solve-game"],
    ["solve-game", "--dt", "0"],
    ["solve-game", "--t-end", "2000", "--dt", "1"],
    ["contraction"],
    ["contraction", "--out", MISSING_OUT],
    ["spectrum", "--system", "social"],
    ["spectrum", "--system", "game"],
    ["simulate", "--agents", "4", "--horizon", "0.5", "--reps", "2"],
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


def _without_timings(stdout):
    if not stdout.startswith("{"):
        return stdout
    doc = json.loads(stdout)
    doc.pop("timings", None)
    return json.dumps(doc, indent=2) + "\n"


def _run_case(main, argv):
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
    return {
        "exit": code,
        "stdout": _without_timings(out.getvalue()),
        "stderr": err.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def run_corpus():
    """Run every case through the importable ``mflq``; return
    ``{case id: record}``."""
    from mflq.cli import main

    records = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in _problem_texts().items():
                Path(f"{name}.json").write_text(text, encoding="utf-8")
                for variant in VARIANTS:
                    argv = [variant[0], f"{name}.json", *variant[1:]]
                    records[" ".join([name, *variant])] = _run_case(main, argv)
        finally:
            os.chdir(cwd)
    return records


def differing(base, head):
    """Case ids whose records differ, in corpus order."""
    return [case for case in {**base, **head} if base.get(case) != head.get(case)]


def _records(tree):
    src = tree / "src"
    child = subprocess.run(
        [sys.executable, __file__, "--record"], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(src)})
    doc = json.loads(child.stdout)
    if Path(doc["mflq"]).resolve().parent != src.resolve():
        raise RuntimeError(f"imported {doc['mflq']}, not the mflq under {src}")
    return doc["cases"]


def _summary(record):
    if record is None:
        return "absent"
    first = (record["stderr"].splitlines() or [""])[0]
    return f"exit {record['exit']}, stdout {len(record['stdout'])} chars, " \
           f"stderr {first!r}, {len(record['warnings'])} warnings"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare the working tree with")
    parser.add_argument("--expect", help="file of the case ids expected to differ")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        import mflq

        json.dump({"mflq": str(Path(mflq.__file__).parent), "cases": run_corpus()},
                  sys.stdout)
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
        base = _records(Path(tmp))
    head = _records(ROOT)

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
    unexpected = [c for c in changed if c not in expected]
    if unexpected:
        print(f"{len(unexpected)} differences not listed in --expect")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
