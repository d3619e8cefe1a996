"""A one-second traced run of the gated ``sweep-small`` benchmark workload.

``perfbench/run.py`` exits nonzero when any operation fails its check, so a
crash or a wrong answer on the benchmark's inputs fails this test too, long
before a full benchmark run would show it."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_sweep_small_traced_run_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["failed"] == 0 and last["attempted"] > 0
