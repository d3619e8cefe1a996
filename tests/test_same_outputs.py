import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import mflq
import mflq.cli
from mflq import ProblemData
from mflq.social import solve_sce

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


@pytest.fixture(scope="module")
def records():
    return same_outputs.run_corpus()


def test_corpus_is_deterministic_and_a_change_is_reported(records):
    assert len(records) == 18 * 23 + 15
    assert same_outputs.run_corpus() == records
    assert same_outputs.differing(records, records) == []

    case = "ex41 solve-social"
    changed = dict(records)
    changed[case] = {**records[case], "stdout": records[case]["stdout"].replace("1", "2")}
    assert same_outputs.differing(records, changed) == [case]


# the one listed document that came to be read: its integer rate is 10**20
INTEGER_RHO = "malformed_rho_integer_1e20"


def test_expected_differences_exit_4_without_output(records, tmp_path):
    expected = [line for line in TOOL.with_name("same_outputs_expected.txt")
                .read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]
    assert expected
    for case in expected:
        if case != f"{INTEGER_RHO} solve-social":
            assert (records[case]["exit"], records[case]["stdout"]) == (4, ""), case
    doc = json.loads(same_outputs._malformed_files()[INTEGER_RHO])
    assert doc["rho"] == 10**20
    path = tmp_path / "rho_float.json"
    path.write_text(json.dumps({**doc, "rho": 1e20}), encoding="utf-8")
    as_float = same_outputs._run_case(mflq.cli.main, ["solve-social", str(path)])
    assert records[f"{INTEGER_RHO} solve-social"] == as_float


def test_api_records_are_deterministic_and_a_change_is_reported():
    problems = same_outputs.api_problems(seeds=(), draws=3)
    records = same_outputs.run_api(problems)
    assert len(records) == 5 + 4 * 8 + 3 + 20 + 20
    assert same_outputs.run_api(problems) == records
    assert same_outputs.differing(records, records) == []
    # three solves a record: the game cold, the social problem and the game
    # again, both on the game's certified front end, to the same bits
    solved = [r for r in records.values() if "problem" not in r]
    assert solved and all(list(r)[1:] == ["game_first", "social", "game"] for r in solved)
    assert same_outputs.game_first_differs(records) == []
    moved = {**records, "file ex41": {**records["file ex41"], "game": {"error": "E"}}}
    assert same_outputs.game_first_differs(moved) == ["file ex41"]

    name = "file ex41"
    pi = solve_sce(ProblemData(**dict(problems)[name])).Pi
    assert records[name]["social"]["Pi"] == same_outputs._digest(pi)

    def with_pi(x):
        social = {**records[name]["social"], "Pi": same_outputs._digest(x)}
        return {**records, name: {**records[name], "social": social}}

    nudged = with_pi(np.nextafter(pi, np.inf))
    assert same_outputs.differing(records, nudged) == [name]
    assert not same_outputs.only_signed_zeros(records[name], nudged[name])
    zero, minus_zero = with_pi(np.zeros(2)), with_pi(-np.zeros(2))
    assert same_outputs.differing(zero, minus_zero) == [name]
    assert same_outputs.only_signed_zeros(zero[name], minus_zero[name])


def test_src_lines_counts_the_working_tree():
    modules = Path(mflq.__file__).parent.glob("*.py")
    count = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in modules)
    assert count > 1000
    assert same_outputs.src_lines(TOOL.parent.parent) == count
