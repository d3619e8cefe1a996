import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


@pytest.fixture(scope="module")
def records():
    return same_outputs.run_corpus()


def test_corpus_is_deterministic_and_a_change_is_reported(records):
    assert len(records) == 16 * 17
    assert same_outputs.run_corpus() == records
    assert same_outputs.differing(records, records) == []

    case = "ex41 solve-social"
    changed = dict(records)
    changed[case] = {**records[case], "stdout": records[case]["stdout"].replace("1", "2")}
    assert same_outputs.differing(records, changed) == [case]


def test_expected_differences_exit_4_without_output(records):
    expected = [line for line in TOOL.with_name("same_outputs_expected.txt")
                .read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]
    assert expected
    for case in expected:
        assert (records[case]["exit"], records[case]["stdout"]) == (4, ""), case
