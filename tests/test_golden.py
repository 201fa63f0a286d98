"""Every command of the golden-output corpus (tests/record_golden.py) gives
the recorded exit code, stdout and stderr, byte for byte."""

import json

import pytest

import record_golden
from record_golden import CASES, DIGESTS, diff, digest, run

RECORDED = json.loads(DIGESTS.read_text())


def test_corpus_matches_recording():
    # a command added or dropped is recorded in the same change
    assert sorted(case.key for case in CASES) == sorted(RECORDED)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
def test_output_unchanged(case, tmp_path):
    assert digest(*run(case, tmp_path)) == RECORDED[case.key]


def test_diff_names_changed_added_and_dropped():
    recorded = {"same": "1", "moved": "2", "gone": "3"}
    table = {"same": "1", "moved": "4", "new": "5"}
    assert diff(table, recorded) == ["changed moved", "added new", "dropped gone"]
    assert diff(recorded, recorded) == []


def test_diff_exits_1_when_it_lists_a_command(tmp_path, monkeypatch, capsys):
    case = record_golden.Case(("weights",))
    recorded = tmp_path / "digests.json"
    monkeypatch.setattr(record_golden, "CASES", [case])
    monkeypatch.setattr(record_golden, "DIGESTS", recorded)
    same = digest(*run(case, tmp_path))
    recorded.write_text(json.dumps({case.key: same}))
    assert record_golden.main(["--diff"]) == 0
    assert capsys.readouterr().out == "no differences\n"
    # changed, added and dropped
    for table in ({case.key: "0" * 64}, {}, {case.key: same, "gone": "0"}):
        recorded.write_text(json.dumps(table))
        assert record_golden.main(["--diff"]) == 1
        assert capsys.readouterr().out.split()[0] in ("changed", "added", "dropped")
