"""Every command of the golden-output corpus (tests/record_golden.py) gives
the recorded exit code, stdout and stderr, byte for byte."""

import json

import pytest

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
