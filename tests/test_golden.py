"""Every command of the golden-output corpus (tests/record_golden.py) gives
the recorded exit code, stdout and stderr, byte for byte, and those whose
rows take an exp of an array give them with numpy's SIMD code paths off."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy._core._multiarray_umath as umath
import pytest

import record_golden
from record_golden import CASES, DIGESTS, diff, digest, run

RECORDED = json.loads(DIGESTS.read_text())

# the commands whose rows take an exp of an array
EXP_PATHS = {
    ("hermite",),
    ("verify", "hermite"),
    ("verify", "kearns-saul"),
    ("verify", "ar-laplace"),
    ("verify", "supermartingale"),
}
SIMD_CASES = [case for case in CASES if {case.argv[:1], case.argv[:2]} & EXP_PATHS]

# prints the SIMD targets still on, and the digest of each case named on stdin
CHILD = """
import json, sys
from pathlib import Path
import numpy._core._multiarray_umath as umath
from record_golden import CASES, digest, run
keys = set(json.load(sys.stdin))
digests = {c.key: digest(*run(c, Path(sys.argv[1]))) for c in CASES if c.key in keys}
on = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
print(json.dumps({"on": on, "digests": digests}))
"""


def test_corpus_matches_recording():
    # a command added or dropped is recorded in the same change
    assert sorted(case.key for case in CASES) == sorted(RECORDED)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.key)
def test_output_unchanged(case, tmp_path):
    assert digest(*run(case, tmp_path)) == RECORDED[case.key]


@pytest.fixture(scope="module")
def without_simd(tmp_path_factory):
    """The child's report from a process in which numpy dispatches none of
    its SIMD targets that this host has."""
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets), "PYTHONPATH": path}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path_factory.mktemp("simd"))],
        input=json.dumps([case.key for case in SIMD_CASES]),
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout)


def test_child_runs_without_simd(without_simd):
    assert without_simd["on"] == []


@pytest.mark.parametrize("case", SIMD_CASES, ids=lambda case: case.key)
def test_output_unchanged_without_simd(case, without_simd):
    assert without_simd["digests"][case.key] == RECORDED[case.key]


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
