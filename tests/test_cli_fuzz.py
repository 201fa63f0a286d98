"""Fuzzed command lines keep the exit-code contract.

Every argv is built from the parser's own subcommands, verify ids and flags,
with a mix of valid and invalid values, and run in process.  Whatever the
input: the exit code is 0, 1 or 2; nothing is a traceback; stderr is empty
or one ``error:`` line; and exit 1 means that some row is not satisfied.
"""

import argparse
import contextlib
import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from selfnorm.cli import build_parser, main
from selfnorm.montecarlo import CHECKS

SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices

# flags that write files, read files or only print usage
SKIPPED = {"-h", "--help", "--out", "--config"}

REALS = ["0", "0.05", "0.1", "1/3", "0.5", "9/16", "0.9", "1", "2", "10", "-1", "1e300",
         "1e308", "1e400", "abc", "1/0", ""]
LISTS = ["1/3", "1/3,9/16", "0.5,1,2", "0.01", "91", "1e308", "1/3,abc", ",", ""]


def ints(lo, hi, bad):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(bad))


# value strategies by flag; any other flag that takes a value draws from REALS
VALUES = {
    "--n": ints(1, 40, ["0", "-3", "abc", "2.5"]),
    "--reps": ints(100, 300, ["99", "0", "-5", "x"]),
    "--seed": ints(0, 2**63 - 1, ["-1", str(2**63), "abc"]),
    "--x-steps": ints(1, 2000, ["0", "1", "2", "-1", "x"]),
    "--format": st.sampled_from(["csv", "json", "xml"]),
    "--process": st.sampled_from(["ar1", "idla", "learn", "xyz"]),
    "--a-grid": st.sampled_from(["default", "1000", *LISTS]),
    "--x-grid": st.sampled_from(LISTS),
    "--r-grid": st.sampled_from(LISTS),
}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [name]
    flags = []
    for action in SUBCOMMANDS[name]._actions:
        if not action.option_strings:
            # a positional: the process or verify id, or a bad one
            argv.append(draw(st.sampled_from([*action.choices, "bogus"])))
        elif not SKIPPED & set(action.option_strings):
            flags.append(action)
    for action in draw(st.lists(st.sampled_from(flags), max_size=5, unique=True)):
        flag = action.option_strings[-1]
        argv.append(flag)
        if action.nargs != 0:
            argv.append(draw(VALUES.get(flag, st.sampled_from(REALS))))
    if draw(st.integers(0, 4)) == 0:  # one argv in five
        argv += ["--bogus", "2"]
    simulates = name == "verify" and getattr(CHECKS.get(argv[1]), "process", None)
    if simulates and "--reps" not in argv:
        # the entries' default reps are sized for real runs; an entry that
        # simulates nothing refuses --reps
        argv += ["--reps", "200"]
    if name in ("verify", "simulate") and "--n" not in argv:
        argv += ["--n", "20"]
    return argv


def rows_of(out: str, argv: list[str]) -> list[dict]:
    if "json" in argv:
        return json.loads(out)["rows"]
    return list(csv.DictReader(io.StringIO(out)))


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error:")
        return
    assert lines == []
    unsatisfied = [row for row in rows_of(out.getvalue(), argv)
                   if str(row.get("satisfied", True)) == "False"]
    assert (code == 1) == bool(unsatisfied)
