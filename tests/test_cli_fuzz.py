"""Fuzzed command lines keep the exit-code contract.

Every argv is built from one leaf parser (a subcommand, simulated process or
verify id) and its own flags, with a mix of valid and invalid values, and
run in process; one argv in five also holds a flag that only another leaf
reads.  Whatever the input: the exit code is 0, 1 or 2; nothing is a
traceback; stderr is empty or one ``error:`` line; an argv with another
leaf's flag exits 2; and exit 1 means that some row is not satisfied.
"""

import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfnorm import cli
from selfnorm.cli import main
from test_cli import leaf_parsers

LEAVES = leaf_parsers()
# with a bad process or verify id, which no parser has
PATHS = sorted(LEAVES) + [("simulate", "bogus"), ("verify", "bogus")]

# flags that write files, read files or only print usage
SKIPPED = {"-h", "--help", "--out", "--config"}

REALS = ["0", "5e-324", "1e-300", "0.05", "0.1", "1/3", "0.4999999999", "0.5", "9/16", "0.9",
         "1", "2", "10", "-1", "1e150", "1e300", "1.7e308", "1e308", "1e400", "abc", "1/0", ""]
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


def own_flags(path):
    """The flag actions of the path's leaf parser that the fuzzer draws."""
    leaf = LEAVES.get(path)
    actions = leaf._actions if leaf else []
    return [a for a in actions if a.option_strings and not SKIPPED & set(a.option_strings)]


# every drawn flag of any leaf parser, by its name
ALL_FLAGS = {a.option_strings[-1]: a for path in LEAVES for a in own_flags(path)}


def flag_and_value(draw, action):
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return [flag]
    return [flag, draw(VALUES.get(flag, st.sampled_from(REALS)))]


@st.composite
def argvs(draw):
    """An argv, and whether it holds a flag that only another leaf reads."""
    path = draw(st.sampled_from(PATHS))
    argv = list(path)
    own = own_flags(path)
    for action in draw(st.lists(st.sampled_from(own), max_size=5, unique=True)) if own else []:
        argv += flag_and_value(draw, action)
    if draw(st.integers(0, 4)) == 0:  # one argv in five
        argv += ["--bogus", "2"]
    names = {a.option_strings[-1] for a in own}
    # the entries' default reps are sized for real runs
    if "--reps" in names and "--reps" not in argv:
        argv += ["--reps", "200"]
    if "--seed" in names and "--n" not in argv:
        argv += ["--n", "20"]
    foreign = draw(st.integers(0, 4)) == 0  # one argv in five
    if foreign:
        other = sorted(set(ALL_FLAGS) - names)
        argv += flag_and_value(draw, ALL_FLAGS[draw(st.sampled_from(other))])
    return argv, foreign


def rows_of(out: str, argv: list[str]) -> list[dict]:
    if "json" in argv:
        return json.loads(out)["rows"]
    return list(csv.DictReader(io.StringIO(out)))


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_fuzzed_argv_keeps_exit_code_contract(drawn):
    argv, foreign = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error:")
        return
    # a flag that only another process or verify id reads is never ignored
    assert not foreign
    assert lines == []
    unsatisfied = [row for row in rows_of(out.getvalue(), argv)
                   if str(row.get("satisfied", True)) == "False"]
    assert (code == 1) == bool(unsatisfied)


# the leaves whose rows are tables of bounds; simulate's rows are a trace
TABLES = ("verify", "weights", "hermite", "learning-table")
EDGES = ["5e-324", "1e-300", "1e150", "1.7e308", "0.4999999999"]
REAL_TYPES = (cli.parse_real, cli.parse_real_list, cli.parse_a_grid)
# held small, so the sweep runs in about a second
SMALL = {"--reps": "100", "--seed": "3"}
# learning-table simulates nothing, so its horizon may be huge
HORIZONS = {("learning-table",): ("10", "1000000000000")}


def edge_argvs():
    for path in sorted(LEAVES):
        flags = {a.option_strings[-1]: a for a in own_flags(path)}
        small = [word for flag, value in SMALL.items() if flag in flags for word in (flag, value)]
        for n in HORIZONS.get(path, ("10",)) if "--n" in flags else (None,):
            size = small if n is None else ["--n", n, *small]
            for flag, action in flags.items():
                if action.type in REAL_TYPES:
                    yield from ([*path, *size, flag, value] for value in EDGES)


def _is_real(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("argv", edge_argvs(), ids=" ".join)
def test_real_flag_at_the_edge_of_the_floats(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error:")
        return
    assert lines == []
    rows = rows_of(out.getvalue(), argv)
    if argv[0] in TABLES:
        cells = [cell for row in rows for cell in row.values()]
        assert all(math.isfinite(float(cell)) for cell in cells if _is_real(cell)), rows
    unsatisfied = [row for row in rows if str(row.get("satisfied", True)) == "False"]
    assert (code == 1) == bool(unsatisfied)
