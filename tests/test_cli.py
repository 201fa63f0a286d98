import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from selfnorm import __version__, cli
from selfnorm.cli import main, parse_real, parse_real_list
from selfnorm.bounds import TABLE1
from selfnorm import montecarlo
from selfnorm.processes import PROCESSES, make_spec, simulate
from selfnorm.montecarlo import CHECKS

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def csv_rows(text):
    lines = [ln for ln in text.split("\r\n") if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestParsing:
    def test_rationals(self):
        assert parse_real("9/16") == 0.5625
        assert parse_real("0.25") == 0.25
        assert parse_real_list("1/3, 0.5,2") == [1 / 3, 0.5, 2.0]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_real("abc")
        with pytest.raises(ValueError):
            parse_real("1/0")
        with pytest.raises(ValueError):
            parse_real("1e400")


class TestWeights:
    def test_table(self, capsys):
        code, out = run(capsys, "weights", "--table1")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 8
        for row, (a, c) in zip(rows, TABLE1):
            assert float(row["a"]) == pytest.approx(a, rel=1e-12)
            assert float(row["c"]) == pytest.approx(c, rel=1e-2)
            assert float(row["b"]) == pytest.approx(a * float(row["c"]), rel=1e-12)
            assert float(row["b"]) > 0.5

    def test_explicit_list(self, capsys):
        code, out = run(capsys, "weights", "--a", "1/3,9/16")
        assert code == 0
        rows = csv_rows(out)
        assert [float(r["c"]) for r in rows] == pytest.approx([2.0, 1.0], abs=1e-12)

    def test_out_of_domain_exits_2(self, capsys):
        code, _ = run(capsys, "weights", "--a", "0.1")
        assert code == 2

    def test_bad_flag_exits_2(self, capsys):
        code, _ = run(capsys, "weights", "--no-such-flag")
        assert code == 2


class TestHermite:
    def test_default_grid_passes(self, capsys):
        code, out = run(capsys, "hermite", "--x-steps", "20001")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 7
        assert all(r["satisfied"] == "True" for r in rows)
        assert all(float(r["min_margin"]) >= -1e-12 for r in rows)

    def test_custom_a_grid(self, capsys):
        code, out = run(capsys, "hermite", "--a-grid", "1/3,1", "--x-steps", "2001")
        assert code == 0
        assert len(csv_rows(out)) == 2

    def test_huge_x_max(self, capsys):
        # far out the quadratic overflows to +inf, which still satisfies the
        # inequality; past half the largest float the grid itself overflows
        code = main(["hermite", "--x-max", "1e300", "--x-steps", "101"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert all(r["satisfied"] == "True" for r in csv_rows(captured.out))
        code = main(["hermite", "--x-max", "1e308", "--x-steps", "101"])
        assert_one_error_line(code, capsys.readouterr())

    def test_verify_hermite_matches_hermite(self, capsys):
        # verify hermite has no grid flags and runs on hermite's defaults
        hermite = run(capsys, "hermite")
        assert hermite == run(capsys, "verify", "hermite")
        assert hermite[0] == 0 and len(csv_rows(hermite[1])) == 7

    def test_discriminant_tolerance_scales_with_a(self, capsys):
        # the discriminant at b(a) rounds to -1.16e-10 at a = 1000, where
        # its terms are of order 1e6: rounding, not a violation
        code, out = run(capsys, "verify", "hermite", "--a-grid", "516.54,1000,5000,1e7")
        assert code == 0
        assert [r["satisfied"] for r in csv_rows(out)] == ["True"] * 4

    @pytest.mark.parametrize("command", ["hermite", "verify hermite"])
    def test_b_rounded_to_half_names_a(self, capsys, command):
        code = main([*command.split(), "--a-grid", "1e8"])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert "b(a) rounds to 1/2 at a = 100000000.0" in captured.err

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_too_few_x_steps(self, capsys, steps):
        code = main(["hermite", "--x-steps", steps])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert captured.err == f"error: x-steps must be at least 2, got {steps}\n"


class TestSimulate:
    def test_idla_csv(self, capsys):
        code, out = run(capsys, "simulate", "idla", "--n", "5", "--seed", "1")
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "step,m,qv,pqv,x,l,r"
        assert len([ln for ln in lines if ln]) == 7

    def test_json_format(self, capsys):
        code, out = run(
            capsys, "simulate", "ar1", "--n", "4", "--seed", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["header"]["seed"] == 1
        assert len(doc["rows"]) == 5

    def test_invalid_spec_exits_2(self, capsys):
        code, _ = run(capsys, "simulate", "idla", "--n", "0")
        assert code == 2


class TestVerify:
    def test_kearns_saul(self, capsys):
        code, out = run(capsys, "verify", "kearns-saul")
        assert code == 0
        assert all(r["satisfied"] == "True" for r in csv_rows(out))

    def test_idla_scaled(self, capsys):
        code, out = run(
            capsys, "verify", "idla-scaled", "--n", "50", "--reps", "5000", "--seed", "3"
        )
        assert code == 0
        rows = csv_rows(out)
        assert {"bound_weighted", "bound_azuma"} <= set(rows[0])

    def test_bad_spec_exits_2(self, capsys):
        code, _ = run(capsys, "verify", "idla-scaled", "--n", "0")
        assert code == 2

    def test_unknown_id_exits_2(self, capsys):
        code, _ = run(capsys, "verify", "no-such-inequality")
        assert code == 2

    @pytest.mark.parametrize("x", ["91", "1e10"])
    def test_gauss_ar_root_past_float_spacing(self, capsys, x):
        # from x = 91 on, floats near x^2 are spaced wider than 1e-12, so
        # h(y) - x^2 may never get that small
        argv = ["verify", "ar-estimator", "--x-grid", x, "--n", "10", "--reps", "200"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert float(csv_rows(captured.out)[0]["bound_gauss-ar"]) < 1e-13

    def test_gauss_ar_overflow_names_x(self, capsys):
        code = main(["verify", "ar-estimator", "--x-grid", "1e154", "--n", "10", "--reps", "200"])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert "got 1e+154" in captured.err

    @pytest.mark.parametrize("check_id", ["ratio-tail", "pqv-ratio", "missing-factor"])
    def test_threshold_overflow_is_silent(self, capsys, check_id):
        # x * S_n(a) overflows to inf, which no finite |M_n| reaches: the
        # event is exactly false, and no warning reaches stderr
        argv = ["verify", check_id, "--x-grid", "1e308", "--n", "30", "--reps", "200"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert csv_rows(captured.out)[0]["p_hat"] == "0.0"


TAIL_COLUMNS = "p_hat,ci_lo,ci_hi,n_samples,satisfied"
MART_HEADER = f"x,y,bound_weighted,{TAIL_COLUMNS}"
ALL_PROCESSES = ("ar1", "idla", "learn")

# id: (CSV header, row count, --process values it runs on, size flags)
VERIFY_CASES = {
    "hermite": ("a,min_margin,argmin_x,discriminant_at_b,satisfied", 7, (), ()),
    "kearns-saul": ("p,max_ratio,satisfied", 5, (), ()),
    "weighted-tail": (MART_HEADER, 3, ALL_PROCESSES, ("--n", "30", "--reps", "2000")),
    "ratio-tail": (MART_HEADER, 3, ALL_PROCESSES, ("--n", "30", "--reps", "2000")),
    "pqv-ratio": (MART_HEADER, 3, ALL_PROCESSES, ("--n", "30", "--reps", "2000")),
    "missing-factor": (
        f"x,bound_missing-factor,{TAIL_COLUMNS}", 4, ("idla",), ("--n", "30", "--reps", "2000")
    ),
    "ar-estimator": (
        f"x,bound_weighted,bound_gauss-ar,{TAIL_COLUMNS}", 4, (), ("--n", "30", "--reps", "2000")
    ),
    "ar-laplace": ("t,mc_mean,mc_se,bound,satisfied", 2, (), ("--n", "30", "--reps", "2000")),
    "idla-scaled": (
        f"x,bound_weighted,bound_azuma,{TAIL_COLUMNS}", 4, (), ("--n", "30", "--reps", "2000")
    ),
    "idla-sqrt": (f"x,bound_sqrt-scaled,{TAIL_COLUMNS}", 4, (), ("--n", "30", "--reps", "2000")),
    "learn-threshold": (f"delta,{TAIL_COLUMNS}", 1, (), ("--n", "40", "--reps", "1000")),
    "learn-phi": (f"delta,{TAIL_COLUMNS}", 1, (), ("--n", "40", "--reps", "300")),
    "supermartingale": (
        "process,a,t,mc_mean,mc_se,satisfied", 12, ALL_PROCESSES, ("--n", "30", "--reps", "2000")
    ),
}


@pytest.mark.parametrize(
    "check_id, process",
    [(check_id, None) for check_id in CHECKS]
    + [(check_id, p) for check_id in CHECKS for p in VERIFY_CASES[check_id][2]],
)
def test_every_verify_id(capsys, monkeypatch, check_id, process):
    header, rows, _, size = VERIFY_CASES[check_id]
    calls = []
    simulate_finals = montecarlo.simulate_finals
    monkeypatch.setattr(
        montecarlo, "simulate_finals", lambda *a: calls.append(a) or simulate_finals(*a)
    )
    # an id that simulates nothing has no --seed
    seed = [] if CHECKS[check_id].process is None else ["--seed", "3"]
    argv = ["verify", check_id, *size, *seed]
    if process:
        argv += ["--process", process]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.split("\r\n")[0] == header
    assert len(csv_rows(out)) == rows
    # every row reads the finals of one simulation
    assert len(calls) == (0 if CHECKS[check_id].process is None else 1)


def refused_before_simulating(capsys, monkeypatch, argv):
    """Run argv with the simulators replaced; check that it exits 2 with one
    error: line and simulated nothing, and return that line."""
    calls = []
    monkeypatch.setattr(cli, "simulate", lambda *a: calls.append(a))
    monkeypatch.setattr(montecarlo, "simulate_finals", lambda *a: calls.append(a))
    code = main(argv)
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert calls == []
    return captured.err


@pytest.mark.parametrize(
    "check_id, process",
    [
        (check_id, process)
        for check_id, check in CHECKS.items()
        if not check.any_process
        for process in ALL_PROCESSES
        if process != check.process
    ],
)
def test_process_refused_unless_entry_takes_it(capsys, monkeypatch, check_id, process):
    # a check that fixes its process offers only that one to --process, and
    # one that simulates nothing has no --process
    argv = ["verify", check_id, "--process", process, "--n", "30", "--reps", "200"]
    err = refused_before_simulating(capsys, monkeypatch, argv)
    own = CHECKS[check_id].process
    if own is None:
        assert err == f"error: unrecognized arguments: {' '.join(argv[2:])}\n"
    else:
        choice = f"invalid choice: {process!r} (choose from {own!r})"
        assert err == f"error: argument --process: {choice}\n"


AR1_FIELDS = {"n", "p", "theta"}
IDLA_FIELDS = {"n"}
LEARN_FIELDS = {"n", "theta_star", "eta", "gamma0", "c0"}
ANY_FIELDS = AR1_FIELDS | IDLA_FIELDS | LEARN_FIELDS
SIMULATES = {"seed", "process", "reps"}
TAIL_FLAGS = {"a", "alpha", "x_grid"}
LEARN_FLAGS = {"a", "delta", "alpha"}

# each leaf parser's flag destinations besides the output flags
LEAF_FLAGS = {
    ("weights",): {"a_list", "table1"},
    ("hermite",): {"a_grid", "x_max", "x_steps"},
    ("simulate", "ar1"): {"seed"} | AR1_FIELDS,
    ("simulate", "idla"): {"seed"} | IDLA_FIELDS,
    ("simulate", "learn"): {"seed"} | LEARN_FIELDS,
    ("verify", "hermite"): {"a_grid"},
    ("verify", "kearns-saul"): set(),
    ("verify", "weighted-tail"): SIMULATES | TAIL_FLAGS | ANY_FIELDS,
    ("verify", "ratio-tail"): SIMULATES | TAIL_FLAGS | ANY_FIELDS,
    ("verify", "pqv-ratio"): SIMULATES | TAIL_FLAGS | ANY_FIELDS,
    ("verify", "missing-factor"): SIMULATES | TAIL_FLAGS | IDLA_FIELDS,
    ("verify", "ar-estimator"): SIMULATES | TAIL_FLAGS | AR1_FIELDS,
    ("verify", "ar-laplace"): SIMULATES | AR1_FIELDS,
    ("verify", "idla-scaled"): SIMULATES | TAIL_FLAGS | IDLA_FIELDS,
    ("verify", "idla-sqrt"): SIMULATES | TAIL_FLAGS | IDLA_FIELDS,
    ("verify", "learn-threshold"): SIMULATES | LEARN_FLAGS | LEARN_FIELDS,
    ("verify", "learn-phi"): SIMULATES | LEARN_FLAGS | LEARN_FIELDS,
    ("verify", "supermartingale"): SIMULATES | ANY_FIELDS,
    ("learning-table",): {"n", "a", "delta", "r_grid"},
}


def leaf_parsers(parser=None, path=()):
    """Each leaf parser by its path of subcommand, process or verify id."""
    parser = parser or cli.build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {path: parser}
    return {
        leaf: sub
        for name, choice in subs[0].choices.items()
        for leaf, sub in leaf_parsers(choice, (*path, name)).items()
    }


def option_dests(*path):
    actions = leaf_parsers()[path]._actions
    return {a.dest: a for a in actions if a.option_strings and a.dest != "help"}


OUTPUT_FLAGS = {"out", "format", "config"}


def test_every_leaf_parser_is_listed():
    assert sorted(leaf_parsers()) == sorted(LEAF_FLAGS)
    # against 228 when every verify id took 15 flags and every process 8
    assert sum(map(len, LEAF_FLAGS.values())) == 129


@pytest.mark.parametrize("path", LEAF_FLAGS, ids=" ".join)
def test_subcommand_parses_only_the_flags_it_reads(path):
    assert set(option_dests(*path)) == LEAF_FLAGS[path] | OUTPUT_FLAGS


@pytest.mark.parametrize("path", [path for path in LEAF_FLAGS if "seed" in LEAF_FLAGS[path]],
                         ids=" ".join)
def test_process_flags_are_the_spec_fields(path):
    # one flag per field of each spec the leaf can run, with the field's
    # type; its default is the spec's, or None where --process picks the spec
    actions = option_dests(*path)
    check = CHECKS[path[1]] if path[0] == "verify" else None
    if check is None:
        names = (path[1],)
    else:
        names = ALL_PROCESSES if check.any_process else (check.process,)
    for name in names:
        for f in dataclasses.fields(PROCESSES[name]):
            action = actions[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.default == (None if len(names) > 1 else f.default)
            assert (action.type is int) == (f.name == "n")


@pytest.mark.parametrize("path", LEAF_FLAGS, ids=" ".join)
def test_parser_for_argv_gives_flags_to_its_leaf_alone(path):
    # every leaf stays registered, the one argv names has its flags, the
    # others none, and argv parses as the parser of every leaf parses it
    argv = list(path)
    parser = cli.build_parser(argv)
    for other, sub in leaf_parsers(parser).items():
        dests = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        assert dests == (LEAF_FLAGS[path] | OUTPUT_FLAGS if other == path else set())
    assert parser.parse_args(argv) == cli.build_parser().parse_args(argv)


# values of the flags that a leaf parser may lack
FLAG_VALUES = {
    "a_list": "1/3", "a_grid": "1", "x_max": "5", "x_steps": "11", "a": "1/3", "delta": "0.2",
    "x_grid": "1,2", "alpha": "0.1", "reps": "200", "seed": "3", "process": "idla", "n": "30",
    "p": "0.3", "theta": "0.3", "theta_star": "0.3", "eta": "0.3", "gamma0": "0.3", "c0": "0.3",
}

# every (leaf, flag) pair of simulate and verify that parsed when every
# verify id took 15 flags and every process 8, and that the leaf now lacks
VERIFY_AT_ONCE = {"process", "a_grid", "a", "delta", "x_grid", "alpha", "reps", "seed"} | ANY_FIELDS
DROPPED_FLAGS = [
    (path, dest)
    for path, dests in LEAF_FLAGS.items()
    if path[0] in ("simulate", "verify")
    for dest in sorted((VERIFY_AT_ONCE if path[0] == "verify" else {"seed"} | ANY_FIELDS) - dests)
]


@pytest.mark.parametrize(
    "path, dest", DROPPED_FLAGS, ids=[f"{' '.join(path)} {dest}" for path, dest in DROPPED_FLAGS]
)
def test_flag_refused_unless_entry_reads_it(capsys, monkeypatch, path, dest):
    # a flag the id or process would ignore exits 2 before simulating
    flag = "--" + dest.replace("_", "-")
    argv = [*path, flag, FLAG_VALUES[dest]]
    err = refused_before_simulating(capsys, monkeypatch, argv)
    assert err == f"error: unrecognized arguments: {flag} {FLAG_VALUES[dest]}\n"


def test_dropped_flags_count():
    # weights, hermite and learning-table kept all of their flags
    assert len(DROPPED_FLAGS) == 228 - 129


# each subcommand parses only the flags it reads, so a flag that another
# subcommand reads is unrecognized here rather than ignored; no flag is
# matched by a prefix of its name
REMOVED_FLAGS = [
    *([command, flag, value]
      for command in ("weights", "hermite", "learning-table")
      for flag, value in (("--seed", "3"), ("--alpha", "0.1"), ("--reps", "200"))),
    *(["simulate", "idla", "--n", "3", flag, value]
      for flag, value in (("--a", "1/3"), ("--delta", "0.2"), ("--x-grid", "1,2"),
                          ("--alpha", "0.1"), ("--reps", "200"))),
    ["hermite", "--a", "9/16"],
    ["simulate", "idla", "--n", "3", "--se", "4"],
    ["verify", "idla-sqrt", "--n", "3", "--rep", "200"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
def test_flag_refused_by_subcommand_without_it(capsys, monkeypatch, argv):
    err = refused_before_simulating(capsys, monkeypatch, argv)
    assert err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"


ANY_PROCESS = [check_id for check_id, check in CHECKS.items() if check.any_process]


@pytest.mark.parametrize("source", ["argv", "config"])
@pytest.mark.parametrize("check_id", ANY_PROCESS)
def test_other_process_field_refused(tmp_path, capsys, monkeypatch, check_id, source):
    # the parser of an id that runs on any process takes every process's
    # fields, but a field the chosen process lacks is refused, not ignored
    argv = ["verify", check_id, "--process", "idla", "--n", "30", "--reps", "200"]
    if source == "argv":
        argv += ["--p", "0.3"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 0.3}))
        argv += ["--config", str(cfg)]
    err = refused_before_simulating(capsys, monkeypatch, argv)
    assert err == "error: --p does not apply: the idla process has no p\n"


def test_other_process_field_refused_on_default_process(capsys, monkeypatch):
    argv = ["verify", "weighted-tail", "--n", "30", "--reps", "200", "--eta", "0.3"]
    err = refused_before_simulating(capsys, monkeypatch, argv)
    assert err == "error: --eta does not apply: the idla process has no eta\n"


@pytest.mark.parametrize("process", ALL_PROCESSES)
def test_any_process_header_has_the_process_fields(capsys, process):
    # the JSON header lists the fields of the process run, each at its flag
    # value or its spec's default, and no other process's
    argv = ["verify", "supermartingale", "--process", process, "--n", "30", "--reps", "200",
            "--seed", "3", "--format", "json"]
    code, out = run(capsys, *argv)
    assert code == 0
    config = json.loads(out)["header"]["config"]
    fields = dataclasses.fields(PROCESSES[process])
    assert ANY_FIELDS & set(config) == {f.name for f in fields}
    assert {f.name: config[f.name] for f in fields} == {
        f.name: 30 if f.name == "n" else f.default for f in fields
    }


@pytest.mark.parametrize("command", ["weights", "hermite", "learning-table"])
def test_seedless_command_ignores_seed_variable(monkeypatch, capsys, command):
    # only simulate and verify draw random numbers, so only they read it
    _, unset = run(capsys, command, "--format", "json")
    monkeypatch.setenv("SELFNORM_SEED", "abc")
    code = main([command, "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == unset
    header = json.loads(captured.out)["header"]
    assert header["seed"] is None
    assert not {"seed", "alpha", "reps"} & set(header["config"])


@pytest.mark.parametrize(
    "command, key",
    [
        *((["weights"], key) for key in ("seed", "alpha", "reps")),
        (["verify", "kearns-saul"], "a"),
        (["verify", "hermite"], "seed"),
        (["verify", "ar-laplace"], "alpha"),
        (["verify", "idla-scaled"], "p"),
        (["simulate", "idla"], "eta"),
    ],
)
def test_config_key_of_a_removed_flag_is_unknown(tmp_path, capsys, monkeypatch, command, key):
    # the key is looked up in the leaf parser of the process or verify id
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 3}))
    err = refused_before_simulating(capsys, monkeypatch, [*command, "--config", str(cfg)])
    assert err == f"error: unknown config key {key!r}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_header_lists_every_column_in_either_grid_order(capsys, fmt):
    # the weighted bound does not apply past sqrt(a d(a)), so the row at 100
    # has no bound_weighted; the column stays in its place, empty there
    outs = [
        run(capsys, "verify", "ar-estimator", "--n", "30", "--reps", "200", "--x-grid", grid,
            "--seed", "3", "--format", fmt)
        for grid in ("100,0.01", "0.01,100")
    ]
    assert [code for code, _ in outs] == [0, 0]
    if fmt == "json":
        rows = [json.loads(out)["rows"] for _, out in outs]
    else:
        header = f"x,bound_weighted,bound_gauss-ar,{TAIL_COLUMNS}"
        assert [out.split("\r\n")[0] for _, out in outs] == [header, header]
        rows = [csv_rows(out) for _, out in outs]
    far, near = rows[0]
    assert rows[1] == [near, far]
    assert float(far["x"]) == 100.0 and float(near["x"]) == 0.01
    # JSON leaves the key out; CSV writes an empty cell
    assert far.get("bound_weighted") == (None if fmt == "json" else "")
    assert float(near["bound_weighted"]) == 1.0


@pytest.mark.parametrize("check_id", ["idla-sqrt", "supermartingale"])
@pytest.mark.parametrize("reps", ["0", "-5", "99"])
def test_reps_below_floor_exits_2(capsys, check_id, reps):
    code = main(["verify", check_id, "--n", "10", "--reps", reps])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: reps must be at least 100, got {reps}"]


@pytest.mark.parametrize("check_id", ["weighted-tail", "ratio-tail"])
def test_zero_normalizer_exits_2(capsys, check_id):
    # eta 0: the learner never errs, so S_n(a) = 0 on every replicate
    argv = ["verify", check_id, "--process", "learn", "--eta", "0", "--c0", "0.5",
            "--theta-star", "0.5", "--n", "10", "--reps", "100"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "S_n(a)" in line


def test_weighted_tail_bt2008_at_unit_weight(capsys):
    # a = 9/16 gives c(a) = 1, where S_n(a) is the BT2008 normalizer; the
    # default a keeps MART_HEADER (test_every_verify_id)
    code, out = run(capsys, "verify", "weighted-tail", "--a", "9/16", "--n", "30",
                    "--reps", "2000", "--seed", "3")
    assert code == 0
    assert out.split("\r\n")[0] == f"x,y,bound_weighted,bound_bt2008,{TAIL_COLUMNS}"
    rows = csv_rows(out)
    assert len(rows) == 3
    assert all(float(r["bound_weighted"]) <= float(r["bound_bt2008"]) for r in rows)


class TestLearningTable:
    def test_default(self, capsys):
        code, out = run(capsys, "learning-table")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 11
        zero = rows[0]
        assert float(zero["oslr3"]) == pytest.approx(0.11486752393651311, abs=1e-12)
        assert float(zero["cbg"]) == pytest.approx(0.9748980723967956, abs=5e-4)
        for r in rows:
            assert float(r["oslr3"]) < float(r["cbg"])
            assert float(r["cbg_minus_oslr3"]) == pytest.approx(
                float(r["cbg"]) - float(r["oslr3"]), abs=1e-9
            )

    def test_below_floor_exits_2(self, capsys):
        code = main(["learning-table", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert "floor" in captured.err

    def test_floor_value(self):
        # smallest usable horizon for the defaults a=1/3, delta=0.2
        floor = -(1 / 3) * 6.0 * math.log(0.2)
        assert main(["learning-table", "--n", str(math.ceil(floor))]) == 0


class TestConfigFile:
    def test_config_merges_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "seed": 9}))
        code, out = run(
            capsys, "simulate", "idla", "--config", str(cfg), "--n", "4"
        )
        assert code == 0
        # --n beats the config value, seed comes from the config
        assert len([ln for ln in out.split("\r\n") if ln]) == 6

    def test_config_seed_applies(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        _, out_cfg = run(capsys, "simulate", "idla", "--n", "8", "--config", str(cfg))
        _, out_direct = run(capsys, "simulate", "idla", "--n", "8", "--seed", "9")
        assert out_cfg == out_direct

    def test_flag_with_other_dest_wins(self, tmp_path, capsys):
        # --a of weights stores into a_list; the config must not override it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a_list": "1/3"}))
        code, out = run(capsys, "weights", "--a", "9/16", "--config", str(cfg))
        assert code == 0
        assert [float(r["a"]) for r in csv_rows(out)] == [9 / 16]

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _ = run(capsys, "simulate", "idla", "--config", str(cfg))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(capsys, "simulate", "idla", "--config", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            [1],
            {"a": {}},
            {"n": None},
            {"n": 20.5, "reps": 200},
            {"x_grid": 5},
            {"a_grid": 3},
            {"alpha": None},
            {"format": "xml"},
            {"n": True},
            {"n": [8]},
            {"process": "nope"},
            {"command": "weights"},
            "idla",
        ],
    )
    def test_bad_value_exits_2(self, doc, tmp_path, capsys):
        # each value goes through its flag's own type and choices
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main(["verify", "idla-sqrt", "--n", "8", "--reps", "200", "--config", str(cfg)])
        assert_one_error_line(code, capsys.readouterr())

    @pytest.mark.parametrize("value, error", [
        (3, "config key 'a_grid' takes a string, got 3"),
        (",", "config key 'a_grid': no numbers in list ','"),
    ])
    def test_a_grid_value_parses_as_its_flag(self, tmp_path, capsys, value, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a_grid": value}))
        code = main(["verify", "hermite", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert captured.err == f"error: {error}\n"
        cfg.write_text(json.dumps({"a_grid": "1/3,1"}))
        assert run(capsys, "verify", "hermite", "--config", str(cfg)) == run(
            capsys, "verify", "hermite", "--a-grid", "1/3,1"
        )

    def test_values_parse_as_their_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"n": 8, "reps": "200", "alpha": "1/10", "x_grid": "1,2", "format": "json"})
        )
        code, out = run(capsys, "verify", "idla-sqrt", "--config", str(cfg))
        _, direct = run(
            capsys, "verify", "idla-sqrt", "--n", "8", "--reps", "200", "--alpha", "0.1",
            "--x-grid", "1,2", "--format", "json", "--config", str(cfg),
        )
        assert code == 0
        assert out == direct
        config = json.loads(out)["header"]["config"]
        assert (config["n"], config["reps"], config["alpha"], config["x_grid"]) == (8, 200, 0.1, [1.0, 2.0])

    def test_bool_only_for_switches(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"table1": True}))
        _, out_cfg = run(capsys, "weights", "--config", str(cfg))
        _, out_flag = run(capsys, "weights", "--table1")
        assert out_cfg == out_flag
        cfg.write_text(json.dumps({"table1": "yes"}))
        code = main(["weights", "--config", str(cfg)])
        assert_one_error_line(code, capsys.readouterr())

    def test_flag_wins_over_config_choice(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "json"}))
        code, out = run(capsys, "simulate", "idla", "--n", "2", "--format", "csv", "--config", str(cfg))
        assert code == 0
        assert out.startswith("step,")


class TestSeedEnv:
    def test_env_default(self, monkeypatch, capsys):
        monkeypatch.setenv("SELFNORM_SEED", "9")
        _, out_env = run(capsys, "simulate", "idla", "--n", "8")
        monkeypatch.delenv("SELFNORM_SEED")
        _, out_flag = run(capsys, "simulate", "idla", "--n", "8", "--seed", "9")
        assert out_env == out_flag

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("SELFNORM_SEED", "9")
        _, out = run(capsys, "simulate", "idla", "--n", "8", "--seed", "2")
        monkeypatch.delenv("SELFNORM_SEED")
        _, direct = run(capsys, "simulate", "idla", "--n", "8", "--seed", "2")
        assert out == direct


def assert_one_error_line(code, captured):
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    # one line, which says what went wrong: no warnings before it
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


class TestSeedRange:
    def test_flag_out_of_range_exits_2(self, capsys):
        for seed in ("99999999999999999999999", str(2**63)):
            code = main(["simulate", "idla", "--n", "8", "--seed", seed])
            captured = capsys.readouterr()
            assert_one_error_line(code, captured)
            assert "SELFNORM_SEED" not in captured.err

    def test_env_out_of_range_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("SELFNORM_SEED", str(2**64 - 1))
        code = main(["verify", "idla-sqrt", "--n", "8", "--reps", "100"])
        assert_one_error_line(code, capsys.readouterr())

    @pytest.mark.parametrize("text", [str(2**64 - 1), str(2**63), "-1"])
    def test_env_out_of_range_names_the_variable(self, monkeypatch, capsys, text):
        monkeypatch.setenv("SELFNORM_SEED", text)
        code = main(["simulate", "idla", "--n", "3"])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert captured.err == f"error: SELFNORM_SEED: seed must lie in [0, 2**63), got {text}\n"

    @pytest.mark.parametrize("text", ["abc", "", "1.5"])
    def test_env_not_an_int_names_the_variable(self, monkeypatch, capsys, text):
        monkeypatch.setenv("SELFNORM_SEED", text)
        code = main(["simulate", "idla", "--n", "3"])
        captured = capsys.readouterr()
        assert_one_error_line(code, captured)
        assert "SELFNORM_SEED" in captured.err and repr(text) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "ar-estimator", "--theta", "3", "--n", "1000", "--reps", "200"],
        ["verify", "supermartingale", "--process", "ar1", "--theta", "3", "--n", "1000",
         "--reps", "200"],
    ],
)
def test_non_finite_finals_exit_2(capsys, argv):
    # theta = 3 overflows X_n, so every statistic is inf or NaN
    code = main(argv + ["--seed", "1"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "theta_hat in 200" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_trace_exit_2(capsys, fmt):
    code = main(["simulate", "ar1", "--theta", "3", "--n", "1000", "--format", fmt])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "m in " in captured.err and "qv in " in captured.err


def test_memory_error_exits_2(capsys):
    # 10**15 doubles is 7.1 PiB, which numpy refuses at once
    code = main(["simulate", "ar1", "--n", str(10**15)])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "out of memory" in captured.err


def test_bare_memory_error_exits_2(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "simulate", fail)
    code = main(["simulate", "ar1", "--n", "8"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert captured.err == "error: out of memory\n"


def test_no_workers_option(tmp_path, capsys):
    code = main(["verify", "idla-sqrt", "--n", "8", "--reps", "100", "--workers", "2"])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "--workers" in captured.err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    code = main(["simulate", "idla", "--n", "2", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert "workers" in captured.err

    code, out = run(capsys, "simulate", "idla", "--n", "2", "--format", "json")
    assert code == 0
    assert "workers" not in json.loads(out)["header"]["config"]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["verify", "idla-sqrt", "--n", "8", "--bogus", "2"], "--bogus"),
        (["verify", "idla-sqrt", "--n", "abc"], "--n"),
        (["verify", "ratio-tail", "--process", "xyz"], "--process"),
        (["simulate", "xyz"], "process"),
        (["verify", "no-such-check"], "inequality"),
        ([], "command"),
    ],
)
def test_usage_error_one_line(capsys, argv, names):
    # argparse's usage block and program-name prefix are not printed
    code = main(argv)
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert names in captured.err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    code = main([flag])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out and captured.err == ""


class TestSimulateStreaming:
    """simulate writes its trace WRITE_ROWS rows at a time; the bytes are
    those of the whole document, and the memory used for them stays flat in
    n."""

    @pytest.mark.parametrize("n", [1, cli.WRITE_ROWS - 1, cli.WRITE_ROWS, cli.WRITE_ROWS + 1])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("process", ["ar1", "idla", "learn"])
    def test_stdout_equals_out_file(self, capsys, tmp_path, process, fmt, n):
        argv = ["simulate", process, "--n", str(n), "--seed", "4", "--format", fmt]
        code, out = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "trace"
        assert main(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode()
        rows = json.loads(out)["rows"] if fmt == "json" else csv_rows(out)
        assert len(rows) == n + 1

    @pytest.mark.parametrize("process", ["ar1", "idla", "learn"])
    def test_json_is_json_dumps_of_the_document(self, capsys, process):
        argv = ["simulate", process, "--n", "9", "--seed", "2", "--format", "json"]
        code, out = run(capsys, *argv)
        assert code == 0
        columns = simulate(make_spec(process, cli._parse_args(argv)), 2).columns()
        rows = [
            {"step": k, **{key: float(columns[key][k]) for key in ("m", "qv", "pqv")}}
            for k in range(10)
        ]
        header = json.loads(out)["header"]
        assert header["seed"] == 2 and header["version"] == __version__
        doc = {"header": header, "rows": rows}
        assert out == json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emission_memory_flat_in_horizon(self, tmp_path, monkeypatch, fmt):
        # memory held beyond the trace while its output is written; writing
        # the whole document at once would add about 3 MB (CSV) or 16 MB
        # (JSON) from 4 to 40 tiles
        held = []

        def simulate_and_mark(spec, seed):
            trace = simulate(spec, seed)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return trace

        monkeypatch.setattr(cli, "simulate", simulate_and_mark)
        extra = []
        for tiles in (1, 4, 40):  # the first run takes one-time allocations
            argv = ["simulate", "ar1", "--n", str(tiles * cli.WRITE_ROWS), "--format", fmt]
            tracemalloc.start()
            try:
                assert main(argv + ["--out", str(tmp_path / "trace")]) == 0
                extra.append(tracemalloc.get_traced_memory()[1] - held[-1])
            finally:
                tracemalloc.stop()
        assert abs(extra[2] - extra[1]) <= 1_000_000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_trace_writes_nothing(self, capsys, tmp_path, fmt):
        path = tmp_path / "trace"
        argv = ["simulate", "ar1", "--theta", "1e200", "--n", "50", "--format", fmt]
        assert_one_error_line(main(argv + ["--out", str(path)]), capsys.readouterr())
        assert not path.exists()
        assert_one_error_line(main(argv), capsys.readouterr())


@pytest.mark.parametrize("argv, flag", [
    (["hermite", "--a-grid", ","], "--a-grid"),
    (["verify", "idla-sqrt", "--x-grid", ","], "--x-grid"),
])
def test_empty_list_flag_keeps_its_reason(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert_one_error_line(code, captured)
    assert captured.err == f"error: argument {flag}: no numbers in list ','\n"


@pytest.mark.parametrize(
    "check_id", [c for c, check in CHECKS.items() if check.process is not None]
)
def test_json_header_names_the_process_that_ran(capsys, check_id):
    # without --process, the entry's own process runs and the header says so
    argv = ["verify", check_id, "--n", "10", "--reps", "100", "--seed", "3", "--format", "json"]
    _, out = run(capsys, *argv)
    assert json.loads(out)["header"]["config"]["process"] == CHECKS[check_id].process
    given = run(capsys, *argv, "--process", CHECKS[check_id].process)
    assert given == run(capsys, *argv)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


class TestRenderFanOut:
    """simulate renders its row blocks on W processes, block i in process
    i % W, and writes the same bytes for every W."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4 * 1024 + 1])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("process", ["ar1", "idla", "learn"])
    def test_bytes_do_not_depend_on_the_process_count(
        self, capsys, tmp_path, monkeypatch, process, fmt, n
    ):
        argv = ["simulate", process, "--n", str(n), "--seed", "6", "--format", fmt]
        blocks = -(-(n + 1) // cli.WRITE_ROWS)
        forks = count_forks(monkeypatch)
        outputs = []
        for w in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_cpus", lambda: w)
            forks.clear()
            code, out = run(capsys, *argv)
            path = tmp_path / f"trace{w}"
            assert (code, main(argv + ["--out", str(path)])) == (0, 0)
            assert len(forks) == 2 * (min(w, blocks) - 1)
            outputs += [out.encode(), path.read_bytes()]
        assert outputs == outputs[:1] * 6
        assert_no_child_left()

    def test_pinned_to_one_cpu_prints_the_same_bytes(self):
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        if len(cpus) < 2:
            pytest.skip("this test process may run on only one CPU, so pinning changes nothing")
        argv = [sys.executable, "-m", "selfnorm.cli", "simulate", "learn", "--n", "5000",
                "--seed", "3"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        free = subprocess.run(argv, env=env, capture_output=True, check=False)
        pinned = subprocess.run(
            argv, env=env, capture_output=True, check=False,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpus[0]}),
        )
        assert (free.returncode, free.stderr) == (0, b"")
        assert (pinned.returncode, pinned.stderr, pinned.stdout) == (0, b"", free.stdout)

    def fail_in_children(self, monkeypatch, exc):
        """Make every block that a child renders, an odd one of two
        processes, raise exc."""
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 2)
        trace_to_csv = cli.trace_to_csv

        def failing(trace, lo, hi):
            if lo // cli.WRITE_ROWS % 2:
                raise exc
            return trace_to_csv(trace, lo, hi)

        monkeypatch.setattr(cli, "trace_to_csv", failing)

    def test_child_memory_error_exits_2_with_one_line(self, capsys, monkeypatch):
        self.fail_in_children(monkeypatch, MemoryError("no room"))
        code = main(["simulate", "ar1", "--n", "5000"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "error: out of memory: no room\n")
        assert_no_child_left()

    def test_other_child_failure_names_its_exit_status(self, monkeypatch):
        self.fail_in_children(monkeypatch, KeyError("lost"))
        with pytest.raises(RuntimeError, match="exit status 3$"):
            main(["simulate", "ar1", "--n", "5000"])
        assert_no_child_left()

    def test_closed_stdout_exits_2_and_reaps_every_child(self, capsys, monkeypatch):
        class ClosedAfterOneBlock(io.StringIO):
            def writelines(self, chunks):
                for i, chunk in enumerate(chunks):
                    if i == 2:
                        raise BrokenPipeError(32, "Broken pipe")
                    self.write(chunk)

        monkeypatch.setattr(montecarlo, "_cpus", lambda: 3)
        forks = count_forks(monkeypatch)
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", ClosedAfterOneBlock())
        argv = ["simulate", "ar1", "--n", "100000", "--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert len(forks) == 2
        assert_no_child_left()
        # the children are reaped while the error's traceback still holds
        # run_simulate's frame, not when that frame is freed
        with pytest.raises(BrokenPipeError) as caught:
            cli.run_simulate(cli._parse_args(argv))
        assert_no_child_left()
        assert caught.traceback

    def test_closed_stdout_pipe_exits_2_with_one_line(self):
        argv = [sys.executable, "-m", "selfnorm.cli", "simulate", "ar1", "--n", "100000"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"step,m,qv,pqv,x,theta_hat\r\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == b"error: [Errno 32] Broken pipe\n"

    def test_no_fork_from_a_threaded_caller(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = count_forks(monkeypatch)
        argv = ["simulate", "learn", "--n", "5000", "--seed", "8", "--out"]
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(argv + [str(tmp_path / "t")])))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert forks == [] and codes == [0]
        # on the main thread the same command forks one child per extra CPU
        assert main(argv + [str(tmp_path / "m")]) == 0
        assert forks == [1]
        assert (tmp_path / "t").read_bytes() == (tmp_path / "m").read_bytes()
        assert_no_child_left()
