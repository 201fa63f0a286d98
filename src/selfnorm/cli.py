"""Command-line front end.

Subcommands: weights, hermite, simulate {ar1|idla|learn}, verify <id>,
learning-table.  Exit codes: 0 on success, 1 when any inequality violation
is detected, 2 on invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import itertools
import os
import sys
from dataclasses import fields, replace
from typing import Iterable

# selfnorm calls no BLAS routine, and the worker threads OpenBLAS starts when
# numpy loads would busy-wait through start-up.  A value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, bounds, montecarlo, processes  # noqa: E402

# numpy and every selfnorm module are loaded now, and all that their
# imports made is still reachable, so a collection would free none of it.
# Frozen, those objects are skipped by the collection at interpreter exit
# and by a fan_out child's collections, which would otherwise touch, and so
# copy, the pages the child shares with its parent.  What a command
# allocates is collected as before.
gc.freeze()

DEFAULT_A_GRID = (0.13, 0.2, 1 / 3, 9 / 16, 1.0, 2.0, 10.0)

# Rows of simulate output rendered and written at a time, and the unit of
# work montecarlo.fan_out hands to a process.
WRITE_ROWS = 1024


class _RealError(ValueError, argparse.ArgumentTypeError):
    """A ValueError whose message argparse prints as the reason."""


def parse_real(text: str) -> float:
    """Parse a real number, accepting exact rationals like '9/16'."""
    from fractions import Fraction

    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _RealError(f"cannot parse real number {text!r}") from exc


def parse_real_list(text: str) -> list[float]:
    """Parse comma-separated reals, skipping empty items.  A list with no
    numbers raises argparse.ArgumentTypeError, whose message the parser
    prints as the reason."""
    values = [parse_real(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no numbers in list {text!r}")
    return values


def _default_seed() -> int:
    text = os.environ.get("SELFNORM_SEED", "42")
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"SELFNORM_SEED: invalid int value: {text!r}") from None
    if not 0 <= seed < 2**63:
        raise ValueError(f"SELFNORM_SEED: seed must lie in [0, 2**63), got {seed}")
    return seed


def parse_a_grid(text: str) -> tuple[float, ...]:
    """Parse --a-grid: "default" for DEFAULT_A_GRID, or comma-separated reals
    as parse_real_list parses them."""
    return DEFAULT_A_GRID if text == "default" else tuple(parse_real_list(text))


# destination: (flag, type, default) of every flag but --process, --seed,
# the process fields and the output flags; a bool flag is a switch
_FLAGS = {
    "a_list": ("--a", parse_real_list, None),
    "table1": ("--table1", bool, False),
    "a_grid": ("--a-grid", parse_a_grid, "default"),
    "x_max": ("--x-max", parse_real, montecarlo.HERMITE_X_MAX),
    "x_steps": ("--x-steps", int, montecarlo.HERMITE_X_STEPS),
    "a": ("--a", parse_real, 1 / 3),
    "delta": ("--delta", parse_real, 0.2),
    "x_grid": ("--x-grid", parse_real_list, None),
    "alpha": ("--alpha", parse_real, 0.05),
    "reps": ("--reps", int, None),
    "n": ("--n", int, 100),
    "r_grid": ("--r-grid", parse_real_list, None),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, so that main
    reports them as one ``error:`` line like every other bad input.  It
    matches no flag by a prefix of its name."""

    def __init__(self, *args, **kw):
        super().__init__(*args, allow_abbrev=False, **kw)

    def error(self, message):
        raise ValueError(message)


def _add_parser(
    subs, path: tuple[str, ...], argv, dests=(), specs=(), runs_on=(), process=None, **kw
) -> None:
    """Register the leaf parser at path under its last name.  When argv is
    None or begins with path, give it its flags: the _FLAGS of dests, --seed
    and --<field> per field of the specs when any are given (None by default
    when several are, as the process is chosen after parsing), the output
    flags, and --process, default process, when runs_on names its choices."""
    sub = subs.add_parser(path[-1], **kw)
    if argv is not None and argv[: len(path)] != list(path):
        return
    for dest in dests:
        flag, kind, default = _FLAGS[dest]
        how = {"action": "store_true"} if kind is bool else {"type": kind, "default": default}
        sub.add_argument(flag, dest=dest, **how)
    if specs:
        sub.add_argument("--seed", type=int, default=None)
    for f in {f.name: f for spec in specs for f in fields(spec)}.values():
        kind = int if f.type in (int, "int") else parse_real
        default = f.default if len(specs) == 1 else None
        sub.add_argument("--" + f.name.replace("_", "-"), type=kind, default=default)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", default=None, help="JSON file with flag defaults")
    if runs_on:
        sub.add_argument("--process", choices=runs_on, default=process)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The selfnorm parser, with a leaf parser per subcommand, per simulated
    process and per verify id.  Every leaf is registered, so help and
    invalid-choice messages list them all, but only the leaf argv names
    (argv[0], and argv[1] under simulate or verify) gets its flags; with no
    argv, every leaf does."""
    parser = _Parser(prog="selfnorm")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    _add_parser(subs, ("weights",), argv, TABLES["weights"].flags,
                help="weight functions c(a), b(a)")
    _add_parser(subs, ("hermite",), argv, TABLES["hermite"].flags,
                help="pointwise inequality margin suite")
    sim = subs.add_parser("simulate", help="emit one process trace")
    sims = sim.add_subparsers(dest="process", required=True)
    for name, spec in processes.PROCESSES.items():
        _add_parser(sims, ("simulate", name), argv, specs=(spec,))
    verify = subs.add_parser("verify", help="verify one implemented inequality")
    ids = verify.add_subparsers(dest="inequality", required=True)
    for check_id, check in montecarlo.CHECKS.items():
        path = ("verify", check_id)
        if check.process is None:
            _add_parser(ids, path, argv, check.flags)
            continue
        runs_on = tuple(processes.PROCESSES) if check.any_process else (check.process,)
        specs = [processes.PROCESSES[p] for p in runs_on]
        _add_parser(ids, path, argv, (*check.flags, "reps"), specs, runs_on, check.process)
    _add_parser(subs, ("learning-table",), argv, TABLES["learning-table"].flags,
                help="risk-threshold comparison table")
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config file's value for a flag, parsed and checked as the flag's
    own argument would be.  A string goes through the flag's type, a number
    only to an int or real flag, and a bool only to a store_true flag."""
    import json

    if isinstance(action, argparse._StoreTrueAction):
        if isinstance(value, bool):
            return value
        raise ValueError(f"config key {key!r} takes true or false, got {json.dumps(value)}")
    numeric = action.type in (int, parse_real)
    if not (isinstance(value, str) or (numeric and type(value) in (int, float))):
        takes = "a number or a string" if numeric else "a string"
        raise ValueError(f"config key {key!r} takes {takes}, got {json.dumps(value)}")
    try:
        parsed = action.type(str(value)) if action.type else value
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None
    if action.choices is not None and parsed not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"config key {key!r}: invalid choice {parsed!r} (choose from {choices})")
    return parsed


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv.  A --config file holds a JSON object of flag defaults, so
    explicit flags win; each key is a flag's destination, and each value is
    parsed as that flag's argument."""
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    import json

    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(cfg).__name__}")
    # the leaf parser: the subcommand's, or that of its process or verify id
    sub = parser
    while subs := [a for a in sub._actions if isinstance(a, argparse._SubParsersAction)]:
        sub = subs[0].choices[getattr(args, subs[0].dest)]
    flags = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in cfg.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        defaults[action.dest] = _config_value(action, key, value)
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _json_doc(rows: list, args: argparse.Namespace) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "out"}
    return {
        # weights, hermite and learning-table draw nothing and have no seed
        "header": {"config": config, "seed": getattr(args, "seed", None), "version": __version__},
        "rows": rows,
    }


def _dumps(doc: dict) -> str:
    import json

    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    """Write an entry's rows, which share one set of keys.  A None value (a
    bound that does not apply) is left out of its JSON row and written as an
    empty CSV cell, and a key that is None in every row has no CSV column."""
    if args.format == "json":
        rows = [{key: value for key, value in row.items() if value is not None} for row in rows]
        text = _dumps(_json_doc(rows, args))
    else:
        buf = io.StringIO()
        if rows:
            columns = [key for key in rows[0] if any(row[key] is not None for row in rows)]
            writer = csv.DictWriter(buf, columns, extrasaction="ignore", lineterminator="\r\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    _write([text], args)


def _write(chunks: Iterable[str], args: argparse.Namespace) -> None:
    """Write the text chunks in order to --out, or to stdout without it."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# One trace row as _dumps lays it out inside the "rows" list.  simulate has
# rejected non-finite traces, and repr writes a finite float as json does.
_JSON_TRACE_ROW = '{\n      "m": %r,\n      "pqv": %r,\n      "qv": %r,\n      "step": %d\n    }'


def _json_rows(trace: processes.ProcessTrace, lo: int) -> str:
    """Rows lo..lo+WRITE_ROWS-1 of a trace's JSON document, after a separator unless lo is 0."""
    hi = lo + WRITE_ROWS
    values = trace.columns(lo, hi)
    rows = zip(values["m"].tolist(), values["pqv"].tolist(), values["qv"].tolist(), range(lo, hi))
    block = ",\n    ".join(_JSON_TRACE_ROW % row for row in rows)
    return block if lo == 0 else ",\n    " + block


def run_simulate(args: argparse.Namespace) -> int:
    """Simulate one trace and write it WRITE_ROWS rows at a time, each block
    rendered by one of montecarlo.fan_out's processes, so the text held at
    once does not grow with the horizon."""
    spec = processes.make_spec(args.process, args)
    trace = processes.simulate(spec, args.seed)
    if args.format == "csv":
        head, tail, render = "", "", lambda lo: processes.trace_to_csv(trace, lo, lo + WRITE_ROWS)
    else:
        # "rows" sorts after "header", so the placeholder, which json writes
        # as '"ROWS"', is the document's last value
        head, _, tail = _dumps(_json_doc(["ROWS"], args)).rpartition('"ROWS"')
        render = lambda lo: _json_rows(trace, lo)
    blocks = montecarlo.fan_out(render, range(0, spec.n + 1, WRITE_ROWS))
    with contextlib.closing(blocks):
        _write(itertools.chain([head], blocks, [tail]), args)
    return 0


def _keep_own_fields(args: argparse.Namespace, process: str) -> None:
    """Drop from args every process field that process's spec lacks, and set
    each of its own left unset to the spec's default.  A field of another
    process that is set, by a flag or by --config, raises ValueError."""
    own = {f.name: f.default for f in fields(processes.PROCESSES[process])}
    for name in dict.fromkeys(f.name for s in processes.PROCESSES.values() for f in fields(s)):
        value = vars(args).pop(name)
        if name in own:
            setattr(args, name, own[name] if value is None else value)
        elif value is not None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply: the {process} process has no {name}")


def run_check(args: argparse.Namespace, check: montecarlo.Check) -> int:
    """Evaluate a verify id's or a TABLES entry and emit its rows.  Exit 1
    exactly when some row's satisfied is False."""
    if check.any_process:
        # this id's parser takes the fields of every process, each unset as None
        _keep_own_fields(args, args.process)
    rows = montecarlo.verify(check, args)
    _emit(rows, args)
    return 0 if all(row.get("satisfied", True) for row in rows) else 1


def _weights_grid(run) -> list[float]:
    if run.table1 and run.a_list is not None:
        raise ValueError("--table1 and --a cannot be used together")
    if run.table1:
        return [a for a, _ in bounds.TABLE1]
    return run.a_list if run.a_list is not None else [1 / 3]


def _learning_row(run, r: float) -> dict:
    # the inversion goes first: below its floor it names the least usable n
    oslr3 = bounds.learning_phi_inverse(r, run.n, run.a, run.delta)
    oslr2 = r + bounds.learning_threshold(run.n, run.a, run.delta, 1.0)
    cbg = bounds.cbg_threshold(r, run.n, run.delta)
    return {
        "r_hat": r,
        "oslr2": oslr2,
        "oslr3": oslr3,
        "cbg": cbg,
        "cbg_minus_oslr3": cbg - oslr3,
    }


# The subcommands besides verify that print rows, as montecarlo.Check
# entries; they are not verify ids.  hermite reads the x-range that verify
# hermite keeps fixed.
TABLES = {
    "weights": montecarlo.Check(
        None, 0, _weights_grid,
        lambda run, a: {"a": a, "c": bounds.weight_c(a), "b": bounds.weight_b(a)},
        flags=("a_list", "table1"),
    ),
    "hermite": replace(montecarlo.CHECKS["hermite"], flags=("a_grid", "x_max", "x_steps")),
    "learning-table": montecarlo.Check(
        None, 0, lambda run: run.r_grid or [i / 10 for i in range(11)], _learning_row,
        flags=("n", "a", "delta", "r_grid"),
    ),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        if args.command == "simulate":
            return run_simulate(args)
        if args.command == "verify":
            return run_check(args, montecarlo.CHECKS[args.inequality])
        return run_check(args, TABLES[args.command])
    except SystemExit:
        # only --help and --version exit: a usage error raises ValueError
        return 0
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        message = f"error: out of memory: {exc}" if str(exc) else "error: out of memory"
        print(message, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
