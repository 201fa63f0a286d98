"""Command-line front end.

Subcommands: weights, hermite, simulate {ar1|idla|learn}, verify <id>,
learning-table.  Exit codes: 0 on success, 1 when any inequality violation
is detected, 2 on invalid configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, bounds, montecarlo
from .bounds import TABLE1
from .processes import PROCESSES, make_spec, simulate, trace_to_csv

DEFAULT_A_GRID = (0.13, 0.2, 1 / 3, 9 / 16, 1.0, 2.0, 10.0)


def parse_real(text: str) -> float:
    """Parse a real number, accepting exact rationals like '9/16'."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse real number {text!r}") from exc


def parse_real_list(text: str) -> list[float]:
    return [parse_real(part) for part in text.split(",") if part.strip()]


def _default_seed() -> int:
    return int(os.environ.get("SELFNORM_SEED", "42"))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--alpha", type=parse_real, default=0.05)
    sub.add_argument("--reps", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--config", default=None, help="JSON file with flag defaults")


def _add_process_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=100)
    sub.add_argument("--a", type=parse_real, default=1 / 3)
    sub.add_argument("--p", type=parse_real, default=0.5)
    sub.add_argument("--theta", type=parse_real, default=0.5)
    sub.add_argument("--theta-star", type=parse_real, default=0.5)
    sub.add_argument("--eta", type=parse_real, default=0.1)
    sub.add_argument("--gamma0", type=parse_real, default=0.5)
    sub.add_argument("--c0", type=parse_real, default=0.0)
    sub.add_argument("--delta", type=parse_real, default=0.2)
    sub.add_argument("--x-grid", type=parse_real_list, default=None)


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The selfnorm parser; defaults, when given, replace the flag defaults
    of every subcommand."""
    parser = argparse.ArgumentParser(prog="selfnorm")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    w = subs.add_parser("weights", help="weight functions c(a), b(a)")
    w.add_argument("--a", type=parse_real_list, default=None, dest="a_list")
    w.add_argument("--table1", action="store_true")
    _add_common(w)

    h = subs.add_parser("hermite", help="pointwise inequality margin suite")
    h.add_argument("--a-grid", default="default")
    h.add_argument("--x-max", type=parse_real, default=50.0)
    h.add_argument("--x-steps", type=int, default=100_001)
    _add_common(h)

    s = subs.add_parser("simulate", help="emit one process trace")
    s.add_argument("process", choices=tuple(PROCESSES))
    _add_process_flags(s)
    _add_common(s)

    v = subs.add_parser("verify", help="verify one implemented inequality")
    v.add_argument("inequality", choices=tuple(montecarlo.CHECKS))
    v.add_argument("--process", choices=tuple(PROCESSES), default=None)
    v.add_argument("--a-grid", default="default")
    _add_process_flags(v)
    _add_common(v)

    t = subs.add_parser("learning-table", help="risk-threshold comparison table")
    t.add_argument("--n", type=int, default=100)
    t.add_argument("--a", type=parse_real, default=1 / 3)
    t.add_argument("--delta", type=parse_real, default=0.2)
    t.add_argument("--r-grid", type=parse_real_list, default=None)
    _add_common(t)
    for sub in subs.choices.values():
        sub.set_defaults(**(defaults or {}))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv.  A --config file supplies flag defaults, so explicit flags
    win, and its string values go through the flags' own parsers."""
    args = build_parser().parse_args(argv)
    if not getattr(args, "config", None):
        return args
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key in cfg:
        if not hasattr(args, key.replace("-", "_")):
            raise ValueError(f"unknown config key {key!r}")
    return build_parser({k.replace("-", "_"): v for k, v in cfg.items()}).parse_args(argv)


def _emit(rows: list[dict], args: argparse.Namespace) -> None:
    if args.format == "json":
        config = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("out",) and not callable(v)
        }
        doc = {
            "header": {"config": config, "seed": args.seed, "version": __version__},
            "rows": rows,
        }
        text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buf.getvalue()
    _write(text, args)


def _write(text: str, args: argparse.Namespace) -> None:
    """Write text to --out, or to stdout without it."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _a_grid(args: argparse.Namespace):
    if args.a_grid == "default":
        return DEFAULT_A_GRID
    return tuple(parse_real_list(args.a_grid))


def run_weights(args: argparse.Namespace) -> int:
    if args.table1:
        rows = [
            {"a": a, "c": bounds.weight_c(a), "b": bounds.weight_b(a)} for a, _ in TABLE1
        ]
    else:
        a_list = args.a_list if args.a_list is not None else [1 / 3]
        rows = [
            {"a": a, "c": bounds.weight_c(a), "b": bounds.weight_b(a)} for a in a_list
        ]
    _emit(rows, args)
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    spec = make_spec(args.process, args)
    trace = simulate(spec, args.seed)
    if args.format == "csv":
        _write(trace_to_csv(trace), args)
    else:
        rows = [
            {
                "step": k,
                "m": float(trace.path.m[k]),
                "qv": float(trace.path.qv[k]),
                "pqv": float(trace.path.pqv[k]),
            }
            for k in range(trace.path.n + 1)
        ]
        _emit(rows, args)
    return 0


def run_check(args: argparse.Namespace, check_id: str) -> int:
    """Evaluate one entry of the verification table and emit its rows."""
    params = argparse.Namespace(**vars(args))
    params.a_grid = _a_grid(args)
    rows = montecarlo.verify(montecarlo.CHECKS[check_id], params)
    _emit(rows, args)
    return 0 if all(row["satisfied"] for row in rows) else 1


def run_learning_table(args: argparse.Namespace) -> int:
    floor = -args.a * bounds.learning_m(args.a) * math.log(args.delta)
    if args.n < floor:
        raise ValueError(
            f"horizon n={args.n} below the invertibility floor {floor:g}; "
            f"need n >= {math.ceil(floor)}"
        )
    r_grid = args.r_grid or [i / 10 for i in range(11)]
    rows = []
    for r in r_grid:
        oslr2 = r + bounds.learning_threshold(args.n, args.a, args.delta, 1.0)
        oslr3 = bounds.learning_phi_inverse(r, args.n, args.a, args.delta)
        cbg = bounds.cbg_threshold(r, args.n, args.delta)
        rows.append(
            {
                "r_hat": r,
                "oslr2": oslr2,
                "oslr3": oslr3,
                "cbg": cbg,
                "cbg_minus_oslr3": cbg - oslr3,
            }
        )
    _emit(rows, args)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        dispatch = {
            "weights": run_weights,
            "hermite": lambda args: run_check(args, "hermite"),
            "simulate": run_simulate,
            "verify": lambda args: run_check(args, args.inequality),
            "learning-table": run_learning_table,
        }
        return dispatch[args.command](args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return 2 if code not in (0,) else 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
