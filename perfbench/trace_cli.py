"""Run one selfnorm CLI command with spans recorded around each layer.

    python3 perfbench/trace_cli.py SPANS_FILE COMMAND_ID <selfnorm arguments>

The selfnorm sources must be importable (``PYTHONPATH=src``).  Before the
command runs, the public functions of ``processes``, ``martingale``,
``montecarlo``, ``bounds`` and ``cli.main`` are replaced by timing wrappers in
every selfnorm module that binds them, so calls through re-bound names (such
as ``processes.accumulate`` or ``cli.trace_to_csv``) are traced too.
``numpy.random.Philox`` is replaced by a subclass that counts constructions.

A span is ``[id, parent, name, thread, start, end, counts]``.  A call made
directly inside a span of the same name is part of that span and opens none.
Calls in pool threads take as parent the innermost span open in the main
thread, which is the ``simulate_finals`` call that submitted them.  Spans stay
in memory and are written to SPANS_FILE as JSON when the command returns; the
program's stdout, stderr and exit code are left as the plain CLI gives them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
import types

import numpy as np


def _simulate_finals_counts(arguments: dict, result: dict) -> dict:
    nonfinite = sum(
        int(np.count_nonzero(~np.isfinite(v)))
        for v in result.values()
        if np.issubdtype(v.dtype, np.floating)
    )
    return {
        "key": repr((arguments["spec"], arguments["seed"], arguments["n_samples"])),
        "workers": arguments.get("workers") or 1,
        "nonfinite": nonfinite,
    }


class Tracer:
    """Collects spans for one command; see the module docstring."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[list] = []
        self.philox = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> int:
        if stack:
            return stack[-1][0]
        try:
            return self._main_stack[-1][0]
        except IndexError:
            return 0

    def wrap(self, name: str, fn, count=None):
        """``count(arguments, result)``, when given, returns the span's counts."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = self._parent(stack)
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = None
            if count:
                counts = count(signature.bind(*args, **kwargs).arguments, result)
            self.spans.append(
                [span_id, parent, name, threading.get_ident(), start, end, counts]
            )
            return result

        return traced

    def count_philox(self):
        tracer = self

        class CountingPhilox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                with tracer._lock:
                    tracer.philox += 1
                super().__init__(*args, **kwargs)

        return CountingPhilox

    def dump(self, path: str) -> None:
        doc = {"command": self.command_id, "philox": self.philox, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer):
    """Wrap the layers' functions in every selfnorm module; return cli.main."""
    from selfnorm import bounds, cli, martingale, montecarlo, processes

    p = processes
    cli_main = cli.main
    plan = {
        p.uniform_rows: ("processes.uniform_rows", lambda a, r: {"mb": r.nbytes / 1e6}),
        p.trace_to_csv: ("processes.trace_to_csv", lambda a, r: {"bytes": len(r.encode())}),
        martingale.accumulate: ("martingale.accumulate", lambda a, r: {"steps": r.n}),
        montecarlo.simulate_finals: ("montecarlo.simulate_finals", _simulate_finals_counts),
        montecarlo.event_indicator: ("montecarlo.event_indicator", None),
        montecarlo.summarize_indicators: ("montecarlo.reduce", None),
        montecarlo.estimate_expectation: ("montecarlo.reduce", None),
        cli_main: ("cli.main", None),
    }
    for fn in (p.ar1_finals, p.idla_finals, p.learning_finals):
        plan[fn] = ("processes.finals", lambda a, r: {"steps": len(r["m"]) * a["spec"].n})
    for fn in (p.simulate, p.ar1_simulate, p.idla_simulate, p.learning_simulate):
        plan[fn] = ("processes.simulate", lambda a, r: {"steps": a["spec"].n})
    for name, fn in vars(bounds).items():
        if isinstance(fn, types.FunctionType) and not name.startswith("_"):
            if fn.__module__ == bounds.__name__:
                plan.setdefault(fn, ("bounds", None))

    # keyed by id: module namespaces also hold unhashable values
    wrapped = {id(fn): tracer.wrap(name, fn, count) for fn, (name, count) in plan.items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "selfnorm" and not mod_name.startswith("selfnorm."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    np.random.Philox = tracer.count_philox()
    return wrapped[id(cli_main)]


def main(argv: list[str]) -> int:
    spans_file, command_id, *cli_args = argv
    tracer = Tracer(command_id)
    cli_main = install(tracer)
    try:
        return cli_main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
