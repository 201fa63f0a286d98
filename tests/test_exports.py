"""Each module's __all__ matches what it defines, and the package exports resolve."""

import ast
import inspect

import pytest

import selfnorm
from selfnorm import bounds, cli, martingale, montecarlo, processes


@pytest.mark.parametrize("module", [bounds, martingale, montecarlo, processes])
def test_all_lists_exactly_the_public_definitions(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    unlisted = defined - set(module.__all__)
    assert not unlisted, f"{module.__name__} defines {unlisted} outside __all__"


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(selfnorm))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for name in imported:
        assert hasattr(selfnorm, name), f"selfnorm does not resolve {name!r}"


def test_benchmark_hooks_exist():
    # perfbench/trace_cli.py::install wraps these by name; losing one raises
    # AttributeError in every traced benchmark run
    hooks = {
        processes: (
            "uniform_rows",
            "trace_to_csv",
            "simulate",
            "ar1_finals",
            "idla_finals",
            "learning_finals",
            "ar1_simulate",
            "idla_simulate",
            "learning_simulate",
        ),
        martingale: ("accumulate",),
        montecarlo: (
            "simulate_finals",
            "event_indicator",
            "summarize_indicators",
            "estimate_expectation",
        ),
        cli: ("main",),
    }
    for module, names in hooks.items():
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    trace = processes.simulate(processes.IDLASpec(n=3), seed=1)
    assert isinstance(processes.trace_to_csv(trace), str)
