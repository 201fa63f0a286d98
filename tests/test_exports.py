"""Each module's __all__ matches what it defines, and the package exports resolve."""

import ast
import importlib
import inspect
from pathlib import Path

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
    # each name of the lazy export table is listed, and resolves to the
    # definition in the submodule the table names
    assert selfnorm._EXPORTS
    assert set(selfnorm.__all__) == set(selfnorm._EXPORTS)
    assert set(selfnorm.__all__) <= set(dir(selfnorm))
    for name, module in selfnorm._EXPORTS.items():
        defined = getattr(importlib.import_module(f"selfnorm.{module}"), name)
        assert getattr(selfnorm, name) is defined, f"selfnorm does not resolve {name!r}"


def _benchmark_hooks() -> dict:
    """The module attributes that perfbench/trace_cli.py::install reads, as
    {module: names}: the functions the traced benchmark wraps by name."""
    source = Path(__file__).parents[1] / "perfbench" / "trace_cli.py"
    tree = ast.parse(source.read_text())
    install = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    # install binds processes to p
    modules = {"p": processes, "martingale": martingale, "montecarlo": montecarlo, "cli": cli}
    hooks = {}
    for node in ast.walk(install):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                hooks.setdefault(modules[node.value.id], set()).add(node.attr)
    return hooks


def test_benchmark_hooks_exist():
    # install wraps these by name; losing one raises AttributeError in every
    # traced benchmark run
    hooks = _benchmark_hooks()
    assert set(hooks) == {processes, martingale, montecarlo, cli}
    for module, names in hooks.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    trace = processes.simulate(processes.IDLASpec(n=3), seed=1)
    assert isinstance(processes.trace_to_csv(trace), str)


@pytest.mark.filterwarnings("ignore:Support for .*tool.setuptools")
def test_version_is_stated_once():
    # pyproject.toml reads the version from the package's literal
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(
        Path(__file__).parents[1] / "pyproject.toml", expand=True
    )
    assert config["project"]["version"] == selfnorm.__version__
