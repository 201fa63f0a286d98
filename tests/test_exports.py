"""Each module's __all__ matches what it defines, the benchmark's hooks exist,
and the version is stated once."""

import ast
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


def test_each_public_name_has_one_import_path():
    # the package binds no name of its own besides dunders and the
    # submodules imported so far, and no two submodules list the same name
    modules = (bounds, martingale, montecarlo, processes)
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    for name, value in vars(selfnorm).items():
        if not name.startswith("__"):
            assert inspect.ismodule(value), f"selfnorm binds {name!r}"
    assert not set(listed) & set(vars(selfnorm))


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


def test_martingale_holds_only_benchmark_hooks():
    # martingale is kept only for the names the tracer wraps; nothing new
    # lands in a module that goes once the tracer is retired
    assert set(martingale.__all__) <= _benchmark_hooks()[martingale]


@pytest.mark.filterwarnings("ignore:Support for .*tool.setuptools")
def test_version_is_stated_once():
    # pyproject.toml reads the version from the package's literal
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(
        Path(__file__).parents[1] / "pyproject.toml", expand=True
    )
    assert config["project"]["version"] == selfnorm.__version__
