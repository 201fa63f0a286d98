"""Each public name has one import path, the benchmark's hooks exist, and
the version is stated once."""

import ast
import inspect
from pathlib import Path

import pytest

import selfnorm
from selfnorm import bounds, cli, martingale, montecarlo, processes

SOURCES = sorted(Path(selfnorm.__file__).parent.glob("*.py"))
SUBMODULES = {source.stem for source in SOURCES} - {"__init__"}


def _public_definitions(module) -> set[str]:
    """The names a module's own top-level definitions and assignments bind,
    its imports aside, without a leading underscore."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("source", SOURCES, ids=lambda source: source.stem)
def test_modules_reach_each_other_through_the_module(source):
    # from the package a module imports only submodules and dunders, so it
    # binds no other module's names, and it reads no other module's
    # underscore names
    tree = ast.parse(source.read_text())
    modules, misuses = set(), []  # modules: the names bound to submodules
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module is None if node.level else node.module == "selfnorm"
        inside = node.level or node.module.split(".")[0] == "selfnorm"
        for alias in node.names if inside else ():
            if package and alias.name in SUBMODULES:
                modules.add(alias.asname or alias.name)
            elif not (package and alias.name.startswith("__")):
                misuses.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
    misuses += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_") and not node.attr.startswith("__")
    ]
    assert not misuses, f"{source.name}: {sorted(set(misuses))}"


def test_each_public_name_has_one_import_path():
    # the package binds no name of its own besides dunders and the
    # submodules imported so far, and no two submodules define the same name
    modules = (bounds, cli, martingale, montecarlo, processes)
    defined = [name for module in modules for name in _public_definitions(module)]
    assert len(defined) == len(set(defined))
    for name, value in vars(selfnorm).items():
        if not name.startswith("__"):
            assert inspect.ismodule(value), f"selfnorm binds {name!r}"
    assert not set(defined) & set(vars(selfnorm))


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
    assert _public_definitions(martingale) <= _benchmark_hooks()[martingale]


@pytest.mark.filterwarnings("ignore:Support for .*tool.setuptools")
def test_version_is_stated_once():
    # pyproject.toml reads the version from the package's literal
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(
        Path(__file__).parents[1] / "pyproject.toml", expand=True
    )
    assert config["project"]["version"] == selfnorm.__version__
