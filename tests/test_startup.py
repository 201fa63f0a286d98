"""Start-up and exit of the package and of the CLI, each in a fresh
interpreter: ``import selfnorm`` loads no numpy and sets nothing, and
``selfnorm.cli`` pins OpenBLAS to one thread before numpy loads unless the
variable is set, and freezes the garbage collector's objects once its
imports are done.  A command run as the console script exits as it does
through ``cli.main`` in process."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selfnorm import cli

SRC = Path(__file__).parents[1] / "src"
BLAS_THREADS = "OPENBLAS_NUM_THREADS"
# what the installed ``selfnorm`` console script runs
ENTRY = "import sys; from selfnorm.cli import main; sys.exit(main())"


def _run(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """code, given args, run by a fresh interpreter that imports selfnorm
    from src, with OPENBLAS_NUM_THREADS unset unless env sets it."""
    environ = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env)
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=environ, capture_output=True, timeout=60
    )


def _fresh(code: str, **env: str) -> list[str]:
    """The stdout lines of code run by _run, which must exit 0."""
    done = _run(code, **env)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode().splitlines()


def test_package_import_loads_no_numpy_and_sets_nothing():
    code = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import selfnorm\n"
        "print('numpy' in sys.modules)\n"
        "print(dict(os.environ) == before)\n"
    )
    assert _fresh(code) == ["False", "True"]


def test_cli_pins_openblas_to_one_thread():
    code = (
        "import os, selfnorm.cli\n"
        f"print(os.environ[{BLAS_THREADS!r}])\n"
        # the threads of this process, where the system lists them
        "tasks = '/proc/self/task'\n"
        "print(len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)\n"
    )
    assert _fresh(code) == ["1", "1"]


def test_cli_keeps_a_preset_thread_count():
    code = f"import os, selfnorm.cli\nprint(os.environ[{BLAS_THREADS!r}])\n"
    assert _fresh(code, **{BLAS_THREADS: "3"}) == ["3"]


def test_star_import_binds_nothing():
    # each name is imported from its submodule; the package offers none
    code = (
        "import sys\n"
        "before = set(globals())\n"
        "from selfnorm import *\n"
        "print(sorted(set(globals()) - before - {'before'}))\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _fresh(code) == ["[]", "False"]


def test_cli_freezes_its_start_up_objects_and_keeps_collecting():
    code = "import gc, selfnorm.cli\nprint(gc.isenabled())\nprint(gc.get_freeze_count() > 0)\n"
    assert _fresh(code) == ["True", "True"]


def test_library_imports_freeze_nothing():
    code = (
        "import gc, selfnorm, selfnorm.processes, selfnorm.montecarlo\n"
        "print(gc.get_freeze_count())\n"
    )
    assert _fresh(code) == ["0"]


def test_repeated_main_calls_freeze_nothing(capsys):
    frozen = [gc.get_freeze_count()]
    for _ in range(2):
        assert cli.main(["simulate", "ar1", "--n", "2000", "--seed", "4"]) == 0
        frozen.append(gc.get_freeze_count())
    # the first call of a process may free a few frozen objects; no call
    # adds any
    assert frozen[0] >= frozen[1] == frozen[2]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "idla-scaled", "--n", "100", "--reps", "2000", "--seed", "4"], 0),
        (["simulate", "ar1", "--n", "5000"], 0),
        (["simulate", "learn", "--n", "3000", "--format", "json", "--out"], 0),
        (["simulate", "ar1", "--n", "0"], 2),
    ],
    ids=["verify", "simulate-csv", "simulate-json-out", "bad-input"],
)
def test_console_script_exits_as_main_does(capsys, tmp_path, argv, code):
    """The golden corpus runs cli.main in process only; these commands run
    to interpreter exit, the three that succeed through fan_out's forked
    children when two CPUs are usable."""
    out = tmp_path / "out"
    if argv[-1] == "--out":
        argv = [*argv, str(out)]
    done = _run(ENTRY, *argv)
    fresh = out.read_bytes() if out.exists() else done.stdout
    out.unlink(missing_ok=True)
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert done.returncode == code
    assert done.stderr.decode() == captured.err
    assert fresh == (out.read_bytes() if out.exists() else captured.out.encode())
    if code == 0:
        assert fresh and captured.err == ""
    else:
        assert captured.err.startswith("error: ")
