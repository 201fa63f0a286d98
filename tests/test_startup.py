"""Start-up of the package and of the CLI, each in a fresh interpreter:
``import selfnorm`` loads no numpy and sets nothing, and ``selfnorm.cli``
pins OpenBLAS to one thread before numpy loads unless the variable is set."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _fresh(code: str, **env: str) -> list[str]:
    """The stdout lines of code run by a fresh interpreter that imports
    selfnorm from src, with OPENBLAS_NUM_THREADS unset unless env sets it."""
    environ = {k: v for k, v in os.environ.items() if k != BLAS_THREADS}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env)
    done = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


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


def test_star_import_binds_every_exported_name():
    code = (
        "from selfnorm import *\n"
        "import selfnorm\n"
        "print(len(selfnorm.__all__))\n"
        "print([name for name in selfnorm.__all__ if name not in globals()])\n"
    )
    count, missing = _fresh(code)
    assert int(count) > 0
    assert missing == "[]"
