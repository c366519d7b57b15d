import os
import subprocess
import sys
from pathlib import Path

import pytest

import lfme_lab

SRC = Path(lfme_lab.__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (SRC / "lfme_lab").glob("*.py") if p.stem != "__init__")


def test_module_list_is_complete():
    assert {"analysis", "autodiff", "cli", "domains", "models", "train"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_fresh_interpreter(module):
    # Each module, imported first, pulls in the modules it needs in a working order.
    proc = run_fresh(f"import lfme_lab.{module}")
    assert proc.returncode == 0, proc.stderr


def test_cli_and_the_default_suite_leave_heavy_modules_unimported():
    # The process pool needs multiprocessing only when a command asks for workers,
    # and nothing on this path needs numpy.ma.
    proc = run_fresh("import sys; from lfme_lab import cli; cli.generate_suite(cli.SuiteSpec()); "
                     "print(sorted({'multiprocessing', 'numpy.ma'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ``lfme_lab`` from this tree."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
