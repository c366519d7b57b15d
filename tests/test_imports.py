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
    # train and analysis import each other; either may be the first import.
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", f"import lfme_lab.{module}"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
