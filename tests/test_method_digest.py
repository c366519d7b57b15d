"""Every method kind still computes bitwise the runs its recorded digest pins.

``tools/method_digest.py`` trains all 16 kinds under Adam and SGD and hashes
every output of each run. The hashes below were recorded with numpy 2.4.6 on
scipy-openblas 0.3.31; another numpy or BLAS may round differently, so the
check runs only on those versions. The 2-source digest is checked once more
under ``OPENBLAS_NUM_THREADS=1``: the BLAS thread count changes no result.
The four subprocesses run two at a time.
"""
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import lfme_lab

pytestmark = pytest.mark.acceptance

SRC = Path(lfme_lab.__file__).resolve().parent.parent
TOOL = Path(__file__).resolve().parent.parent / "tools" / "method_digest.py"
DIGESTS = {
    2: "b1c783cdd4d43662d3b70f9acc93676268f643f97b9c911adec40a4d0ec67f6e",
    3: "9387302ccfaeec07673db73c17b7eb5277bc5e7f235274f17dc0a92bc2292a72",
    5: "1e2962fa470bc8be3efa7f0af283e117049b63f139a4e23e228b4bd9939aee48",
}


def recorded_versions() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return (np.__version__ == "2.4.6" and blas.get("name") == "scipy-openblas"
            and str(blas.get("version", "")).startswith("0.3.31"))


recorded = pytest.mark.skipif(not recorded_versions(), reason="digests were recorded with "
                              "numpy 2.4.6 and scipy-openblas 0.3.31")


def digest(n_sources: int, **env) -> str:
    proc = subprocess.run([sys.executable, str(TOOL), str(SRC), str(n_sources)],
                          capture_output=True, text=True, timeout=600, env={**os.environ, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def digests():
    """Every digest run of this module, started two at a time when the first test that
    runs asks for one; a skipped test asks for none, so starts no subprocess."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = {n: pool.submit(digest, n) for n in sorted(DIGESTS)}
        runs["one thread"] = pool.submit(digest, 2, OPENBLAS_NUM_THREADS="1")
        yield runs


@recorded
@pytest.mark.parametrize("n_sources", sorted(DIGESTS))
def test_overall_digest_is_unchanged(digests, n_sources):
    assert digests[n_sources].result() == f"overall {DIGESTS[n_sources]}"


@recorded
def test_digest_on_one_blas_thread_is_unchanged(digests):
    assert digests["one thread"].result() == f"overall {DIGESTS[2]}"
