"""perfbench reaches src by name. These checks read perfbench and change nothing there;
they fail in the unit tests when a rename in src would break the benchmark run."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))       # as perfbench/tests/conftest.py does

from lfme_lab import cli  # noqa: E402
from perfbench.tracing import Tracer, layer_patches, patched  # noqa: E402
from perfbench.workloads import PooledCliWorkload  # noqa: E402


def test_every_layer_patch_resolves():
    # layer_patches looks each target up in its owner's namespace and raises if one is gone.
    patches = layer_patches(Tracer())
    assert all(attr in vars(owner) for owner, attr, _ in patches)
    originals = [vars(owner)[attr] for owner, attr, _ in patches]
    with patched(patches):
        assert all(vars(owner)[attr] is wrapper for owner, attr, wrapper in patches)
    assert [vars(owner)[attr] for owner, attr, _ in patches] == originals


def test_pooled_setup_resolves_the_plans_held_out_ids():
    config, seed, helds = PooledCliWorkload(steps=4).setup(0)
    assert (seed, helds) == (0, [0, 1, 2, 3])
    assert cli.validate_config(config).held_out == helds
