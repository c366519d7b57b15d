"""perfbench reaches src by name. These checks read perfbench and change nothing there;
they fail in the unit tests when a rename in src would break the benchmark run."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))       # as perfbench/tests/conftest.py does

from lfme_lab import cli  # noqa: E402
from perfbench.tracing import Tracer, layer_patches, patched, traced  # noqa: E402
from perfbench.workloads import PooledCliWorkload, make_workloads  # noqa: E402


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


def test_in_process_setup_validates_the_specs_it_builds():
    # InProcessWorkload.setup calls TrainConfig.validate and MethodSpec.validate by name.
    _, _, config, methods = make_workloads(small_steps=4)["guided_small"].setup(0)
    assert config.validate() is None
    assert [m.validate() for _, m in methods] == [None] * 4


def test_pooled_round_runs_compare_and_analyze(tmp_path):
    # The round's check expects one entropy_summary.csv row per method and held-out id.
    # Traced, the byte counters read the path off save_checkpoint's args[1] and
    # load_checkpoint's args[0]: each of the 16 runs writes a target.ckpt analyze reads.
    tracer, workload = Tracer(), PooledCliWorkload(steps=4)
    state = workload.setup(0)
    with traced(tracer):
        records = workload.run_round(state, tmp_path, serial=True).records
    assert len(records) == 16
    assert all(rec.ok for rec in records), [rec.problem for rec in records]
    assert tracer.stats["models.save_checkpoint"][0] == 16
    assert tracer.stats["models.load_checkpoint"][0] == 16
    saved = tracer.counts["models.save_checkpoint.bytes"]
    assert saved == tracer.counts["models.load_checkpoint.bytes"] and saved > 0
