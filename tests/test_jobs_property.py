"""Property test: ``lfme train --jobs 1`` and ``--jobs 2`` write the same tree.

Over small random plans (2-4 sources, 1-3 method kinds with at least one that trains
experts, 1-2 seeds, a held-out list, 2-20 steps, at least 2 (seed, held-out) groups so
that ``--jobs 2`` forks a pool), every file of the two trees is byte-equal,
``compare``'s summaries included, except ``config.json``'s ``output``. Two fixed plans
run first as examples: erm with lfme, and the kinds with their own trained state
(lfme_guid's teacher, agg_dyn's weighting net, kd_ce's ramp).
"""
import json
import tempfile
from pathlib import Path

import pytest

from lfme_lab import cli
from lfme_lab import train as tr

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

EXPERT_KINDS = [kind for kind, row in tr.METHODS.items() if row.experts]


@st.composite
def plans(draw):
    """A small ``train`` config over a synthetic suite of 2-4 sources."""
    n_sources = draw(st.integers(2, 4))
    first = draw(st.sampled_from(EXPERT_KINDS))
    kinds = [first] + draw(st.lists(st.sampled_from([k for k in tr.METHOD_KINDS if k != first]),
                                    max_size=2, unique=True))
    seeds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))
    return {
        "suite": {"n_domains": n_sources, "n_classes": 3, "n_per_domain": 40,
                  "d_inv": 2, "d_spu": 2},
        "train": {"steps": draw(st.integers(2, 20)), "eval_every": draw(st.integers(1, 10)),
                  "batch_per_domain": 4, "hidden_dims": [8], "probe_per_domain": 5},
        "methods": [{"kind": k} for k in kinds],
        "seeds": seeds,
        "held_out": draw(st.lists(st.integers(0, n_sources), min_size=3 - len(seeds),
                                  max_size=n_sources + 1, unique=True)),
    }


def fixed_plan(kinds, seeds, steps):
    """A plan of 2 sources, 150 examples per domain and domain 2 held out."""
    return {"suite": {"n_domains": 2, "n_classes": 3, "n_per_domain": 150, "d_inv": 3,
                      "d_spu": 3, "spurious_strength": 0.8, "noise": 0.4},
            "train": {"steps": steps, "eval_every": steps // 2, "batch_per_domain": 16},
            "methods": [{"kind": k} for k in kinds], "seeds": seeds, "held_out": [2]}


def tree(config: dict, root: Path, jobs: int) -> dict:
    """Every file that ``train --jobs <jobs>`` and then ``compare`` write, by relative path."""
    out = root / f"jobs{jobs}"
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    tr._expert_memo.clear()         # each side trains its own experts
    assert cli.main(["train", "-c", str(cfg), "-o", str(out), "--jobs", str(jobs)]) == 0
    assert cli.main(["compare", "-c", str(cfg), "-o", str(out)]) == 0
    files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    written = json.loads(files.pop(Path("config.json")))
    assert written.pop("output") == str(out)
    return {**files, "config.json": written}


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(config=plans())
@example(config=fixed_plan(["erm", "lfme"], [0, 1], 60))
@example(config=fixed_plan(["lfme", "lfme_guid", "agg_dyn", "kd_ce"], [1, 0], 30))
def test_one_and_two_jobs_write_the_same_tree(config):
    with tempfile.TemporaryDirectory() as root:
        serial = tree(config, Path(root), 1)
        assert Path("summary.csv") in serial
        runs = len(config["methods"]) * len(config["seeds"]) * len(config["held_out"])
        assert sum(p.name == "run.json" for p in serial if isinstance(p, Path)) == runs
        assert tree(config, Path(root), 2) == serial
