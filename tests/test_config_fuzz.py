"""Property tests: a JSON value under any known config key makes ``lfme train``,
``compare`` or ``gen`` succeed (exit 0) or report a configuration error (exit 1), never
fail with exit 2; so does any ``alpha_grid`` value under ``lfme sweep``."""

import json
import tempfile
from dataclasses import fields

import pytest

from lfme_lab import cli
from lfme_lab.domains import SuiteSpec
from lfme_lab.train import MethodSpec, TrainConfig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# Every key a config may set, except suite.csv (CSV ingestion, which takes no other key).
# ``exit_code`` always passes --output, so a drawn ``output`` value never names a real path.
KEYS = (["suite", "train", "methods", "seeds", "held_out", "output", "alpha_grid"]
        + [f"{section}.{f.name}" for section, spec in
           (("suite", SuiteSpec), ("train", TrainConfig), ("methods[0]", MethodSpec))
           for f in sorted(fields(spec), key=lambda f: f.name)])
COMMANDS = ["train", "compare", "gen"]

# Small integers keep a generated suite or network small enough to train in milliseconds.
# Integers and integer lists are drawn as often as all other JSON values together, since
# most keys take one of them.
INTS = st.integers(-3, 12)
SCALARS = st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=4)
JSON_VALUES = INTS | st.lists(INTS, max_size=3) | st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)

# A small base run, so each example trains one step in a few milliseconds.
BASE = ["suite.n_per_domain=30", "suite.n_domains=2", 'held_out="last"',
        "train.batch_per_domain=8", "train.hidden_dims=[4]", "train.probe_per_domain=5"]


def set_arg(key: str, value) -> str:
    if key.startswith("methods[0]."):
        method = {"kind": "lfme", key.split(".", 1)[1]: value}
        return "methods=" + json.dumps([method])
    return f"{key}={json.dumps(value)}"


def exit_code(command: str, *sets: str) -> int:
    with tempfile.TemporaryDirectory() as out:
        argv = [command, "--output", out]
        # train.steps=1 comes last, so no drawn value lengthens a run past one step.
        for item in [*BASE, *sets, "train.steps=1"]:
            argv += ["--set", item]
        return cli.main(argv)


def test_base_run_trains():
    assert exit_code("train") == 0


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(command=st.sampled_from(COMMANDS), key=st.sampled_from(KEYS), value=JSON_VALUES)
@example(command="train", key="seeds", value=[0, -1])  # once a raw ValueError from SeedSequence
@example(command="train", key="train.probe_per_domain", value=-1)   # once a ValueError from rng.choice
@example(command="compare", key="methods[0].kind", value=0)     # once a TypeError joining paths
@example(command="train", key="suite.noise", value=10 ** 22)    # once a TypeError from np.isfinite
def test_any_value_under_a_known_key_is_a_run_or_a_config_error(command, key, value):
    assert exit_code(command, set_arg(key, value)) in (0, 1)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(grid=JSON_VALUES | st.lists(st.floats(min_value=0.0), max_size=3))
@example(grid=[])                       # once an IndexError
@example(grid=["x"])                    # once a ValueError
@example(grid=5)                        # once a TypeError
@example(grid=[1e200])                  # once an AnalysisError on a constant probe row
def test_any_alpha_grid_is_a_sweep_or_a_config_error(grid):
    assert exit_code("sweep", f"alpha_grid={json.dumps(grid)}") in (0, 1)
