"""Property tests: a JSON value under any known config key makes ``lfme train``,
``compare`` or ``gen`` succeed (exit 0) or report a configuration error (exit 1), never
fail with exit 2; so does any ``alpha_grid`` value under ``lfme sweep``. A value that
breaks its own field's ``checked`` declaration is reported under that field's key."""

import contextlib
import io
import json
import operator
import tempfile
from dataclasses import fields

import numpy as np

import pytest

from lfme_lab import cli
from lfme_lab.domains import SuiteSpec
from lfme_lab.train import MethodSpec, TrainConfig

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# Every key a config may set, except suite.csv (CSV ingestion, which takes no other key).
# ``exit_code`` always passes --output, so a drawn ``output`` value never names a real path.
FIELDS = {f"{section}.{f.name}": f for section, spec in
          (("suite", SuiteSpec), ("train", TrainConfig), ("methods[0]", MethodSpec))
          for f in sorted(fields(spec), key=lambda f: f.name)}
KEYS = ["suite", "train", "methods", "seeds", "held_out", "output", "alpha_grid", *FIELDS]
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


COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def breaks_declaration(key: str, value) -> bool:
    """Whether ``value`` breaks the kind or a bound that ``key``'s field declares."""
    f = FIELDS.get(key)
    if f is None or "check" not in f.metadata or (value is None and f.default is None):
        return False
    kind, _, bounds, each = f.metadata["check"]
    if each and not isinstance(value, list):
        return True
    try:
        return not all(type(v) is not bool and isinstance(v, kind) and np.isfinite(v)
                       and all(COMPARE[op](v, float(b)) for op, b in map(str.split, bounds))
                       for v in (value if each else [value]))
    except TypeError:       # an integer past 64 bits
        return True


def run(command: str, *sets: str) -> tuple[int, str]:
    """The exit code and standard error of ``lfme <command>`` over ``BASE`` and ``sets``."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        argv = [command, "--output", out]
        # A run takes one step unless a drawn value sets train.steps, which INTS caps at 12.
        steps = [] if any(item.startswith("train.steps=") for item in sets) else ["train.steps=1"]
        for item in [*BASE, *sets, *steps]:
            argv += ["--set", item]
        return cli.main(argv), err.getvalue()


def test_base_run_trains():
    assert run("train")[0] == 0


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(command=st.sampled_from(COMMANDS), key=st.sampled_from(KEYS), value=JSON_VALUES)
@example(command="train", key="seeds", value=[0, -1])  # once a raw ValueError from SeedSequence
@example(command="train", key="train.probe_per_domain", value=-1)   # once a ValueError from rng.choice
@example(command="compare", key="methods[0].kind", value=0)     # once a TypeError joining paths
@example(command="train", key="suite.noise", value=10 ** 22)    # once a TypeError from np.isfinite
@example(command="train", key="train.hidden_dims", value=[True])
def test_any_value_under_a_known_key_is_a_run_or_a_config_error(command, key, value):
    code, err = run(command, set_arg(key, value))
    assert code in (0, 1)
    if breaks_declaration(key, value):
        assert code == 1 and err.startswith(f"error: config.{key}")


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(grid=JSON_VALUES | st.lists(st.floats(min_value=0.0), max_size=3))
@example(grid=[])                       # once an IndexError
@example(grid=["x"])                    # once a ValueError
@example(grid=5)                        # once a TypeError
@example(grid=[1e200])                  # once an AnalysisError on a constant probe row
def test_any_alpha_grid_is_a_sweep_or_a_config_error(grid):
    assert run("sweep", f"alpha_grid={json.dumps(grid)}")[0] in (0, 1)
