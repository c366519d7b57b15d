"""Property tests of the expert memo over small random configs and every method kind.

A run that replays its experts, a run that trains them live, and a live run that
records nothing (``EXPERT_MEMO_BYTES`` at 0) digest equal through
``tools/method_digest.py``. The memo's key changes with every input the experts'
trajectory reads, and a change to the val split alone, which it never reads, still
hits and digests as a live run on the changed data.
"""
import dataclasses
import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lfme_lab import analysis as an
from lfme_lab import train as tr
from lfme_lab.domains import SuiteSpec, generate_suite

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

TOOL = Path(__file__).resolve().parent.parent / "tools" / "method_digest.py"
_spec = importlib.util.spec_from_file_location("method_digest", TOOL)
method_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(method_digest)

EXPERT_KINDS = [kind for kind, row in tr.METHODS.items() if row.experts]


@functools.cache
def suite(n_sources):
    """``n_sources`` small source domains of 3 classes, and one held-out domain."""
    domains = generate_suite(SuiteSpec(n_domains=n_sources + 1, n_classes=3, n_per_domain=40,
                                       d_inv=2, d_spu=2, seed=n_sources))
    return domains[:-1], domains[-1]


@st.composite
def jobs(draw, kinds=st.sampled_from(tr.METHOD_KINDS)):
    """(number of sources, method, config): 2-5 sources, 1-3 hidden layers of 1-16 units,
    1-8 rows per domain, and steps that may or may not end on an eval point."""
    method = tr.MethodSpec(draw(kinds), alpha_half=draw(st.sampled_from([0.0, 0.4, 3.0])),
                           ramp_steps=draw(st.none() | st.integers(0, 12)),
                           hard_weight_beta=draw(st.sampled_from([0.0, 0.5, 1.0])))
    config = tr.TrainConfig(
        optimizer=draw(st.sampled_from(["adam", "sgd"])), lr=draw(st.sampled_from([1e-3, 0.05])),
        steps=draw(st.integers(1, 12)), eval_every=draw(st.integers(1, 8)),
        batch_per_domain=draw(st.integers(1, 8)), seed=draw(st.integers(0, 3)),
        hidden_dims=tuple(draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))),
        probe_per_domain=5)
    return draw(st.integers(2, 5)), method, config


def digest(sources, held, method, config):
    run = tr.run_method(sources, method, config, held_out=held)
    return method_digest.run_digest(run, an.report_from_run(run))


SMALL = dict(batch_per_domain=4, hidden_dims=(8,), probe_per_domain=5)


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@given(job=jobs())
@example(job=(3, tr.MethodSpec(tr.LFME), tr.TrainConfig(steps=5, eval_every=8, **SMALL)))
@example(job=(2, tr.MethodSpec(tr.AGG_DYN), tr.TrainConfig(steps=7, eval_every=3, **SMALL)))
def test_replayed_live_and_unrecorded_runs_digest_equal(expert_builds, job):
    n_sources, method, config = job
    sources, held = suite(n_sources)
    tr._expert_memo.clear()
    expert_builds.clear()
    live = digest(sources, held, method, config)
    trains_experts = tr.METHODS[method.kind].experts or method.kind == tr.LFME_GUID
    assert len(expert_builds) == trains_experts
    assert digest(sources, held, method, config) == live
    assert len(expert_builds) == trains_experts          # the second run replayed
    tr._expert_memo.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tr, "EXPERT_MEMO_BYTES", 0)
        assert digest(sources, held, method, config) == live
        assert tr._expert_memo == {}


@settings(derandomize=True, database=None, max_examples=50, deadline=None,
          suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@given(job=jobs(kinds=st.sampled_from(EXPERT_KINDS)), data=st.data())
def test_a_val_split_change_hits_and_digests_as_live(expert_builds, job, data):
    n_sources, method, config = job
    sources, held = suite(n_sources)
    i = data.draw(st.integers(0, n_sources - 1))
    val_idx = sources[i].val_idx
    changed = list(sources)
    changed[i] = dataclasses.replace(
        sources[i], val_idx=np.delete(val_idx, data.draw(st.integers(0, len(val_idx) - 1))))
    tr._expert_memo.clear()
    expert_builds.clear()
    tr.run_method(sources, method, config, held_out=held)
    hit = digest(changed, held, method, config)
    assert len(expert_builds) == 1
    tr._expert_memo.clear()
    assert digest(changed, held, method, config) == hit


def changed_field(draw, config):
    name = draw(st.sampled_from([f.name for f in dataclasses.fields(tr.TrainConfig)]))
    value = getattr(config, name)
    if name == "optimizer":
        value = "sgd" if value == "adam" else "adam"
    elif name == "hidden_dims":
        value = (*value, 2)
    else:
        value = value + 1 if isinstance(value, int) else value * 2
    return dataclasses.replace(config, **{name: value})


def changed_array(draw, sources):
    """The sources with one element of one source's features, labels or train split changed."""
    i = draw(st.integers(0, len(sources) - 1))
    ds = sources[i]
    name = draw(st.sampled_from(["features", "labels", "train_idx"]))
    array = getattr(ds, name).copy()
    j = draw(st.integers(0, array.size - 1))
    if name == "features":
        array.flat[j] += 1.0
    elif name == "labels":
        array[j] = (array[j] + 1) % ds.n_classes
    else:
        array[j] = ds.val_idx[0]
    return [*sources[:i], dataclasses.replace(ds, **{name: array}), *sources[i + 1:]]


def dims_of(sources, config):
    return [sources[0].features.shape[1], *config.hidden_dims, sources[0].n_classes]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(job=jobs(), data=st.data())
def test_the_key_changes_with_every_input_the_experts_read(job, data):
    n_sources, _, config = job
    sources, _ = suite(n_sources)
    key = tr.expert_key(sources, config, dims_of(sources, config))
    if data.draw(st.booleans()):
        config = changed_field(data.draw, config)
    else:
        sources = changed_array(data.draw, sources)
    assert tr.expert_key(sources, config, dims_of(sources, config)) != key
