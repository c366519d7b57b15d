"""The expert memo: a run replays the experts the last expert-training run recorded.

A replayed run must be bitwise the run it replaces, so each hit here is compared
with a live run of the same job through ``tools/method_digest.py``'s digest of
every output. A run trains its experts live exactly when it calls
``models.stack_models``, which the tests count.
"""
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from lfme_lab import analysis as an
from lfme_lab import models as mm
from lfme_lab import train as tr
from lfme_lab.domains import SuiteSpec, generate_suite

TOOL = Path(__file__).resolve().parent.parent / "tools" / "method_digest.py"
_spec = importlib.util.spec_from_file_location("method_digest", TOOL)
method_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(method_digest)

EXPERT_KINDS = [kind for kind, row in tr.METHODS.items() if row.experts]


@pytest.fixture(scope="module")
def suite():
    return generate_suite(SuiteSpec(n_domains=3, n_classes=4, n_per_domain=300, d_inv=4,
                                    d_spu=4, spurious_strength=0.8, noise=0.4, seed=21))


@pytest.fixture
def expert_builds(monkeypatch):
    """How many runs so far trained their experts live."""
    calls, stack_models = [], mm.stack_models

    def counting_stack_models(models):
        calls.append(len(models))
        return stack_models(models)

    monkeypatch.setattr(mm, "stack_models", counting_stack_models)
    return calls


def config(**kw):
    return tr.TrainConfig(**{"steps": 40, "eval_every": 15, "batch_per_domain": 16, "seed": 3,
                             **kw})


def digest(suite, method, train_config):
    run = tr.run_method(suite[:3], method, train_config, held_out=suite[3])
    return method_digest.run_digest(run, an.report_from_run(run))


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("alpha_half", [0.0, 0.7])
@pytest.mark.parametrize("kind", EXPERT_KINDS)
def test_a_hit_is_bitwise_the_live_run(suite, expert_builds, kind, alpha_half, optimizer):
    # The trajectory is recorded by a kind of the other shape: one without a head
    # for a kind with one, and the other way round.
    method, cfg = tr.MethodSpec(kind, alpha_half=alpha_half), config(optimizer=optimizer)
    live = digest(suite, method, cfg)
    tr._expert_memo.clear()
    recorder = tr.AGG_AVG if tr.METHODS[kind].weighting or not tr.METHODS[kind].aggregate \
        else tr.LFME
    tr.run_method(suite[:3], tr.MethodSpec(recorder), cfg, held_out=suite[3])
    assert len(expert_builds) == 2
    assert digest(suite, method, cfg) == live
    assert len(expert_builds) == 2


def test_lfme_guid_teacher_replays_an_earlier_lfme(suite, expert_builds):
    method, cfg = tr.MethodSpec(tr.LFME_GUID, alpha_half=0.7), config()
    live = digest(suite, method, cfg)
    tr._expert_memo.clear()
    tr.run_method(suite[:3], tr.MethodSpec(tr.LFME, alpha_half=0.7), cfg, held_out=suite[3])
    assert len(expert_builds) == 2
    assert digest(suite, method, cfg) == live
    assert len(expert_builds) == 2


def flipped_feature(suite):
    first = suite[0]
    features = first.features.copy()
    row = first.train_idx[0]
    features[row, 0] = -features[row, 0]
    return [dataclasses.replace(first, features=features), *suite[1:]]


@pytest.mark.parametrize("change", ["feature", "lr", "eval_every"])
def test_a_changed_input_misses(suite, expert_builds, change):
    method, cfg = tr.MethodSpec(tr.LFME), config()
    tr.train_run(suite[:3], method, cfg)
    if change == "feature":
        suite = flipped_feature(suite)
    else:
        cfg = dataclasses.replace(cfg, **{change: getattr(cfg, change) * 2})
    tr.train_run(suite[:3], method, cfg)
    assert len(expert_builds) == 2
    tr.train_run(suite[:3], method, cfg)
    assert len(expert_builds) == 2


def test_hidden_dims_as_list_or_tuple_share_one_key(suite):
    assert tr.expert_key(suite[:3], config(hidden_dims=[64, 64]), [8, 64, 64, 4]) \
        == tr.expert_key(suite[:3], config(hidden_dims=(64, 64)), [8, 64, 64, 4])


def test_a_run_that_raises_publishes_nothing(suite, monkeypatch):
    cfg = config()
    tr.train_run(suite[:3], tr.MethodSpec(tr.LFME), cfg)
    assert len(tr._expert_memo) == 1
    make_batches = tr.make_batches

    def failing_make_batches(sources, batch_per_domain, seed, step):
        if step == 30:
            raise RuntimeError("stop mid-run")
        return make_batches(sources, batch_per_domain, seed, step)

    monkeypatch.setattr(tr, "make_batches", failing_make_batches)
    with pytest.raises(RuntimeError, match="mid-run"):
        tr.train_run(suite[:3], tr.MethodSpec(tr.LFME), dataclasses.replace(cfg, lr=0.01))
    assert tr._expert_memo == {}


def test_the_memo_holds_at_most_one_entry(suite, monkeypatch):
    # While a run records, the old entry is already gone.
    seen, evaluate = [], tr._evaluate

    def recording_evaluate(step, *args):
        seen.append(len(tr._expert_memo))
        return evaluate(step, *args)

    monkeypatch.setattr(tr, "_evaluate", recording_evaluate)
    for lr in (1e-3, 2e-3, 1e-3):
        tr.train_run(suite[:3], tr.MethodSpec(tr.AGG_AVG), config(lr=lr))
        assert len(tr._expert_memo) == 1
    assert seen == [0] * 9
    tr.train_run(suite[:3], tr.MethodSpec(tr.AGG_AVG), config(lr=1e-3))
    assert seen[9:] == [1] * 3


def test_recorded_arrays_are_read_only_and_shared(suite):
    runs = [tr.train_run(suite[:3], tr.MethodSpec(kind), config(), held_out=suite[3])
            for kind in (tr.LFME, tr.AGG_DYN)]
    (entry,) = tr._expert_memo.values()
    assert entry.logits.shape == (40, 3 * 16, 4) and entry.terms.shape == (40,)
    for run in runs:
        assert len(run.evals) == len(entry.params) == 3
        for ev, recorded in zip(run.evals, entry.params):
            assert all(a is b for arrays, kept in zip(ev.expert_params, recorded)
                       for a, b in zip(arrays, kept))
    for array in (entry.logits, entry.terms, entry.params[0][1][0]):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_a_trajectory_over_the_cap_is_not_kept(suite, monkeypatch):
    cfg, method = config(), tr.MethodSpec(tr.LFME)
    kept = digest(suite, method, cfg)
    (entry,) = tr._expert_memo.values()
    size = entry.logits.nbytes + entry.terms.nbytes + sum(
        a.nbytes for point in entry.params for arrays in point for a in arrays)
    for cap, entries in ((size - 1, 0), (size, 1)):
        tr._expert_memo.clear()
        monkeypatch.setattr(tr, "EXPERT_MEMO_BYTES", cap)
        assert digest(suite, method, cfg) == kept
        assert len(tr._expert_memo) == entries
