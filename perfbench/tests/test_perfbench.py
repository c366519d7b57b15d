"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
ALL_SPANS = set(tracing.SPANS)
CLI_ONLY = {"models.save_checkpoint", "models.load_checkpoint", "analysis.report_from_run",
            "cli.execute_job", "cli.write_csv", "cli.compare", "cli.analyze"}


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSelfTime:
    def test_nested_spans(self):
        # root 0..10, outer 1..7, inner 2..5
        tracer = tracing.Tracer(clock=fake_clock([0, 1, 2, 5, 7, 10]))
        inner = tracer.span("domains.one_hot", lambda: None)
        outer = tracer.span("models.forward", lambda: inner())
        with tracer.root():
            outer()
        assert tracer.stats["domains.one_hot"] == [1, 3]
        assert tracer.stats["models.forward"] == [1, 3]
        assert tracer.stats[tracing.ROOT_SPAN] == [1, 4]
        assert tracer.wall_s == 10
        assert tracer.self_sum() == tracer.wall_s

    def test_call_under_skip_span_stays_with_it(self):
        # root 0..10, forward_array 1..9; the forward inside it is not a span
        tracer = tracing.Tracer(clock=fake_clock([0, 1, 9, 10]))
        forward = tracer.span("models.forward", lambda: None,
                              skip_under="models.forward_array")
        forward_array = tracer.span("models.forward_array", lambda: forward())
        with tracer.root():
            forward_array()
        assert tracer.stats["models.forward"] == [0, 0.0]
        assert tracer.stats["models.forward_array"] == [1, 8]
        assert tracer.self_sum() == tracer.wall_s

    def test_span_closes_when_the_call_raises(self):
        tracer = tracing.Tracer(clock=fake_clock([0, 1, 4, 6]))

        def boom():
            raise ValueError("boom")

        with tracer.root():
            with pytest.raises(ValueError):
                tracer.span("domains.one_hot", boom)()
        assert tracer.stats["domains.one_hot"] == [1, 3]
        assert tracer.self_sum() == tracer.wall_s == 6


class TestPatching:
    def originals(self):
        return [(owner, attr, vars(owner)[attr])
                for owner, attr, _ in tracing.layer_patches(tracing.Tracer())]

    def test_wrappers_restored_after_trace(self):
        before = self.originals()
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
        assert all(vars(owner)[attr] is orig for owner, attr, orig in before)

    def test_wrappers_restored_after_error(self):
        before = self.originals()
        with pytest.raises(RuntimeError):
            with tracing.traced(tracing.Tracer()):
                raise RuntimeError("stop")
        assert all(vars(owner)[attr] is orig for owner, attr, orig in before)


@pytest.fixture(scope="module")
def short_traces(tmp_path_factory):
    table = workloads.make_workloads(small_steps=3, pooled_steps=3, wide_steps=2)
    out = {}
    for name, workload in table.items():
        workdir = tmp_path_factory.mktemp(name)
        out[name] = run.trace_pass(workloads, tracing, workload, seed=1, seconds=0,
                                   workdir=workdir)
    return out


@pytest.mark.parametrize("name,expected", [
    ("guided_small", ALL_SPANS - CLI_ONLY),
    ("guided_wide", ALL_SPANS - CLI_ONLY),
    ("pooled_lodo", ALL_SPANS),
])
def test_every_wrapper_fires_in_a_short_traced_run(short_traces, name, expected):
    metrics, extra, attempted, problems = short_traces[name]
    fired = {span for span in ALL_SPANS if metrics[f"{span}.calls"][0] > 0}
    assert fired == expected
    assert metrics["autodiff.tape_nodes"][0] > 0
    shares = sum(metrics[f"{span}.share"][0] for span in (*ALL_SPANS, tracing.ROOT_SPAN))
    assert shares == pytest.approx(1.0)
    if name == "pooled_lodo":
        assert metrics["train.optimizer.tensors"][0] == 6
        assert metrics["models.save_checkpoint.bytes"][0] > 0
        assert metrics["models.load_checkpoint.bytes"][0] > 0
        assert metrics["cli.write_csv.bytes"][0] > 0
    if name == "guided_small":
        assert metrics["train.optimizer.tensors"][0] == 24
    # Short runs differ from the reference; the repeated rounds must not.
    assert not [p for p in problems if "byte-identical" in p]


class TestChecks:
    def record(self, label="erm", digest="a", ood=0.5):
        return workloads.RunRecord(label, "erm", 10, wall_s=1.0, loss_digest=digest,
                                   ood_accuracy=ood)

    def test_repeat_with_other_digest_fails(self):
        first, same, other = self.record(), self.record(), self.record(digest="b")
        workloads.check_repeats([workloads.Round([first], 1.0, 1.0),
                                 workloads.Round([same], 1.0, 1.0),
                                 workloads.Round([other], 1.0, 1.0)])
        assert first.ok and same.ok and not other.ok

    def test_reference_digest_counted_ood_failed(self):
        reference = {"workloads": {"w": {
            "erm": {"ood_accuracy": 0.5, "loss_digest": "a"},
            "ls": {"ood_accuracy": 0.5, "loss_digest": "a"}}}}
        moved_bits = self.record(digest="b", ood=0.5 + workloads.OOD_TOLERANCE / 2)
        wrong = self.record(label="ls", ood=0.5 + 2 * workloads.OOD_TOLERANCE)
        unknown = self.record(label="kd_zz")
        assert workloads.check_reference("w", [moved_bits, wrong, unknown], reference) == 1
        assert moved_bits.ok and not wrong.ok and not unknown.ok


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "guided_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
