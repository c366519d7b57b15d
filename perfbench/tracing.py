"""Span tracing from outside the package: wrap public functions, time self time.

``Tracer`` keeps one aggregate per span name (calls and self time) and a set
of plain counts, all in memory. A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of every span
under a root, plus the root's own self time, sum to the root's duration.

``layer_patches`` lists where each layer is wrapped. A function is patched
under the name its caller looks it up by: ``cli`` holds its own
``generate_suite`` and ``report_from_run``, and ``train`` its own
``make_batches`` and ``one_hot``.
"""

from __future__ import annotations

import contextlib
import os
import time

ROOT_SPAN = "bench.unit"

SPANS = (
    "domains.generate_suite", "domains.make_batches", "domains.one_hot",
    "autodiff.backward", "autodiff.accumulate_grad", "autodiff.loss_ops",
    "models.forward", "models.forward_array",
    "models.save_checkpoint", "models.load_checkpoint",
    "train.optimizer_step", "train.evaluate", "train.train_run",
    "analysis.report_from_run",
    "cli.execute_job", "cli.write_csv", "cli.compare", "cli.analyze",
)
COUNTS = (
    "autodiff.tape_nodes", "models.save_checkpoint.bytes", "models.load_checkpoint.bytes",
    "cli.write_csv.bytes", "train.optimizer.tensors",
)
LOSS_OPS = ("softmax", "cross_entropy", "cross_entropy_rows", "mse", "add", "scale", "sum_all")


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore the originals on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: [0, 0.0] for name in (ROOT_SPAN, *SPANS)}   # calls, self_s
        self.counts = {name: 0 for name in COUNTS}
        self.wall_s = 0.0           # summed duration of root spans
        self._stack = []            # open spans: [child_s, name]

    @contextlib.contextmanager
    def root(self):
        frame = [0.0, ROOT_SPAN]
        self._stack.append(frame)
        t0 = self.clock()
        try:
            yield
        finally:
            dur = self.clock() - t0
            self._stack.pop()
            stat = self.stats[ROOT_SPAN]
            stat[0] += 1
            stat[1] += dur - frame[0]
            self.wall_s += dur

    def span(self, name, fn, *, after=None, skip_under=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` runs once it closes.

        Calls made directly inside an open ``skip_under`` span are not
        recorded, so their time stays with that span.
        """
        clock, stack, stat = self.clock, self._stack, self.stats.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            if skip_under is not None and stack[-1][1] == skip_under:
                return fn(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dur - frame[0]
                stack[-1][0] += dur
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def add(self, name, amount):
        self.counts[name] += amount

    def self_sum(self) -> float:
        return sum(s for _, s in self.stats.values())


def layer_patches(tracer: Tracer):
    """(owner, attr, wrapper) triples wrapping every layer of lfme-lab."""
    from lfme_lab import analysis, autodiff, cli, models, train, domains

    def wrap(owner, attr, name, **kw):
        return (owner, attr, tracer.span(name, vars(owner)[attr], **kw))

    def file_bytes(name, path_arg):
        return lambda result, args: tracer.add(name, os.path.getsize(args[path_arg]))

    def optimizer_step(owner):
        return wrap(owner, "step", "train.optimizer_step",
                    after=lambda result, args: tracer.add("train.optimizer.tensors",
                                                          len(args[0].params)))

    trace = vars(autodiff.GraphTape)["trace"].__func__

    def counted_trace(cls, root):
        tape = trace(cls, root)
        tracer.add("autodiff.tape_nodes", len(tape.nodes))
        return tape

    return [
        wrap(domains, "generate_suite", "domains.generate_suite"),
        wrap(cli, "generate_suite", "domains.generate_suite"),
        wrap(train, "make_batches", "domains.make_batches"),
        wrap(train, "one_hot", "domains.one_hot"),
        wrap(autodiff, "backward", "autodiff.backward"),
        wrap(autodiff.Tensor, "accumulate_grad", "autodiff.accumulate_grad"),
        *(wrap(autodiff, op, "autodiff.loss_ops") for op in LOSS_OPS),
        (autodiff.GraphTape, "trace", classmethod(counted_trace)),
        # forward_array calls forward; that call stays evaluation time.
        wrap(models, "forward", "models.forward", skip_under="models.forward_array"),
        wrap(models, "forward_array", "models.forward_array"),
        wrap(models, "save_checkpoint", "models.save_checkpoint",
             after=file_bytes("models.save_checkpoint.bytes", 1)),
        wrap(models, "load_checkpoint", "models.load_checkpoint",
             after=file_bytes("models.load_checkpoint.bytes", 0)),
        optimizer_step(train.Adam),
        optimizer_step(train.SgdMomentum),
        wrap(train, "_evaluate", "train.evaluate"),
        wrap(train, "train_run", "train.train_run"),
        wrap(analysis, "report_from_run", "analysis.report_from_run"),
        wrap(cli, "report_from_run", "analysis.report_from_run"),
        wrap(cli, "execute_job", "cli.execute_job"),
        wrap(cli, "write_csv", "cli.write_csv", after=file_bytes("cli.write_csv.bytes", 0)),
        wrap(cli, "cmd_compare", "cli.compare"),
        wrap(cli, "cmd_analyze", "cli.analyze"),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """One root span with every layer wrapped."""
    with tracer.root(), patched(layer_patches(tracer)):
        yield
