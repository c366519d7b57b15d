"""Digest every output of ``run_method`` for every method kind.

Usage: python tools/method_digest.py <src-dir> [<n-sources>]

Imports ``lfme_lab`` from <src-dir> (``src`` of this tree, or of a checkout
of another commit) and trains each method kind under Adam and SGD at
alpha/2 in {0, 0.7}, plus hard_weight_beta in {1, 0} for the hard-weighted
kinds, for 150 steps on a small suite of <n-sources> source domains
(default 2, so M = 2 experts) and one held-out domain. It prints one SHA-256
digest per run and one over all runs. A digest covers the loss traces,
every eval point (accuracies, val entropy, probe logit sum, rescale factors,
probe probabilities and all recorded parameters), the selected step, OOD
accuracy, expert probe losses, and the hard and easy ratio traces of
``report_from_run``. Two trees that print the same overall digest compute
bitwise-equal runs.

Each printed digest is of a live run: the expert memo is emptied before it.
The same job then runs again, replaying the experts the first run recorded,
and the tool exits 1 if that run's digest differs.
"""

import hashlib
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np


def feed(h, obj):
    """Hash a nested record of arrays, numbers, dicts and lists, types included."""
    if isinstance(obj, np.ndarray):
        h.update(f"array{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"dict")
        for key in sorted(obj):
            feed(h, key)
            feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    else:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def run_digest(run, report) -> str:
    h = hashlib.sha256()
    feed(h, [run.loss_trace, run.target_loss_trace, run.selected_index, run.ood_accuracy,
             run.expert_probe_losses, report.ratio_hard_trace, report.ratio_easy_trace])
    for ev in run.evals:
        feed(h, [getattr(ev, f.name) for f in fields(ev)])
    return h.hexdigest()


def main(argv) -> int:
    if len(argv) not in (2, 3) or (len(argv) == 3 and not argv[2].isdigit()):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    n_sources = int(argv[2]) if len(argv) == 3 else 2
    sys.path.insert(0, str(src))
    import lfme_lab
    from lfme_lab import analysis, train
    from lfme_lab.domains import SuiteSpec, generate_suite
    if Path(lfme_lab.__file__).resolve().parent != src / "lfme_lab":
        print(f"imported lfme_lab from {lfme_lab.__file__}, not {src}", file=sys.stderr)
        return 2

    suite = generate_suite(SuiteSpec(n_domains=n_sources + 1, n_classes=4, n_per_domain=300,
                                     d_inv=4, d_spu=4, seed=0))
    sources, held = suite[:-1], suite[-1]
    hard_weighted = (train.ERMP_W_EXPT, train.ERMP_W_SELF)
    memo = getattr(train, "_expert_memo", {})      # absent from trees before the memo
    overall, mismatches = hashlib.sha256(), []
    for optimizer in ("adam", "sgd"):
        config = train.TrainConfig(optimizer=optimizer, steps=150, eval_every=50,
                                   batch_per_domain=16, seed=0)
        for kind in train.METHOD_KINDS:
            for alpha_half in (0.0, 0.7):
                for beta in ((1.0, 0.0) if kind in hard_weighted else (1.0,)):
                    method = train.MethodSpec(kind, alpha_half=alpha_half, hard_weight_beta=beta)
                    memo.clear()
                    digests = []
                    for _ in range(2):      # live, then replaying what the live run recorded
                        run = train.run_method(sources, method, config, held_out=held)
                        digests.append(run_digest(run, analysis.report_from_run(run)))
                    digest, replayed = digests
                    label = f"{optimizer} {kind} alpha_half={alpha_half:g} beta={beta:g}"
                    print(f"{label} {digest}", flush=True)
                    if replayed != digest:
                        mismatches.append(f"{label}: replayed run {replayed}")
                    overall.update(digest.encode())
    print(f"overall {overall.hexdigest()}")
    for line in mismatches:
        print(f"differs from the live run: {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
