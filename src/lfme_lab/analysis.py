"""Rescaling-factor algebra, prediction statistics, and the evaluation harness.

Pure functions over recorded run values plus the leave-one-domain-out
protocol driver: every domain takes a turn as the held-out target while the
requested methods train on the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import train as tr
from .domains import DomainDataset


class AnalysisError(Exception):
    """Undefined or degenerate analysis input."""


def _require_unsaturated(q_star):
    if np.any(np.asarray(q_star) >= 1.0 - 1e-9):
        raise AnalysisError(f"rescale factor undefined at q_star={q_star}")


def rescale_gt(q_star, qE_star, z_star, alpha):
    """Gradient ratio at the ground-truth logit, 1 - a*(z* - qE*)/(1 - q*), elementwise."""
    _require_unsaturated(q_star)
    return 1.0 - alpha * (z_star - qE_star) / (1.0 - q_star)


def rescale_nongt(q_star, qE_star, sum_z_nongt, alpha):
    """Gradient ratio over non-ground-truth logits, elementwise."""
    _require_unsaturated(q_star)
    return 1.0 - alpha * (1.0 - sum_z_nongt - qE_star) / (1.0 - q_star)


def entropy_rows(q: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats along the last axis (0 log 0 = 0)."""
    q = np.asarray(q, dtype=np.float64)
    return -np.where(q > 0.0, q * np.log(np.maximum(q, 1e-300)), 0.0).sum(axis=-1)


def entropy(q: np.ndarray) -> float:
    """Shannon entropy in nats of one probability row, or the mean over rows."""
    rows = entropy_rows(q)
    return float(rows if rows.ndim == 0 else rows.mean())


def classification_ratio(p: np.ndarray, star: int) -> float:
    """Min-max-normalized probability at the labeled class over the max.

    1 means the labeled class holds the unique maximum, 0 the minimum.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise AnalysisError(f"need one probability row of >= 2 entries, got shape {p.shape}")
    lo, hi = p.min(), p.max()
    if hi == lo:
        raise AnalysisError("classification ratio undefined for a constant row")
    pbar = (p - lo) / (hi - lo)
    return float(pbar[star])


def classification_ratio_rows(probs: np.ndarray, stars: np.ndarray) -> np.ndarray:
    lo = probs.min(axis=1, keepdims=True)
    hi = probs.max(axis=1, keepdims=True)
    if np.any(hi == lo):
        raise AnalysisError("classification ratio undefined for a constant row")
    pbar = (probs - lo) / (hi - lo)
    return pbar[np.arange(len(stars)), stars]


def split_hard_easy(expert_losses: np.ndarray, fraction: float = 1.0 / 3.0):
    """Indices of the largest-loss (hard) and smallest-loss (easy) samples.

    Both groups take ceil(fraction * B) entries; ties resolve by index.
    """
    losses = np.asarray(expert_losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise AnalysisError("need a nonempty 1-D loss vector")
    n = math.ceil(fraction * losses.size)
    order_desc = np.lexsort((np.arange(losses.size), -losses))
    order_asc = np.lexsort((np.arange(losses.size), losses))
    return np.sort(order_desc[:n]), np.sort(order_asc[:n])


@dataclass
class EvalReport:
    method: str
    held_out_id: int
    seed: int
    ood_accuracy: float
    in_domain_val_acc: dict[int, float]
    mean_entropy: float
    mean_logit_sum: float
    selected_step: int
    expert_val_acc: dict[int, float] = field(default_factory=dict)
    rescale_f_trace: list = field(default_factory=list)
    rescale_fp_trace: list = field(default_factory=list)
    ratio_hard_trace: list = field(default_factory=list)
    ratio_easy_trace: list = field(default_factory=list)


def report_from_run(run: tr.RunResult, hard_reference: tr.RunResult | None = None) -> EvalReport:
    """Condense a run into the per-held-out-domain report row.

    ``hard_reference`` supplies the expert losses that define hard and easy
    probe samples (a run without experts, like the pooled baseline, borrows
    them from a paired run that has them).
    """
    sel = run.selected
    ref = hard_reference if hard_reference is not None else run
    ratio_hard, ratio_easy = [], []
    if ref.expert_probe_losses is not None:
        hard_idx, easy_idx = split_hard_easy(ref.expert_probe_losses)
        for ev in run.evals:
            if ev.probe_probs is None:
                continue
            ratios = classification_ratio_rows(ev.probe_probs, run.probe.y)
            ratio_hard.append(float(ratios[hard_idx].mean()))
            ratio_easy.append(float(ratios[easy_idx].mean()))
    return EvalReport(
        method=run.method.name,
        held_out_id=run.held_out_id if run.held_out_id is not None else -1,
        seed=run.config.seed,
        ood_accuracy=run.ood_accuracy if run.ood_accuracy is not None else float("nan"),
        in_domain_val_acc=dict(sel.val_acc),
        mean_entropy=sel.val_entropy,
        mean_logit_sum=sel.probe_logit_sum,
        selected_step=sel.step,
        expert_val_acc=dict(sel.expert_val_acc),
        rescale_f_trace=[ev.rescale_f for ev in run.evals],
        rescale_fp_trace=[ev.rescale_fp for ev in run.evals],
        ratio_hard_trace=ratio_hard,
        ratio_easy_trace=ratio_easy,
    )


def evaluate_leave_one_out(suite: list[DomainDataset], config: tr.TrainConfig,
                           methods: list[tr.MethodSpec]) -> dict[int, dict[str, EvalReport]]:
    """Each domain takes a turn as the unseen target for every method."""
    out: dict[int, dict[str, EvalReport]] = {}
    for held in suite:
        sources = [ds for ds in suite if ds.domain_id != held.domain_id]
        if len(sources) < 2:
            raise tr.ConfigError("fewer than 2 source domains remain after holding one out")
        out[held.domain_id] = {}
        for method in methods:
            run = tr.run_method(sources, method, config, held_out=held)
            out[held.domain_id][method.name] = report_from_run(run)
    return out


def sweep_alpha(suite: list[DomainDataset], config: tr.TrainConfig, grid) -> list[dict]:
    """One leave-one-out evaluation of the guided method per grid value."""
    rows = []
    for alpha_half in grid:
        method = tr.MethodSpec(kind=tr.LFME, alpha_half=float(alpha_half))
        reports = evaluate_leave_one_out(suite, config, [method])
        accs = [reports[h][method.name].ood_accuracy for h in sorted(reports)]
        row = {"alpha_half": float(alpha_half), "mean_ood_accuracy": float(np.mean(accs))}
        for h in sorted(reports):
            row[f"ood_acc_domain{h}"] = reports[h][method.name].ood_accuracy
        rows.append(row)
    return rows

