"""Rescaling-factor algebra and prediction statistics.

Pure functions over recorded run values. Nothing here trains: the
leave-one-domain-out protocols (``lfme train``, ``lfme sweep``) run as jobs
in ``cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


HARD_EASY_FRACTION = 1.0 / 3.0


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


def classification_ratio_rows(probs: np.ndarray, stars: np.ndarray) -> np.ndarray:
    """Each row's probability at its labeled class, min-max normalized over the row.

    1 means the labeled class holds the row's maximum, 0 its minimum. A constant row,
    from a model that ties every class on a sample (one whose hidden units are all dead
    there), gets NaN, where the ratio is undefined.
    """
    lo = probs.min(axis=1, keepdims=True)
    hi = probs.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        pbar = (probs - lo) / (hi - lo)
    return pbar[np.arange(len(stars)), stars]


def split_hard_easy(expert_losses: np.ndarray):
    """Indices of the largest-loss (hard) and smallest-loss (easy) samples.

    Both groups take ceil(HARD_EASY_FRACTION * B) entries; ties resolve by index.
    """
    losses = np.asarray(expert_losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise AnalysisError("need a nonempty 1-D loss vector")
    n = math.ceil(HARD_EASY_FRACTION * losses.size)
    order_desc = np.lexsort((np.arange(losses.size), -losses))
    order_asc = np.lexsort((np.arange(losses.size), losses))
    return np.sort(order_desc[:n]), np.sort(order_asc[:n])


@dataclass
class EvalReport:
    """Mean classification ratio of the hard and of the easy probe samples, per eval point."""
    ratio_hard_trace: list
    ratio_easy_trace: list


def report_from_run(run) -> EvalReport:
    """Trace how a ``train.RunResult`` classifies the probe samples its experts find hard and easy.

    A run without experts has no hard/easy split and gets empty traces.
    """
    ratio_hard, ratio_easy = [], []
    if run.expert_probe_losses is not None:
        hard_idx, easy_idx = split_hard_easy(run.expert_probe_losses)
        for ev in run.evals:
            ratios = classification_ratio_rows(ev.probe_probs, run.probe.y)
            ratio_hard.append(float(ratios[hard_idx].mean()))
            ratio_easy.append(float(ratios[easy_idx].mean()))
    return EvalReport(ratio_hard, ratio_easy)
