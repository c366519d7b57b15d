"""Reference implementations that tests check src against. src never calls them."""

import numpy as np

from lfme_lab import domains
from lfme_lab.analysis import AnalysisError


def classification_ratio(p: np.ndarray, star: int) -> float:
    """Min-max-normalized probability at the labeled class of one row.

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


def spurious_label_correlation(spec: domains.SuiteSpec, ds: domains.DomainDataset) -> float:
    """Chance-corrected agreement between the nearest spurious mean and the label.

    Rebuilds the class means and the rotation of ``ds``'s domain from the spec
    ``generate_suite`` drew ``ds`` from, assigns each sample to the closest
    spurious class mean of its own domain, and rescales the match rate so
    independence maps to 0 and a perfectly label-aligned spurious block maps to 1.
    """
    if spec.d_spu == 0:
        return 0.0
    rotation = domains._rotations(spec)[ds.domain_id]
    spur_means = domains.SPURIOUS_MEAN_SCALE * (
        domains._class_means(spec.n_classes, spec.d_inv) @ rotation.T)
    x_spu = ds.features[:, spec.d_inv:]
    d2 = ((x_spu[:, None, :] - spur_means[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    match = float(np.mean(nearest == ds.labels))
    k = spec.n_classes
    return (match - 1.0 / k) / (1.0 - 1.0 / k)
