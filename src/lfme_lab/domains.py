"""Synthetic multi-domain data with invariant and spurious structure.

Each suite holds M source domains plus one extra domain whose spurious
feature mapping is a fresh rotation. Invariant dims are class-conditional
Gaussians shared by every domain; spurious dims follow a domain-private
rotation of the class means and correlate with the label at a controllable
strength, so they help in-domain and mislead on the extra domain.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field

import numpy as np

VAL_FRACTION = 0.2
# Spurious class means are the domain-private rotation of the invariant
# class means, so both blocks are equally separable within a source domain.
SPURIOUS_MEAN_SCALE = 1.0
MIN_ROTATION_DISTANCE = 0.1
CSV_COLUMNS = ("domain", "label")      # of a suite CSV; every other column is a feature


class DataError(Exception):
    """Invalid suite specification or unreadable external data."""


def require_finite(obj, names, kind=numbers.Real, error=DataError):
    """Raise ``error`` naming the first field of ``obj`` that is not a finite ``kind``."""
    for name in names:
        value = getattr(obj, name)
        try:
            ok = not isinstance(value, bool) and isinstance(value, kind) and np.isfinite(value)
        except TypeError:       # np.isfinite takes no integer past 64 bits
            raise error(f"{name} is out of range, got {value!r}") from None
        if not ok:
            noun = "an integer" if kind is numbers.Integral else "a finite number"
            raise error(f"{name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class SuiteSpec:
    n_domains: int = 3          # M source domains; generation adds one held-out style
    n_classes: int = 5
    n_per_domain: int = 1000
    d_inv: int = 6
    d_spu: int = 6
    spurious_strength: float = 0.9
    noise: float = 0.75
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        require_finite(self, ("n_domains", "n_classes", "n_per_domain", "d_inv", "d_spu",
                              "seed"), numbers.Integral)
        require_finite(self, ("spurious_strength", "noise"))
        for name, least in (("seed", 0), ("n_domains", 2), ("n_classes", 2), ("n_per_domain", 10)):
            if getattr(self, name) < least:
                raise DataError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.d_inv < self.n_classes - 1:
            raise DataError(f"d_inv must be at least n_classes - 1 = {self.n_classes - 1} to "
                            f"hold the class simplex, got {self.d_inv}")
        if not 0 <= self.d_spu <= self.d_inv:
            raise DataError(f"d_spu must be in [0, d_inv] = [0, {self.d_inv}] for orthonormal "
                            f"rotations, got {self.d_spu}")
        if not 0.0 <= self.spurious_strength <= 1.0:
            raise DataError(f"spurious_strength must be in [0, 1], got {self.spurious_strength}")
        if self.noise <= 0.0:
            raise DataError(f"noise must be positive, got {self.noise}")

    @property
    def domain_ids(self) -> range:
        """The ids of the suite's domains: the sources, then the extra domain."""
        return range(self.n_domains + 1)


@dataclass
class DomainDataset:
    domain_id: int
    name: str
    features: np.ndarray        # N x d
    labels: np.ndarray          # N ints in [0, K)
    train_idx: np.ndarray
    val_idx: np.ndarray
    n_classes: int
    # (seed, epoch) -> read-only shuffle of train_idx; see _epoch_perm.
    epoch_perms: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _class_means(k: int, d: int) -> np.ndarray:
    """Vertices of a regular (k-1)-simplex embedded in d dims, norm 2 each."""
    centered = np.eye(k) - 1.0 / k
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    coords = u[:, : k - 1] * s[: k - 1]
    coords *= 2.0 / np.linalg.norm(coords[0])
    means = np.zeros((k, d))
    means[:, : k - 1] = coords
    return means


def _random_rotation(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((cols, cols)))
    q *= np.sign(np.diag(r))
    return q[:rows]


def _stratified_split(labels: np.ndarray, rng: np.random.Generator):
    train, val = [], []
    for k in np.flatnonzero(np.bincount(labels)):     # np.unique would import numpy.ma
        idx = np.flatnonzero(labels == k)
        idx = rng.permutation(idx)
        n_val = int(round(VAL_FRACTION * len(idx)))
        val.extend(idx[:n_val])
        train.extend(idx[n_val:])
    return np.sort(np.asarray(train, dtype=np.int64)), np.sort(np.asarray(val, dtype=np.int64))


def _rotations(spec: SuiteSpec) -> list[np.ndarray]:
    """The spurious rotation of each source domain, then the extra domain's, which is
    drawn until it lies far from every source rotation."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(2)[1])
    rotations = [_random_rotation(rng, spec.d_spu, spec.d_inv) for _ in range(spec.n_domains)]
    while True:
        held = _random_rotation(rng, spec.d_spu, spec.d_inv)
        if spec.d_spu == 0 or all(np.linalg.norm(held - r) > MIN_ROTATION_DISTANCE
                                  for r in rotations):
            return rotations + [held]


def generate_suite(spec: SuiteSpec) -> list[DomainDataset]:
    """M source domains plus one domain with a fresh spurious rotation."""
    means = _class_means(spec.n_classes, spec.d_inv)
    rotations = _rotations(spec)

    datasets = []
    for m in spec.domain_ids:
        rng = np.random.default_rng([spec.seed, 7919, m])
        labels = rng.integers(spec.n_classes, size=spec.n_per_domain)
        x_inv = means[labels] + spec.noise * rng.standard_normal((spec.n_per_domain, spec.d_inv))
        if spec.d_spu > 0:
            aligned = rng.random(spec.n_per_domain) < spec.spurious_strength
            spur_class = np.where(aligned, labels, rng.integers(spec.n_classes, size=spec.n_per_domain))
            spur_means = SPURIOUS_MEAN_SCALE * (means @ rotations[m].T)
            x_spu = spur_means[spur_class] + spec.noise * rng.standard_normal(
                (spec.n_per_domain, spec.d_spu))
            features = np.concatenate([x_inv, x_spu], axis=1)
        else:
            features = x_inv
        train_idx, val_idx = _stratified_split(labels, rng)
        datasets.append(DomainDataset(
            domain_id=m,
            name=f"domain{m}" if m < spec.n_domains else "heldout",
            features=features,
            labels=labels.astype(np.int64),
            train_idx=train_idx,
            val_idx=val_idx,
            n_classes=spec.n_classes,
        ))
    return datasets


def load_csv_suite(path) -> list[DomainDataset]:
    """One DomainDataset per distinct domain value of a ``CSV_COLUMNS`` suite CSV.

    Features are standardized to zero mean and unit variance over the pooled
    rows; a constant column is only centered.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        dom_i, lab_i = (header.index(c) for c in CSV_COLUMNS)
        feat_cols = [i for i in range(len(header)) if i not in (dom_i, lab_i)]
        if not feat_cols:
            raise DataError(f"{path}: no feature columns")
        feats, domains_col, labels = [], [], []
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            vals = []
            for i in feat_cols:
                try:
                    vals.append(float(row[i]))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric feature cell at row {r}, column {header[i]!r}"
                    ) from None
            try:
                lab = int(row[lab_i])
            except ValueError:
                raise DataError(f"{path}: non-integer label at row {r}") from None
            feats.append(vals)
            labels.append(lab)
            domains_col.append(row[dom_i])

    if not feats:
        raise DataError(f"{path}: no data rows")
    features = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    distinct_labels = np.unique(labels)
    k = len(distinct_labels)
    if labels.min() < 0 or not np.array_equal(distinct_labels, np.arange(k)):
        raise DataError(
            f"{path}: labels must cover 0..K-1 contiguously, got {distinct_labels.tolist()}")
    distinct_domains = sorted(set(domains_col), key=lambda v: (len(v), v))
    if len(distinct_domains) < 2:
        raise DataError(f"{path}: need at least 2 distinct domains, got {distinct_domains}")

    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    features = (features - mean) / std

    datasets = []
    dom_arr = np.asarray(domains_col)
    for m, dom in enumerate(distinct_domains):
        idx = np.flatnonzero(dom_arr == dom)
        ds_labels = labels[idx]
        rng = np.random.default_rng([0xC5F, m, len(idx)])
        train_idx, val_idx = _stratified_split(ds_labels, rng)
        datasets.append(DomainDataset(
            domain_id=m,
            name=str(dom),
            features=features[idx],
            labels=ds_labels,
            train_idx=train_idx,
            val_idx=val_idx,
            n_classes=k,
        ))
    return datasets


@dataclass
class Batch:
    xs: np.ndarray              # [M, batch_per_domain, d], source domains in order
    ys: np.ndarray              # [M, batch_per_domain]
    x_all: np.ndarray           # xs reshaped to [M * batch_per_domain, d]
    y_all: np.ndarray


EPOCH_PERMS_KEPT = 2            # an epoch and the next one, for the step that wraps


def _epoch_perm(ds: DomainDataset, seed: int, epoch: int) -> np.ndarray:
    """The shuffle of ``ds.train_idx`` for (seed, epoch), computed once per dataset.

    The cache lives on the dataset, so two datasets never share an entry,
    and keeps the newest EPOCH_PERMS_KEPT epochs. Cached arrays are read-only.
    """
    perm = ds.epoch_perms.get((seed, epoch))
    if perm is None:
        perm = np.random.default_rng([seed, 104729, ds.domain_id, epoch]).permutation(ds.train_idx)
        perm.flags.writeable = False
        if len(ds.epoch_perms) >= EPOCH_PERMS_KEPT:
            del ds.epoch_perms[next(iter(ds.epoch_perms))]
        ds.epoch_perms[(seed, epoch)] = perm
    return perm


def make_batches(sources: list[DomainDataset], batch_per_domain: int, seed: int, step: int) -> Batch:
    """Aligned per-domain minibatches for one step, stacked, plus their concatenation.

    Deterministic in (seed, step). Each domain walks a per-epoch shuffle of
    its train split; exhaustion wraps into the next epoch's shuffle. The caller
    checks the batch fits each train split (``train.check_sources``).
    """
    b, m, d = batch_per_domain, len(sources), sources[0].features.shape[1]
    xs = np.empty((m, b, d))
    ys = np.empty((m, b), dtype=sources[0].labels.dtype)
    for i, ds in enumerate(sources):
        n = len(ds.train_idx)
        pos = step * b
        epoch, off = divmod(pos, n)
        perm = _epoch_perm(ds, seed, epoch)
        take = perm[off:off + b]
        while len(take) < b:
            epoch += 1
            perm = _epoch_perm(ds, seed, epoch)
            take = np.concatenate([take, perm[: b - len(take)]])
        xs[i] = ds.features[take]
        ys[i] = ds.labels[take]
    return Batch(xs, ys, xs.reshape(m * b, d), ys.reshape(m * b))


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DataError(f"label out of range [0,{k}): {labels.min()}..{labels.max()}")
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out
