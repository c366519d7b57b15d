"""Optimizers, the training-method registry, and the joint training loop.

One loop covers every method: per-domain experts trained on their own
minibatches and at most one head trained on the concatenated batch, all
updated by a single shared optimizer. The head is the target model, with a
method-specific guidance term, or for the dynamic aggregation baseline the
domain-weighting network, an erm classifier of each row's source domain.

The experts never see the head, so their trajectory is the same for every
method trained on the same data and config. The last run that trains them
records it (logits and loss term per step, parameters per eval point), and a
later run with the same data and config replays it instead of training them
again (README "Expert memo").
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import math
import mmap
import numbers
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import analysis as an
from . import autodiff as ad
from . import models as mm
from .autodiff import softmax_np
from .domains import DomainDataset, make_batches, one_hot, require_finite

ERM = "erm"
LFME = "lfme"
ERM_PLUS = "erm_plus"
LS = "ls"
KD_ZZ = "kd_zz"
KD_QZ = "kd_qz"
KD_QQ = "kd_qq"
KD_CE = "kd_ce"
LFME_GUID = "lfme_guid"
SELF_GUID = "self_guid"
ERMP_W_EXPT = "ermp_w_expt"
ERMP_W_SELF = "ermp_w_self"
AGG_AVG = "agg_avg"
AGG_MS = "agg_ms"
AGG_CONF = "agg_conf"
AGG_DYN = "agg_dyn"

# README "Method kinds" as a table. Per kind: does it train per-domain experts, does it
# train the domain-weighting net, does it predict by aggregating the experts (and so train
# no target), and the (a, b) its target loss adds as alpha_half * mse(a, b). a is the
# target's logits "z" or probabilities "q"; b a detached guide, "q" itself or a key of
# ``target_loss``'s ``guides``. ermp_w_* take the guided form only at hard_weight_beta = 0.
MethodKind = namedtuple("MethodKind", "experts weighting aggregate guidance")
METHODS = {  #         experts weighting aggregate guidance
    ERM:         MethodKind(False, False, False, None),
    LFME:        MethodKind(True,  False, False, ("z", "q_expert")),
    ERM_PLUS:    MethodKind(False, False, False, ("z", "y")),
    LS:          MethodKind(False, False, False, None),
    KD_ZZ:       MethodKind(True,  False, False, ("z", "z_expert")),
    KD_QZ:       MethodKind(True,  False, False, ("q", "z_expert")),
    KD_QQ:       MethodKind(True,  False, False, ("q", "q_expert")),
    KD_CE:       MethodKind(True,  False, False, None),
    LFME_GUID:   MethodKind(False, False, False, ("q", "q_teacher")),
    SELF_GUID:   MethodKind(False, False, False, ("z", "q")),
    ERMP_W_EXPT: MethodKind(True,  False, False, ("z", "y")),
    ERMP_W_SELF: MethodKind(False, False, False, ("z", "y")),
    AGG_AVG:     MethodKind(True,  False, True,  None),
    AGG_MS:      MethodKind(True,  False, True,  None),
    AGG_CONF:    MethodKind(True,  False, True,  None),
    AGG_DYN:     MethodKind(True,  True,  True,  None),
}
METHOD_KINDS = tuple(METHODS)

DEFAULT_HIDDEN = (64, 64)

# A run whose step's largest matmul has fewer multiply-adds than this trains on one
# BLAS thread: below it a second thread costs more in hand-off and spin-waiting than
# it saves (README "CLI" has the 1-vs-2-thread sweep behind the value).
SERIAL_BLAS_MADDS = 1 << 20

# A run keeps its experts' trajectory for later runs only if it takes at most this many
# bytes: logits [steps, M*B, K] and one loss term per step, plus the parameters at each
# eval point (README "Expert memo").
EXPERT_MEMO_BYTES = 64 << 20


class ConfigError(Exception):
    """Invalid method or training configuration."""


@dataclass(frozen=True)
class MethodSpec:
    kind: str
    alpha_half: float = 1.0
    ls_epsilon: float = 0.1
    ramp_steps: int | None = None       # KD_CE ramp length; default steps // 2
    hard_weight_beta: float = 1.0

    def validate(self):
        if not isinstance(self.kind, str) or self.kind not in METHODS:
            raise ConfigError(f"unknown method kind {self.kind!r}")
        require_finite(self, ("alpha_half", "ls_epsilon", "hard_weight_beta"), error=ConfigError)
        if self.ramp_steps is not None:
            require_finite(self, ("ramp_steps",), numbers.Integral, ConfigError)
        if self.alpha_half < 0:
            raise ConfigError(f"alpha_half must be >= 0, got {self.alpha_half}")
        if not 0.0 <= self.ls_epsilon < 1.0:
            raise ConfigError(f"ls_epsilon must be in [0,1), got {self.ls_epsilon}")

    @property
    def name(self) -> str:
        return self.kind


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"             # "adam" or "sgd"
    lr: float = 1e-3
    weight_decay: float = 1e-4
    steps: int = 5000
    batch_per_domain: int = 32
    seed: int = 0
    eval_every: int = 250
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN
    probe_per_domain: int = 40

    def validate(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        require_finite(self, ("lr", "weight_decay"), error=ConfigError)
        require_finite(self, ("steps", "batch_per_domain", "seed", "eval_every",
                              "probe_per_domain"), numbers.Integral, ConfigError)
        if self.lr < 0 or self.steps <= 0 or self.batch_per_domain <= 0 or self.eval_every <= 0:
            raise ConfigError("lr must be >= 0 and steps/batch/eval_every positive")
        if self.seed < 0 or self.probe_per_domain <= 0:
            raise ConfigError(f"seed must be >= 0 and probe_per_domain positive, got "
                              f"{self.seed} and {self.probe_per_domain}")
        if not isinstance(self.hidden_dims, (tuple, list)) or not all(
                isinstance(d, numbers.Integral) and not isinstance(d, bool) and d > 0
                for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive integers, got {self.hidden_dims!r}")


class FlatStorage:
    """One contiguous data buffer and one gradient buffer behind a parameter list.

    Each ``p.data`` and ``p.grad`` is rebound to a reshaped view of
    ``self.data`` and ``self.grad``, so backward accumulates straight into the
    buffer and an optimizer step is a few whole-buffer operations. The step
    uses the gradient buffer as its work area: ``p.grad`` is valid only
    between backward and ``step``. After a run's last update ``_train`` drops
    the optimizer and sets every ``p.grad`` to None; ``data`` stays with the
    parameters.
    """

    def __init__(self, params):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter was passed to the optimizer twice")
        self.data = np.concatenate([p.data.ravel() for p in self.params])
        self.grad = np.zeros_like(self.data)
        bounds = np.cumsum([p.data.size for p in self.params])[:-1]
        self._views = []
        for p, data, grad in zip(self.params, np.split(self.data, bounds),
                                 np.split(self.grad, bounds)):
            data, grad = data.reshape(p.data.shape), grad.reshape(p.data.shape)
            if p.grad is not None:
                grad[...] = p.grad
            p.data, p.grad = data, grad
            self._views.append((data, grad))

    def zero_grad(self):
        self.grad.fill(0.0)

    def _attach(self):
        """Copy in any data or gradient a caller rebound since the last step."""
        for p, (data, grad) in zip(self.params, self._views):
            if p.data is not data:
                data[...], p.data = p.data, data
            if p.grad is not grad:
                if p.grad is None:
                    raise ValueError(f"parameter of shape {data.shape} has no gradient")
                grad[...], p.grad = p.grad, grad


class SgdMomentum(FlatStorage):
    MOMENTUM = 0.9

    def __init__(self, params, lr, weight_decay=0.0):
        super().__init__(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.velocity = np.zeros_like(self.data)

    def step(self):
        self._attach()
        g, v = self.grad, self.velocity
        g += np.multiply(self.data, self.weight_decay)      # the step's one temporary
        v *= self.MOMENTUM
        v += g
        np.multiply(v, self.lr, out=g)
        self.data -= g


class Adam(FlatStorage):
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        super().__init__(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self):
        # The per-tensor update's elementwise ops in the same order, so runs stay bitwise:
        # g = grad + wd*p; m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        # p -= lr*(m/bias1) / (sqrt(v/bias2) + eps).
        self._attach()
        self.t += 1
        bias1 = 1.0 - self.BETA1 ** self.t
        bias2 = 1.0 - self.BETA2 ** self.t
        g, m, v = self.grad, self.m, self.v
        tmp = np.multiply(self.data, self.weight_decay)      # the step's one temporary
        g += tmp
        m *= self.BETA1
        np.multiply(g, 1.0 - self.BETA1, out=tmp)
        m += tmp
        v *= self.BETA2
        np.multiply(g, 1.0 - self.BETA2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.EPS
        np.divide(m, bias1, out=g)
        g *= self.lr
        g /= tmp
        self.data -= g


def make_optimizer(params, config: TrainConfig):
    if config.optimizer == "sgd":
        return SgdMomentum(params, config.lr, config.weight_decay)
    return Adam(params, config.lr, config.weight_decay)


# ---------------------------------------------------------------------------
# Losses


def loss_expert(rows: ad.Tensor) -> ad.Tensor:
    """The experts' joint term: each expert's batch-mean loss, summed over experts.

    ``rows`` holds per-sample losses [M,B]. numpy sums fewer than 8 values left to
    right, so for M < 8 the value is bitwise the ((e0 + e1) + e2) of per-expert terms.
    """
    return ad.sum_all(ad.scale(ad.sum_rows(rows), 1.0 / rows.data.shape[-1]))


def target_loss(method: MethodSpec, z: ad.Tensor, guides: dict, _validate=True) -> ad.Tensor:
    """The target model's loss on logits ``z``; one softmax of ``z`` feeds every term.

    ``guides`` holds constants: ``y`` (one-hot labels) and, where the kind uses them,
    ``q_expert``, ``z_expert``, ``q_teacher``, ``expert_losses`` and ``kd_ce_weight``.
    ``_validate=False`` skips the one-hot check of ``y``, for labels ``one_hot`` built.
    """
    kind, alpha_half, y = method.kind, method.alpha_half, guides["y"]
    q = ad.softmax(z)
    if kind == LS and method.ls_epsilon != 0.0:
        smoothed = (1.0 - method.ls_epsilon) * y + method.ls_epsilon / y.shape[-1]
        return ad.soft_cross_entropy(q, smoothed, _validate)
    if kind == KD_CE:
        weight = guides["kd_ce_weight"]
        cla = ad.scale(ad.cross_entropy(q, y, _validate), 1.0 - weight)
        if weight == 0.0:
            return cla
        return ad.add(cla, ad.scale(ad.soft_cross_entropy(q, guides["q_expert"]), weight))
    if kind in (ERMP_W_EXPT, ERMP_W_SELF) and method.hard_weight_beta != 0.0:
        v = ad.cross_entropy_rows(q, y, _validate)
        if alpha_half != 0.0:
            v = ad.add(v, ad.scale(ad.sq_norm_rows(z, y), alpha_half))
        ref = guides["expert_losses"] if kind == ERMP_W_EXPT else v.data
        return ad.weighted_mean(v, hard_weights(ref, method.hard_weight_beta))
    cla = ad.cross_entropy(q, y, _validate)
    pair = METHODS[kind].guidance
    if pair is None or alpha_half == 0.0:
        return cla
    a, b = pair
    guide = ad.detach(q) if b == "q" else ad.tensor(guides[b])
    return ad.add(cla, ad.scale(ad.mse(z if a == "z" else q, guide), alpha_half))


def kd_weight(alpha_half: float, step: int, ramp_steps: int | None) -> float:
    """Linear ramp from 0 to alpha_half over ramp_steps (no ramp when None)."""
    if ramp_steps is None or ramp_steps <= 0:
        return alpha_half
    return alpha_half * min(1.0, step / ramp_steps)


def hard_weights(expert_losses: np.ndarray, beta: float) -> np.ndarray:
    """Per-sample weights rising with loss z-score, mean near 1, clamped."""
    losses = np.asarray(expert_losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ConfigError("hard_weights needs a nonempty loss vector")
    w = 1.0 + beta * (losses - losses.mean()) / (losses.std() + 1e-8)
    return np.clip(w, 0.1, 10.0)


# ---------------------------------------------------------------------------
# Evaluation helpers


def accuracy(model: mm.MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    if len(y) == 0:
        return float("nan")
    return float(np.mean(mm.forward_array(model, x).argmax(axis=1) == y))


def average_parameters(experts: list[mm.MlpModel]) -> mm.MlpModel:
    dims = experts[0].layer_dims
    for e in experts[1:]:
        if e.layer_dims != dims:
            raise ConfigError(f"architecture mismatch for parameter soup: {e.layer_dims} vs {dims}")
    return mm.model_from_arrays([np.mean(arrays, axis=0)
                                 for arrays in zip(*(e.param_arrays() for e in experts))])


def aggregate_predict(kind: str, experts: list[mm.MlpModel],
                      weighting: mm.MlpModel | None, x: np.ndarray) -> np.ndarray:
    """Combined expert probabilities for one inference-time aggregation rule."""
    if kind == AGG_MS:
        return softmax_np(mm.forward_array(average_parameters(experts), x))
    probs = np.stack([softmax_np(mm.forward_array(e, x)) for e in experts])
    if kind == AGG_AVG:
        return probs.mean(axis=0)
    if kind == AGG_CONF:
        ent = an.entropy_rows(probs)                               # M x B
        pick = ent.argmin(axis=0)                                  # ties -> lowest id
        return probs[pick, np.arange(x.shape[0])]
    if kind == AGG_DYN:
        if weighting is None:
            raise ConfigError("dynamic aggregation needs a trained weighting network")
        w = softmax_np(mm.forward_array(weighting, x))             # B x M
        return np.einsum("mbk,bm->bk", probs, w)
    raise ConfigError(f"not an aggregation kind: {kind!r}")


def predicted_labels(kind: str, head: mm.MlpModel | None, experts: list[mm.MlpModel] | None,
                     x: np.ndarray) -> np.ndarray:
    """Each row's class: the argmax of the aggregate for an aggregation kind, whose head is
    the weighting net or None, else of the head, the target."""
    if METHODS[kind].aggregate:
        return aggregate_predict(kind, experts, head, x).argmax(axis=1)
    return mm.forward_array(head, x).argmax(axis=1)


# ---------------------------------------------------------------------------
# Run records


@dataclass
class EvalPoint:
    step: int
    target_loss: float
    train_acc: dict[int, float]
    val_acc: dict[int, float]
    mean_val_acc: float
    val_entropy: float
    probe_logit_sum: float
    rescale_f: float | None = None
    rescale_fp: float | None = None
    expert_val_acc: dict[int, float] = field(default_factory=dict)
    probe_probs: np.ndarray | None = None
    target_params: list[np.ndarray] | None = None
    expert_params: list[list[np.ndarray]] | None = None
    weighting_params: list[np.ndarray] | None = None


@dataclass
class Probe:
    x: np.ndarray
    y: np.ndarray
    domain_ids: np.ndarray


@dataclass
class RunResult:
    source_ids: list[int]
    loss_trace: np.ndarray
    target_loss_trace: np.ndarray
    evals: list[EvalPoint]
    selected_index: int
    probe: Probe
    ood_accuracy: float | None = None
    expert_probe_losses: np.ndarray | None = None    # at selected step

    @property
    def selected(self) -> EvalPoint:
        return self.evals[self.selected_index]

    @property
    def selected_step(self) -> int:
        return self.selected.step

    def selected_target_model(self) -> mm.MlpModel | None:
        arrays = self.selected.target_params
        return None if arrays is None else mm.model_from_arrays(arrays)

    def selected_expert_models(self) -> list[mm.MlpModel] | None:
        arrays = self.selected.expert_params
        return None if arrays is None else [mm.model_from_arrays(a) for a in arrays]


def make_probe(sources: list[DomainDataset], config: TrainConfig) -> Probe:
    xs, ys, ids = [], [], []
    for ds in sources:
        rng = np.random.default_rng([config.seed, 15485863, ds.domain_id])
        take = rng.choice(ds.val_idx, size=min(config.probe_per_domain, len(ds.val_idx)),
                          replace=False)
        xs.append(ds.features[take])
        ys.append(ds.labels[take])
        ids.append(np.full(len(take), ds.domain_id, dtype=np.int64))
    return Probe(np.concatenate(xs), np.concatenate(ys), np.concatenate(ids))


def rescale_factors(z: np.ndarray, q: np.ndarray, q_expert: np.ndarray,
                    y: np.ndarray, alpha: float):
    """Batch means of the ground-truth and non-ground-truth gradient ratios.

    Samples whose ground-truth probability saturates are excluded; returns
    (nan, nan) when nothing survives the guard.
    """
    b = np.arange(len(y))
    q_star = q[b, y]
    mask = q_star < 1.0 - 1e-9
    if not np.any(mask):
        return float("nan"), float("nan")
    z_star = z[b, y][mask]
    qe_star = q_expert[b, y][mask]
    sum_nongt = z.sum(axis=1)[mask] - z_star
    f = an.rescale_gt(q_star[mask], qe_star, z_star, alpha)
    fp = an.rescale_nongt(q_star[mask], qe_star, sum_nongt, alpha)
    return float(f.mean()), float(fp.mean())


# ---------------------------------------------------------------------------
# BLAS threads


@functools.cache
def blas_thread_calls():
    """``(get, set)`` thread-count functions of the OpenBLAS numpy has loaded, or None.

    The library is found among this process's mapped files and opened with
    ``RTLD_NOLOAD``, so a second copy is never loaded. The lookup runs once per
    process; forked workers inherit its result.
    """
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            paths = dict.fromkeys(line.split(None, 5)[5].strip() for line in f
                                  if "openblas" in line.rsplit("/", 1)[-1])
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the block with ``n`` OpenBLAS threads, then restore the caller's count.

    Does nothing when no OpenBLAS is found.
    """
    calls = blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


def step_matmul_madds(n_sources: int, config: TrainConfig, dims) -> int:
    """Multiply-adds of a step's largest matmul: the pooled batch through the widest layer.

    The target sees all ``n_sources * batch_per_domain`` rows at once; the expert
    stack and the backward products have the same count.
    """
    return n_sources * config.batch_per_domain * max(a * b for a, b in zip(dims, dims[1:]))


# ---------------------------------------------------------------------------
# The expert memo

# The expert trajectory of the last run that trained experts, under its ``expert_key``:
# ``logits`` [steps, M*B, K] and ``terms`` [steps] of every step, and ``params``, the
# experts' parameter arrays at each eval point. All arrays are read-only. At most one entry.
ExpertTrajectory = namedtuple("ExpertTrajectory", "logits terms params")
_expert_memo: dict[str, ExpertTrajectory] = {}


def expert_key(sources: list[DomainDataset], config: TrainConfig, dims) -> str:
    """SHA-256 over everything the experts' trajectory reads: each source's features,
    labels, train split and id, the layer dims and every ``TrainConfig`` field."""
    h = hashlib.sha256()
    for ds in sources:
        for a in (ds.features, ds.labels, ds.train_idx):
            h.update(f"{a.dtype.str}{a.shape};".encode())
            h.update(np.ascontiguousarray(a))
        h.update(f"{ds.domain_id};".encode())
    config = dataclasses.replace(config, hidden_dims=tuple(config.hidden_dims))
    h.update(repr((list(dims), config)).encode())
    return h.hexdigest()


def _mapped(shapes) -> list[np.ndarray]:
    """Zeroed float64 arrays of the given shapes, views of one anonymous memory map.

    A memo entry outlives its run. Outside the malloc heap it pins no heap pages
    while kept, and dropping it unmaps its pages at once. With glibc 2.36, entries
    on the heap raised perfbench's ``guided_wide`` peak RSS by 6.6 MiB, where the
    logits a miss adds come to 1.8 MiB.
    """
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    return [part.reshape(shape)
            for part, shape in zip(np.split(buffer, np.cumsum(sizes)[:-1]), shapes)]


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _recorded_params(models) -> list[list[np.ndarray]]:
    """Read-only copies of each model's parameter arrays, in one ``_mapped`` buffer."""
    arrays = [p.data for m in models for p in m.parameters()]
    copies = _mapped([a.shape for a in arrays])
    for copy, a in zip(copies, arrays):
        copy[...] = a
    n = len(arrays) // len(models)
    return [_read_only(copies[i:i + n]) for i in range(0, len(copies), n)]


# ---------------------------------------------------------------------------
# The training loop


def train_run(sources: list[DomainDataset], method: MethodSpec, config: TrainConfig,
              held_out: DomainDataset | None = None,
              teacher: mm.MlpModel | None = None) -> RunResult:
    """Train one method on the given source domains.

    The experts and the run's one head (the target, or agg_dyn's weighting
    network) are updated by one shared optimizer, every step, from one joint
    scalar loss. Expert probabilities entering any guidance term are
    detached first. A run whose experts' data and config match the last run
    that trained experts replays their recorded trajectory instead; the result
    is bitwise the same.

    A run whose step matmuls are all below ``SERIAL_BLAS_MADDS`` runs, evaluation
    included, on one BLAS thread; a larger one keeps the caller's count. The
    thread count does not change any result.
    """
    method.validate()
    config.validate()
    if len(sources) < 2:
        raise ConfigError("need at least 2 source domains")
    dims = [sources[0].features.shape[1], *config.hidden_dims, sources[0].n_classes]
    serial = step_matmul_madds(len(sources), config, dims) < SERIAL_BLAS_MADDS
    with blas_threads(1) if serial else contextlib.nullcontext():
        return _train(sources, method, config, held_out, teacher, dims)


def _train(sources, method, config, held_out, teacher, dims) -> RunResult:
    """``train_run``'s loop, on the thread count ``train_run`` chose.

    The experts run one of two ways. On a memo miss they train live, in the
    joint step, and the run records their logits and loss term at every step
    into arrays allocated up front; the memo's old entry is dropped first, and
    the new one is published only after the last step, so a run that raises
    leaves none. A run whose record would pass ``EXPERT_MEMO_BYTES`` records
    nothing. On a hit no expert is built, run or stepped: the recorded term
    enters the joint loss as a constant, the guides come from the recorded
    logits, and each eval point gets the recorded read-only parameter arrays.

    Once the last update is applied, the optimizer (its moments or velocity and
    the gradient buffer) is dropped and every trained parameter's ``grad`` set to
    None, so the last evaluation runs without them. After the loop the live models,
    and with them the flat data buffer, are dropped too: the run is scored from its
    records alone. The selected point's parameter copies give the held-out score,
    and the experts' probe probabilities ``_evaluate`` returned for that point give
    the expert probe losses.
    """
    d, k = dims[0], dims[-1]
    n_src, b = len(sources), config.batch_per_domain

    method_kind = METHODS[method.kind]
    if method.kind == LFME_GUID and teacher is None:
        raise ConfigError("lfme_guid needs a frozen teacher model")

    # The one head ``target_loss`` trains: the target, or agg_dyn's weighting net as erm on
    # each row's source-domain position. The other aggregation kinds train none.
    head, head_method, head_y = None, method, None
    if method_kind.weighting:
        head = mm.init_mlp([d, *config.hidden_dims, n_src], [config.seed, 13, 0])
        head_method = MethodSpec(ERM)
        head_y = one_hot(np.repeat(np.arange(n_src), b), n_src)
    elif not method_kind.aggregate:
        head = mm.init_mlp(dims, [config.seed, 11, 0])

    # The experts: replayed from the memo (``memo``), or trained live, recording their
    # logits and loss terms (``record``) if the whole trajectory fits the cap.
    memo = record = stacked = None
    if method_kind.experts:
        key = expert_key(sources, config, dims)
        memo = _expert_memo.get(key)
        if memo is None:
            _expert_memo.clear()
            n_evals = -(-config.steps // config.eval_every)
            expert_size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims, dims[1:]))
            if 8 * (config.steps * (n_src * b * k + 1) + n_evals * n_src * expert_size) \
                    <= EXPERT_MEMO_BYTES:
                record = ExpertTrajectory(
                    *_mapped([(config.steps, n_src * b, k), (config.steps,)]), [])
            stacked = mm.stack_models([mm.init_mlp(dims, [config.seed, 12, i])
                                       for i in range(n_src)])

    params = [p for m in (stacked, head) if m is not None for p in m.parameters()]
    opt = make_optimizer(params, config) if params else None
    # Per-expert views of the stacked storage the optimizer now owns.
    experts = mm.unstack(stacked) if stacked is not None else None

    probe = make_probe(sources, config)
    ramp = method.ramp_steps if method.ramp_steps is not None else config.steps // 2

    pooled_val_x = np.concatenate([ds.features[ds.val_idx] for ds in sources])

    loss_trace = np.zeros(config.steps)
    target_loss_trace = np.zeros(config.steps)
    evals: list[EvalPoint] = []
    expert_probe_probs = []             # per eval point, None without experts

    for step in range(config.steps):
        terms = []
        q_expert_rows = None
        z_expert_rows = None
        expert_sample_losses = None
        if params:                      # a replayed run without a head needs no batch
            batch = make_batches(sources, b, config.seed, step)
            y_all_1h = one_hot(batch.y_all, k)

        if stacked is not None:
            z_e = mm.forward(stacked, ad.tensor(batch.xs))
            q_e = ad.softmax(z_e)
            rows_e = ad.cross_entropy_rows(q_e, y_all_1h.reshape(*batch.ys.shape, k),
                                           _validate=False)
            terms.append(loss_expert(rows_e))
            q_expert_rows = q_e.data.reshape(-1, k)
            z_expert_rows = z_e.data.reshape(-1, k)
            expert_sample_losses = rows_e.data.reshape(-1)
            if record is not None:
                record.logits[step], record.terms[step] = z_expert_rows, terms[0].data
        elif memo is not None:
            terms.append(ad.tensor(memo.terms[step]))
            if head is not None:
                z_expert_rows = memo.logits[step]
                q_expert_rows = softmax_np(z_expert_rows)
                expert_sample_losses = ad.cross_entropy_rows(
                    ad.tensor(q_expert_rows), y_all_1h, _validate=False).data

        target_loss_val = float("nan")
        if head is not None:
            z = mm.forward(head, ad.tensor(batch.x_all))
            guides = {"y": y_all_1h if head_y is None else head_y,
                      "q_expert": q_expert_rows, "z_expert": z_expert_rows,
                      "expert_losses": expert_sample_losses,
                      "kd_ce_weight": kd_weight(method.alpha_half, step, ramp)}
            if teacher is not None:
                guides["q_teacher"] = softmax_np(mm.forward_array(teacher, batch.x_all))
            t_loss = target_loss(head_method, z, guides, _validate=False)
            terms.append(t_loss)
            if not method_kind.aggregate:
                target_loss_val = t_loss.item()

        loss = terms[0]
        for t in terms[1:]:
            loss = ad.add(loss, t)
        if opt is not None:
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
        if step == config.steps - 1:           # the last update is in: free the optimizer
            for p in params:
                p.grad = None
            opt = p = None

        loss_trace[step] = loss.item()
        target_loss_trace[step] = target_loss_val

        if (step + 1) % config.eval_every == 0 or step == config.steps - 1:
            if memo is not None:
                recorded = memo.params[len(evals)]
                experts = [mm.model_from_arrays(arrays) for arrays in recorded]
            ev, q_expert = _evaluate(step, sources, method, head, experts, probe,
                                     pooled_val_x, target_loss_val)
            if experts is not None:     # copied only once the evaluation's temporaries are gone
                ev.expert_params = recorded if memo is not None else _recorded_params(experts)
            evals.append(ev)
            expert_probe_probs.append(q_expert)

    del head, stacked, experts, params, p       # score from the records alone
    if record is not None:                      # every step is in: publish the trajectory
        _read_only((record.logits, record.terms))
        record.params.extend(ev.expert_params for ev in evals)
        _expert_memo[key] = record
    selected_index = int(np.argmax([ev.mean_val_acc for ev in evals]))

    result = RunResult(
        source_ids=[ds.domain_id for ds in sources],
        loss_trace=loss_trace, target_loss_trace=target_loss_trace,
        evals=evals, selected_index=selected_index, probe=probe,
    )

    q_expert = expert_probe_probs[selected_index]
    if q_expert is not None:
        result.expert_probe_losses = ad.cross_entropy_rows(
            ad.tensor(q_expert), one_hot(probe.y, k), _validate=False).data
    if held_out is not None:
        agg, sel = method_kind.aggregate, result.selected
        arrays = sel.weighting_params if agg else sel.target_params
        head = None if arrays is None else mm.model_from_arrays(arrays)
        pred = predicted_labels(method.kind, head, result.selected_expert_models() if agg else None,
                                held_out.features)
        result.ood_accuracy = float(np.mean(pred == held_out.labels))
    return result


def _evaluate(step, sources, method, head, experts, probe,
              pooled_val_x, target_loss_val) -> tuple[EvalPoint, np.ndarray | None]:
    """One eval point of the head and experts, and the experts' probe probabilities.

    The point holds the head's parameter copies; ``_train`` adds the experts'. Train
    and val accuracies come from ``predicted_labels``, as the held-out score does.
    Each expert is run on its own domain's probe rows; the probabilities feed the
    rescale factors here and, at the selected point, the expert probe losses. They
    are None for a kind without experts.
    """
    train_acc, val_acc = {}, {}
    for ds in sources:
        pred = predicted_labels(method.kind, head, experts, ds.features)
        train_acc[ds.domain_id] = float(np.mean(pred[ds.train_idx] == ds.labels[ds.train_idx]))
        val_acc[ds.domain_id] = float(np.mean(pred[ds.val_idx] == ds.labels[ds.val_idx]))
    agg = METHODS[method.kind].aggregate
    if agg:
        probe_probs = aggregate_predict(method.kind, experts, head, probe.x)
        probe_logits = np.log(np.maximum(probe_probs, ad.LOG_FLOOR))
        val_entropy = float("nan")
    else:
        probe_logits = mm.forward_array(head, probe.x)
        probe_probs = softmax_np(probe_logits)
        val_entropy = an.entropy(softmax_np(mm.forward_array(head, pooled_val_x)))

    expert_val_acc, q_expert, rescale_f, rescale_fp = {}, None, None, None
    if experts is not None:
        q_expert = np.zeros_like(probe_probs)
        for e, ds in zip(experts, sources):
            expert_val_acc[ds.domain_id] = accuracy(e, ds.features[ds.val_idx],
                                                    ds.labels[ds.val_idx])
            mask = probe.domain_ids == ds.domain_id
            q_expert[mask] = softmax_np(mm.forward_array(e, probe.x[mask]))
        if method.kind == LFME and method.alpha_half > 0:
            rescale_f, rescale_fp = rescale_factors(
                probe_logits, probe_probs, q_expert, probe.y, 2.0 * method.alpha_half)

    return EvalPoint(
        step=step,
        target_loss=target_loss_val,
        train_acc=train_acc, val_acc=val_acc,
        mean_val_acc=float(np.mean(list(val_acc.values()))),
        val_entropy=val_entropy,
        probe_logit_sum=float(probe_logits.sum(axis=1).mean()),
        rescale_f=rescale_f, rescale_fp=rescale_fp,
        expert_val_acc=expert_val_acc,
        probe_probs=probe_probs,
        target_params=None if agg else head.param_arrays(),
        weighting_params=head.param_arrays() if agg and head is not None else None,
    ), q_expert


def run_method(sources, method: MethodSpec, config: TrainConfig,
               held_out: DomainDataset | None = None) -> RunResult:
    """Entry point handling methods that need a previously trained teacher."""
    if method.kind == LFME_GUID:
        # Only the teacher model is kept: the teacher run's evals, with their parameter
        # copies and probe probabilities, are freed before the guided run starts.
        teacher = train_run(sources, MethodSpec(LFME, alpha_half=method.alpha_half),
                            config, held_out=None).selected_target_model()
        return train_run(sources, method, config, held_out=held_out, teacher=teacher)
    return train_run(sources, method, config, held_out=held_out)
