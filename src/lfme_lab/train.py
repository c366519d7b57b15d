"""Optimizers, the training-method registry, and the training loop.

One loop covers every method: per-domain experts trained on their own
minibatches by their own optimizer, and at most one head trained on the
concatenated batch by another. The head is the target model, with a
method-specific guidance term, or for the dynamic aggregation baseline the
domain-weighting network, an erm classifier of each row's source domain.

The experts never see the head, so their trajectory is the same for every
method trained on the same data and config. The loop reads it step by step
from ``_expert_steps``: the last run that trains the experts records it
(logits and loss term per step, parameters per eval point), and a later run
with the same data and config replays it (README "Expert memo").
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import mmap
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import analysis as an
from . import autodiff as ad
from . import models as mm
from .autodiff import softmax_np
from .domains import DomainDataset, check_fields, checked, make_batches, one_hot

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
    alpha_half: float = checked(1.0, float, ">= 0")
    ls_epsilon: float = checked(0.1, float, ">= 0", "< 1")
    ramp_steps: int | None = checked(None, int, ">= 0")     # KD_CE ramp length; default steps // 2
    hard_weight_beta: float = checked(1.0, float)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not isinstance(self.kind, str) or self.kind not in METHODS:
            raise ConfigError(f"kind must be one of {', '.join(METHODS)}, got {self.kind!r}")
        check_fields(self, ConfigError)

    @property
    def name(self) -> str:
        return self.kind


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    lr: float = checked(1e-3, float, ">= 0")
    weight_decay: float = checked(1e-4, float, ">= 0")
    steps: int = checked(5000, int, ">= 1")
    batch_per_domain: int = checked(32, int, ">= 1")
    seed: int = checked(0, int, ">= 0")
    eval_every: int = checked(250, int, ">= 1")
    hidden_dims: tuple[int, ...] = checked(DEFAULT_HIDDEN, int, ">= 1", each=True)
    probe_per_domain: int = checked(40, int, ">= 1")

    def __post_init__(self):    # a JSON config's list: runs and the expert key read a tuple
        if isinstance(self.hidden_dims, list):
            object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        self.validate()

    def validate(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        check_fields(self, ConfigError)


class FlatStorage:
    """One contiguous data buffer and one gradient buffer behind a parameter list.

    At construction each ``p.data`` and ``p.grad`` is rebound to a reshaped view of
    ``self.data`` and ``self.grad``. From then on values and gradients are written in
    place: backward accumulates straight into the buffer, and an optimizer step is a
    few whole-buffer operations. The step uses the gradient buffer as its work area,
    so ``p.grad`` is valid only between backward and ``step``. ``release`` drops the
    gradient views after a run's last update; ``data`` stays with the parameters.
    """

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter was passed to the optimizer twice")
        self.lr = lr
        self.weight_decay = weight_decay
        self.data = np.concatenate([p.data.ravel() for p in self.params])
        self.grad = np.zeros_like(self.data)
        bounds = np.cumsum([p.data.size for p in self.params])[:-1]
        for p, data, grad in zip(self.params, np.split(self.data, bounds),
                                 np.split(self.grad, bounds)):
            p.data, p.grad = data.reshape(p.data.shape), grad.reshape(p.data.shape)

    def zero_grad(self):
        self.grad.fill(0.0)

    def update(self, loss: ad.Tensor):
        """One step on ``loss``: zero the gradients, backpropagate, then ``step``."""
        self.zero_grad()
        ad.backward(loss)
        self.step()

    def release(self):
        """Drop every parameter's gradient view; the optimizer takes no further update."""
        for p in self.params:
            p.grad = None


class SgdMomentum(FlatStorage):
    MOMENTUM = 0.9

    def __init__(self, params, lr, weight_decay=0.0):
        super().__init__(params, lr, weight_decay)
        self.velocity = np.zeros_like(self.data)

    def step(self):
        g, v = self.grad, self.velocity
        g += np.multiply(self.data, self.weight_decay)      # the step's one temporary
        v *= self.MOMENTUM
        v += g
        np.multiply(v, self.lr, out=g)
        self.data -= g


class Adam(FlatStorage):
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        super().__init__(params, lr, weight_decay)
        self.t = 0
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self):
        # The per-tensor update's elementwise ops in the same order, so runs stay bitwise:
        # g = grad + wd*p; m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        # p -= lr*(m/bias1) / (sqrt(v/bias2) + eps).
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
    """The experts' loss term: each expert's batch-mean loss, summed over experts.

    ``rows`` holds per-sample losses [M,B]. numpy sums fewer than 8 values left to
    right, so for M < 8 the value is bitwise the ((e0 + e1) + e2) of per-expert terms.
    """
    return ad.sum_all(ad.scale(ad.sum_rows(rows), 1.0 / rows.data.shape[-1]))


def target_loss(method: MethodSpec, z: ad.Tensor, guides: dict) -> ad.Tensor:
    """The target model's loss on logits ``z``; one softmax of ``z`` feeds every term.

    ``guides`` holds constants: ``y`` (one-hot labels) and, where the kind uses them,
    ``q_expert``, ``z_expert``, ``q_teacher`` and ``kd_ce_weight``. ls takes its cross
    entropy against the smoothed labels. ermp_w_expt weights each row by the cross
    entropy of ``q_expert`` against ``y``, the experts' row loss.
    """
    kind, alpha_half, y = method.kind, method.alpha_half, guides["y"]
    q = ad.softmax(z)
    if kind == KD_CE:
        weight = guides["kd_ce_weight"]
        cla = ad.scale(ad.cross_entropy(q, y), 1.0 - weight)
        if weight == 0.0:
            return cla
        kd = ad.cross_entropy(q, guides["q_expert"])
        return ad.add(cla, ad.scale(kd, weight))
    if kind in (ERMP_W_EXPT, ERMP_W_SELF) and method.hard_weight_beta != 0.0:
        v = ad.cross_entropy_rows(q, y)
        if alpha_half != 0.0:
            v = ad.add(v, ad.scale(ad.sq_norm_rows(z, y), alpha_half))
        ref = (ad.cross_entropy_rows(ad.tensor(guides["q_expert"]), y).data
               if kind == ERMP_W_EXPT else v.data)
        return ad.weighted_mean(v, hard_weights(ref, method.hard_weight_beta))
    if kind == LS:
        y = (1.0 - method.ls_epsilon) * y + method.ls_epsilon / y.shape[-1]
    cla = ad.cross_entropy(q, y)
    pair = METHODS[kind].guidance
    if pair is None or alpha_half == 0.0:
        return cla
    a, b = pair
    guide = ad.detach(q) if b == "q" else ad.tensor(guides[b])
    return ad.add(cla, ad.scale(ad.mse(z if a == "z" else q, guide), alpha_half))


def kd_weight(alpha_half: float, step: int, ramp_steps: int) -> float:
    """Linear ramp from 0 to alpha_half over ramp_steps (no ramp when 0)."""
    if ramp_steps <= 0:
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


def accuracy(model: list[np.ndarray], x: np.ndarray, y: np.ndarray) -> float:
    if len(y) == 0:
        return float("nan")
    return float(np.mean(mm.forward_array(model, x).argmax(axis=1) == y))


def aggregate_predict(kind: str, experts: list[list[np.ndarray]],
                      weighting: list[np.ndarray] | None, x: np.ndarray) -> np.ndarray:
    """Combined expert probabilities for one inference-time aggregation rule. agg_ms
    averages the experts' parameters; they are slices of one stack, so their shapes agree."""
    if kind == AGG_MS:
        return softmax_np(mm.forward_array([np.mean(a, axis=0) for a in zip(*experts)], x))
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


def predicted_labels(kind: str, head: list[np.ndarray] | None,
                     experts: list[list[np.ndarray]] | None, x: np.ndarray) -> np.ndarray:
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


def _recorded_params(stacked: mm.MlpModel) -> list[list[np.ndarray]]:
    """Each expert's parameter arrays: read-only views of one copy of the stacked
    parameters, in one ``_mapped`` buffer."""
    copies = _mapped([p.data.shape for p in stacked.parameters()])
    for copy, p in zip(copies, stacked.parameters()):
        copy[...] = p.data
    _read_only(copies)
    return [[copy[i] for copy in copies] for i in range(len(copies[0]))]


# One step of the experts: their batch (None when replayed), logits [M*B, K] and loss term,
# and at an eval point ``models``, each expert's parameter arrays to evaluate, and
# ``params``, the read-only copies the point records. A replay hands out its recorded
# arrays as both; a miss, live views of the stacked storage, and fills ``params`` only
# when the next step is drawn (or the steps run out), after the caller has evaluated the
# point. Copying before the yield would keep the copy alive through the head's update and
# the evaluation of that step, and a run peaks in those of its last step: in perfbench's
# guided_wide that raised the peak RSS from 118.9 to 125.5 MiB.
ExpertStep = namedtuple("ExpertStep", "batch logits term models params", defaults=(None,) * 5)


def _evaluates(step: int, config: TrainConfig) -> bool:
    return (step + 1) % config.eval_every == 0 or step == config.steps - 1


def _expert_steps(sources: list[DomainDataset], config: TrainConfig, dims):
    """The ``ExpertStep`` of each step: read from the memo on a hit; on a miss, after
    dropping the memo's entry, from the stacked experts trained by their own optimizer.
    The setup runs at the call, so a miss allocates the experts' state before the head's."""
    key = expert_key(sources, config, dims)
    memo = _expert_memo.get(key)
    if memo is not None:
        return _replayed_steps(memo, config)
    _expert_memo.clear()
    stacked = mm.stack_models([mm.init_mlp(dims, [config.seed, 12, i])
                               for i in range(len(sources))])
    opt = make_optimizer(stacked.parameters(), config)
    steps, rows, k = config.steps, len(sources) * config.batch_per_domain, dims[-1]
    size = 8 * (steps * (rows * k + 1) + -(-steps // config.eval_every) * opt.data.size)
    record = (ExpertTrajectory(*_mapped([(steps, rows, k), (steps,)]), [])
              if size <= EXPERT_MEMO_BYTES else None)     # the trajectory, if it fits the cap
    return _trained_steps(sources, config, stacked, opt, record, key)


def _replayed_steps(memo: ExpertTrajectory, config: TrainConfig):
    points = iter(memo.params)
    for step in range(config.steps):
        params = next(points) if _evaluates(step, config) else None
        yield ExpertStep(None, memo.logits[step], memo.terms[step], params, params)


def _trained_steps(sources, config, stacked, opt, record, key):
    """One update of the stacked experts per step, recorded into ``record`` if not None and
    published once the last step is drawn, so a run that raises publishes nothing."""
    steps, k = config.steps, stacked.layer_dims[-1]
    # Per-expert views of the storage ``opt`` owns: they follow its in-place updates.
    experts = [[p.data[i] for p in stacked.parameters()] for i in range(len(sources))]
    points = [] if record is None else record.params
    for step in range(steps):
        batch = make_batches(sources, config.batch_per_domain, config.seed, step)
        z = mm.forward(stacked, ad.tensor(batch.xs))
        y = one_hot(batch.y_all, k).reshape(*batch.ys.shape, k)
        term = loss_expert(ad.cross_entropy_rows(ad.softmax(z), y))
        opt.update(term)
        if step == steps - 1:                   # the last update is in: free the optimizer
            opt.release()
            opt = None
        logits = z.data.reshape(-1, k)
        if record is not None:
            record.logits[step], record.terms[step] = logits, term.data
        params = [] if _evaluates(step, config) else None
        yield ExpertStep(batch, logits, term.data, None if params is None else experts, params)
        if params is not None:                  # after the caller's evaluation (ExpertStep)
            params.extend(_recorded_params(stacked))
            points.append(params)
    if record is not None:
        _read_only((record.logits, record.terms))
        _expert_memo[key] = record


# ---------------------------------------------------------------------------
# The training loop


def check_sources(sources: list[DomainDataset], batch_per_domain: int):
    """Raise a ``ConfigError`` unless there are 2 or more sources and each one's train split
    holds a batch. Each message names its config key, for the CLI to print under ``config.``."""
    if len(sources) < 2:
        raise ConfigError(f"suite: a run needs at least 2 source domains, got {len(sources)}")
    for ds in sources:
        if batch_per_domain > len(ds.train_idx):
            raise ConfigError(f"train.batch_per_domain {batch_per_domain} exceeds the "
                              f"{len(ds.train_idx)} train rows of source {ds.name}")


def train_run(sources: list[DomainDataset], method: MethodSpec, config: TrainConfig,
              held_out: DomainDataset | None = None,
              teacher: list[np.ndarray] | None = None) -> RunResult:
    """Train one method on the given source domains.

    The experts train on their own domains' batches with their own optimizer, the
    run's one head (the target, or agg_dyn's weighting network) on the pooled batch
    with another; the experts never read the head. A run whose experts' data and
    config match the last run that trained experts replays their recorded trajectory
    instead, bitwise the same.

    A run whose step matmuls are all below ``SERIAL_BLAS_MADDS`` runs, evaluation
    included, on one BLAS thread; a larger one keeps the caller's count. The
    thread count does not change any result.
    """
    check_sources(sources, config.batch_per_domain)
    dims = [sources[0].features.shape[1], *config.hidden_dims, sources[0].n_classes]
    serial = step_matmul_madds(len(sources), config, dims) < SERIAL_BLAS_MADDS
    with blas_threads(1) if serial else contextlib.nullcontext():
        return _train(sources, method, config, held_out, teacher, dims)


def _train(sources, method, config, held_out, teacher, dims) -> RunResult:
    """``train_run``'s loop, on the thread count ``train_run`` chose.

    Each step reads the experts' ``ExpertStep``, trained or replayed alike: the head
    trains on their batch (or builds one after a replay), for a target with their logits
    and ``q^E``, the logits' softmax, as guides; their term only adds to ``loss_trace``.
    lfme_guid's ``teacher`` is a parameter list. After the last update each optimizer is
    released and dropped, so the last evaluation runs without them. After the loop the
    live models and their flat data buffers are dropped: the run is scored from its
    records alone, the held-out score from the selected point's parameter copies and the
    expert probe losses from the experts' probe probabilities ``_evaluate`` returned for it.
    """
    d, k = dims[0], dims[-1]
    n_src, b = len(sources), config.batch_per_domain

    method_kind = METHODS[method.kind]
    if method.kind == LFME_GUID and teacher is None:
        raise ConfigError("lfme_guid needs a frozen teacher model")

    expert_steps = _expert_steps(sources, config, dims) if method_kind.experts \
        else itertools.repeat(ExpertStep(), config.steps)

    # The one head ``target_loss`` trains: the target, or agg_dyn's weighting net as erm on
    # each row's source-domain position. The other aggregation kinds train none.
    head, head_method, head_y = None, method, None
    if method_kind.weighting:
        head = mm.init_mlp([d, *config.hidden_dims, n_src], [config.seed, 13, 0])
        head_method, head_y = MethodSpec(ERM), one_hot(np.repeat(np.arange(n_src), b), n_src)
    elif not method_kind.aggregate:
        head = mm.init_mlp(dims, [config.seed, 11, 0])
    opt = make_optimizer(head.parameters(), config) if head is not None else None

    probe = make_probe(sources, config)
    ramp = method.ramp_steps if method.ramp_steps is not None else config.steps // 2
    pooled_val_x = np.concatenate([ds.features[ds.val_idx] for ds in sources])

    loss_trace = np.zeros(config.steps)
    target_loss_trace = np.full(config.steps, np.nan)     # nan where no target trains
    evals: list[EvalPoint] = []
    expert_probe_probs = []             # per eval point, None without experts

    for step, ex in enumerate(expert_steps):
        loss = ex.term
        if head is not None:
            batch = make_batches(sources, b, config.seed, step) if ex.batch is None else ex.batch
            z = mm.forward(head, ad.tensor(batch.x_all))
            guides = {"y": one_hot(batch.y_all, k) if head_y is None else head_y,
                      "kd_ce_weight": kd_weight(method.alpha_half, step, ramp)}
            if ex.logits is not None and head_y is None:    # the weighting net reads none
                guides.update(q_expert=softmax_np(ex.logits), z_expert=ex.logits)
            if teacher is not None:
                guides["q_teacher"] = softmax_np(mm.forward_array(teacher, batch.x_all))
            t_loss = target_loss(head_method, z, guides)
            if not method_kind.aggregate:
                target_loss_trace[step] = t_loss.item()
            opt.update(t_loss)
            if step == config.steps - 1:        # the last update is in: free the optimizer
                opt.release()
                opt = None
            loss = t_loss.data if loss is None else loss + t_loss.data
        loss_trace[step] = loss
        if _evaluates(step, config):
            head_arrays = None if head is None else [p.data for p in head.parameters()]
            ev, q_expert = _evaluate(step, sources, method, head_arrays, ex.models, probe,
                                     pooled_val_x, float(target_loss_trace[step]))
            ev.expert_params = ex.params
            evals.append(ev)
            expert_probe_probs.append(q_expert)

    del head, head_arrays, ex                   # score from the records alone
    selected_index = int(np.argmax([ev.mean_val_acc for ev in evals]))

    result = RunResult(source_ids=[ds.domain_id for ds in sources], loss_trace=loss_trace,
                       target_loss_trace=target_loss_trace, evals=evals,
                       selected_index=selected_index, probe=probe)

    q_expert = expert_probe_probs[selected_index]
    if q_expert is not None:
        result.expert_probe_losses = ad.cross_entropy_rows(
            ad.tensor(q_expert), one_hot(probe.y, k)).data
    if held_out is not None:
        sel = result.selected
        head = sel.weighting_params if method_kind.aggregate else sel.target_params
        pred = predicted_labels(method.kind, head, sel.expert_params, held_out.features)
        result.ood_accuracy = float(np.mean(pred == held_out.labels))
    return result


def _evaluate(step, sources, method, head, experts, probe,
              pooled_val_x, target_loss_val) -> tuple[EvalPoint, np.ndarray | None]:
    """One eval point of the head and experts, and the experts' probe probabilities.

    ``head`` and each of ``experts`` are parameter lists, or None where the kind has
    none. The point holds copies of the head's; ``_train`` adds the experts'. Train
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
        target_params=None if agg else [a.copy() for a in head],
        weighting_params=[a.copy() for a in head] if agg and head is not None else None,
    ), q_expert


def run_method(sources, method: MethodSpec, config: TrainConfig,
               held_out: DomainDataset | None = None) -> RunResult:
    """Entry point handling methods that need a previously trained teacher."""
    if method.kind == LFME_GUID:
        # Only the teacher's parameter arrays are kept: the teacher run's evals, with their
        # parameter copies and probe probabilities, are freed before the guided run starts.
        teacher = train_run(sources, MethodSpec(LFME, alpha_half=method.alpha_half),
                            config, held_out=None).selected.target_params
        return train_run(sources, method, config, held_out=held_out, teacher=teacher)
    return train_run(sources, method, config, held_out=held_out)
