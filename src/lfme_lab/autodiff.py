"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Supports exactly what MLP classification losses and logit-regression guidance
terms need: a whole ReLU MLP as one op (on 2-D operands or on [M, ...] stacks
of M same-shape models), softmax, one cross entropy against any constant
per-row target distribution (as a batch mean or per sample), squared-error
losses, per-sample loss rows, and detach. A fresh graph is built on every
forward pass. Each op result that requires grad joins its parents' tape, the
graph's op results in creation order (a Wengert list), which is already a
topological order; ``backward`` walks it once in reverse and consumes the
graph, freeing each op's saved arrays and operand links as soon as that op's
backward has run. Op results keep their data and grad.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = 1e-12


class AutodiffError(Exception):
    """Base class for autodiff failures."""


class ShapeError(AutodiffError):
    """Operand shapes are incompatible."""


class NumericError(AutodiffError):
    """Non-finite values where finite ones are required."""


class GraphError(AutodiffError):
    """Backward called on something that is not a live scalar loss."""


class Tensor:
    """Dense float64 array with an optional gradient and graph linkage.

    ``backward_fn`` and ``tape`` are set by the op that produced the tensor when
    it requires grad; leaves have neither. The op's ``backward_fn`` closure holds
    its operands. ``backward`` sets ``grad`` on the first contribution and adds
    the later ones, and clears ``backward_fn`` once the tensor's own backward has
    run.
    """

    __slots__ = ("data", "grad", "requires_grad", "backward_fn", "tape")

    def __init__(self, data, requires_grad=False, backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.backward_fn = backward_fn
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data):
    return Tensor(data)


def parameter(data):
    return Tensor(data, requires_grad=True)


class GraphTape:
    """The op results of one graph in creation order.

    Every op result is created after its parents, so reverse iteration is a
    valid backward schedule. An op that joins two graphs appends the second
    tape to the first, which keeps that order. ``backward`` takes ``nodes``
    and sets it to None: the graph is consumed.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    @classmethod
    def trace(cls, root: Tensor) -> "GraphTape":
        """The tape ``root`` belongs to; an empty one for a leaf."""
        return root.tape if root.tape is not None else cls()

    def absorb(self, other: "GraphTape") -> "GraphTape":
        """Append ``other``'s nodes to this tape and move them onto it."""
        for node in other.nodes:
            node.tape = self
        self.nodes += other.nodes
        other.nodes = None
        return self


def _result(data, parents, backward_fn):
    """The op's output; if a parent requires grad, it joins its parents' tapes."""
    if not any(p.requires_grad for p in parents):
        return Tensor(data)
    tape = None
    for p in parents:
        if p.tape is None or p.tape is tape:
            continue
        if p.tape.nodes is None:
            raise GraphError("an operand's graph was already consumed by backward")
        tape = p.tape if tape is None else tape.absorb(p.tape)
    out = Tensor(data, requires_grad=True, backward_fn=backward_fn)
    out.tape = tape if tape is not None else GraphTape()
    out.tape.nodes.append(out)
    return out


def mlp(x: Tensor, weights, biases) -> Tensor:
    """A ReLU MLP with identity output as one op. Each layer is x[B,d] @ w[d,h] + b[h], or
    the same on stacks x[M,B,d], w[M,d,h], b[M,h]. The ReLU runs in place, so backward keeps
    only each layer's input: x and the post-ReLU activations, signed like the pre-ReLU ones.
    Backward drops each layer's saved input as soon as that layer's gradients are computed."""
    h, saved = x.data, []
    for i, (w, b) in enumerate(zip(weights, biases, strict=True)):
        wd, bd = w.data, b.data
        if not (h.ndim == wd.ndim == bd.ndim + 1 and h.ndim in (2, 3)
                and h.shape[:-2] == wd.shape[:-2] == bd.shape[:-1]
                and h.shape[-1] == wd.shape[-2] and wd.shape[-1] == bd.shape[-1]):
            raise ShapeError(f"mlp layer {i} shapes incompatible: "
                             f"{h.shape} x {wd.shape} + {bd.shape}")
        saved.append((h, wd))
        h = h @ wd
        h += bd if bd.ndim == 1 else bd[:, None]
        if i < len(weights) - 1:
            np.maximum(h, 0.0, out=h)

    def backward(out):
        g = out.grad
        for i in reversed(range(len(saved))):
            (h_in, wd), w, b = saved.pop(), weights[i], biases[i]
            if w.requires_grad:
                w.accumulate_grad(h_in.mT @ g)
            if b.requires_grad:
                b.accumulate_grad(g.sum(axis=-2))
            if i > 0:
                g = g @ wd.mT
                g *= h_in > 0.0
            elif x.requires_grad:
                x.accumulate_grad(g @ wd.mT)

    return _result(h, (x, *weights, *biases), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def backward(out):
        if a.requires_grad:
            a.accumulate_grad(out.grad)
        if b.requires_grad:
            b.accumulate_grad(out.grad)

    return _result(out_data, (a, b), backward)


def scale(t: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = t.data * c

    def backward(out):
        if t.requires_grad:
            t.accumulate_grad(out.grad * c)

    return _result(out_data, (t,), backward)


def sum_all(t: Tensor) -> Tensor:
    out_data = t.data.sum()

    def backward(out):
        if t.requires_grad:
            t.accumulate_grad(np.full_like(t.data, out.grad.reshape(())))

    return _result(out_data, (t,), backward)


def sum_rows(t: Tensor) -> Tensor:
    """Sums over the last axis: [M,B] -> [M]."""
    out_data = t.data.sum(axis=-1)

    def backward(out):
        if t.requires_grad:
            t.accumulate_grad(np.broadcast_to(out.grad[..., None], t.data.shape))

    return _result(out_data, (t,), backward)


def softmax_np(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array, with max subtraction."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(z: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows of the result sum to 1."""
    if not np.all(np.isfinite(z.data)):
        raise NumericError("softmax input contains non-finite values")
    if z.data.shape[-1] < 2:
        raise ShapeError(f"softmax needs at least 2 classes, got shape {z.data.shape}")
    q = softmax_np(z.data)

    def backward(out):
        if z.requires_grad:
            g = out.grad
            inner = (g * q).sum(axis=-1, keepdims=True)
            z.accumulate_grad(q * (g - inner))

    return _result(q, (z,), backward)


def _batch_size(t: Tensor) -> int:
    return t.data.shape[0] if t.data.ndim >= 2 else 1


def cross_entropy(q: Tensor, targets) -> Tensor:
    """Batch-mean cross entropy against a constant per-row distribution.

    ``targets`` may be one-hot labels, smoothed labels or another model's
    probabilities; whoever builds them checks their values. The log argument is
    clamped at LOG_FLOOR so a zero probability cannot produce -inf.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != q.data.shape:
        raise ShapeError(f"target shape {targets.shape} does not match {q.data.shape}")
    b = _batch_size(q)
    clamped = np.maximum(q.data, LOG_FLOOR)
    out_data = -(targets * np.log(clamped)).sum() / b

    def backward(out):
        if q.requires_grad:
            g = out.grad.reshape(())
            dq = np.where(q.data >= LOG_FLOOR, -targets / clamped, 0.0)
            q.accumulate_grad(g * dq / b)

    return _result(out_data, (q,), backward)


def cross_entropy_rows(q: Tensor, y) -> Tensor:
    """Per-sample cross entropy over the last axis: [..., B, K] probabilities and
    constant targets -> [..., B]."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != q.data.shape:
        raise ShapeError(f"target shape {y.shape} does not match {q.data.shape}")
    clamped = np.maximum(q.data, LOG_FLOOR)
    out_data = -(y * np.log(clamped)).sum(axis=-1)

    def backward(out):
        if q.requires_grad:
            dq = np.where(q.data >= LOG_FLOOR, -y / clamped, 0.0)
            q.accumulate_grad(out.grad[..., None] * dq)

    return _result(out_data, (q,), backward)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Sum of squared differences divided by batch size (rows of ``a``)."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse shapes differ: {a.data.shape} vs {b.data.shape}")
    n = _batch_size(a)
    diff = a.data - b.data
    out_data = (diff * diff).sum() / n

    def backward(out):
        g = out.grad.reshape(())
        if a.requires_grad:
            a.accumulate_grad(g * 2.0 * diff / n)
        if b.requires_grad:
            b.accumulate_grad(g * -2.0 * diff / n)

    return _result(out_data, (a, b), backward)


def sq_norm_rows(a: Tensor, b) -> Tensor:
    """Per-sample squared L2 distance between rows: [B,K] x [B,K] -> [B].

    ``b`` is a constant array (no gradient flows into it).
    """
    b = np.asarray(b, dtype=np.float64)
    if a.data.shape != b.shape:
        raise ShapeError(f"sq_norm_rows shapes differ: {a.data.shape} vs {b.shape}")
    diff = a.data - b
    out_data = (diff * diff).sum(axis=1)

    def backward(out):
        if a.requires_grad:
            a.accumulate_grad(out.grad[:, None] * 2.0 * diff)

    return _result(out_data, (a,), backward)


def weighted_mean(v: Tensor, w) -> Tensor:
    """Weighted batch mean of a loss row vector: sum(v*w)/B with constant w."""
    w = np.asarray(w, dtype=np.float64)
    if v.data.ndim != 1 or w.shape != v.data.shape:
        raise ShapeError(f"weighted_mean shapes incompatible: {v.data.shape} vs {w.shape}")
    if v.data.shape[0] == 0:
        raise ShapeError("weighted_mean of an empty batch")
    b = v.data.shape[0]
    out_data = (v.data * w).sum() / b

    def backward(out):
        if v.requires_grad:
            v.accumulate_grad(out.grad.reshape(()) * w / b)

    return _result(out_data, (v,), backward)


def detach(t: Tensor) -> Tensor:
    """Same values, no graph linkage; backward never reaches t's parents."""
    return Tensor(t.data)


def backward(loss: Tensor):
    """Accumulate into the grad of every requires-grad tensor reachable from ``loss``.

    Consumes the graph: its tape is released, and each op result drops its
    ``backward_fn`` (with the operands and arrays the op saved) as soon as its
    backward has run, keeping its ``data`` and ``grad``. A second
    ``backward`` or a new op on any of its op results raises GraphError.
    Grads of leaves accumulate across separate graphs; callers zero them
    between optimizer steps.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphError("backward on a tensor with no live graph")
    tape = GraphTape.trace(loss)
    if tape.nodes is None:
        raise GraphError("backward on a graph that an earlier backward already consumed")
    loss.accumulate_grad(np.ones_like(loss.data))
    nodes, tape.nodes = tape.nodes, None
    for node in reversed(nodes):
        if node.grad is not None:
            node.backward_fn(node)
        node.backward_fn = None
