"""MLP classifiers and binary checkpoint serialization.

One architecture serves the per-domain experts, the deployed target model,
and the domain-weighting network: ReLU hidden layers, identity output, so
the forward pass yields raw logits and losses apply softmax themselves. A
forward pass is one ``autodiff.mlp`` op, so a model adds one node to a graph.
The M experts train as one stacked model whose parameters are [M, ...] arrays.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad

CHECKPOINT_MAGIC = b"LFMECKPT"
CHECKPOINT_VERSION = 1

ROLE_CODES = {"target": 0, "expert": 1, "weighting": 2}
ROLE_NAMES = {v: k for k, v in ROLE_CODES.items()}


class CheckpointError(Exception):
    """Malformed or unreadable checkpoint file."""


@dataclass
class MlpModel:
    layer_dims: list[int]
    weights: list[ad.Tensor]
    biases: list[ad.Tensor]

    def parameters(self) -> list[ad.Tensor]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params

    def param_arrays(self) -> list[np.ndarray]:
        return [p.data.copy() for p in self.parameters()]


def init_mlp(layer_dims, seed) -> MlpModel:
    """Uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)) weights, zero biases."""
    layer_dims = [int(d) for d in layer_dims]
    if len(layer_dims) < 2:
        raise ValueError(f"need at least input and output dims, got {layer_dims}")
    if any(d <= 0 for d in layer_dims):
        raise ValueError(f"layer dims must be positive: {layer_dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
        biases.append(ad.parameter(np.zeros(fan_out)))
    return MlpModel(layer_dims, weights, biases)


def model_from_arrays(arrays) -> MlpModel:
    """An MLP over parameter arrays (weight, bias, ...), not copies; dims read off them."""
    params = [ad.parameter(a) for a in arrays]
    shapes = [p.data.shape for p in params]
    dims = [*shapes[0][:1], *(s[-1] for s in shapes[1::2] if s)] if shapes else []
    chained = [s for fan_in, fan_out in zip(dims, dims[1:])
               for s in ((fan_in, fan_out), (fan_out,))]
    if len(dims) < 2 or min(dims) <= 0 or shapes != chained:
        raise ValueError(f"parameter shapes {shapes} are not (weight, bias) pairs that chain")
    return MlpModel(dims, params[::2], params[1::2])


def stack_models(models: list[MlpModel]) -> MlpModel:
    """One model whose parameters are [M, ...] stacks of M same-shape models' parameters."""
    dims = models[0].layer_dims
    for m in models[1:]:
        if m.layer_dims != dims:
            raise ValueError(f"cannot stack layer dims {m.layer_dims} with {dims}")
    stacked = [ad.parameter(np.stack([p.data for p in ps]))
               for ps in zip(*(m.parameters() for m in models))]
    return MlpModel(dims, stacked[::2], stacked[1::2])


def unstack(model: MlpModel) -> list[MlpModel]:
    """Per-member models whose parameters are views of a stacked model's storage.

    A view follows in-place updates of the stack, so make views after an
    optimizer has taken over (and rebound) the stacked parameters.
    """
    return [MlpModel(model.layer_dims, [ad.tensor(w.data[i]) for w in model.weights],
                     [ad.tensor(b.data[i]) for b in model.biases])
            for i in range(model.weights[0].data.shape[0])]


def forward(model: MlpModel, x: ad.Tensor) -> ad.Tensor:
    """Logits for a batch of feature rows; ReLU hidden, identity output.

    A stacked model takes one batch per member, x[M,B,d], and gives [M,B,K]; ``ad.mlp``
    raises ShapeError for an input of another rank or feature width.
    """
    return ad.mlp(x, model.weights, model.biases)


def forward_array(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Graph-free forward pass on a plain array (evaluation path).

    Runs ``forward`` on constant tensors over the same parameter arrays, so no
    op result requires grad and no tape is built.
    """
    constants = MlpModel(model.layer_dims, [ad.tensor(w.data) for w in model.weights],
                         [ad.tensor(b.data) for b in model.biases])
    return forward(constants, ad.tensor(x)).data


@dataclass
class Checkpoint:
    version: int
    role: str
    index: int
    step: int
    seed: int
    layer_dims: list[int]
    arrays: list[np.ndarray] = field(repr=False)

    def to_model(self) -> MlpModel:
        return model_from_arrays(self.arrays)


def atomic_write(path, writer, binary=False):
    """Run ``writer(f)`` on a temp file beside ``path``, then rename it into place.

    ``path`` is either absent or complete: a writer that raises leaves no file
    and no temp file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with (os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", newline="")) as f:
            writer(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(model: MlpModel, path, *, role="target", index=0, step=0, seed=0):
    """Little-endian binary: magic, version, role, index, step, seed, dims, params."""
    if role not in ROLE_CODES:
        raise ValueError(f"unknown role {role!r}")

    def writer(f):
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IBIQQ", CHECKPOINT_VERSION, ROLE_CODES[role],
                            int(index), int(step), int(seed)))
        f.write(struct.pack("<I", len(model.layer_dims)))
        f.write(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
        for w, b in zip(model.weights, model.biases):
            f.write(np.ascontiguousarray(w.data, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b.data, dtype="<f8").tobytes())
    atomic_write(path, writer, binary=True)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic bytes in {path}")
    off = 8
    try:
        version, role_code, index, step, seed = struct.unpack_from("<IBIQQ", blob, off)
        off += struct.calcsize("<IBIQQ")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if role_code not in ROLE_NAMES:
            raise CheckpointError(f"unknown role code {role_code}")
        (ndims,) = struct.unpack_from("<I", blob, off)
        off += 4
        dims = list(struct.unpack_from(f"<{ndims}I", blob, off))
        off += 4 * ndims
    except struct.error as e:
        raise CheckpointError(f"truncated checkpoint header in {path}: {e}") from e
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise CheckpointError(f"invalid layer dims {dims}")
    arrays = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            count = int(np.prod(shape))
            nbytes = 8 * count
            if off + nbytes > len(blob):
                raise CheckpointError(f"checkpoint payload shorter than dims imply in {path}")
            arrays.append(np.frombuffer(blob, dtype="<f8", count=count, offset=off)
                          .astype(np.float64).reshape(shape))
            off += nbytes
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes in {path}")
    return Checkpoint(version, ROLE_NAMES[role_code], index, step, seed, dims, arrays)
