"""Desk-scale FedAvg pieces: MLP model, local gradients, aggregation,
data partitioning, and IDX dataset ingestion.

The model is a fully connected ReLU network trained with softmax
cross-entropy, stored as one flat float64 vector so that perturbation
and aggregation stay simple array arithmetic. Clients upload gradients,
not weights: local_train returns the sum of per-batch mean gradients
evaluated at the incoming parameters, and aggregate applies the
size-weighted server update w - lr * sum_k (n_k / n) g_k.

local_train and evaluate compute in the dtype of the dataset's images:
float32 for load_idx data, float64 for a float64 dataset. Each call
casts the float64 model to that dtype once, and local_train sums its
blocks' gradients in float64. Backpropagated deltas below the dtype's
smallest normal number are flushed to zero, because subnormal operands
slow a GEMM several-fold (a saturated single-class client makes many).

Per-client work and evaluation chunks run on one shared thread pool
(pool_map) with a worker per core this process may use. Each gradient
is computed within one task, and chunks only add up integer counts, so
outputs do not depend on the number of cores. A pool_map called from
inside a pool task runs inline in that task.
"""

from __future__ import annotations

import functools
import gzip
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DEFAULT_LAYERS",
    "DATA_DIR_ENV",
    "IdxParseError",
    "Dataset",
    "DataPartition",
    "ModelParams",
    "param_count",
    "load_idx",
    "default_data_dir",
    "load_mnist",
    "partition",
    "init_model",
    "local_train",
    "aggregate",
    "evaluate",
    "pool_map",
]

DEFAULT_LAYERS = (784, 128, 10)
DATA_DIR_ENV = "TOKENFL_DATA_DIR"

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801

# Rows per block in local_train and evaluate: a 256x784 block (0.8 MB in
# float32, 1.6 MB in float64) stays in L2 and keeps concurrent tasks'
# memory small.
_BLOCK_ROWS = 256


class IdxParseError(ValueError):
    """Malformed IDX container: bad magic, truncation, or count mismatch."""


@dataclass
class Dataset:
    """Flattened images in [0, 1] with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    split: str = "train"

    def __post_init__(self):
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels)
        if self.images.ndim != 2:
            raise ValueError(f"images must be 2-d (N, D), got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"image/label count mismatch: {len(self.images)} vs {len(self.labels)}"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must be class ids in [0, 9]")

    def __len__(self):
        return len(self.labels)


@dataclass
class DataPartition:
    """Index list handing one client its slice of a master dataset."""

    indices: np.ndarray
    owner: int
    scheme: str

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)

    def __len__(self):
        return len(self.indices)


@functools.cache
def _pool():
    """The process's thread pool, one worker per core in its affinity mask."""
    from concurrent.futures import ThreadPoolExecutor

    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="tokenfl")


# A forked child has none of the parent's pool threads; it builds its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


# Set while the current thread runs a pool_map task.
_in_task = threading.local()


def _task(fn, item):
    _in_task.active = True
    try:
        return fn(item)
    finally:
        _in_task.active = False


def pool_map(fn, items) -> list:
    """[fn(item) for item in items], run on the thread pool, in item order.

    Called from inside a pool task, it runs inline in that task: a task
    that waited on the pool could wait on itself.
    """
    if getattr(_in_task, "active", False):
        return [fn(item) for item in items]
    return list(_pool().map(functools.partial(_task, fn), items))


def param_count(layers) -> int:
    return sum(fi * fo + fo for fi, fo in zip(layers[:-1], layers[1:]))


@dataclass
class ModelParams:
    """Flat parameter vector plus the layer sizes that shape it."""

    vector: np.ndarray
    layers: tuple = DEFAULT_LAYERS

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        expected = param_count(self.layers)
        if self.vector.shape != (expected,):
            raise ValueError(
                f"parameter vector has shape {self.vector.shape}, "
                f"layers {self.layers} need ({expected},)"
            )
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("parameter vector contains non-finite entries")


def _unpack(vector: np.ndarray, layers):
    """Views of the flat vector as per-layer (W, b) pairs; no copies."""
    mats = []
    offset = 0
    for fi, fo in zip(layers[:-1], layers[1:]):
        w = vector[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        b = vector[offset : offset + fo]
        offset += fo
        mats.append((w, b))
    return mats


def _read_idx_bytes(path) -> bytes:
    with open(path, "rb") as f:
        head = f.read(2)
    opener = gzip.open if head == b"\x1f\x8b" else open
    with opener(path, "rb") as f:
        return f.read()


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Parse a big-endian IDX image/label file pair.

    Pixels are scaled by 1/255 into float32; shapes and magics are
    validated and violations raise IdxParseError with a distinct message
    per failure mode.
    """
    img = _read_idx_bytes(images_path)
    if len(img) < 16:
        raise IdxParseError(f"{images_path}: truncated image header ({len(img)} bytes)")
    magic, count, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != _IMAGE_MAGIC:
        raise IdxParseError(f"{images_path}: bad image magic 0x{magic:08x}")
    if len(img) != 16 + count * rows * cols:
        raise IdxParseError(
            f"{images_path}: expected {16 + count * rows * cols} bytes "
            f"for {count} images of {rows}x{cols}, got {len(img)}"
        )

    lab = _read_idx_bytes(labels_path)
    if len(lab) < 8:
        raise IdxParseError(f"{labels_path}: truncated label header ({len(lab)} bytes)")
    magic, lcount = struct.unpack(">II", lab[:8])
    if magic != _LABEL_MAGIC:
        raise IdxParseError(f"{labels_path}: bad label magic 0x{magic:08x}")
    if len(lab) != 8 + lcount:
        raise IdxParseError(
            f"{labels_path}: expected {8 + lcount} bytes for {lcount} labels, got {len(lab)}"
        )
    if count != lcount:
        raise IdxParseError(f"image/label count mismatch: {count} images, {lcount} labels")

    images = np.frombuffer(img, dtype=np.uint8, offset=16)
    images = images.reshape(count, rows * cols).astype(np.float32) / np.float32(255.0)
    labels = np.frombuffer(lab, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images, labels, split=split)


def default_data_dir() -> Path:
    """Dataset directory: $TOKENFL_DATA_DIR or ~/.cache/tokenfl/mnist."""
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "tokenfl" / "mnist"


def _resolve_idx_file(directory: Path, name: str) -> Path:
    for candidate in (directory / name, directory / (name + ".gz")):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"{name}[.gz] not found in {directory}; run `tokenfl fetch-data` "
        f"or point {DATA_DIR_ENV} at a directory with the IDX files"
    )


def load_mnist(data_dir=None):
    """Load the train and test splits from a directory of IDX files.

    Accepts raw or gzipped files under their standard names. Returns
    (train, test) Datasets.
    """
    directory = Path(data_dir) if data_dir else default_data_dir()
    out = []
    for split, (images_name, labels_name) in MNIST_FILES.items():
        images = _resolve_idx_file(directory, images_name)
        labels = _resolve_idx_file(directory, labels_name)
        out.append(load_idx(images, labels, split=split))
    return tuple(out)


def partition(dataset: Dataset, clients: int, scheme: str, seed) -> list:
    """Split a dataset's indices among clients.

    identical: every client gets a uniform random share, sizes equal up
    to one example. disjoint: the ten digit classes are dealt
    round-robin so no label is shared between clients. intermediary:
    a random half of the examples is split identically and the other
    half disjointly by label, concatenated per client.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    rng = np.random.default_rng(seed)
    n = len(dataset)

    if scheme == "identical":
        perm = rng.permutation(n)
        chunks = np.array_split(perm, clients)
    elif scheme in ("disjoint", "intermediary"):
        labels_present = np.unique(dataset.labels)
        if clients > len(labels_present):
            raise ValueError(
                f"{scheme} scheme supports at most {len(labels_present)} clients "
                f"(one or more labels each), got {clients}"
            )
        if scheme == "disjoint":
            chunks = _deal_by_label(dataset.labels, np.arange(n), clients)
        else:
            perm = rng.permutation(n)
            half = n // 2
            shared = np.array_split(perm[:half], clients)
            exclusive = _deal_by_label(dataset.labels, perm[half:], clients)
            chunks = [np.concatenate([s, e]) for s, e in zip(shared, exclusive)]
        chunks = [rng.permutation(c) for c in chunks]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    return [DataPartition(c, owner=k, scheme=scheme) for k, c in enumerate(chunks)]


def _deal_by_label(labels: np.ndarray, pool: np.ndarray, clients: int):
    """Assign the label groups within `pool` to clients round-robin."""
    chunks = [[] for _ in range(clients)]
    pool_labels = labels[pool]
    for slot, lab in enumerate(np.unique(pool_labels)):
        chunks[slot % clients].append(pool[pool_labels == lab])
    return [np.concatenate(c) if c else np.empty(0, dtype=np.int64) for c in chunks]


def init_model(seed, layers=DEFAULT_LAYERS) -> ModelParams:
    """Scaled uniform weight init (zero biases), deterministic per seed.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)) per layer.
    """
    rng = np.random.default_rng(seed)
    vec = np.zeros(param_count(layers))
    for w, _ in _unpack(vec, layers):
        fi, fo = w.shape
        limit = np.sqrt(6.0 / (fi + fo))
        w[:] = rng.uniform(-limit, limit, size=(fi, fo))
    return ModelParams(vec, layers)


def _compute_dtype(images: np.ndarray):
    """float32 for float32 images, float64 for anything else."""
    return np.float32 if images.dtype == np.float32 else np.float64


def _forward(vector: np.ndarray, layers, x: np.ndarray):
    """Logits plus the post-activation of every layer (for backprop)."""
    acts = [x]
    mats = _unpack(vector, layers)
    for i, (w, b) in enumerate(mats):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if i < len(mats) - 1 else z)
    return acts


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _batch_gradient(vector: np.ndarray, layers, x: np.ndarray, y: np.ndarray,
                    weight: np.ndarray) -> np.ndarray:
    """Gradient of the softmax cross-entropy of each row times its weight,
    summed over rows; weights of 1/len(y) give the batch mean. Computed
    in the dtype of `vector`, which `x` must share."""
    acts = _forward(vector, layers, x)
    mats = _unpack(vector, layers)
    grad = np.zeros_like(vector)
    gmats = _unpack(grad, layers)
    tiny = np.finfo(vector.dtype).tiny
    delta = _softmax(acts[-1])
    delta[np.arange(len(y)), y] -= 1.0
    delta *= weight[:, None]
    for i in range(len(gmats) - 1, -1, -1):
        # Subnormal operands would slow both GEMMs of this layer.
        delta[np.abs(delta) < tiny] = 0.0
        gw, gb = gmats[i]
        gw[:] = acts[i].T @ delta
        gb[:] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ mats[i][0].T) * (acts[i] > 0.0)
    return grad


def batch_loss(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy of a batch, in float64; the quantity
    _batch_gradient differentiates."""
    x = np.asarray(x, dtype=np.float64)
    logits = _forward(params.vector, params.layers, x)[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(y)), y].mean())


def local_train(params: ModelParams, dataset: Dataset, part: DataPartition,
                batches: int, batch_size: int, seed) -> np.ndarray:
    """One round of local training: the gradient a client uploads.

    Returns the sum of the mean gradients of `batches` batches drawn one by
    one from the client's partition, all at the incoming parameters. That
    sum is computed as one pass over the distinct drawn rows, each weighted
    by its draw count over batch_size, in blocks of 256 rows, each in the
    images' dtype and added into a float64 sum. The learning rate is
    applied server-side in aggregate().
    """
    if len(part) == 0:
        raise ValueError(f"client {part.owner} has an empty partition")
    rng = np.random.default_rng(seed)
    replace = len(part) < batch_size
    draws = [rng.choice(part.indices, size=batch_size, replace=replace) for _ in range(batches)]
    rows, counts = np.unique(np.array(draws, dtype=np.int64), return_counts=True)
    dtype = _compute_dtype(dataset.images)
    vector = params.vector.astype(dtype, copy=False)
    weights = (counts / batch_size).astype(dtype, copy=False)
    grad = np.zeros_like(params.vector)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        grad += _batch_gradient(vector, params.layers,
                                dataset.images[block].astype(dtype, copy=False),
                                dataset.labels[block], weights[start : start + _BLOCK_ROWS])
    return grad


def aggregate(w_t: ModelParams, grads, sizes, lr: float) -> ModelParams:
    """Server update: w - lr * sum_k (n_k / n) g_k with n = sum of n_k."""
    if len(grads) == 0:
        raise ValueError("need at least one gradient to aggregate")
    if len(grads) != len(sizes):
        raise ValueError(f"{len(grads)} gradients but {len(sizes)} sizes")
    total = float(sum(sizes))
    update = np.zeros_like(w_t.vector)
    for g, n_k in zip(grads, sizes):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != w_t.vector.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {w_t.vector.shape}")
        if n_k <= 0:
            raise ValueError(f"partition sizes must be positive, got {n_k}")
        update += (n_k / total) * g
    return ModelParams(w_t.vector - lr * update, w_t.layers)


def evaluate(params: ModelParams, dataset: Dataset, chunk: int = _BLOCK_ROWS) -> float:
    """Fraction of examples whose argmax logit matches the label, scored
    in the images' dtype on the thread pool, in chunks of rows small
    enough to stay in cache."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    dtype = _compute_dtype(dataset.images)
    vector = params.vector.astype(dtype, copy=False)

    def correct(start):
        x = dataset.images[start : start + chunk].astype(dtype, copy=False)
        logits = _forward(vector, params.layers, x)[-1]
        return int((logits.argmax(axis=1) == dataset.labels[start : start + chunk]).sum())

    return sum(pool_map(correct, range(0, len(dataset), chunk))) / len(dataset)
