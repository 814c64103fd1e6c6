"""Desk-scale FedAvg pieces: MLP model, local gradients, aggregation,
data partitioning, and IDX dataset ingestion.

The model is a fully connected ReLU network trained with softmax
cross-entropy, stored as one flat float64 vector so that perturbation
and aggregation stay simple array arithmetic. Clients upload gradients,
not weights: local_train returns the sum of per-batch mean gradients
evaluated at the incoming parameters, and aggregate applies the
size-weighted server update w - lr * sum_k (n_k / n) g_k.

A Dataset holds uint8 pixels, as IDX files store them, and local_train
and evaluate scale each block they use by 1/255 into float32. Each call
casts the float64 model to float32 once, and raises ValueError if the
cast is not finite; local_train sums its blocks' gradients in float64.
Backpropagated deltas below float32's smallest normal number are
flushed to zero, because subnormal operands slow a GEMM several-fold (a
saturated single-class client makes many). One mask per layer applies
the flush and the ReLU's derivative together, writing masked entries as
+0.0.

The learning step is bound by its matrix products, so the elementwise
work around them runs in place: bias and ReLU on the product, softmax on
the logits, and one pixel block and one block gradient reused across a
local_train call. The weight and bias gradients are written straight
into the block gradient, and uint8 pixels are scaled into float32 in one
pass. Only arrays a call allocated are written, so model vectors, images
and gradients passed in may be read-only.

Per-client work and evaluation chunks run on one shared thread pool
with a worker per core this process may use. pool_imap yields the
results in item order as the consumer asks, keeping at most one task
more than there are workers ahead of it, so a caller that adds each
result into a sum, as aggregate does, holds about workers + 1 results
at a time whatever the item count. Each gradient is computed within
one task, and chunks only add up integer counts, so outputs do not
depend on the number of cores. A pool_imap iterated from inside a pool
task runs inline in that task. Building the pool raises glibc's mmap and
trim thresholds, unless the environment sets glibc's own, so a round's
parameter-sized temporaries reuse heap pages instead of faulting in
fresh mappings.

A Subset is given rows of a Dataset, in a given order: partition deals
each client one of the train set, and a split of the test set is one.
local_train draws from a Subset's rows and evaluate scores a Dataset or
a Subset, both gathering rows block by block, so neither a partition
nor a test split is copied.

IDX files are mapped read-only, not read: a raw file's pixels are a
view of its mapping. The md5 a run records is the one pass over the
bytes, made by a pool task over the same mappings while the rounds run;
only a replay's check and the manifest wait for it. A mapped file must
not be rewritten in place while a Dataset holds it; replacing it by a
rename, as fetch-data does, is safe.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import os
import struct
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CLASSES",
    "DEFAULT_LAYERS",
    "DATA_DIR_ENV",
    "IdxParseError",
    "Dataset",
    "Subset",
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
    "pool_imap",
]

# Digit classes: the labels' range and the model's output width.
CLASSES = 10
DEFAULT_LAYERS = (784, 128, CLASSES)
DATA_DIR_ENV = "TOKENFL_DATA_DIR"

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801

# Rows per block in local_train and evaluate: a 256x784 float32 block
# (0.8 MB) stays in L2 and keeps concurrent tasks' memory small.
_BLOCK_ROWS = 256


class IdxParseError(ValueError):
    """An IDX file refused at load: unreadable, bad magic, truncation,
    or count mismatch."""


@dataclass
class Dataset:
    """Flattened uint8 images, scaled by 1/255 as each block is used,
    with one integer class label per image."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels)
        if self.images.ndim != 2:
            raise ValueError(f"images must be 2-d (N, D), got shape {self.images.shape}")
        if self.images.dtype != np.uint8:
            raise ValueError(f"images must be uint8 pixels, got {self.images.dtype}")
        if self.labels.shape != (len(self.images),):
            raise ValueError(f"need one label per image: {len(self.images)} images, "
                             f"labels of shape {self.labels.shape}")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels must be integer class ids, got dtype {self.labels.dtype}")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= CLASSES):
            raise ValueError(f"labels must be class ids in [0, {CLASSES - 1}]")

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class Subset:
    """Rows `rows` of a Dataset, in that order, named `split`: a test
    split or a client's partition. evaluate and local_train gather them
    block by block, so no copy of the rows is made."""

    dataset: Dataset
    rows: np.ndarray
    split: str

    def __len__(self):
        return len(self.rows)


# glibc serves a request at or above its mmap threshold from a fresh
# mapping and unmaps it on free, and raises the threshold only to the size
# of a freed chunk, so every 0.8 MB float64 parameter-sized temporary of a
# round faulted its pages in anew: about 600 faults per upload. Above the
# largest of them, the mmap threshold keeps them in the heap; the trim
# threshold keeps a round's freed top of the heap for the next round
# instead of returning it.
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 32 << 20
# mallopt's parameter numbers for them, from glibc's malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# A user's own allocator settings win over the ones above.
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _keep_round_temporaries_in_heap():
    """Set glibc's mmap and trim thresholds, unless the environment sets
    allocator tunables or the C library has no mallopt."""
    if any(var in os.environ for var in _MALLOC_ENV):
        return
    import ctypes  # only building the pool needs it; numpy has loaded it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to open, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@functools.cache
def _pool():
    """The process's thread pool, one worker per core in its affinity mask.
    Building it also sets the allocator thresholds for the rounds it runs."""
    from concurrent.futures import ThreadPoolExecutor

    _keep_round_temporaries_in_heap()
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="tokenfl")


# A forked child has none of the parent's pool threads; it builds its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


# Set while the current thread runs a pool_imap task.
_in_task = threading.local()


def _task(fn, item):
    _in_task.active = True
    try:
        return fn(item)
    finally:
        _in_task.active = False


class pool_imap:
    """fn(item) for each item, computed on the thread pool and yielded in
    item order each time it is iterated; len() is the item count, which
    perfbench's tracer reads off aggregate's `grads`.

    Tasks are submitted as results are taken, at most one more than the
    pool has workers ahead of the consumer, so the results it has not
    taken yet stay few. Iterated from inside a pool task, it runs inline
    in that task: a task that waited on the pool could wait on itself.
    """

    def __init__(self, fn, items):
        self._fn, self._items = fn, list(items)

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        if getattr(_in_task, "active", False):
            yield from map(self._fn, self._items)
            return
        pool, items = _pool(), iter(self._items)
        # ThreadPoolExecutor keeps its worker count only in _max_workers.
        pending = deque(pool.submit(_task, self._fn, item)
                        for item in itertools.islice(items, pool._max_workers + 1))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(_task, self._fn, item)
                               for item in itertools.islice(items, 1))
                yield result
        finally:
            for future in pending:
                future.cancel()


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


def _read_idx_file(path) -> tuple:
    """Map a raw or gzipped IDX file read-only, copying nothing. Returns
    (on-disk bytes, IDX bytes): the mapping twice, or the mapping and
    its unpacked bytes for a gzip file. An empty file, which cannot be
    mapped, is b"" twice. A file that cannot be opened, mapped or
    unpacked raises IdxParseError naming it."""
    import mmap  # imported here, as hashlib is, so `import tokenfl` need not load it

    try:
        with open(path, "rb") as f:
            if os.fstat(f.fileno()).st_size == 0:
                return b"", b""
            raw = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as err:
        raise IdxParseError(f"{path}: cannot open or map the file: {err.strerror}") from None
    if raw[:2] != b"\x1f\x8b":
        return raw, raw
    try:
        return raw, gzip.decompress(raw)
    except (OSError, EOFError, zlib.error) as err:  # BadGzipFile is an OSError
        raise IdxParseError(f"{path}: cannot unpack the gzip file: {err}") from None


def load_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair.

    Pixels stay uint8, a read-only view of the mapped image file (or of
    its unpacked bytes, if gzipped); shapes and magics are validated,
    and violations and unreadable files raise IdxParseError with a
    distinct message per failure mode.
    """
    return _parse_idx(images_path, _read_idx_file(images_path)[1],
                      labels_path, _read_idx_file(labels_path)[1])


def _parse_idx(images_path, img: bytes, labels_path, lab: bytes) -> Dataset:
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

    images = np.frombuffer(img, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    labels = np.frombuffer(lab, dtype=np.uint8, offset=8).astype(np.int64)
    try:
        return Dataset(images, labels)
    except ValueError as err:  # the label range: the shapes were checked above
        raise IdxParseError(f"{labels_path}: {err}") from None


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


def _md5s(files: dict) -> dict:
    """The md5 hex digest of each of `files` (name -> bytes), by name.
    Empties `files` as it returns, so the pool's reference to the task
    keeps no mapping alive once the digests are out."""
    import hashlib  # loads OpenSSL, which `import tokenfl` need not pay for

    try:
        return {name: hashlib.md5(data).hexdigest() for name, data in files.items()}
    finally:
        files.clear()


def load_mnist(data_dir=None, digests=False):
    """Load the train and test splits from a directory of IDX files.

    Accepts raw or gzipped files under their standard names, and maps
    each file once. Returns (train, test) Datasets, whose raw images
    keep their file mapped. With digests=True it returns (train, test,
    digests): a Future of the md5 of each file's on-disk bytes (a gzip
    file's compressed ones) under its standard name, hashed from the
    same mappings on the thread pool once both splits have parsed. The
    caller goes on while it hashes; digests.result() waits for it.
    """
    directory = Path(data_dir) if data_dir else default_data_dir()
    out, on_disk = [], {}
    for names in MNIST_FILES.values():
        paths = [_resolve_idx_file(directory, name) for name in names]
        (img_raw, img), (lab_raw, lab) = (_read_idx_file(path) for path in paths)
        on_disk.update(zip(names, (img_raw, lab_raw)))
        out.append(_parse_idx(paths[0], img, paths[1], lab))
    if digests:
        out.append(_pool().submit(_md5s, on_disk))
    return tuple(out)


def partition(dataset: Dataset, clients: int, scheme: str, seed) -> list:
    """Split a dataset's rows among clients: one Subset per client k,
    named client-k.

    identical: every client gets a uniform random share, sizes equal up
    to one example. disjoint: the ten digit classes are dealt
    round-robin so no label is shared between clients. intermediary:
    a random half of the examples is split identically and the other
    half disjointly by label, concatenated per client. A client may get
    no rows: engine.check_inputs refuses client counts the data cannot
    fill before a run partitions it.
    """
    n = len(dataset)
    rng = np.random.default_rng(seed)

    if scheme == "identical":
        chunks = np.array_split(rng.permutation(n), clients)
    elif scheme == "disjoint":
        chunks = [rng.permutation(c)
                  for c in _deal_by_label(dataset.labels, np.arange(n), clients)]
    elif scheme == "intermediary":
        perm = rng.permutation(n)
        shared = np.array_split(perm[: n // 2], clients)
        exclusive = _deal_by_label(dataset.labels, perm[n // 2 :], clients)
        chunks = [rng.permutation(np.concatenate([s, e])) for s, e in zip(shared, exclusive)]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    return [Subset(dataset, c, f"client-{k}") for k, c in enumerate(chunks)]


def _deal_by_label(labels: np.ndarray, pool: np.ndarray, clients: int):
    """Assign the label groups within `pool` to clients round-robin: the
    g-th present label, in ascending order, goes to client g % clients,
    each group's rows in pool order.

    One stable sort of the pool by label makes the groups: Dataset keeps
    labels in [0, CLASSES), so the uint8 cast is exact and numpy sorts it
    by radix. The groups end at the running counts of the present labels.
    """
    pool_labels = labels[pool].astype(np.uint8)
    counts = np.bincount(pool_labels)
    ends = np.cumsum(counts[counts > 0])
    groups = np.split(pool[np.argsort(pool_labels, kind="stable")], ends)[:-1]
    none = [np.empty(0, dtype=np.int64)]
    return [np.concatenate(groups[k::clients] or none) for k in range(clients)]


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


def _compute_vector(params: ModelParams) -> np.ndarray:
    """The model vector cast to float32, which must keep it finite."""
    with np.errstate(over="ignore"):  # reported below, as a ValueError
        vector = params.vector.astype(np.float32)
    if not np.all(np.isfinite(vector)):
        raise ValueError("model parameters overflow float32, the compute dtype")
    return vector


def _as_compute(x: np.ndarray, out=None) -> np.ndarray:
    """Rows of uint8 pixels scaled by 1/255 into float32 in one pass: the
    bits of astype(float32) / float32(255), into the first rows of `out`
    when given."""
    scaled = None if out is None else out[: len(x)]
    return np.divide(x, np.float32(255.0), out=scaled, dtype=np.float32)


def _forward(vector: np.ndarray, layers, x: np.ndarray):
    """Logits plus the post-activation of every layer (for backprop)."""
    acts = [x]
    mats = _unpack(vector, layers)
    for i, (w, b) in enumerate(mats):
        z = acts[-1] @ w
        z += b
        if i < len(mats) - 1:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _batch_gradient(vector: np.ndarray, layers, x: np.ndarray, y: np.ndarray,
                    weight: np.ndarray, out=None) -> np.ndarray:
    """Gradient of the softmax cross-entropy of each row times its weight,
    summed over rows; weights of 1/len(y) give the batch mean. Computed
    in the dtype of `vector`, which `x` must share, and written over
    every entry of `out` when given."""
    acts = _forward(vector, layers, x)
    mats = _unpack(vector, layers)
    grad = np.empty_like(vector) if out is None else out
    gmats = _unpack(grad, layers)
    tiny = np.finfo(vector.dtype).tiny
    delta = _softmax(acts[-1])
    delta[np.arange(len(y)), y] -= 1.0
    delta *= weight[:, None]
    keep = np.abs(delta) >= tiny
    for i in range(len(gmats) - 1, -1, -1):
        # Subnormal operands would slow both GEMMs of this layer. One mask
        # flushes them and, below the output, the ReLU's dead units; the
        # + 0.0 writes masked zeros as +0.0, not -0.0.
        delta *= keep
        delta += 0.0
        gw, gb = gmats[i]
        np.matmul(acts[i].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = delta @ mats[i][0].T
            keep = np.abs(delta) >= tiny
            keep &= acts[i] > 0.0
    return grad


def batch_loss(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Mean softmax cross-entropy of a batch, in float64; the quantity
    _batch_gradient differentiates."""
    x = np.asarray(x, dtype=np.float64)
    logits = _forward(params.vector, params.layers, x)[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(y)), y].mean())


def local_train(params: ModelParams, part: Subset, batches: int, batch_size: int,
                seed) -> np.ndarray:
    """One round of local training: the gradient a client uploads.

    Returns the sum of the mean gradients of `batches` batches drawn one by
    one from the rows of the client's partition `part`, all at the incoming
    parameters. That sum is one pass over the distinct drawn rows, each
    weighted by its draw count over batch_size, in blocks of 256 rows, each
    computed in float32 and added into a float64 sum. The learning rate is
    applied server-side in aggregate().
    """
    if len(part) == 0:
        raise ValueError(f"{part.split} has an empty partition")
    dataset = part.dataset
    rng = np.random.default_rng(seed)
    replace = len(part) < batch_size
    draws = [rng.choice(part.rows, size=batch_size, replace=replace) for _ in range(batches)]
    rows, counts = np.unique(np.array(draws, dtype=np.int64), return_counts=True)
    vector = _compute_vector(params)
    weights = (counts / batch_size).astype(np.float32)
    grad = np.zeros_like(params.vector)
    block_grad = np.empty_like(vector)
    pixels = np.empty((min(len(rows), _BLOCK_ROWS), dataset.images.shape[1]), np.float32)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        grad += _batch_gradient(vector, params.layers,
                                _as_compute(dataset.images[block], pixels),
                                dataset.labels[block], weights[start : start + _BLOCK_ROWS],
                                block_grad)
    return grad


def aggregate(w_t: ModelParams, grads, sizes, lr: float) -> ModelParams:
    """Server update: w - lr * sum_k (n_k / n) g_k with n = sum of n_k.

    `grads` may be any iterable, such as a pool_imap of the uploads: each
    g_k is added into the update as it comes, in order, and then let go.
    """
    total = float(sum(sizes))
    update = np.zeros_like(w_t.vector)
    scaled = np.empty_like(w_t.vector)
    count = 0
    for g in grads:
        if count == len(sizes):
            raise ValueError(f"more gradients than the {len(sizes)} sizes")
        n_k = sizes[count]
        count += 1
        g = np.asarray(g, dtype=np.float64)
        if g.shape != w_t.vector.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {w_t.vector.shape}")
        if n_k <= 0:
            raise ValueError(f"partition sizes must be positive, got {n_k}")
        update += np.multiply(n_k / total, g, out=scaled)
    if count == 0:
        raise ValueError("need at least one gradient to aggregate")
    if count != len(sizes):
        raise ValueError(f"{count} gradients but {len(sizes)} sizes")
    update *= lr
    return ModelParams(np.subtract(w_t.vector, update, out=update), w_t.layers)


def evaluate(params: ModelParams, dataset: Dataset | Subset) -> float:
    """Fraction of examples whose argmax logit matches the label, scored
    in float32 on the thread pool, in blocks of rows small enough to stay
    in cache. A Subset's blocks are gathered by index."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    source, rows = ((dataset.dataset, dataset.rows) if isinstance(dataset, Subset)
                    else (dataset, None))
    vector = _compute_vector(params)
    chunk = _BLOCK_ROWS

    def correct(start):
        block = slice(start, start + chunk) if rows is None else rows[start : start + chunk]
        x = _as_compute(source.images[block])
        logits = _forward(vector, params.layers, x)[-1]
        return int((logits.argmax(axis=1) == source.labels[block]).sum())

    return sum(pool_imap(correct, range(0, len(dataset), chunk))) / len(dataset)
