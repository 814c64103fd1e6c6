"""Seeded, learnable MNIST-shaped data written as raw IDX files.

Each of the ten classes has a prototype image made of a few Gaussian
blobs. A sample is its class prototype blended with a random other
class's prototype (own weight uniform in [0.5, 1]) plus pixel noise, so
the classes overlap and the federated model is still improving at round
50 instead of saturating. Sizes match the real dataset: 60,000 train
and 10,000 test images of 28x28 uint8.

    python3 perfbench/synth.py <directory> <seed>
"""

from __future__ import annotations

import struct
import sys
from pathlib import Path

import numpy as np

SIDE = 28
CLASSES = 10
TRAIN, TEST = 60_000, 10_000
MIX_LOW = 0.5
NOISE = 0.3
# Bump when the generator changes, so stale cached data is regenerated.
VERSION = 1


def _prototypes(rng) -> np.ndarray:
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    protos = np.zeros((CLASSES, SIDE * SIDE))
    for k in range(CLASSES):
        img = np.zeros((SIDE, SIDE))
        for _ in range(6):
            cy, cx = rng.uniform(6, 22, size=2)
            s = rng.uniform(1.5, 3.5)
            img += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
        protos[k] = (img / img.max()).ravel()
    return protos


def _split(rng, protos, n, chunk=5_000):
    labels = (np.arange(n) % CLASSES).astype(np.uint8)
    rng.shuffle(labels)
    images = np.empty((n, SIDE * SIDE), dtype=np.uint8)
    for s in range(0, n, chunk):
        y = labels[s : s + chunk].astype(np.int64)
        other = (y + rng.integers(1, CLASSES, size=len(y))) % CLASSES
        a = rng.uniform(MIX_LOW, 1.0, size=(len(y), 1))
        x = a * protos[y] + (1 - a) * protos[other]
        x += NOISE * rng.standard_normal(x.shape)
        images[s : s + chunk] = np.clip(x * 255.0, 0, 255).astype(np.uint8)
    return images, labels


def _write_pair(directory: Path, prefix: str, images, labels) -> None:
    header = struct.pack(">IIII", 0x00000803, len(images), SIDE, SIDE)
    (directory / f"{prefix}-images-idx3-ubyte").write_bytes(header + images.tobytes())
    header = struct.pack(">II", 0x00000801, len(labels))
    (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(header + labels.tobytes())


def write_dataset(directory: Path, seed: int) -> None:
    """Write the four IDX files for `seed` unless they are already there."""
    stamp = directory / "stamp"
    want = f"synth v{VERSION} seed {seed}\n"
    if stamp.exists() and stamp.read_text() == want:
        return
    directory.mkdir(parents=True, exist_ok=True)
    stamp.unlink(missing_ok=True)
    rng = np.random.default_rng(seed)
    protos = _prototypes(rng)
    _write_pair(directory, "train", *_split(rng, protos, TRAIN))
    _write_pair(directory, "t10k", *_split(rng, protos, TEST))
    stamp.write_text(want)


if __name__ == "__main__":
    write_dataset(Path(sys.argv[1]), int(sys.argv[2]))
