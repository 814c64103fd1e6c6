"""Shared fixtures: dataset resolution, synthetic stand-in data,
hand-built IDX files, and a per-session cache of preset runs."""

import struct

import tokenfl  # noqa: F401  # before numpy, so its BLAS pin holds for the tests' small batches
import numpy as np
import pytest

from tokenfl.cli import parse_config
from tokenfl.engine import run_simulation
from tokenfl.learning import Dataset, load_mnist
from tokenfl.presets import preset_config


@pytest.fixture(scope="session")
def mnist():
    """The real train/test splits, or an honest skip when absent."""
    try:
        return load_mnist()
    except FileNotFoundError as err:
        pytest.skip(f"image dataset not staged: {err}")


def make_synthetic(n_train=600, n_test=300, dims=784, classes=10, seed=1234):
    """Random uint8 images with balanced labels, shaped like the real data.

    Useless for learning anything, which is the point: engine tests
    exercise scheduling and token mechanics, not model quality.
    """
    rng = np.random.default_rng(seed)

    def split(n):
        images = rng.integers(0, 256, size=(n, dims), dtype=np.uint8)
        labels = np.arange(n, dtype=np.int64) % classes
        order = rng.permutation(n)
        return Dataset(images[order], labels[order])

    return split(n_train), split(n_test)


@pytest.fixture(scope="session")
def synthetic_datasets():
    return make_synthetic()


def write_idx_pair(directory, images, labels, prefix="train"):
    """Serialize uint8 images (N, rows, cols) and labels as an IDX pair."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = directory / f"{prefix}-images-idx3-ubyte"
    lab_path = directory / f"{prefix}-labels-idx1-ubyte"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return img_path, lab_path


@pytest.fixture
def idx_builder():
    return write_idx_pair


@pytest.fixture(scope="session")
def run_preset(mnist):
    """Run a named preset once per session and memoize its Run."""
    cache = {}

    def run(name):
        if name not in cache:
            config = parse_config(preset_config(name), name)
            cache[name] = run_simulation(config, datasets=mnist)
        return cache[name]

    return run
