"""Learning core: IDX parsing, partition schemes, model init, the
finite-difference gradient oracle, aggregation weights, and evaluation."""

import gzip
import hashlib
import json
import mmap
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tokenfl import learning
from tokenfl.learning import (
    _as_compute,
    _batch_gradient,
    _forward,
    _softmax,
    _unpack,
    Dataset,
    IdxParseError,
    ModelParams,
    Subset,
    aggregate,
    batch_loss,
    evaluate,
    init_model,
    load_idx,
    load_mnist,
    local_train,
    param_count,
    partition,
)
from tokenfl.privacy import LdpConfig, perturb_gradients

SMALL_LAYERS = (6, 5, 3)


def client_part(ds, rows=None):
    """Rows of ds, all of them unless given, as client 0's partition."""
    return Subset(ds, np.arange(len(ds)) if rows is None else rows, "client-0")


def small_fixture(seed=3, examples=10, classes=3):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(examples, SMALL_LAYERS[0]), dtype=np.uint8)
    labels = rng.integers(0, classes, size=examples).astype(np.int64)
    ds = Dataset(images, labels)
    return ds, client_part(ds)


class TestIdxParsing:
    def test_hand_built_fixture_round_trips(self, tmp_path, idx_builder):
        images = np.array(
            [[[0, 51], [102, 153]], [[204, 255], [0, 128]]], dtype=np.uint8
        )
        labels = np.array([7, 2], dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, labels)
        ds = load_idx(img, lab)
        assert ds.images.shape == (2, 4)
        assert ds.images.dtype == np.uint8
        assert np.array_equal(ds.images, images.reshape(2, 4))
        scaled = _as_compute(ds.images)
        assert scaled.dtype == np.float32
        expected = images.reshape(2, 4).astype(np.float32) / np.float32(255.0)
        assert scaled.tobytes() == expected.tobytes()
        assert ds.labels.tolist() == [7, 2]

    def test_pixels_are_a_view_of_the_file_bytes(self, tmp_path, idx_builder):
        # Held as mapped, not copied or widened: 47 MB of the page cache
        # for the MNIST train split, where float32 would take 188 MB.
        images = np.arange(24, dtype=np.uint8).reshape(3, 2, 4)
        img, lab = idx_builder(tmp_path, images, np.array([0, 1, 2], dtype=np.uint8))
        ds = load_idx(img, lab)
        assert ds.images.dtype == np.uint8
        assert not ds.images.flags.owndata
        assert not ds.images.flags.writeable
        base = ds.images
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)
        assert np.array_equal(ds.images, images.reshape(3, 8))

    def test_scaling_matches_the_whole_array_conversion_for_every_pixel(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(1, 256)
        expected = pixels.astype(np.float32) / np.float32(255.0)
        assert _as_compute(pixels).tobytes() == expected.tobytes()
        # Into the first rows of a larger, reused block, as local_train does.
        block = np.full((3, 256), np.nan, dtype=np.float32)
        scaled = _as_compute(pixels, block)
        assert np.shares_memory(scaled, block)
        assert scaled.tobytes() == expected.tobytes()

    def test_gzipped_files_parse_identically(self, tmp_path, idx_builder):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        labels = np.array([1, 3], dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, labels)
        img_gz = tmp_path / (img.name + ".gz")
        lab_gz = tmp_path / (lab.name + ".gz")
        img_gz.write_bytes(gzip.compress(img.read_bytes()))
        lab_gz.write_bytes(gzip.compress(lab.read_bytes()))
        plain = load_idx(img, lab)
        packed = load_idx(img_gz, lab_gz)
        assert np.array_equal(plain.images, packed.images)
        assert np.array_equal(plain.labels, packed.labels)

    def test_empty_file_is_a_truncation_error(self, tmp_path, idx_builder):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, np.array([0], dtype=np.uint8))
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(IdxParseError,
                           match=re.escape(f"{empty}: truncated image header (0 bytes)")):
            load_idx(empty, lab)

    def test_truncated_gzip_is_refused_by_name(self, tmp_path, idx_builder):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, np.array([0], dtype=np.uint8))
        packed = tmp_path / (lab.name + ".gz")
        packed.write_bytes(gzip.compress(lab.read_bytes())[:-6])
        with pytest.raises(IdxParseError,
                           match=re.escape(f"{packed}: cannot unpack the gzip file: ")):
            load_idx(img, packed)

    @pytest.mark.parametrize("packed", [False, True], ids=["raw", "gz"])
    def test_checksums_are_the_md5_of_the_bytes_on_disk(self, tmp_path, idx_builder, packed):
        rng = np.random.default_rng(0)
        for prefix, count in (("train", 4), ("t10k", 2)):
            images = rng.integers(0, 256, size=(count, 2, 2), dtype=np.uint8)
            for path in idx_builder(tmp_path, images, np.arange(count) % 10, prefix=prefix):
                if packed:
                    path.with_name(path.name + ".gz").write_bytes(gzip.compress(path.read_bytes()))
                    path.unlink()
        *_, digests = load_mnist(tmp_path, digests=True)
        checksums = digests.result()
        on_disk = {p.name.removesuffix(".gz"): p for p in tmp_path.iterdir()}
        assert checksums == {
            name: hashlib.md5(path.read_bytes()).hexdigest() for name, path in on_disk.items()
        }

    def test_importing_tokenfl_loads_no_module_the_load_path_imports_lazily(self):
        # Only a load maps files, only the pool needs concurrent.futures and
        # ctypes, and only the md5 pays for OpenSSL. numpy imports ctypes
        # itself, so the package is measured against a bare numpy.
        code = ("import sys, {}; print(sorted("
                "{{'hashlib', 'concurrent.futures', 'mmap', 'ctypes'}} & set(sys.modules)))")
        src = str(Path(learning.__file__).resolve().parents[1])

        def loaded(module):
            return subprocess.run([sys.executable, "-c", code.format(module)],
                                  env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, text=True, check=True).stdout.strip()

        assert loaded("tokenfl") == loaded("numpy")

    def test_bad_magic_reported(self, tmp_path, idx_builder):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, np.array([0], dtype=np.uint8))
        corrupt = tmp_path / "corrupt"
        corrupt.write_bytes(b"\x00\x00\x09\x99" + img.read_bytes()[4:])
        with pytest.raises(IdxParseError, match="magic"):
            load_idx(corrupt, lab)

    def test_payload_size_mismatch_reported(self, tmp_path, idx_builder):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, np.array([0, 1], dtype=np.uint8))
        short = tmp_path / "short"
        short.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(IdxParseError, match="expected"):
            load_idx(short, lab)

    def test_count_mismatch_reported(self, tmp_path, idx_builder):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, np.array([0, 1], dtype=np.uint8))
        _, lab3 = idx_builder(
            tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
            np.array([0, 1, 2], dtype=np.uint8), prefix="other",
        )
        with pytest.raises(IdxParseError, match="count mismatch"):
            load_idx(img, lab3)

    def test_label_outside_the_classes_names_the_label_file(self, tmp_path, idx_builder):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, np.array([3, 10], dtype=np.uint8))
        with pytest.raises(IdxParseError, match=re.escape(f"{lab}: labels must be class ids")):
            load_idx(img, lab)

    def test_official_train_split_shape(self, mnist):
        train, test = mnist
        assert train.images.shape == (60_000, 784)
        assert test.images.shape == (10_000, 784)
        assert set(np.unique(train.labels)) == set(range(10))


class TestDatasetValidation:
    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match=re.escape("3 images, labels of shape (2,)")):
            Dataset(np.zeros((3, 4), np.uint8), np.zeros(2, dtype=np.int64))

    def test_label_range_enforced(self):
        with pytest.raises(ValueError, match="class ids in"):
            Dataset(np.zeros((1, 4), np.uint8), np.array([11]))

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64, np.bool_, np.float16,
                                       np.float32, np.float64])
    def test_uninterpretable_image_dtype_rejected(self, dtype):
        # Float images are refused, not quantized: IDX files hold uint8.
        images = np.zeros((2, 784), dtype=dtype)
        with pytest.raises(ValueError, match=f"must be uint8 pixels, got {np.dtype(dtype)}"):
            Dataset(images, np.array([0, 1]))

    def test_flat_images_required(self):
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.zeros((2, 2, 2), np.uint8), np.array([0, 1]))

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), ()])
    def test_labels_must_be_one_per_row(self, shape):
        # (N, 1) labels would broadcast against evaluate's (N,) predictions
        # and score an N x N table, and misweight local_train's deltas.
        labels = np.zeros(shape, dtype=np.int64)
        with pytest.raises(ValueError, match=re.escape(f"3 images, labels of shape {shape}")):
            Dataset(np.zeros((3, 4), np.uint8), labels)

    @pytest.mark.parametrize("labels", [np.array([0.5, 1.0, 2.0]),
                                        np.array([0.0, 1.0, 2.0]),
                                        np.array([True, False, True])],
                             ids=["fractional", "whole-float", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # Float or bool labels would fail only mid-round, as indices into
        # the logits.
        with pytest.raises(ValueError, match=f"integer class ids, got dtype {labels.dtype}"):
            Dataset(np.zeros((3, 4), np.uint8), labels)


class TestPartition:
    def test_identical_split_sizes_equal(self, synthetic_datasets):
        train, _ = synthetic_datasets
        parts = partition(train, 3, "identical", seed=0)
        assert [len(p) for p in parts] == [200, 200, 200]
        assert [p.split for p in parts] == ["client-0", "client-1", "client-2"]
        assert all(p.dataset is train for p in parts)
        joined = np.concatenate([p.rows for p in parts])
        assert np.array_equal(np.sort(joined), np.arange(len(train)))

    def test_identical_full_scale_sizes(self, mnist):
        train, _ = mnist
        parts = partition(train, 3, "identical", seed=0)
        assert [len(p) for p in parts] == [20_000, 20_000, 20_000]

    def test_disjoint_ten_clients_one_label_each(self, synthetic_datasets):
        train, _ = synthetic_datasets
        parts = partition(train, 10, "disjoint", seed=0)
        for k, part in enumerate(parts):
            assert set(np.unique(train.labels[part.rows])) == {k}

    def test_disjoint_labels_never_shared(self, synthetic_datasets):
        train, _ = synthetic_datasets
        parts = partition(train, 4, "disjoint", seed=0)
        owned = [set(np.unique(train.labels[p.rows])) for p in parts]
        for i in range(len(owned)):
            for j in range(i + 1, len(owned)):
                assert not owned[i] & owned[j]

    def test_intermediary_two_clients_histogram(self, synthetic_datasets):
        # Half the pool splits identically (a thin uniform layer per
        # client), half disjointly by label: each client dominates its
        # five exclusive labels.
        train, _ = synthetic_datasets
        parts = partition(train, 2, "intermediary", seed=0)
        joined = np.concatenate([p.rows for p in parts])
        assert np.array_equal(np.sort(joined), np.arange(len(train)))
        for k, part in enumerate(parts):
            counts = np.bincount(train.labels[part.rows], minlength=10)
            exclusive = counts[k::2]
            shared_only = counts[1 - k :: 2]
            assert exclusive.min() > shared_only.max()

    def test_unknown_scheme_rejected(self, synthetic_datasets):
        train, _ = synthetic_datasets
        with pytest.raises(ValueError):
            partition(train, 2, "sorted", seed=0)

    def test_same_seed_reproduces(self, synthetic_datasets):
        train, _ = synthetic_datasets
        a = partition(train, 3, "intermediary", seed=42)
        b = partition(train, 3, "intermediary", seed=42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.rows, pb.rows)

    # sha256 over every client's row count and rows (little-endian int64),
    # client by client, at seed 0: a faster deal must give the same rows.
    PARTITION_SHA256 = {
        ("identical", 1): "564aeb7cfae5b4a2328df56da746c606db6f51da7f49d50283e7fc31c96b7622",
        ("identical", 3): "b8d1a12a2177c77cda445da56cd9956c7587571da1226f72e68a0b66b0e0bb6d",
        ("identical", 7): "5813e935423da008a952ce7f0737459337f847f47e4c2fe7cf6b5d5f592f55b5",
        ("identical", 10): "8cb758b82951db5eec403304f622db334d664ffe962e437e70b277c313e2a2ac",
        ("disjoint", 1): "c9cc64ead34de7ed61945034ab6cbea6e3494337a5f35000366a95c2b18ca5bf",
        ("disjoint", 3): "5d4e9c05cca760247fe85dbe3d43581ba914ced3212fbcdfa0ac389d7f139443",
        ("disjoint", 7): "6ea7a0c67bfa13defbaea91f591db1f9e561336ed1fd3d95d200970d6d993afa",
        ("disjoint", 10): "a8a4e2998d9bfb1f5bcf1674e3e2104b0d66e1b0d88921039855e7564df5d170",
        ("intermediary", 1): "19a25bd818eeb51e33b37c33197bae938d0d36a852e0d742175415f2de2b614f",
        ("intermediary", 3): "c6c41745b0645833a4dbe3210537221cfcf863bc16acc591a724faece8b70831",
        ("intermediary", 7): "5e0940c5f11f705c794c1215fdfbc86574decb5d2cd3661a252b5aa784009d8e",
        ("intermediary", 10): "fdddbe0af61346a4b922026f24d284ab6f6fb25ea4caaca1ec9133cc05dc6521",
    }

    @pytest.mark.parametrize("scheme, clients", sorted(PARTITION_SHA256))
    def test_rows_pinned(self, synthetic_datasets, scheme, clients):
        train, _ = synthetic_datasets
        h = hashlib.sha256()
        for part in partition(train, clients, scheme, seed=0):
            h.update(len(part.rows).to_bytes(8, "little"))
            h.update(part.rows.astype("<i8").tobytes())
        assert h.hexdigest() == self.PARTITION_SHA256[scheme, clients]


def reference_deal(labels, pool, clients):
    """The label deal written plainly: the pool's rows of each present
    label, in pool order, label groups in ascending order, dealt to
    clients round-robin."""
    chunks = [[] for _ in range(clients)]
    pool_labels = labels[pool]
    for slot, lab in enumerate(np.unique(pool_labels)):
        chunks[slot % clients].append(pool[pool_labels == lab])
    return [np.concatenate(c) if c else np.empty(0, dtype=np.int64) for c in chunks]


class TestDealByLabel:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("clients", [1, 4, 12])
    @pytest.mark.parametrize("pool", ["all", "shuffled-half", "missing-labels", "empty"])
    def test_matches_reference(self, dtype, clients, pool):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 10, size=200).astype(dtype)
        rows = {
            "all": np.arange(200),
            "shuffled-half": rng.permutation(200)[:100],
            # labels 0, 4 and 9 are absent: the groups still deal in turn
            "missing-labels": rng.permutation(np.flatnonzero(~np.isin(labels, [0, 4, 9]))),
            "empty": np.empty(0, dtype=np.int64),
        }[pool]
        got = learning._deal_by_label(labels, rows, clients)
        want = reference_deal(labels, rows, clients)
        assert len(got) == clients
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_absent_labels_skip_no_client(self):
        labels = np.array([7, 2, 7, 5, 2, 7], dtype=np.int64)
        got = learning._deal_by_label(labels, np.arange(6), 2)
        assert [g.tolist() for g in got] == [[1, 4, 0, 2, 5], [3]]


class TestModelInit:
    def test_vector_length_matches_layer_arithmetic(self):
        model = init_model(0)
        assert model.vector.shape == (param_count((784, 128, 10)),)
        assert model.vector.shape == (101_770,)

    def test_same_seed_identical(self):
        assert np.array_equal(init_model(5).vector, init_model(5).vector)

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_model(5).vector, init_model(6).vector)

    def test_biases_zero_and_weights_bounded(self):
        model = init_model(1, layers=SMALL_LAYERS)
        vec = model.vector
        w1 = vec[:30].reshape(6, 5)
        b1 = vec[30:35]
        w2 = vec[35:50].reshape(5, 3)
        b2 = vec[50:53]
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
        assert np.all(np.abs(w1) <= np.sqrt(6.0 / 11))
        assert np.all(np.abs(w2) <= np.sqrt(6.0 / 8))

    def test_param_vector_validation(self):
        with pytest.raises(ValueError):
            ModelParams(np.zeros(3), layers=SMALL_LAYERS)
        with pytest.raises(ValueError):
            ModelParams(np.full(53, np.inf), layers=SMALL_LAYERS)


class TestLocalTrain:
    def test_gradient_matches_finite_differences(self):
        ds, part = small_fixture()
        model = init_model(3, layers=SMALL_LAYERS)
        g = local_train(model, part, batches=1, batch_size=len(ds), seed=7)
        x = _as_compute(ds.images)
        y = ds.labels
        h = 1e-6
        rng = np.random.default_rng(0)
        coords = rng.choice(len(model.vector), size=20, replace=False)
        for j in coords:
            up = model.vector.copy()
            down = model.vector.copy()
            up[j] += h
            down[j] -= h
            fd = (
                batch_loss(ModelParams(up, SMALL_LAYERS), x, y)
                - batch_loss(ModelParams(down, SMALL_LAYERS), x, y)
            ) / (2.0 * h)
            rel = abs(fd - g[j]) / max(abs(fd), abs(g[j]), 1e-8)
            assert rel <= 1e-4

    def test_zero_batches_upload_zero(self):
        ds, part = small_fixture()
        model = init_model(3, layers=SMALL_LAYERS)
        g = local_train(model, part, batches=0, batch_size=4, seed=9)
        assert np.all(g == 0.0)

    def test_identical_inputs_identical_uploads(self):
        ds, part = small_fixture()
        model = init_model(3, layers=SMALL_LAYERS)
        a = local_train(model, part, batches=2, batch_size=4, seed=11)
        b = local_train(model, part, batches=2, batch_size=4, seed=11)
        assert np.array_equal(a, b)

    def test_empty_partition_rejected(self):
        ds, _ = small_fixture()
        empty = Subset(ds, np.empty(0, dtype=np.int64), "client-1")
        model = init_model(3, layers=SMALL_LAYERS)
        with pytest.raises(ValueError, match="client-1 has an empty partition"):
            local_train(model, empty, batches=1, batch_size=4, seed=0)

    @pytest.mark.parametrize(
        "examples,batches,batch_size",
        [
            (10, 30, 16),  # partition smaller than a batch: drawn with replacement
            (200, 30, 8),  # 240 draws from 200 rows: repeats across batches
            (600, 30, 16),  # about 330 distinct rows: more than one 256-row block
            (200, 0, 8),
        ],
    )
    def test_matches_the_per_batch_loop(self, examples, batches, batch_size):
        # local_train stands for this loop: the same draws, one mean
        # gradient per batch, summed. It takes one pass over the distinct
        # drawn rows, each weighted by its draw count over batch_size;
        # in float64 the two sums agree to float64 rounding.
        ds, part = small_fixture(examples=examples)
        x = _as_compute(ds.images).astype(np.float64)
        vector = init_model(3, layers=SMALL_LAYERS).vector
        rng = np.random.default_rng(5)
        draws = [rng.choice(part.rows, size=batch_size, replace=examples < batch_size)
                 for _ in range(batches)]
        expected = np.zeros_like(vector)
        for idx in draws:
            expected += _batch_gradient(vector, SMALL_LAYERS, x[idx], ds.labels[idx],
                                        np.full(batch_size, 1.0 / batch_size))
        rows, counts = np.unique(np.array(draws, dtype=np.int64), return_counts=True)
        got = _batch_gradient(vector, SMALL_LAYERS, x[rows], ds.labels[rows],
                              counts / batch_size)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "margin,w2_scale",
        [
            (100.0, 1.0),  # exp(-100) ~ 4e-44: the output delta is subnormal
            (69.0, 1e-9),  # output delta ~ 2e-32, the hidden delta ~ 1e-41
        ],
    )
    def test_saturated_client_feeds_no_subnormals_to_the_gemms(self, margin, w2_scale):
        # A one-class client under a model whose logit for that class
        # leads by `margin`. Unflushed, float32 subnormals would reach the
        # backward GEMMs of the output layer or of the hidden layer.
        rng = np.random.default_rng(0)
        x = rng.random((64, SMALL_LAYERS[0])).astype(np.float32)
        y = np.zeros(64, dtype=np.int64)
        weight = np.full(64, 1.0 / 64, dtype=np.float32)
        model = init_model(3, layers=SMALL_LAYERS).vector.astype(np.float32)
        (w1, _), (w2, b2) = _unpack(model, SMALL_LAYERS)
        w1[:] = np.abs(w1) + 0.1
        w2 *= w2_scale
        b2[0] = margin
        tiny = np.finfo(np.float32).tiny

        def subnormal(a):
            return np.any((a != 0.0) & (np.abs(a) < tiny))

        hidden, logits = _forward(model, SMALL_LAYERS, x)[1:]
        out_delta = _softmax(logits)
        out_delta[:, 0] -= 1.0
        out_delta *= weight[:, None]
        hidden_delta = (out_delta @ w2.T) * (hidden > 0.0)
        assert subnormal(out_delta) or subnormal(hidden_delta)

        operands = []
        grad = _batch_gradient(model, SMALL_LAYERS, x.view(product_recorder(operands)), y,
                               weight)
        assert len(operands) == 2 * (2 + 3)  # two forward GEMMs, three backward
        assert np.all(np.isfinite(grad))
        assert not any(subnormal(a) for a in operands)


def product_recorder(operands):
    """An ndarray subclass that appends copies of the operands of each of
    its matrix products, by `@` or np.matmul, to `operands`. Every ufunc
    result computed from one is one too, so a gradient started from one
    shows the operands of all the products it makes."""

    def plain(a):
        return a.view(np.ndarray) if isinstance(a, Recorded) else a

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.matmul and method == "__call__":
                operands.extend(np.array(a) for a in inputs)
            if out is not None:
                kwargs["out"] = tuple(plain(a) for a in out)
            result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
            if out is not None:
                return out[0] if len(out) == 1 else out
            return result.view(Recorded) if isinstance(result, np.ndarray) else result

    return Recorded


def first_formulation_gradient(vector, layers, x, y, weight):
    """_batch_gradient as first written: a fresh bias add and ReLU per
    layer, and a boolean-index flush of each layer's delta. Returns the
    gradient and how many nonzero subnormals the flushes zeroed."""
    acts = [x]
    mats = _unpack(vector, layers)
    for i, (w, b) in enumerate(mats):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if i < len(mats) - 1 else z)
    grad = np.zeros_like(vector)
    gmats = _unpack(grad, layers)
    tiny = np.finfo(vector.dtype).tiny
    shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    e = np.exp(shifted)
    delta = e / e.sum(axis=1, keepdims=True)
    delta[np.arange(len(y)), y] -= 1.0
    delta *= weight[:, None]
    flushed = 0
    for i in range(len(gmats) - 1, -1, -1):
        small = np.abs(delta) < tiny
        flushed += int(np.count_nonzero(delta[small]))
        delta[small] = 0.0
        gw, gb = gmats[i]
        gw[:] = acts[i].T @ delta
        gb[:] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ mats[i][0].T) * (acts[i] > 0.0)
    return grad, flushed


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestKernelsMatchTheirFirstFormulation:
    """The fused mask, in-place activations and reused buffers change no
    output bit, the sign of a zero included."""

    LAYERS = (12, 16, 4)

    @pytest.mark.parametrize(
        "margin,live_scale,subnormals",
        [
            (0.0, 1.0, False),
            (69.0, 1e-9, True),  # saturated rows: hidden deltas ~1e-41
            (100.0, 1.0, True),  # saturated rows: output deltas ~4e-46
        ],
    )
    def test_batch_gradient(self, margin, live_scale, subnormals):
        # Rows 0-63 are class 0, which the output bias `margin` favours;
        # the rest alternate classes 1 and 2. Hidden units 0-3 are dead on
        # every row, 4-7 on some, 8-15 on none. Dead units see a negative
        # delta from class 3, so a masked entry is a -0.0 unless written
        # as +0.0, and their bias gradient is a sum of masked entries only.
        rng = np.random.default_rng(1)
        x = rng.random((96, self.LAYERS[0])).astype(np.float32)
        y = np.where(np.arange(96) < 64, 0, 1 + np.arange(96) % 2)
        weight = np.full(96, 1.0 / 96, dtype=np.float32)
        vector = init_model(5, layers=self.LAYERS).vector.astype(np.float32)
        (w1, b1), (w2, b2) = _unpack(vector, self.LAYERS)
        w1[:, :4] = -np.abs(w1[:, :4]) - 0.1
        b1[:4] = -1.0
        w1[:, 8:] = np.abs(w1[:, 8:]) + 0.1
        w2[4:] *= live_scale
        w2[:4] = [0.0, 0.0, 0.0, -1.0]
        b2[0] = margin
        hidden = _forward(vector, self.LAYERS, x)[1]
        assert np.all(hidden[:, :4] == 0.0) and np.all(hidden[:, 8:] > 0.0)
        assert np.any(hidden[:, 4:8] == 0.0) and np.any(hidden[:, 4:8] > 0.0)

        operands = []
        Recorded = product_recorder(operands)
        got = _batch_gradient(vector, self.LAYERS, x.view(Recorded), y, weight)
        got_operands, operands[:] = operands[:], []
        expected, flushed = first_formulation_gradient(
            vector, self.LAYERS, x.view(Recorded), y, weight)
        assert (flushed > 0) == subnormals
        assert same_bits(got, expected)
        # Sums and BLAS products happen to turn -0.0 into +0.0; the
        # products' operands carry the mask's zeros as they are.
        assert len(got_operands) == len(operands) == 2 * (2 + 3)
        assert all(same_bits(a, b) for a, b in zip(got_operands, operands))

    def test_local_train_over_several_blocks(self):
        # Over 512 distinct uint8 rows, so the pixel and gradient buffers
        # are reused and the last block fills only part of them.
        u = uint8_dataset(examples=900)
        part = client_part(u)
        model = init_model(2, layers=SMALL_LAYERS)
        rng = np.random.default_rng(8)
        draws = [rng.choice(part.rows, size=16, replace=False) for _ in range(80)]
        rows, counts = np.unique(np.array(draws), return_counts=True)
        assert len(rows) > 2 * 256
        vector = model.vector.astype(np.float32)
        weights = (counts / 16).astype(np.float32)
        expected = np.zeros_like(model.vector)
        for start in range(0, len(rows), 256):
            block = rows[start : start + 256]
            x = hand_scaled(u.images[block])
            expected += first_formulation_gradient(
                vector, SMALL_LAYERS, x, u.labels[block], weights[start : start + 256])[0]
        got = local_train(model, part, batches=80, batch_size=16, seed=8)
        assert same_bits(got, expected)


def uint8_dataset(seed=6, examples=600, classes=3):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(examples, SMALL_LAYERS[0]), dtype=np.uint8)
    return Dataset(pixels, rng.integers(0, classes, size=examples))


def hand_scaled(images):
    """Pixels scaled the whole-array way: astype(float32), then / 255."""
    return images.astype(np.float32) / np.float32(255.0)


class TestPixelRepresentations:
    """uint8 pixels scaled per block give the bits of a float32 copy
    scaled by hand."""

    def test_local_train_gradients_are_equal(self):
        u = uint8_dataset()
        part = client_part(u)
        model = init_model(2, layers=SMALL_LAYERS)
        rng = np.random.default_rng(8)
        draws = [rng.choice(part.rows, size=16, replace=False) for _ in range(40)]
        rows, counts = np.unique(np.array(draws), return_counts=True)
        x, weights = hand_scaled(u.images), (counts / 16).astype(np.float32)
        vector = model.vector.astype(np.float32)
        expected = np.zeros_like(model.vector)
        for start in range(0, len(rows), 256):
            block = rows[start : start + 256]
            expected += _batch_gradient(vector, SMALL_LAYERS, x[block], u.labels[block],
                                        weights[start : start + 256])
        got = local_train(model, part, batches=40, batch_size=16, seed=8)
        assert np.array_equal(got, expected)

    def test_evaluate_scores_are_equal(self):
        u = uint8_dataset()
        model = init_model(2, layers=SMALL_LAYERS)
        logits = _forward(model.vector.astype(np.float32), SMALL_LAYERS, hand_scaled(u.images))[-1]
        assert evaluate(model, u) == np.count_nonzero(logits.argmax(axis=1) == u.labels) / len(u)


class TestAggregate:
    def test_single_client_is_plain_step(self):
        model = init_model(0, layers=SMALL_LAYERS)
        g = np.ones_like(model.vector)
        out = aggregate(model, [g], [10], lr=0.5)
        assert np.allclose(out.vector, model.vector - 0.5)

    def test_opposite_gradients_cancel(self):
        model = init_model(0, layers=SMALL_LAYERS)
        g = np.random.default_rng(0).normal(size=model.vector.shape)
        out = aggregate(model, [g, -g], [7, 7], lr=0.3)
        assert np.allclose(out.vector, model.vector)

    def test_three_to_one_weighting(self):
        model = init_model(0, layers=SMALL_LAYERS)
        g1 = np.ones_like(model.vector)
        g2 = np.full_like(model.vector, 5.0)
        out = aggregate(model, [g1, g2], [3, 1], lr=1.0)
        assert np.allclose(out.vector, model.vector - (0.75 * 1.0 + 0.25 * 5.0))

    def test_validation(self):
        model = init_model(0, layers=SMALL_LAYERS)
        g = np.ones_like(model.vector)
        with pytest.raises(ValueError):
            aggregate(model, [], [], lr=0.1)
        with pytest.raises(ValueError):
            aggregate(model, [g], [1, 2], lr=0.1)
        with pytest.raises(ValueError):
            aggregate(model, [g[:-1]], [1], lr=0.1)
        with pytest.raises(ValueError):
            aggregate(model, [g], [0], lr=0.1)

    @staticmethod
    def mixed():
        model = init_model(0, layers=SMALL_LAYERS)
        rng = np.random.default_rng(5)
        return model, [rng.normal(size=model.vector.shape) for _ in range(4)], [3, 17, 1, 8]

    def test_generator_sums_like_the_list(self):
        model, grads, sizes = self.mixed()
        streamed = aggregate(model, (g for g in grads), sizes, lr=0.2)
        assert np.array_equal(streamed.vector, aggregate(model, grads, sizes, lr=0.2).vector)

    def test_generator_validation(self):
        model, grads, sizes = self.mixed()
        cases = [
            ("need at least one gradient", [], []),
            ("more gradients than the 3 sizes", grads, sizes[:3]),
            ("3 gradients but 4 sizes", grads[:3], sizes),
            ("gradient shape", [grads[0], grads[1][:-1]], sizes[:2]),
            ("partition sizes must be positive", grads[:2], [3, 0]),
            ("partition sizes must be positive", grads[:2], [3, -2]),
        ]
        for message, gs, ns in cases:
            with pytest.raises(ValueError, match=message):
                aggregate(model, (g for g in gs), ns, lr=0.1)


class TestEvaluate:
    def test_perfect_one_hot_logits(self):
        layers = (4, 3)
        vec = np.zeros(param_count(layers))
        vec[: 4 * 3].reshape(4, 3)[range(3), range(3)] = 10.0
        images = np.eye(3, 4, dtype=np.uint8) * np.uint8(255)
        labels = np.arange(3, dtype=np.int64)
        ds = Dataset(np.vstack([images, images[:2]]), np.concatenate([labels, labels[:2]]))
        assert evaluate(ModelParams(vec, layers), ds) == 1.0

    def test_constant_logits_score_tiebreak_class_frequency(self):
        layers = (4, 3)
        params = ModelParams(np.zeros(param_count(layers)), layers)
        labels = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
        ds = Dataset(np.random.default_rng(0).integers(0, 256, (6, 4), dtype=np.uint8), labels)
        assert evaluate(params, ds) == pytest.approx(2 / 6)

    def test_accuracy_does_not_depend_on_the_chunk(self, monkeypatch):
        ds, _ = small_fixture(examples=50)
        params = init_model(4, layers=SMALL_LAYERS)
        scores = set()
        for rows in (1, 7, 256, len(ds)):
            monkeypatch.setattr(learning, "_BLOCK_ROWS", rows)
            scores.add(evaluate(params, ds))
        assert len(scores) == 1
        assert 0.0 < scores.pop() < 1.0

    def test_subset_scores_like_a_copy_of_its_rows(self, monkeypatch):
        ds = uint8_dataset(examples=300)
        rows = np.random.default_rng(6).permutation(len(ds))[:230]
        subset = Subset(ds, rows, "local-test")
        copy = Dataset(ds.images[rows], ds.labels[rows])
        params = init_model(4, layers=SMALL_LAYERS)
        assert len(subset) == 230
        for block_rows in (1, 7, 256, len(ds)):
            monkeypatch.setattr(learning, "_BLOCK_ROWS", block_rows)
            assert evaluate(params, subset) == evaluate(params, copy)

    def test_untrained_model_is_chance_level(self, mnist):
        _, test = mnist
        acc = evaluate(init_model(0), test)
        assert 0.05 <= acc <= 0.15

    def test_empty_dataset_rejected(self):
        layers = (4, 3)
        params = ModelParams(np.zeros(param_count(layers)), layers)
        ds = Dataset(np.zeros((0, 4), dtype=np.uint8), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate(params, ds)


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


class TestReadOnlyInputs:
    """The kernels write in place, but never into their inputs: the
    engine shares read-only model arrays between holders."""

    def test_outputs_equal_those_of_writable_copies(self):
        ds = uint8_dataset(examples=300)
        part = client_part(ds, np.arange(0, len(ds), 2))
        model = init_model(2, layers=SMALL_LAYERS)
        cfg = LdpConfig(eps=2.0, radius=0.5)

        def outputs(model, part):
            g = local_train(model, part, batches=20, batch_size=16, seed=3)
            up = perturb_gradients(g, cfg, np.random.default_rng(4))
            new = aggregate(model, [g, up], [3, 1], lr=0.1)
            return g, up, new.vector, evaluate(model, part.dataset)

        frozen_model = ModelParams(read_only(model.vector), SMALL_LAYERS)
        frozen_ds = Dataset(read_only(ds.images), read_only(ds.labels))
        frozen_part = client_part(frozen_ds, read_only(part.rows))
        expected = outputs(model, part)
        assert same_bits(model.vector, frozen_model.vector)
        assert same_bits(ds.images, frozen_ds.images)
        got = outputs(frozen_model, frozen_part)
        assert got[3] == expected[3]
        assert all(same_bits(a, b) for a, b in zip(got[:3], expected[:3]))
        g, up = expected[:2]
        assert same_bits(perturb_gradients(read_only(g), cfg, np.random.default_rng(4)), up)
        new = aggregate(frozen_model, [read_only(g), read_only(up)], [3, 1], lr=0.1)
        assert same_bits(new.vector, expected[2])


class TestComputeDtypeOverflow:
    """A model finite in float64 but not in float32, the compute dtype,
    would score and train on inf/NaN logits."""

    def big_model(self):
        model = init_model(2, layers=SMALL_LAYERS)
        model.vector[0] = 1e39  # float32's largest finite value is ~3.4e38
        return model

    def test_float32_training_and_scoring_raise(self):
        ds, part = small_fixture()
        with pytest.raises(ValueError, match="overflow float32"):
            local_train(self.big_model(), part, batches=1, batch_size=4, seed=0)
        with pytest.raises(ValueError, match="overflow float32"):
            evaluate(self.big_model(), ds)


def glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") is not None
    except (AttributeError, ValueError):  # no confstr, or no such name here
        return False


# glibc's own allocator settings, any of which turns the policy off.
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")

# Rounds 2-5 of a 10-client run on a fresh process's first pool, each
# round's page faults printed as a JSON list.
ROUND_FAULTS = """
import json, resource
import numpy as np
from tokenfl.engine import SimConfig, init_state, run_round
from tokenfl.learning import Dataset

rng = np.random.default_rng(0)
def split(n):
    return Dataset(rng.integers(0, 256, (n, 784), dtype=np.uint8), np.arange(n) % 10)
config = SimConfig(clients=10, horizon=5, ldp=True, stop_accuracy=None)
state = init_state(config, (split(1000), split(500)))
assert state.server.params.layers == (784, 128, 10)
counts = []
for _ in range(config.horizon):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_round(state)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
assert state.run.columns["participated"].all()
print(json.dumps(counts[1:]))
"""


@pytest.mark.skipif(not glibc(), reason="the allocator thresholds are glibc's")
class TestAllocatorPolicy:
    """Round temporaries stay in glibc's heap, not fresh mappings: without
    the thresholds, each 0.8 MB float64 parameter-sized array of an upload
    maps and faults in its pages anew. On glibc 2.36 this run took about
    4,300-5,900 faults a round without them and at most a few hundred with
    them."""

    # Page faults a 10-client round may take, well below the unset thresholds'.
    BUDGET = 1_500

    @staticmethod
    def round_faults(**env):
        pytest.importorskip("resource")
        base = {k: v for k, v in os.environ.items() if k not in MALLOC_ENV}
        src = str(Path(learning.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", ROUND_FAULTS],
                             env={**base, "PYTHONPATH": src, **env},
                             capture_output=True, text=True, check=True, timeout=120).stdout
        return json.loads(out)

    def test_later_rounds_stay_under_the_fault_budget(self):
        faults = self.round_faults()
        assert sum(faults) / len(faults) < self.BUDGET, faults

    def test_an_explicit_malloc_setting_leaves_the_policy_off(self):
        # glibc's own default threshold, set explicitly, stays in force.
        faults = self.round_faults(MALLOC_MMAP_THRESHOLD_="131072")
        assert sum(faults) / len(faults) > self.BUDGET, faults
