"""Learning core: IDX parsing, partition schemes, model init, the
finite-difference gradient oracle, aggregation weights, and evaluation."""

import gzip
import hashlib
import mmap
import re

import numpy as np
import pytest

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


def float64_copy(ds):
    return Dataset(ds.images.astype(np.float64), ds.labels, split=ds.split)


def client_part(ds, rows=None):
    """Rows of ds, all of them unless given, as client 0's partition."""
    return Subset(ds, np.arange(len(ds)) if rows is None else rows, "client-0")


def small_fixture(seed=3, examples=10, classes=3):
    rng = np.random.default_rng(seed)
    images = rng.random((examples, SMALL_LAYERS[0])).astype(np.float32)
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
        scaled = _as_compute(ds.images, np.float32)
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
        assert _as_compute(pixels, np.float32).tobytes() == expected.tobytes()

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
        checksums = {}
        load_mnist(tmp_path, checksums)
        on_disk = {p.name.removesuffix(".gz"): p for p in tmp_path.iterdir()}
        assert checksums == {
            name: hashlib.md5(path.read_bytes()).hexdigest() for name, path in on_disk.items()
        }

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
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 4)), np.zeros(2, dtype=np.int64))

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((1, 4)), np.array([11]))

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64, np.bool_, np.float16])
    def test_uninterpretable_image_dtype_rejected(self, dtype):
        images = np.zeros((2, 4), dtype=dtype)
        with pytest.raises(ValueError, match=f"got {np.dtype(dtype)}"):
            Dataset(images, np.array([0, 1]))

    def test_flat_images_required(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("labels", [np.array([0.5, 1.0, 2.0]),
                                        np.array([0.0, 1.0, 2.0]),
                                        np.array([True, False, True])],
                             ids=["fractional", "whole-float", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # Float or bool labels would fail only mid-round, as indices into
        # the logits.
        with pytest.raises(ValueError, match=f"integer class ids, got dtype {labels.dtype}"):
            Dataset(np.zeros((3, 4)), labels)


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
        x = ds.images.astype(np.float64)
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
        # gradient per batch, summed. A float64 dataset takes the float64
        # path, so the two agree to float64 rounding.
        ds, _ = small_fixture(examples=examples)
        ds = float64_copy(ds)
        part = client_part(ds)
        model = init_model(3, layers=SMALL_LAYERS)
        rng = np.random.default_rng(5)
        expected = np.zeros_like(model.vector)
        for _ in range(batches):
            idx = rng.choice(part.rows, size=batch_size, replace=examples < batch_size)
            expected += _batch_gradient(
                model.vector, SMALL_LAYERS, ds.images[idx],
                ds.labels[idx], np.full(batch_size, 1.0 / batch_size),
            )
        g = local_train(model, part, batches=batches, batch_size=batch_size, seed=5)
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-12)

    def test_float32_data_matches_the_float64_path(self):
        ds, part = small_fixture(examples=600)
        assert ds.images.dtype == np.float32
        model = init_model(3, layers=SMALL_LAYERS)
        narrow = local_train(model, part, batches=30, batch_size=16, seed=5)
        wide = local_train(model, client_part(float64_copy(ds)), batches=30, batch_size=16, seed=5)
        assert narrow.dtype == wide.dtype == np.float64
        assert np.abs(wide).max() > 0.0
        np.testing.assert_allclose(narrow, wide, rtol=0, atol=1e-5 * np.abs(wide).max())

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

        class Recorded(np.ndarray):
            # Everything computed from a Recorded array is one too, so this
            # sees the operands of every product the gradient makes.
            def __matmul__(self, other):
                operands.extend([np.array(self), np.array(other)])
                return super().__matmul__(other)

        grad = _batch_gradient(model, SMALL_LAYERS, x.view(Recorded), y, weight)
        assert len(operands) == 2 * (2 + 3)  # two forward GEMMs, three backward
        assert np.all(np.isfinite(grad))
        assert not any(subnormal(a) for a in operands)


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

        class Recorded(np.ndarray):
            # Sees the operands of every product made from x, as above.
            def __matmul__(self, other):
                operands.extend([np.array(self), np.array(other)])
                return super().__matmul__(other)

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
        u, _ = uint8_and_float32(examples=900)
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
            x = u.images[block].astype(np.float32) / np.float32(255.0)
            expected += first_formulation_gradient(
                vector, SMALL_LAYERS, x, u.labels[block], weights[start : start + 256])[0]
        got = local_train(model, part, batches=80, batch_size=16, seed=8)
        assert same_bits(got, expected)


def uint8_and_float32(seed=6, examples=600, classes=3):
    """A uint8 dataset and its float32 copy scaled the whole-array way."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(examples, SMALL_LAYERS[0]), dtype=np.uint8)
    u = Dataset(pixels, rng.integers(0, classes, size=examples))
    return u, Dataset(u.images.astype(np.float32) / np.float32(255.0), u.labels)


class TestPixelRepresentations:
    """uint8 pixels scaled per block give the bits of a float32 copy."""

    def test_local_train_gradients_are_equal(self):
        u, f = uint8_and_float32()
        model = init_model(2, layers=SMALL_LAYERS)
        runs = [local_train(model, client_part(ds), batches=40, batch_size=16, seed=8)
                for ds in (u, f)]
        assert np.array_equal(runs[0], runs[1])

    def test_evaluate_scores_are_equal(self):
        u, f = uint8_and_float32()
        model = init_model(2, layers=SMALL_LAYERS)
        assert evaluate(model, u) == evaluate(model, f)


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
        images = np.eye(3, 4, dtype=np.float32)
        labels = np.arange(3, dtype=np.int64)
        ds = Dataset(np.vstack([images, images[:2]]), np.concatenate([labels, labels[:2]]))
        assert evaluate(ModelParams(vec, layers), ds) == 1.0

    def test_constant_logits_score_tiebreak_class_frequency(self):
        layers = (4, 3)
        params = ModelParams(np.zeros(param_count(layers)), layers)
        labels = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
        ds = Dataset(np.random.default_rng(0).random((6, 4)).astype(np.float32), labels)
        assert evaluate(params, ds) == pytest.approx(2 / 6)

    def test_accuracy_does_not_depend_on_the_chunk(self):
        ds, _ = small_fixture(examples=50)
        params = init_model(4, layers=SMALL_LAYERS)
        scores = {evaluate(params, ds, chunk=c) for c in (1, 7, 256, len(ds))}
        assert len(scores) == 1
        assert 0.0 < scores.pop() < 1.0

    def test_float64_copy_scores_like_the_float32_split(self):
        ds, _ = small_fixture(examples=50)
        wide = Dataset(ds.images.astype(np.float64), ds.labels, split=ds.split)
        params = init_model(4, layers=SMALL_LAYERS)
        assert ds.images.dtype == np.float32
        assert evaluate(params, wide) == evaluate(params, ds)

    @pytest.mark.parametrize("pixels", ["uint8", "float32", "float64"])
    def test_subset_scores_like_a_copy_of_its_rows(self, pixels):
        u, f = uint8_and_float32(examples=300)
        ds = {"uint8": u, "float32": f, "float64": float64_copy(f)}[pixels]
        rows = np.random.default_rng(6).permutation(len(ds))[:230]
        subset = Subset(ds, rows, "local-test")
        copy = Dataset(ds.images[rows], ds.labels[rows])
        params = init_model(4, layers=SMALL_LAYERS)
        assert len(subset) == 230
        for chunk in (1, 7, 256):
            assert evaluate(params, subset, chunk=chunk) == evaluate(params, copy, chunk=chunk)

    def test_untrained_model_is_chance_level(self, mnist):
        _, test = mnist
        acc = evaluate(init_model(0), test)
        assert 0.05 <= acc <= 0.15

    def test_empty_dataset_rejected(self):
        layers = (4, 3)
        params = ModelParams(np.zeros(param_count(layers)), layers)
        ds = Dataset(np.zeros((0, 4), dtype=np.float32), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            evaluate(params, ds)


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


class TestReadOnlyInputs:
    """The kernels write in place, but never into their inputs: the
    engine shares read-only model arrays between holders."""

    @pytest.mark.parametrize("pixels", ["uint8", "float32", "float64"])
    def test_outputs_equal_those_of_writable_copies(self, pixels):
        u, f = uint8_and_float32(examples=300)
        ds = {"uint8": u, "float32": f, "float64": float64_copy(f)}[pixels]
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
    """A model finite in float64 but not in float32 would score and train
    on inf/NaN logits."""

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

    def test_float64_data_computes_as_before(self):
        ds, _ = small_fixture()
        ds = float64_copy(ds)
        g = local_train(self.big_model(), client_part(ds), batches=1, batch_size=4, seed=0)
        assert np.all(np.isfinite(g))
        assert 0.0 <= evaluate(self.big_model(), ds) <= 1.0
