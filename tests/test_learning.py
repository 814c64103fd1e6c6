"""Learning core: IDX parsing, partition schemes, model init, the
finite-difference gradient oracle, aggregation weights, and evaluation."""

import gzip

import numpy as np
import pytest

from tokenfl.learning import (
    _batch_gradient,
    _forward,
    _softmax,
    _unpack,
    Dataset,
    DataPartition,
    IdxParseError,
    ModelParams,
    aggregate,
    batch_loss,
    evaluate,
    init_model,
    load_idx,
    local_train,
    param_count,
    partition,
)

SMALL_LAYERS = (6, 5, 3)


def float64_copy(ds):
    return Dataset(ds.images.astype(np.float64), ds.labels, split=ds.split)


def small_fixture(seed=3, examples=10, classes=3):
    rng = np.random.default_rng(seed)
    images = rng.random((examples, SMALL_LAYERS[0])).astype(np.float32)
    labels = rng.integers(0, classes, size=examples).astype(np.int64)
    ds = Dataset(images, labels)
    part = DataPartition(np.arange(examples), owner=0, scheme="identical")
    return ds, part


class TestIdxParsing:
    def test_hand_built_fixture_round_trips(self, tmp_path, idx_builder):
        images = np.array(
            [[[0, 51], [102, 153]], [[204, 255], [0, 128]]], dtype=np.uint8
        )
        labels = np.array([7, 2], dtype=np.uint8)
        img, lab = idx_builder(tmp_path, images, labels)
        ds = load_idx(img, lab)
        assert ds.images.shape == (2, 4)
        assert ds.images.dtype == np.float32
        expected = images.reshape(2, 4).astype(np.float32) / np.float32(255.0)
        assert np.array_equal(ds.images, expected)
        assert ds.labels.tolist() == [7, 2]

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
        with pytest.raises(IdxParseError, match="truncated"):
            load_idx(empty, lab)

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

    def test_flat_images_required(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2, 2)), np.array([0, 1]))


class TestPartition:
    def test_identical_split_sizes_equal(self, synthetic_datasets):
        train, _ = synthetic_datasets
        parts = partition(train, 3, "identical", seed=0)
        assert [len(p) for p in parts] == [200, 200, 200]
        joined = np.concatenate([p.indices for p in parts])
        assert np.array_equal(np.sort(joined), np.arange(len(train)))

    def test_identical_full_scale_sizes(self, mnist):
        train, _ = mnist
        parts = partition(train, 3, "identical", seed=0)
        assert [len(p) for p in parts] == [20_000, 20_000, 20_000]

    def test_disjoint_ten_clients_one_label_each(self, synthetic_datasets):
        train, _ = synthetic_datasets
        parts = partition(train, 10, "disjoint", seed=0)
        for k, part in enumerate(parts):
            assert set(np.unique(train.labels[part.indices])) == {k}

    def test_disjoint_labels_never_shared(self, synthetic_datasets):
        train, _ = synthetic_datasets
        parts = partition(train, 4, "disjoint", seed=0)
        owned = [set(np.unique(train.labels[p.indices])) for p in parts]
        for i in range(len(owned)):
            for j in range(i + 1, len(owned)):
                assert not owned[i] & owned[j]

    def test_intermediary_two_clients_histogram(self, synthetic_datasets):
        # Half the pool splits identically (a thin uniform layer per
        # client), half disjointly by label: each client dominates its
        # five exclusive labels.
        train, _ = synthetic_datasets
        parts = partition(train, 2, "intermediary", seed=0)
        joined = np.concatenate([p.indices for p in parts])
        assert np.array_equal(np.sort(joined), np.arange(len(train)))
        for k, part in enumerate(parts):
            counts = np.bincount(train.labels[part.indices], minlength=10)
            exclusive = counts[k::2]
            shared_only = counts[1 - k :: 2]
            assert exclusive.min() > shared_only.max()

    def test_too_many_clients_for_label_exclusive_schemes(self, synthetic_datasets):
        train, _ = synthetic_datasets
        with pytest.raises(ValueError):
            partition(train, 11, "disjoint", seed=0)

    def test_unknown_scheme_rejected(self, synthetic_datasets):
        train, _ = synthetic_datasets
        with pytest.raises(ValueError):
            partition(train, 2, "sorted", seed=0)

    def test_same_seed_reproduces(self, synthetic_datasets):
        train, _ = synthetic_datasets
        a = partition(train, 3, "intermediary", seed=42)
        b = partition(train, 3, "intermediary", seed=42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.indices, pb.indices)


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
        g = local_train(model, ds, part, batches=1, batch_size=len(ds), seed=7)
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
        g = local_train(model, ds, part, batches=0, batch_size=4, seed=9)
        assert np.all(g == 0.0)

    def test_identical_inputs_identical_uploads(self):
        ds, part = small_fixture()
        model = init_model(3, layers=SMALL_LAYERS)
        a = local_train(model, ds, part, batches=2, batch_size=4, seed=11)
        b = local_train(model, ds, part, batches=2, batch_size=4, seed=11)
        assert np.array_equal(a, b)

    def test_empty_partition_rejected(self):
        ds, _ = small_fixture()
        empty = DataPartition(np.empty(0, dtype=np.int64), owner=1, scheme="identical")
        model = init_model(3, layers=SMALL_LAYERS)
        with pytest.raises(ValueError):
            local_train(model, ds, empty, batches=1, batch_size=4, seed=0)

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
        ds, part = small_fixture(examples=examples)
        ds = float64_copy(ds)
        model = init_model(3, layers=SMALL_LAYERS)
        rng = np.random.default_rng(5)
        expected = np.zeros_like(model.vector)
        for _ in range(batches):
            idx = rng.choice(part.indices, size=batch_size, replace=examples < batch_size)
            expected += _batch_gradient(
                model.vector, SMALL_LAYERS, ds.images[idx],
                ds.labels[idx], np.full(batch_size, 1.0 / batch_size),
            )
        g = local_train(model, ds, part, batches=batches, batch_size=batch_size, seed=5)
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-12)

    def test_float32_data_matches_the_float64_path(self):
        ds, part = small_fixture(examples=600)
        assert ds.images.dtype == np.float32
        model = init_model(3, layers=SMALL_LAYERS)
        narrow = local_train(model, ds, part, batches=30, batch_size=16, seed=5)
        wide = local_train(model, float64_copy(ds), part, batches=30, batch_size=16, seed=5)
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
