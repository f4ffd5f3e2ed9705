"""Tests for sample extraction, balancing, splitting, and scaling."""

import weakref
from collections import Counter

import numpy as np
import pytest

from ccfmap import pipeline
from ccfmap.errors import DataError
from ccfmap.pipeline import (
    SampleSet,
    SplitSpec,
    assemble_region_dataset,
    balance_classes,
    extract_samples,
    fit_scaler,
    stratified_split,
    valid_pixels,
)
from ccfmap.cca import standardize


def _multiset(s: SampleSet) -> Counter:
    """Samples as a multiset of (feature-bytes, label) items."""
    return Counter(
        (s.features[i].tobytes(), int(s.labels[i])) for i in range(len(s))
    )


def _random_set(rng, k=2, low=2, high=40) -> SampleSet:
    counts = rng.integers(low, high, size=k)
    labels = np.repeat(np.arange(k), counts)
    feats = rng.normal(size=(labels.size, 4))
    names = tuple(f"class_{i}" for i in range(k)) if k != 2 else ("environment", "informal")
    return SampleSet(feats, labels, names)


class TestSampleSet:
    def test_basic_properties(self):
        s = SampleSet(np.ones((3, 5)), np.array([0, 1, 0]))
        assert len(s) == 3
        assert s.n_bands == 5
        assert s.n_classes == 2
        np.testing.assert_array_equal(s.class_counts(), [2, 1])

    def test_label_out_of_range(self):
        with pytest.raises(DataError, match="outside"):
            SampleSet(np.ones((2, 2)), np.array([0, 2]))

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            SampleSet(np.ones((3, 2)), np.array([0, 1]))

    def test_non_integer_labels(self):
        with pytest.raises(DataError, match="integer"):
            SampleSet(np.ones((2, 2)), np.array([0.0, 1.0]))

    def test_immutable(self):
        s = SampleSet(np.ones((2, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            s.features[0, 0] = 9.0

    def test_callers_arrays_are_copied(self):
        feats = np.arange(6.0).reshape(3, 2)
        labels = np.array([0, 1, 0], dtype=np.int64)  # already the stored dtype
        s = SampleSet(feats, labels)
        feats[0, 0] = 99.0
        labels[0] = 1
        np.testing.assert_array_equal(s.features[0], [0.0, 1.0])
        assert s.labels[0] == 0

    def test_built_sets_are_read_only(self):
        raster = np.arange(2 * 3 * 2, dtype=np.float32).reshape(2, 3, 2)
        mask = np.array([[0, 1, 255], [1, 0, 1]], dtype=np.uint8)
        built = [
            extract_samples(raster, mask),
            assemble_region_dataset([(raster, mask), (raster, mask)]),
        ]
        built.append(built[1].take([4, 0, 2]))
        for s in built:
            for a in (s.features, s.labels):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0

    def test_take_preserves_names(self):
        s = SampleSet(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), ("a", "b"))
        t = s.take([2, 0])
        assert t.class_names == ("a", "b")
        np.testing.assert_array_equal(t.features, [[4.0, 5.0], [0.0, 1.0]])


class TestExtractSamples:
    def test_row_major_enumeration(self):
        raster = np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3)
        mask = np.array([[1, 255], [0, 1]], dtype=np.uint8)
        s = extract_samples(raster, mask)
        assert len(s) == 3
        np.testing.assert_array_equal(s.labels, [1, 0, 1])
        # row-major: pixels (0,0), (1,0), (1,1)
        np.testing.assert_array_equal(
            s.features, raster.reshape(4, 3)[[0, 2, 3]].astype(np.float64)
        )

    def test_all_unlabeled(self):
        with pytest.raises(DataError, match="zero labeled pixels"):
            extract_samples(np.ones((2, 2, 1), np.float32), np.full((2, 2), 255, np.uint8))

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="does not match"):
            extract_samples(np.ones((2, 2, 1), np.float32), np.zeros((3, 2), np.uint8))

    def test_illegal_mask_value(self):
        mask = np.zeros((2, 2), np.uint8)
        mask[0, 1] = 7
        with pytest.raises(DataError, match="illegal value 7 at pixel index 1"):
            extract_samples(np.ones((2, 2, 1), np.float32), mask)

    def test_nodata_pixels_skipped(self):
        class Raster:
            values = np.ones((2, 2, 2), dtype=np.float32)
            nodata = -9999.0

        r = Raster()
        r.values = r.values.copy()
        r.values[0, 0, 1] = -9999.0  # one band hit is enough to drop the pixel
        mask = np.zeros((2, 2), np.uint8)
        mask[1, 1] = 1
        s = extract_samples(r, mask)
        assert len(s) == 3
        np.testing.assert_array_equal(s.labels, [0, 0, 1])

    def test_count_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            h, w = rng.integers(1, 12, size=2)
            mask = rng.choice([0, 1, 255], size=(h, w)).astype(np.uint8)
            raster = rng.normal(size=(h, w, 3)).astype(np.float32)
            expected = sum(
                1 for i in range(h) for j in range(w) if mask[i, j] in (0, 1)
            )
            if expected == 0:
                with pytest.raises(DataError):
                    extract_samples(raster, mask)
            else:
                assert len(extract_samples(raster, mask)) == expected


class TestBalanceClasses:
    def test_minority_rule(self):
        rng = np.random.default_rng(0)
        s = SampleSet(
            np.arange(280.0).reshape(140, 2),
            np.repeat([0, 1], [100, 40]),
        )
        out = balance_classes(s, rng)
        np.testing.assert_array_equal(out.class_counts(), [40, 40])

    def test_three_class_counts(self):
        rng = np.random.default_rng(1)
        s = SampleSet(
            np.arange(30.0).reshape(15, 2),
            np.repeat([0, 1, 2], [7, 3, 5]),
            ("a", "b", "c"),
        )
        out = balance_classes(s, rng)
        np.testing.assert_array_equal(out.class_counts(), [3, 3, 3])

    def test_already_balanced_is_permutation(self):
        rng = np.random.default_rng(2)
        s = _random_set(np.random.default_rng(5))
        counts = s.class_counts()
        m = counts.min()
        balanced_input = s.take(
            np.concatenate([np.flatnonzero(s.labels == c)[:m] for c in range(2)])
        )
        out = balance_classes(balanced_input, rng)
        assert _multiset(out) == _multiset(balanced_input)

    def test_subsample_without_replacement(self):
        rng = np.random.default_rng(3)
        s = _random_set(np.random.default_rng(7))
        out = balance_classes(s, rng)
        # every kept sample existed in the input at least as often
        inp = _multiset(s)
        for item, n in _multiset(out).items():
            assert n <= inp[item]

    def test_single_class_rejected(self):
        s = SampleSet(np.ones((4, 2)), np.zeros(4, dtype=np.int64))
        with pytest.raises(DataError, match="single class"):
            balance_classes(s, np.random.default_rng(0))

    def test_deterministic(self):
        s = _random_set(np.random.default_rng(11))
        a = balance_classes(s, np.random.default_rng(42))
        b = balance_classes(s, np.random.default_rng(42))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestStratifiedSplit:
    def test_80_20_counts(self):
        s = SampleSet(np.arange(40.0).reshape(20, 2), np.repeat([0, 1], 10))
        train, test = stratified_split(s, SplitSpec(train_fraction=0.8, seed=0))
        np.testing.assert_array_equal(train.class_counts(), [8, 8])
        np.testing.assert_array_equal(test.class_counts(), [2, 2])

    def test_half_split(self):
        s = SampleSet(np.arange(16.0).reshape(8, 2), np.repeat([0, 1], 4))
        train, test = stratified_split(s, SplitSpec(train_fraction=0.5, seed=3))
        np.testing.assert_array_equal(train.class_counts(), [2, 2])
        np.testing.assert_array_equal(test.class_counts(), [2, 2])

    def test_disjoint_union(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            s = _random_set(rng, k=int(rng.integers(2, 4)))
            train, test = stratified_split(s, SplitSpec(seed=seed))
            assert _multiset(train) + _multiset(test) == _multiset(s)
            for c in range(s.n_classes):
                n_c = int(s.class_counts()[c])
                assert int(train.class_counts()[c]) == int(0.8 * n_c)

    def test_small_class_rejected(self):
        s = SampleSet(np.ones((3, 2)), np.array([0, 0, 1]))
        with pytest.raises(DataError, match="class 1"):
            stratified_split(s, SplitSpec())

    def test_deterministic_and_seed_sensitive(self):
        s = _random_set(np.random.default_rng(23), low=10, high=30)
        a_train, a_test = stratified_split(s, SplitSpec(seed=9))
        b_train, b_test = stratified_split(s, SplitSpec(seed=9))
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)
        c_train, _ = stratified_split(s, SplitSpec(seed=10))
        assert not np.array_equal(a_train.features, c_train.features)

    def test_bad_fraction(self):
        with pytest.raises(DataError, match="train_fraction"):
            SplitSpec(train_fraction=1.0)


class TestFitScaler:
    def test_constant_band_flag(self):
        s = SampleSet(
            np.column_stack([np.full(6, 2.5), np.arange(6.0)]),
            np.tile([0, 1], 3),
        )
        stats = fit_scaler(s)
        assert stats.stddev[0] == 0.0
        assert stats.stddev[1] > 0

    def test_train_only_statistics(self):
        rng = np.random.default_rng(31)
        s = _random_set(rng, low=20, high=40)
        train, test = stratified_split(s, SplitSpec(seed=1))
        stats = fit_scaler(train)
        z_train = standardize(train.features, stats)
        np.testing.assert_allclose(z_train.mean(axis=0), 0.0, atol=1e-9)
        z_test = standardize(test.features, stats)
        # no refit: held-out means are whatever they are
        assert np.abs(z_test.mean(axis=0)).max() > 1e-9


class TestAssembleRegionDataset:
    def test_single_pair_identity(self):
        rng = np.random.default_rng(41)
        raster = rng.normal(size=(3, 3, 2)).astype(np.float32)
        mask = rng.choice([0, 1], size=(3, 3)).astype(np.uint8)
        direct = extract_samples(raster, mask)
        combined = assemble_region_dataset([(raster, mask)])
        np.testing.assert_array_equal(direct.features, combined.features)
        np.testing.assert_array_equal(direct.labels, combined.labels)

    def test_concatenation_order(self):
        r1 = np.arange(3.0, dtype=np.float32).reshape(1, 3, 1)
        m1 = np.array([[0, 1, 0]], dtype=np.uint8)
        r2 = np.arange(10.0, 15.0, dtype=np.float32).reshape(1, 5, 1)
        m2 = np.array([[1, 1, 0, 0, 1]], dtype=np.uint8)
        s = assemble_region_dataset([(r1, m1), (r2, m2)])
        assert len(s) == 8
        np.testing.assert_array_equal(s.features[:3, 0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(s.features[3:, 0], [10, 11, 12, 13, 14])

    def test_band_mismatch(self):
        r1 = np.ones((2, 2, 3), np.float32)
        r2 = np.ones((2, 2, 4), np.float32)
        m = np.zeros((2, 2), np.uint8)
        m[0, 0] = 1
        with pytest.raises(DataError, match="band mismatch"):
            assemble_region_dataset([(r1, m), (r2, m)])

    def test_empty_list(self):
        with pytest.raises(DataError, match="no raster/mask pairs"):
            assemble_region_dataset([])

    def test_pairs_are_read_one_at_a_time(self):
        class Tile:
            def __init__(self, seed):
                rng = np.random.default_rng(seed)
                self.values = rng.normal(size=(4, 4, 2)).astype(np.float32)
                self.nodata = None

        held = []

        def read_tile(seed):
            tile = Tile(seed)
            held.append(weakref.ref(tile))
            return tile

        def pairs():
            for seed in range(3):
                # every earlier tile was dropped once its samples were taken
                assert all(ref() is None for ref in held)
                yield read_tile(seed), np.zeros((4, 4), np.uint8) + (seed % 2)

        s = assemble_region_dataset(pairs())
        assert len(s) == 48
        np.testing.assert_array_equal(s.labels, np.repeat([0, 1, 0], 16))


class TestValidPixels:
    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_matches_any_band_rule(self, monkeypatch, block):
        monkeypatch.setattr(pipeline, "_VALID_BLOCK", block)
        rng = np.random.default_rng(43)
        values = rng.integers(0, 4, size=(9, 5, 3)).astype(np.float32)
        expected = ~(values == 2.0).any(axis=-1)
        assert 0 < expected.sum() < expected.size
        np.testing.assert_array_equal(valid_pixels(values, 2.0), expected)
        np.testing.assert_array_equal(
            valid_pixels(values.reshape(-1, 3), 2.0), expected.ravel()
        )
        assert valid_pixels(values, None).all()
