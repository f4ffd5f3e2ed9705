"""Tests for sample extraction, balancing, splitting, and scaling."""

import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from ccfmap.errors import DataError
from ccfmap.pipeline import (
    SampleSet,
    SplitSpec,
    assemble_region_dataset,
    balance_classes,
    check_mask,
    extract_samples,
    fit_scaler,
    stratified_split,
    valid_pixels,
)
from ccfmap.cca import standardize
from ccfmap.raster_io import MultispectralRaster, open_raster, read_raster, write_raster


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

    def test_one_class_name(self):
        with pytest.raises(DataError, match="^need at least 2 class names$"):
            SampleSet(np.ones((2, 2)), np.array([0, 0]), ("only",))

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
        raster = MultispectralRaster(np.arange(2 * 3 * 2, dtype=np.float32).reshape(2, 3, 2))
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_take_equals_fancy_indexing(self, dtype):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(1000, 10)).astype(dtype)
        labels = rng.integers(0, 2, size=1000)
        s = SampleSet(feats, labels)
        idx = np.concatenate([rng.permutation(1000)[:700], [0, 0, 999, -1, -1000]])
        got = s.take(idx)
        assert got.features.dtype == dtype and got.features.flags.c_contiguous
        assert got.features.tobytes() == feats[idx].tobytes()
        assert got.labels.dtype == s.labels.dtype
        assert got.labels.tobytes() == s.labels[idx].tobytes()
        with pytest.raises(IndexError):
            s.take([1000])

    def test_float32_features_stay_float32(self):
        pixels = np.arange(6, dtype=np.float32).reshape(3, 2)
        for adopt in (False, True):
            s = SampleSet(pixels, np.array([0, 1, 0]), adopt=adopt)
            assert s.features.dtype == np.float32
            assert s.features.tobytes() == pixels.tobytes()
        assert SampleSet(pixels, np.array([0, 1, 0])).take([2, 0]).features.dtype == np.float32
        for other in (pixels.astype(np.float16), pixels.astype(np.int32)):
            assert SampleSet(other, np.array([0, 1, 0])).features.dtype == np.float64

    def test_float32_features_are_checked(self):
        message = "^features contains a non-finite value at row 1, column 0$"
        with pytest.raises(DataError, match=message):
            SampleSet(np.array([[0.0], [np.inf]], np.float32), np.array([0, 1]))
        with pytest.raises(DataError, match="2-D"):
            SampleSet(np.zeros(3, np.float32), np.array([0, 1, 0]))

    def test_take_preserves_names(self):
        s = SampleSet(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), ("a", "b"))
        t = s.take([2, 0])
        assert t.class_names == ("a", "b")
        np.testing.assert_array_equal(t.features, [[4.0, 5.0], [0.0, 1.0]])


class TestExtractSamples:
    def test_row_major_enumeration(self):
        raster = np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3)
        mask = np.array([[1, 255], [0, 1]], dtype=np.uint8)
        s = extract_samples(MultispectralRaster(raster), mask)
        assert len(s) == 3
        np.testing.assert_array_equal(s.labels, [1, 0, 1])
        # row-major: pixels (0,0), (1,0), (1,1)
        np.testing.assert_array_equal(
            s.features, raster.reshape(4, 3)[[0, 2, 3]].astype(np.float64)
        )

    def test_all_unlabeled(self):
        with pytest.raises(DataError, match="zero labeled pixels"):
            extract_samples(MultispectralRaster(np.ones((2, 2, 1), np.float32)),
                            np.full((2, 2), 255, np.uint8))

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="does not match"):
            extract_samples(MultispectralRaster(np.ones((2, 2, 1), np.float32)),
                            np.zeros((3, 2), np.uint8))

    def test_illegal_mask_value(self):
        mask = np.zeros((2, 2), np.uint8)
        mask[0, 1] = 7
        with pytest.raises(DataError, match="illegal value 7 at pixel index 1"):
            extract_samples(MultispectralRaster(np.ones((2, 2, 1), np.float32)), mask)

    @pytest.mark.parametrize(
        "values,text",
        [([0.0, 1.0, 255.0, 0.5], "0.5"), ([0, 1, 255, -1], "-1"), ([0, 1, 255, 2], "2")],
    )
    def test_check_mask_refuses(self, values, text):
        # membership, not range: 0.5 lies between legal values yet is refused
        pattern = f"^mask contains illegal value {text} at pixel index 3$"
        with pytest.raises(DataError, match=pattern):
            check_mask(np.array(values))

    def test_check_mask_names_the_first_of_all_illegal_pixels(self):
        with pytest.raises(DataError, match="^mask contains illegal value 9 at pixel index 0$"):
            check_mask(np.full((4, 5), 9, np.uint8))

    @pytest.mark.parametrize("values", [[0.0, 1.0, 255.0], [False, True]])
    def test_check_mask_accepts_labels_of_any_dtype(self, values):
        check_mask(np.array(values))

    def test_check_mask_peak_memory(self):
        # one bool array and one comparison; a cast of the mask to intp would add 8 B/px
        mask = np.random.default_rng(3).choice(np.array([0, 1, 255], np.uint8), (1024, 1024))
        tracemalloc.start()
        try:
            check_mask(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * mask.size

    def test_nodata_pixels_skipped(self):
        values = np.ones((2, 2, 2), dtype=np.float32)
        values[0, 0, 1] = -9999.0  # one band hit is enough to drop the pixel
        r = MultispectralRaster(values, nodata=-9999.0)
        mask = np.zeros((2, 2), np.uint8)
        mask[1, 1] = 1
        s = extract_samples(r, mask)
        assert len(s) == 3
        np.testing.assert_array_equal(s.labels, [0, 0, 1])

    def test_features_are_c_ordered_from_every_raster(self, tmp_path):
        # the rasters' float32 pixels, one row-major table from each kind of raster
        rng = np.random.default_rng(5)
        memory = MultispectralRaster(rng.normal(size=(6, 7, 3)), nodata=0.0)
        mask = rng.choice([0, 1, 255], size=(6, 7)).astype(np.uint8)
        header, _ = write_raster(memory, tmp_path / "r")
        tables = [extract_samples(r, mask).features
                  for r in (memory, read_raster(header), open_raster(header))]
        for t in tables:
            assert t.flags.c_contiguous and t.dtype == np.float32
            assert t.tobytes() == tables[0].tobytes()

    def test_count_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            h, w = rng.integers(1, 12, size=2)
            mask = rng.choice([0, 1, 255], size=(h, w)).astype(np.uint8)
            raster = MultispectralRaster(rng.normal(size=(h, w, 3)).astype(np.float32))
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

    @pytest.mark.parametrize("fraction", ["0.5", True, None, float("nan")])
    def test_fraction_must_be_a_number(self, fraction):
        with pytest.raises(DataError, match="train_fraction"):
            SplitSpec(train_fraction=fraction)

    @pytest.mark.parametrize("seed", [True, 1.0, "3", -1])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(DataError, match="seed"):
            SplitSpec(seed=seed)

    def test_numpy_scalars_accepted(self):
        spec = SplitSpec(train_fraction=np.float32(0.5), seed=np.int64(3))
        assert spec.seed == 3


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


class TestTrainSteps:
    def test_peak_memory(self):
        # `ccfmap train`'s steps up to the standardized block, nested as it
        # nests them. The tables stay float32 and column_stats works a block
        # of rows at a time, so the peak is the standardized block beside the
        # float32 train and held-out sets: about 1.9 blocks. float64 tables
        # and whole-table std temporaries peak at about 3.2 blocks
        rng = np.random.default_rng(59)
        pairs = [(MultispectralRaster(rng.normal(size=(128, 128, 10)).astype(np.float32)),
                  (rng.random((128, 128)) < 0.45).astype(np.uint8)) for _ in range(4)]
        tracemalloc.start()
        try:
            train, test = stratified_split(
                balance_classes(assemble_region_dataset(pairs), np.random.default_rng(1)),
                SplitSpec(),
            )
            block = standardize(train.features, fit_scaler(train))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train.features.dtype == test.features.dtype == np.float32
        assert block.shape == (train.features.shape[0], 10) and block.dtype == np.float64
        assert peak <= 2.2 * block.nbytes


class TestAssembleRegionDataset:
    def test_single_pair_identity(self):
        rng = np.random.default_rng(41)
        raster = MultispectralRaster(rng.normal(size=(3, 3, 2)).astype(np.float32))
        mask = rng.choice([0, 1], size=(3, 3)).astype(np.uint8)
        direct = extract_samples(raster, mask)
        combined = assemble_region_dataset([(raster, mask)])
        np.testing.assert_array_equal(direct.features, combined.features)
        np.testing.assert_array_equal(direct.labels, combined.labels)

    def test_concatenation_order(self):
        r1 = MultispectralRaster(np.arange(3.0, dtype=np.float32).reshape(1, 3, 1))
        m1 = np.array([[0, 1, 0]], dtype=np.uint8)
        r2 = MultispectralRaster(np.arange(10.0, 15.0, dtype=np.float32).reshape(1, 5, 1))
        m2 = np.array([[1, 1, 0, 0, 1]], dtype=np.uint8)
        s = assemble_region_dataset([(r1, m1), (r2, m2)])
        assert len(s) == 8
        np.testing.assert_array_equal(s.features[:3, 0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(s.features[3:, 0], [10, 11, 12, 13, 14])

    def test_band_mismatch(self):
        r1 = MultispectralRaster(np.ones((2, 2, 3), np.float32))
        r2 = MultispectralRaster(np.ones((2, 2, 4), np.float32))
        m = np.zeros((2, 2), np.uint8)
        m[0, 0] = 1
        with pytest.raises(DataError, match="band mismatch"):
            assemble_region_dataset([(r1, m), (r2, m)])

    def test_empty_list(self):
        with pytest.raises(DataError, match="no raster/mask pairs"):
            assemble_region_dataset([])

    def test_equals_per_pair_float64_concatenation(self, tmp_path):
        # the reference: each pair's float32 pixels taken on their own,
        # then joined; its float64 cast is each pair cast on its own, joined
        rng = np.random.default_rng(47)
        with_nodata = rng.normal(size=(9, 7, 4)).astype(np.float32)
        with_nodata[rng.random((9, 7)) < 0.2, rng.integers(0, 4)] = -1.0
        header, _ = write_raster(MultispectralRaster(with_nodata, nodata=-1.0), tmp_path / "r")
        pairs = [
            (read_raster(header), rng.choice([0, 1, 255], size=(9, 7)).astype(np.uint8)),
            (MultispectralRaster(rng.normal(size=(5, 6, 4))),
             rng.choice([0.0, 1.0, 255.0], size=(5, 6))),
            (open_raster(header), rng.random((9, 7)) < 0.5),
        ]
        features, labels = [], []
        for raster, mask in pairs:
            pixels, flat = raster.window(0, mask.size), np.asarray(mask).ravel()
            valid = (flat != 255) & valid_pixels(pixels, raster.nodata)
            features.append(pixels[valid])
            labels.append(flat[valid].astype(np.int64))
        s = assemble_region_dataset(pairs)
        want = np.concatenate(features)
        assert s.features.dtype == np.float32 and s.features.flags.c_contiguous
        assert s.features.tobytes() == want.tobytes()
        as_float64 = np.concatenate([f.astype(np.float64) for f in features])
        assert s.features.astype(np.float64).tobytes() == as_float64.tobytes()
        assert s.labels.dtype == np.int64
        assert s.labels.tobytes() == np.concatenate(labels).tobytes()

    def test_peak_memory(self):
        # float32 parts beside the float32 table they are joined into, and
        # one pair's raster: about 10.6 B per labeled pixel and band. A
        # float64 table beside them peaks at about 14.6 B
        rng = np.random.default_rng(53)
        pairs = [(MultispectralRaster(rng.normal(size=(128, 128, 10)).astype(np.float32)),
                  rng.integers(0, 2, size=(128, 128), dtype=np.uint8)) for _ in range(4)]
        tracemalloc.start()
        try:
            s = assemble_region_dataset(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 4 * 128 * 128
        assert peak <= 12.0 * s.features.size

    def test_one_pair_peak_memory(self):
        # one pair's labeled pixels are the table: 4 B per pixel and band, and
        # its labels, with no second copy joined from them
        rng = np.random.default_rng(61)
        pairs = [(MultispectralRaster(rng.normal(size=(128, 128, 10)).astype(np.float32)),
                  rng.integers(0, 2, size=(128, 128), dtype=np.uint8))]
        tracemalloc.start()
        try:
            s = assemble_region_dataset(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == 128 * 128 and s.features.flags.c_contiguous
        assert peak <= 6.0 * s.features.size

    def test_pairs_are_read_one_at_a_time(self):
        held = []

        def read_tile(seed):
            rng = np.random.default_rng(seed)
            tile = MultispectralRaster(rng.normal(size=(4, 4, 2)).astype(np.float32))
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
    @pytest.mark.parametrize("size", [1, 7, 1 << 14])
    def test_matches_any_band_rule(self, size):
        rng = np.random.default_rng(43)
        values = rng.integers(0, 4, size=(9, 5, 3)).astype(np.float32)
        expected = ~(values == 2.0).any(axis=-1)
        assert 0 < expected.sum() < expected.size
        np.testing.assert_array_equal(valid_pixels(values, 2.0), expected)
        np.testing.assert_array_equal(
            valid_pixels(values.reshape(-1, 3), 2.0), expected.ravel()
        )
        assert valid_pixels(values, None).all()
        # the C-ordered array against a raster's band-sequential windows
        raster = MultispectralRaster(values)
        for start in range(0, expected.size, size):
            window = raster.window(start, size)
            assert all(band.flags.c_contiguous for band in window.T)
            np.testing.assert_array_equal(
                valid_pixels(window, 2.0), expected.ravel()[start : start + size]
            )
