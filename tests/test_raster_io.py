"""Tests for raster/mask/model/report files and the synthetic scene generator."""

import base64
import collections
import copy
import dataclasses
import functools
import json
import math
import os
import struct
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from ccfmap import model_io, raster_io
from ccfmap.errors import DataError, is_int, is_real
from ccfmap.forest import (
    FlatTree,
    TrainConfig,
    predict_class_batch,
    predict_proba_batch,
    predict_raster,
    train_forest,
)
from ccfmap.metrics import evaluate
from ccfmap.pipeline import (
    UNLABELED,
    SplitSpec,
    balance_classes,
    extract_samples,
    fit_scaler,
    stratified_split,
    valid_pixels,
)
from ccfmap.cca import standardize
from ccfmap.model_io import load_model, save_model
from ccfmap.raster_io import (
    MultispectralRaster,
    RasterFile,
    SyntheticSceneSpec,
    bayes_accuracy_estimate,
    generate_scene,
    open_raster,
    read_mask,
    read_raster,
    read_report,
    write_mask,
    write_raster,
    write_report,
)


TREE_FIELDS = [f.name for f in dataclasses.fields(FlatTree)]


def _random_raster(rng, h=5, w=7, b=3, nodata=None, band_names=None):
    values = (rng.normal(size=(h, w, b)) * 100).astype(np.float32)
    return MultispectralRaster(values=values, nodata=nodata, band_names=band_names)


def _tiny_model(seed=0, n_bands=4, n_trees=3):
    rng = np.random.default_rng(seed)
    u = np.ones(n_bands) / math.sqrt(n_bands)
    x = np.vstack(
        [rng.normal(size=(40, n_bands)) - 2 * u, rng.normal(size=(40, n_bands)) + 2 * u]
    )
    y = np.repeat([0, 1], 40)
    from ccfmap.pipeline import SampleSet

    return train_forest(SampleSet(x, y), TrainConfig(n_trees=n_trees, seed=seed))


def _column(tree, name):
    """Column name of a saved tree entry as a writable array."""
    col = tree[name]
    raw = base64.b64decode(col["data"])
    return np.frombuffer(raw, col["dtype"]).reshape(col["shape"]).copy()


def _put_column(tree, name, values, dtype=None):
    """Store values as column name of a saved tree entry, by default in
    the column's present dtype."""
    values = np.asarray(values).astype(dtype or tree[name]["dtype"])
    tree[name] = {"dtype": values.dtype.str, "shape": list(values.shape),
                  "data": base64.b64encode(values.tobytes()).decode()}


def _edit_column(tree, name, edit):
    values = _column(tree, name)
    edit(values)
    _put_column(tree, name, values)


class TestRasterContainer:
    def test_rejects_non_finite(self):
        v = np.ones((2, 2, 1), np.float32)
        v[0, 0, 0] = np.nan
        with pytest.raises(DataError, match="finite"):
            MultispectralRaster(values=v)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DataError, match="ndim=2"):
            MultispectralRaster(values=np.ones((2, 2), np.float32))

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="empty raster"):
            MultispectralRaster(values=np.ones((2, 0, 1), np.float32))

    def test_rejects_non_finite_nodata(self):
        with pytest.raises(DataError, match="nodata"):
            MultispectralRaster(values=np.ones((1, 1, 1), np.float32), nodata=math.inf)

    @pytest.mark.parametrize("nodata", [True, "4"])
    def test_rejects_nodata_that_is_no_number(self, nodata):
        # float() would take True as 1.0 and "4" as 4.0
        with pytest.raises(DataError, match="nodata"):
            MultispectralRaster(values=np.ones((1, 1, 1), np.float32), nodata=nodata)

    # 2**128 - 2**103 is the least double that float32 rounds to inf
    @pytest.mark.parametrize("nodata", [1e39, -3.5e38, 2.0**128 - 2.0**103])
    def test_rejects_nodata_beyond_float32(self, nodata):
        with pytest.raises(DataError, match="nodata must be a finite float32 number"):
            MultispectralRaster(values=np.ones((1, 1, 1), np.float32), nodata=nodata)

    # float32's lowest, numpy's repr of it, GDAL's, the largest double under inf's
    @pytest.mark.parametrize("nodata", [
        -float(np.finfo(np.float32).max), -3.4028235e38, -3.40282346638529e38,
        np.nextafter(2.0**128 - 2.0**103, 0.0),
    ])
    def test_accepts_nodata_float32_rounds_to_its_limit(self, nodata):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in the cast to float32
            edge = np.float32(nodata)
            r = MultispectralRaster(np.array([[[edge], [1.0]]]), nodata=nodata)
            assert valid_pixels(r.window(0, 2), r.nodata).tolist() == [False, True]
        assert r.nodata == nodata and abs(edge) == np.finfo(np.float32).max

    def test_band_name_count(self):
        with pytest.raises(DataError, match="band name"):
            MultispectralRaster(values=np.ones((1, 1, 2), np.float32), band_names=("a",))

    def test_values_read_only(self):
        r = MultispectralRaster(values=np.ones((1, 1, 1), np.float32))
        with pytest.raises(ValueError):
            r.values[0, 0, 0] = 5.0


class TestRasterRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        r = _random_raster(rng, nodata=-9999.0, band_names=("red", "green", "nir"))
        header, payload = write_raster(r, tmp_path / "scene")
        assert header.endswith("scene.json") and payload.endswith("scene.bin")
        back = read_raster(header)
        assert back.values.dtype == np.float32
        np.testing.assert_array_equal(back.values, r.values)
        assert back.nodata == -9999.0
        assert back.band_names == ("red", "green", "nir")

    def test_no_optional_fields(self, tmp_path):
        r = _random_raster(np.random.default_rng(2))
        write_raster(r, tmp_path / "x")
        back = read_raster(tmp_path / "x.json")
        assert back.nodata is None
        assert back.band_names is None

    def test_path_suffix_forms(self, tmp_path):
        r = _random_raster(np.random.default_rng(3))
        write_raster(r, tmp_path / "y.bin")
        a = read_raster(tmp_path / "y.json")
        b = read_raster(tmp_path / "y")
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("plane_bytes", [4, 56, 1 << 16])
    def test_read_in_blocks_is_bit_exact(self, tmp_path, plane_bytes):
        # one pixel, a 2 x 7 plane, a 128 x 128 plane: the payload is read
        # as one window of whole planes
        h, w = {4: (1, 1), 56: (2, 7), 1 << 16: (128, 128)}[plane_bytes]
        r = _random_raster(np.random.default_rng(8), h=h, w=w, nodata=-1.0)
        write_raster(r, tmp_path / "s")
        back = read_raster(tmp_path / "s.json")
        assert back.values.tobytes() == r.values.tobytes()
        assert back.values.transpose(2, 0, 1).flags.c_contiguous
        assert not back.values.flags.writeable

    def test_read_peak_memory_near_payload(self, tmp_path):
        values = np.random.default_rng(9).normal(size=(384, 384, 8)).astype(np.float32)
        write_raster(MultispectralRaster(values=values), tmp_path / "big")
        del values
        tracemalloc.start()
        try:
            back = read_raster(tmp_path / "big.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * back.values.nbytes

    def test_write_peak_memory_is_not_a_copy(self, tmp_path):
        r = MultispectralRaster(np.random.default_rng(9).normal(size=(256, 256, 8)))
        tracemalloc.start()
        try:
            write_raster(r, tmp_path / "big")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * r.values.nbytes

    def test_payload_is_band_sequential(self, tmp_path):
        r = _random_raster(np.random.default_rng(4), h=2, w=3, b=2)
        _, payload = write_raster(r, tmp_path / "z")
        raw = np.frombuffer(open(payload, "rb").read(), dtype="<f4")
        expected = r.values.transpose(2, 0, 1).ravel()
        np.testing.assert_array_equal(raw, expected)


class TestRasterCorruption:
    def _write(self, tmp_path):
        r = _random_raster(np.random.default_rng(5))
        return write_raster(r, tmp_path / "c")

    def test_truncated_payload(self, tmp_path):
        header, payload = self._write(tmp_path)
        data = open(payload, "rb").read()
        open(payload, "wb").write(data[:-4])
        with pytest.raises(DataError, match=r"expected \d+ bytes, got \d+"):
            read_raster(header)

    def test_band_count_mismatch(self, tmp_path):
        header, payload = self._write(tmp_path)
        doc = json.load(open(header))
        doc["bands"] += 1  # header promises more than the payload holds
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="length mismatch"):
            read_raster(header)

    def test_malformed_header(self, tmp_path):
        header, _ = self._write(tmp_path)
        open(header, "w").write("{not json")
        with pytest.raises(DataError, match="malformed header"):
            read_raster(header)

    def test_unsupported_dtype(self, tmp_path):
        header, _ = self._write(tmp_path)
        doc = json.load(open(header))
        doc["dtype"] = "f64le"
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="unsupported dtype"):
            read_raster(header)

    def test_unsupported_layout(self, tmp_path):
        header, _ = self._write(tmp_path)
        doc = json.load(open(header))
        doc["layout"] = "pixel-interleaved"
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="unsupported layout"):
            read_raster(header)

    def test_non_finite_payload(self, tmp_path):
        header, payload = self._write(tmp_path)
        data = bytearray(open(payload, "rb").read())
        data[8:12] = struct.pack("<f", math.inf)
        open(payload, "wb").write(bytes(data))
        with pytest.raises(DataError, match="byte offset 8"):
            read_raster(header)

    @pytest.mark.parametrize("offset", [0, 52, 136, 416])
    def test_non_finite_offset_across_blocks(self, tmp_path, offset):
        header, payload = self._write(tmp_path)
        data = bytearray(open(payload, "rb").read())
        data[offset : offset + 4] = struct.pack("<f", math.nan)
        open(payload, "wb").write(bytes(data))
        with pytest.raises(DataError, match=f"byte offset {offset}$"):
            read_raster(header)

    def test_payload_shrinking_while_read(self, tmp_path, monkeypatch):
        header, payload = self._write(tmp_path)
        full = os.path.getsize(payload)
        data = open(payload, "rb").read()
        open(payload, "wb").write(data[:-4])
        real_fstat = os.fstat

        def stale_fstat(fd):  # the size the file had when it was opened
            return os.stat_result((*real_fstat(fd)[:6], full, *real_fstat(fd)[7:]))

        monkeypatch.setattr(raster_io.os, "fstat", stale_fstat)
        with pytest.raises(DataError, match=f"expected {full} bytes, got {full - 4}"):
            read_raster(header)

    def test_zero_width_header(self, tmp_path):
        header, _ = self._write(tmp_path)
        doc = json.load(open(header))
        doc["width"] = 0
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="empty raster"):
            read_raster(header)

    @pytest.mark.parametrize("reader", [read_raster, read_mask, load_model])
    def test_deeply_nested_header(self, tmp_path, reader):
        (tmp_path / "h.json").write_text("[" * 100000)
        with pytest.raises(DataError, match="malformed header"):
            reader(tmp_path / "h.json")

    def test_missing_payload(self, tmp_path):
        header, payload = self._write(tmp_path)
        import os

        os.remove(payload)
        with pytest.raises(DataError, match="cannot read"):
            read_raster(header)

    def test_bad_band_names(self, tmp_path):
        header, _ = self._write(tmp_path)
        doc = json.load(open(header))
        doc["band_names"] = ["only-one"]
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="band_names"):
            read_raster(header)

    def test_bad_nodata(self, tmp_path):
        header, _ = self._write(tmp_path)
        doc = json.load(open(header))
        doc["nodata"] = "lots"
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="nodata"):
            read_raster(header)

    def test_nodata_beyond_float32(self, tmp_path):
        header, _ = self._write(tmp_path)
        doc = json.load(open(header))
        doc["nodata"] = 1e39  # a finite double, inf as float32: no pixel can equal it
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="nodata must be a finite float32 number"):
            read_raster(header)
        with pytest.raises(DataError, match="nodata must be a finite float32 number"):
            open_raster(header)
        doc["nodata"] = -3.4028235e38  # float32 rounds it to its limit, so it is kept
        json.dump(doc, open(header, "w"))
        assert read_raster(header).nodata == open_raster(header).nodata == -3.4028235e38


class TestOpenRaster:
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 4), st.data())
    def test_window_matches_read_raster(self, h, w, b, data):
        n = h * w
        start = data.draw(st.integers(0, n - 1), label="start")
        size = data.draw(st.integers(1, n - start + 2), label="size")  # past the end too
        values = data.draw(hnp.arrays(np.float32, (h, w, b), elements=st.floats(
            width=32, allow_nan=False, allow_infinity=False)), label="values")
        memory = MultispectralRaster(values, nodata=-1.0)
        with tempfile.TemporaryDirectory() as d:
            header, _ = write_raster(memory, os.path.join(d, "r"))
            window = open_raster(header).window(start, size)
            whole = read_raster(header)
            want = whole.values.reshape(-1, b)[start : start + size]
        assert window.dtype == np.float32 and window.shape == want.shape
        assert window.flags.f_contiguous  # each band one contiguous column
        assert window.tobytes() == want.tobytes()  # bit for bit, row by row
        # the one raster protocol: in memory, read whole or read by window
        for other in (memory.window(start, size), whole.window(start, size)):
            assert other.dtype == np.float32 and other.shape == window.shape
            # the file window's layout: each band one contiguous column; a
            # view of the planes is F-contiguous as a whole when it has them all
            assert all(band.flags.c_contiguous for band in other.T)
            assert other.flags.f_contiguous or not (start == 0 and size >= n)
            assert other.tobytes() == window.tobytes()

    def test_fields(self, tmp_path):
        header, payload = write_raster(_random_raster(np.random.default_rng(3), nodata=-5.0),
                                       tmp_path / "f")
        assert open_raster(tmp_path / "f") == RasterFile(payload, 5, 7, 3, -5.0)

    @pytest.mark.parametrize("offset", [0, 52, 136, 416])
    def test_only_the_window_holding_a_non_finite_value_fails(self, tmp_path, offset):
        header, payload = write_raster(_random_raster(np.random.default_rng(5)), tmp_path / "c")
        data = bytearray(open(payload, "rb").read())
        data[offset : offset + 4] = struct.pack("<f", math.nan)
        open(payload, "wb").write(bytes(data))
        raster = open_raster(header)
        pixel = offset // 4 % 35
        with pytest.raises(DataError, match=f"non-finite payload value at byte offset {offset}$"):
            raster.window(pixel, 1)
        for start in range(35):
            if start != pixel:
                assert np.isfinite(raster.window(start, 1)).all()

    def test_payload_truncated_after_open(self, tmp_path):
        header, payload = write_raster(_random_raster(np.random.default_rng(6)), tmp_path / "t")
        raster = open_raster(header)
        full = os.path.getsize(payload)
        os.truncate(payload, full - 4)
        assert raster.window(0, 34).shape == (34, 3)  # the last band still holds these
        with pytest.raises(DataError, match=f"expected {full} bytes, got {full - 4}"):
            raster.window(30, 5)

    def test_payload_removed_after_open(self, tmp_path):
        header, payload = write_raster(_random_raster(np.random.default_rng(7)), tmp_path / "g")
        raster = open_raster(header)
        os.remove(payload)
        with pytest.raises(DataError, match="cannot read"):
            raster.window(0, 1)


class TestMaskIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        mask = rng.choice([0, 1, 255], size=(9, 4)).astype(np.uint8)
        header, _ = write_mask(mask, tmp_path / "m")
        back = read_mask(header)
        np.testing.assert_array_equal(back, mask)
        assert back.dtype == np.uint8

    def test_write_rejects_illegal_value(self, tmp_path):
        mask = np.zeros((2, 3), np.uint8)
        mask[1, 2] = 7
        with pytest.raises(DataError, match="illegal value 7 at pixel index 5"):
            write_mask(mask, tmp_path / "m")

    def test_read_rejects_poked_byte(self, tmp_path):
        mask = np.zeros((2, 3), np.uint8)
        header, payload = write_mask(mask, tmp_path / "m")
        data = bytearray(open(payload, "rb").read())
        data[5] = 7
        open(payload, "wb").write(bytes(data))
        with pytest.raises(DataError, match="illegal value 7 at pixel index 5"):
            read_mask(header)

    def test_read_peak_memory(self, tmp_path):
        # the mask (1 B/px) and its label check (2 B/px), with no wider copy of it
        mask = np.random.default_rng(6).choice(np.array([0, 1, 255], np.uint8), (1024, 1024))
        header, _ = write_mask(mask, tmp_path / "m")
        tracemalloc.start()
        try:
            read_mask(header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * mask.size

    def test_multi_band_header_rejected(self, tmp_path):
        mask = np.zeros((2, 2), np.uint8)
        header, _ = write_mask(mask, tmp_path / "m")
        doc = json.load(open(header))
        doc["bands"] = 2
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="single-band"):
            read_mask(header)

    def test_empty_mask_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty raster"):
            write_mask(np.zeros((0, 3), np.uint8), tmp_path / "m")

    def test_wrong_layout_rejected(self, tmp_path):
        header, _ = write_mask(np.zeros((2, 2), np.uint8), tmp_path / "m")
        doc = json.load(open(header))
        doc["layout"] = "pixel-interleaved"
        json.dump(doc, open(header, "w"))
        with pytest.raises(DataError, match="unsupported layout"):
            read_mask(header)

    def test_length_mismatch(self, tmp_path):
        mask = np.zeros((3, 3), np.uint8)
        header, payload = write_mask(mask, tmp_path / "m")
        open(payload, "ab").write(b"\x00")
        with pytest.raises(DataError, match="length mismatch"):
            read_mask(header)


class TestModelSerialization:
    def test_round_trip_predictions_bit_identical(self, tmp_path):
        model = _tiny_model()
        path = save_model(model, tmp_path / "m.ccf.json")
        loaded = load_model(path)
        assert loaded.class_names == model.class_names
        assert loaded.config == model.config
        for got, want in zip(loaded.trees, model.trees, strict=True):
            for name in TREE_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        queries = np.random.default_rng(7).normal(size=(100, model.n_bands))
        np.testing.assert_array_equal(
            predict_proba_batch(loaded, queries), predict_proba_batch(model, queries)
        )

    def test_resave_is_byte_identical(self, tmp_path):
        model = _tiny_model()
        p1 = save_model(model, tmp_path / "a.ccf.json")
        p2 = save_model(load_model(p1), tmp_path / "b.ccf.json")
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_failed_serialization_keeps_old_model(self, tmp_path):
        path = save_model(_tiny_model(), tmp_path / "m.ccf.json")
        before = open(path, "rb").read()
        bad = _tiny_model(seed=1)
        bad.trees[-1].thresholds[0] = np.nan  # fails after earlier trees are written
        assert bad.trees[-1].kind[0] == 1
        with pytest.raises(ValueError):
            save_model(bad, path)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["m.ccf.json"]

    def test_save_leaves_one_file_and_returns_its_path(self, tmp_path):
        # the whole model, payload included, is the one file a caller sizes
        path = tmp_path / "m.ccf.json"
        assert save_model(_tiny_model(), path) == str(path)
        assert os.listdir(tmp_path) == ["m.ccf.json"]

    def test_bytes_per_node_ceiling(self, tmp_path):
        # trees grown to purity on overlapping classes: binary columns at
        # most 72 B per split and 8 B per leaf, base64 and header included.
        # A split's own columns take 72 B, so child ids stored per split
        # (ccf-2's <i4 pair, about 10.7 B of base64) would not fit
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2000, 10))
        y = (x[:, 0] + rng.normal(size=2000) > 0).astype(np.int64)
        from ccfmap.pipeline import SampleSet

        model = train_forest(SampleSet(x, y), TrainConfig(n_trees=2, seed=3))
        splits = sum(int(t.kind.sum()) for t in model.trees)
        leaves = sum(t.n_nodes for t in model.trees) - splits
        assert splits >= 300
        path = save_model(model, tmp_path / "m.ccf.json")
        assert os.path.getsize(path) <= 72 * splits + 8 * leaves

    @pytest.mark.parametrize("field,value,message", [
        ("thresholds", np.inf, "thresholds values must be finite and fit <f8"),
        ("projections", np.nan, "projections values must be finite and fit <f8"),
        ("counts", -1, "class_counts values must be finite and fit"),
    ])
    def test_unwritable_value_not_saved(self, tmp_path, field, value, message):
        model = _tiny_model()
        tree = model.trees[0]
        row = int(np.flatnonzero(tree.kind == (0 if field == "counts" else 1))[0])
        getattr(tree, field).reshape(tree.n_nodes, -1)[row, 0] = value
        with pytest.raises(DataError, match=message):
            save_model(model, tmp_path / "m.ccf.json")
        assert os.listdir(tmp_path) == []

    def _doc(self, tmp_path):
        path = save_model(_tiny_model(), tmp_path / "m.ccf.json")
        return path, json.load(open(path))

    def _reject(self, tmp_path, doc, pattern):
        path = tmp_path / "bad.ccf.json"
        json.dump(doc, open(path, "w"))
        with pytest.raises(DataError, match=pattern):
            load_model(path)

    def _split_tree(self, doc):
        """The first tree entry whose root splits."""
        return next(t for t in doc["trees"] if _column(t, "kind")[0] == 1)

    def test_unknown_version(self, tmp_path):
        _, doc = self._doc(tmp_path)
        doc["format_version"] = "ccf-4"
        self._reject(tmp_path, doc, "unsupported model format_version")

    def test_ccf1_file_rejected(self, tmp_path):
        _, doc = self._doc(tmp_path)
        doc["format_version"] = "ccf-1"
        doc["trees"] = [{"nodes": [{"kind": "leaf", "class_counts": [1, 1]}]}] * 3
        self._reject(tmp_path, doc, "unsupported model format_version 'ccf-1'")

    def test_ccf2_file_rejected(self, tmp_path):
        # a ccf-2 tree entry: these columns plus <i4 left and right child ids
        _, doc = self._doc(tmp_path)
        doc["format_version"] = "ccf-2"
        for tree in doc["trees"]:
            k = np.arange(int(_column(tree, "kind").sum()))
            _put_column(tree, "left", 2 * k + 1, "<i4")
            _put_column(tree, "right", 2 * k + 2, "<i4")
        self._reject(tmp_path, doc, "unsupported model format_version 'ccf-2'")

    def _reshape(self, tree, kind):
        """Give a split tree entry the node kinds kind, with its first
        split's columns on every split and [1, 1] on every leaf."""
        kind = np.array(kind)
        tree["nodes"] = kind.size
        _put_column(tree, "kind", kind)
        for name in ("features", "projections", "thresholds"):
            _put_column(tree, name, np.repeat(_column(tree, name)[:1], kind.sum(), axis=0))
        _put_column(tree, "class_counts", np.ones((kind.size - kind.sum(), 2)))

    def test_child_index_out_of_range(self, tmp_path):
        # split 1's right child would be node 4, past the last node, 3
        _, doc = self._doc(tmp_path)
        self._reshape(self._split_tree(doc), [1, 0, 1, 0])
        self._reject(tmp_path, doc, r"2 split\(s\) need 5 nodes, got 4")

    def test_double_reference(self, tmp_path):
        # split 1 at node 3, its own left child
        _, doc = self._doc(tmp_path)
        self._reshape(self._split_tree(doc), [1, 0, 0, 1, 0])
        self._reject(tmp_path, doc, "node 3: the k-th split must come before its children")

    def test_unreachable_node(self, tmp_path):
        _, doc = self._doc(tmp_path)
        tree = doc["trees"][0]
        tree["nodes"] += 1
        _put_column(tree, "kind", np.append(_column(tree, "kind"), 0))
        _put_column(tree, "class_counts", np.vstack([_column(tree, "class_counts"), [1, 1]]))
        self._reject(tmp_path, doc, r"split\(s\) need \d+ nodes, got")

    def test_detached_cycle_unreachable(self, tmp_path):
        # splits 1 and 2 at nodes 3 and 4 would have children 3 to 6: node
        # 3 its own child, and nodes 3 to 6 unreached from the root
        _, doc = self._doc(tmp_path)
        self._reshape(self._split_tree(doc), [1, 0, 0, 1, 1, 0, 0])
        self._reject(tmp_path, doc, "node 3: the k-th split must come before its children")

    @pytest.mark.parametrize("value", [True, 1.0, 2**63])
    @pytest.mark.parametrize("field", ["feature_indices", "class_counts"])
    def test_index_or_count_that_is_no_int64_rejected(self, tmp_path, field, value):
        # as a bool or float column, or 2**63 in a <u8 one
        _, doc = self._doc(tmp_path)
        name = "features" if field == "feature_indices" else field
        tree = self._split_tree(doc)
        values = _column(tree, name)
        if isinstance(value, bool):
            _put_column(tree, name, values != 0, "|b1")
        elif isinstance(value, float):
            _put_column(tree, name, values, "<f8")
        else:
            values = values.astype(np.uint64)
            values.flat[0] = value
            _put_column(tree, name, values, "<u8")
        self._reject(tmp_path, doc, name)

    @pytest.mark.parametrize("name,dtype", [
        ("projections", "|O"), ("projections", ">f8"), ("projections", "<f4"),
        ("thresholds", "<f4"), ("features", "|i1"), ("features", "<u2"),
        ("kind", "|b1"), ("class_counts", "<i4"), ("kind", None),
    ])
    def test_disallowed_dtype_rejected(self, tmp_path, name, dtype):
        _, doc = self._doc(tmp_path)
        doc["trees"][0][name]["dtype"] = dtype
        self._reject(tmp_path, doc, f"{name} dtype must be one of")

    def test_over_wide_class_counts_rejected(self, tmp_path):
        _, doc = self._doc(tmp_path)
        tree = doc["trees"][0]
        _put_column(tree, "class_counts", _column(tree, "class_counts"), "<u2")
        self._reject(tmp_path, doc, "class_counts dtype must be the smallest")

    @pytest.mark.parametrize("data", ["A", "AQ=", "AQ==AQ==", "AQ!=", "AQ\u00e9=", "AQ\n==", 7])
    def test_invalid_base64_rejected(self, tmp_path, data):
        _, doc = self._doc(tmp_path)
        doc["trees"][0]["thresholds"]["data"] = data
        self._reject(tmp_path, doc, "thresholds data is not base64")

    @pytest.mark.parametrize("rows", [-1, 1])
    def test_shape_disagreeing_with_byte_length_rejected(self, tmp_path, rows):
        # the data one row short or long of the shape
        _, doc = self._doc(tmp_path)
        tree = self._split_tree(doc)
        values, shape = _column(tree, "projections"), tree["projections"]["shape"]
        _put_column(tree, "projections",
                    values[:-1] if rows < 0 else np.vstack([values, values[:1]]))
        tree["projections"]["shape"] = shape
        self._reject(tmp_path, doc, r"projections holds \d+ bytes, its shape needs")

    @pytest.mark.parametrize("name,shape", [
        ("kind", None), ("features", [1, 4]), ("thresholds", [True]), ("class_counts", [3]),
    ])
    def test_shape_disagreeing_with_nodes_rejected(self, tmp_path, name, shape):
        _, doc = self._doc(tmp_path)
        tree = self._split_tree(doc)
        if shape is None:
            tree["nodes"] += 1  # kind now has one flag too few
        else:
            tree[name]["shape"] = shape
        self._reject(tmp_path, doc, f"{name} shape must be")

    @pytest.mark.parametrize("m", [2**62, 2**64])
    def test_shape_whose_product_overflows_rejected(self, tmp_path, m):
        # checked against the bytes as Python ints, before numpy sees it
        _, doc = self._doc(tmp_path)
        tree = doc["trees"][0]
        tree["nodes"] = m
        tree["kind"]["shape"] = [m]
        self._reject(tmp_path, doc, f"kind holds \\d+ bytes, its shape needs {m}")

    def test_kind_flag_beyond_one_rejected(self, tmp_path):
        _, doc = self._doc(tmp_path)
        _edit_column(doc["trees"][0], "kind", lambda kind: kind.__setitem__(0, 2))
        self._reject(tmp_path, doc, r"kind must be 0 \(leaf\) or 1 \(split\)")

    def test_zero_count_leaf(self, tmp_path):
        _, doc = self._doc(tmp_path)
        _edit_column(doc["trees"][0], "class_counts", lambda c: c.__setitem__(0, 0))
        self._reject(tmp_path, doc, "class_counts all zero")

    def test_feature_index_out_of_range(self, tmp_path):
        _, doc = self._doc(tmp_path)
        tree = self._split_tree(doc)
        _edit_column(tree, "features", lambda f: f.__setitem__((0, 0), 12))
        self._reject(tmp_path, doc, "feature index out of range")

    def test_tree_count_mismatch(self, tmp_path):
        _, doc = self._doc(tmp_path)
        doc["trees"] = doc["trees"][:-1]
        self._reject(tmp_path, doc, r"expected 3 tree\(s\)")

    def test_implicit_subsample_rejected(self, tmp_path):
        _, doc = self._doc(tmp_path)
        doc["config"]["feature_subsample"] = None
        self._reject(tmp_path, doc, "bad config: feature_subsample must be 3, got None")

    @pytest.mark.parametrize("field,value", [
        ("min_node_size", 1), ("min_node_size", 2.0),
        ("feature_subsample", 4), ("feature_subsample", 3.0),
        ("gamma", 0.0), ("gamma", 1e-7),
        ("max_depth", 3), ("max_depth", 0),
    ])
    def test_fixed_settings_must_keep_their_values(self, tmp_path, field, value):
        # growth fixes these; a 4-band model was grown with 3 features per
        # node, and every tree grows to purity
        _, doc = self._doc(tmp_path)
        doc["config"][field] = value
        want = {"min_node_size": 2, "feature_subsample": 3, "gamma": 1e-08, "max_depth": None}
        self._reject(tmp_path, doc, f"bad config: {field} must be {want[field]!r}, got {value!r}")

    def test_three_class_model_rejected(self, tmp_path):
        _, doc = self._doc(tmp_path)
        doc["class_names"].append("other")
        for tree in doc["trees"]:
            counts = _column(tree, "class_counts")
            _put_column(tree, "class_counts", np.column_stack([counts, counts[:, 0] + 1]))
        self._reject(tmp_path, doc, "class_names must list 2 strings")

    def test_negative_stddev_rejected(self, tmp_path):
        _, doc = self._doc(tmp_path)
        doc["scaler"]["stddev"][0] = -1.0
        self._reject(tmp_path, doc, "stddev")

    def test_non_finite_projection_rejected(self, tmp_path):
        _, doc = self._doc(tmp_path)
        tree = self._split_tree(doc)
        _edit_column(tree, "projections", lambda p: p.__setitem__((0, 1), np.nan))
        self._reject(tmp_path, doc, "projections and thresholds must be finite")

    def test_out_of_float_range_threshold_rejected(self, tmp_path):
        _, doc = self._doc(tmp_path)
        tree = self._split_tree(doc)
        _edit_column(tree, "thresholds", lambda t: t.__setitem__(0, -np.inf))
        self._reject(tmp_path, doc, "projections and thresholds must be finite")

    @pytest.mark.parametrize("counts", [[2**63, 1], [2**62, 2**62]])
    def test_class_counts_beyond_int64_rejected(self, tmp_path, counts):
        _, doc = self._doc(tmp_path)
        tree = doc["trees"][0]
        tally = _column(tree, "class_counts").astype(np.uint64)
        tally[0] = counts
        _put_column(tree, "class_counts", tally, "<u8")
        self._reject(tmp_path, doc, "int64")

    @pytest.mark.parametrize(
        "field",
        ["n_trees", "min_node_size", "max_depth", "feature_subsample", "seed", "gamma"],
    )
    def test_bool_config_rejected(self, tmp_path, field):
        _, doc = self._doc(tmp_path)
        doc["config"][field] = True
        self._reject(tmp_path, doc, f"bad config: {field}")

    @pytest.mark.parametrize("gamma", [None, "1e-8", 10**400, -1.0])
    def test_bad_gamma_rejected(self, tmp_path, gamma):
        _, doc = self._doc(tmp_path)
        doc["config"]["gamma"] = gamma
        self._reject(tmp_path, doc, "bad config: gamma must be 1e-08")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "junk.ccf.json"
        path.write_text("[1, 2")
        with pytest.raises(DataError, match="malformed"):
            load_model(path)


# Each writer with content that depends on seed; returns the path(s) written.
_WRITERS = {
    "write_raster": lambda path, seed: write_raster(
        _random_raster(np.random.default_rng(seed)), path
    ),
    "write_mask": lambda path, seed: write_mask(np.full((3, 4), seed, np.uint8), path),
    "write_report": lambda path, seed: write_report(
        evaluate(np.array([[0, seed]]), np.array([[0, 1]])), path
    ),
    "save_model": lambda path, seed: save_model(_tiny_model(seed=seed), path),
}


def _written(out):
    return out if isinstance(out, tuple) else (out,)


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch, writer):
        write = _WRITERS[writer]
        paths = _written(write(tmp_path / "f.json", 0))
        before = {p: open(p, "rb").read() for p in paths}

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(DataError, match="cannot write .*: replace failed"):
            write(tmp_path / "f.json", 1)
        assert {p: open(p, "rb").read() for p in paths} == before
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(p) for p in paths)

    @pytest.mark.parametrize("writer", ["write_raster", "write_mask"])
    def test_payload_lands_before_header(self, tmp_path, monkeypatch, writer):
        replaced = []
        real_replace = os.replace

        def record(src, dst):
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", record)
        _WRITERS[writer](tmp_path / "f", 1)
        assert replaced == ["f.bin", "f.json"]


# --- reader properties on mutated files -------------------------------------

_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 50),
    st.sampled_from([2**63, 10**400]),  # beyond int64, beyond float
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["f32le", "u8", "band-sequential"]),
    st.lists(st.one_of(st.text(max_size=3), st.integers(0, 3)), max_size=4),
)
_HEADER_KEYS = ["width", "height", "bands", "dtype", "layout", "nodata", "band_names"]

_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(1, 64)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("set"), st.sampled_from(_HEADER_KEYS), _ODD_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(_HEADER_KEYS)),
    st.tuples(st.just("header_flip"), st.integers(0, 2**16), st.integers(1, 255)),
)


def _mutate(header, payload, mutations):
    # header fields first: a later byte flip may leave the header unparseable
    for kind, *args in sorted(mutations, key=lambda m: m[0] not in ("set", "drop")):
        if kind in ("set", "drop"):
            doc = json.load(open(header))
            if kind == "set":
                doc[args[0]] = args[1]
            else:
                doc.pop(args[0], None)
            json.dump(doc, open(header, "w"))
            continue
        target = header if kind == "header_flip" else payload
        data = bytearray(open(target, "rb").read())
        if kind == "truncate":
            del data[-min(args[0], len(data)):]
        elif kind == "extend":
            data += args[0]
        elif data:
            data[args[0] % len(data)] ^= args[1]
        open(target, "wb").write(bytes(data))


_small_rasters = st.builds(
    MultispectralRaster,
    values=hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
    ),
    nodata=st.one_of(st.none(), st.floats(-raster_io._F32_LIMIT, raster_io._F32_LIMIT,
                                          exclude_min=True, exclude_max=True)),
)
_small_masks = hnp.arrays(
    np.uint8,
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.sampled_from((0, 1, UNLABELED)),
)


class TestReaderProperties:
    @given(_small_rasters, st.booleans())
    def test_raster_round_trip_is_bit_exact(self, raster, named):
        if named:
            raster = MultispectralRaster(
                raster.values, raster.nodata, tuple(f"b{i}" for i in range(raster.bands))
            )
        with tempfile.TemporaryDirectory() as d:
            back = read_raster(write_raster(raster, os.path.join(d, "r"))[0])
        assert back.values.tobytes() == raster.values.tobytes()
        assert back.values.shape == raster.values.shape
        assert back.nodata == raster.nodata
        assert back.band_names == raster.band_names

    @given(_small_masks)
    def test_mask_round_trip_is_exact(self, mask):
        with tempfile.TemporaryDirectory() as d:
            back = read_mask(write_mask(mask, os.path.join(d, "m"))[0])
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, mask)

    @given(_small_rasters, st.lists(_MUTATION, min_size=1, max_size=3))
    def test_mutated_raster_is_rejected_or_valid(self, raster, mutations):
        with tempfile.TemporaryDirectory() as d:
            header, payload = write_raster(raster, os.path.join(d, "r"))
            _mutate(header, payload, mutations)
            _read_raster_or_reject(header, payload)

    @given(_small_masks, st.lists(_MUTATION, min_size=1, max_size=3))
    def test_mutated_mask_is_rejected_or_valid(self, mask, mutations):
        with tempfile.TemporaryDirectory() as d:
            header, payload = write_mask(mask, os.path.join(d, "m"))
            _mutate(header, payload, mutations)
            _read_mask_or_reject(header, payload)

    @pytest.mark.parametrize("key", _HEADER_KEYS)
    @given(value=_ODD_VALUES)
    def test_odd_header_value_is_rejected_or_valid(self, key, value):
        raster = MultispectralRaster(np.arange(6, dtype=np.float32).reshape(2, 3, 1))
        with tempfile.TemporaryDirectory() as d:
            paths = write_raster(raster, os.path.join(d, "r"))
            _mutate(*paths, [("set", key, value)])
            _read_raster_or_reject(*paths)
            paths = write_mask(np.zeros((2, 3), np.uint8), os.path.join(d, "m"))
            _mutate(*paths, [("set", key, value)])
            _read_mask_or_reject(*paths)


def _read_raster_or_reject(header, payload):
    """read_raster raises DataError or returns a raster that matches its
    payload, and open_raster agrees: with the same error at open or on
    reading the whole raster as one window, or with the same pixels."""
    try:
        back = read_raster(header)
    except DataError as exc:
        with pytest.raises(DataError) as opened:
            whole = open_raster(header)
            whole.window(0, whole.height * whole.width)
        assert str(opened.value) == str(exc)
        return
    whole = open_raster(header)
    window = whole.window(0, whole.height * whole.width)
    assert window.tobytes("F") == back.values.reshape(-1, back.bands).tobytes("F")
    assert (whole.height, whole.width, whole.bands, whole.nodata) == (
        *back.values.shape, back.nodata)
    assert isinstance(back, MultispectralRaster)
    assert back.values.dtype == np.float32 and back.values.ndim == 3
    assert back.values.size * 4 == os.path.getsize(payload)
    assert np.isfinite(back.values).all()
    assert back.nodata is None or math.isfinite(back.nodata)
    assert back.band_names is None or len(back.band_names) == back.bands


def _read_mask_or_reject(header, payload):
    """read_mask raises DataError or returns a mask that matches its payload."""
    try:
        back = read_mask(header)
    except DataError:
        return
    assert back.dtype == np.uint8 and back.ndim == 2
    assert back.size == os.path.getsize(payload)
    assert np.isin(back, (0, 1, UNLABELED)).all()


@functools.cache
def _model_text():
    """A small saved model as ccf-3 text: two trees over three bands."""
    with tempfile.TemporaryDirectory() as d:
        path = save_model(_tiny_model(seed=5, n_bands=3, n_trees=2), os.path.join(d, "m"))
        with open(path, encoding="utf-8") as fh:
            return fh.read()


# a model's numbers and indices, beyond what the odd header values hold
_MODEL_VALUES = st.one_of(_ODD_VALUES, st.sampled_from([-1, 0, 1, 2, 2**62, 2**63 - 1]))

_MODEL_EDIT = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 2**16), _MODEL_VALUES),
    st.tuples(st.just("drop"), st.integers(0, 2**16)),
    st.tuples(st.just("duplicate"), st.integers(0, 2**16)),
)
_BYTE_EDIT = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.integers(1, 64)),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
)


def _positions(node):
    """Every (container, key) pair in a JSON document, in document order."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _positions(node[key])


def _mutate_model(text, edits, byte_edit=None):
    """Apply document edits to a model's text, then at most one byte edit."""
    doc = json.loads(text)
    for kind, where, *value in edits:
        positions = list(_positions(doc))
        if not positions:
            continue
        parent, key = positions[where % len(positions)]
        if kind == "set":
            parent[key] = value[0]
        elif kind == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    data = bytearray(json.dumps(doc).encode())
    if byte_edit is not None and byte_edit[0] == "truncate":
        del data[-min(byte_edit[1], len(data)):]
    elif byte_edit is not None:
        data[byte_edit[1] % len(data)] ^= byte_edit[2]
    return bytes(data)


_STRUCT_CODES = {"|u1": "B", "<u2": "H", "<u4": "I", "<u8": "Q", "<f8": "d"}


def _reference_parse_tree(doc, tree_index, n_bands, fs, path):
    """A ccf-3 tree reader apart from load_model's: every value unpacked
    with struct and checked in Python, one node at a time, and children
    assigned breadth first from the root, node by node: each split takes
    the next two unassigned ids."""
    where = f"{path}: tree {tree_index}"

    def expect(cond, msg):
        if not cond:
            raise DataError(msg)

    def smallest_uint(top):
        return next(t for t in ("|u1", "<u2", "<u4", "<u8")
                    if top < 1 << 8 * struct.calcsize("<" + _STRUCT_CODES[t]))

    def column(name, dtypes, shape):
        """(dtype, values) of a column: values in rows of shape[1] when
        shape has two dims."""
        at = f"{where}: {name}"
        col = doc.get(name)
        expect(isinstance(col, dict), at)
        dtype, dims, data = col.get("dtype"), col.get("shape"), col.get("data")
        expect(isinstance(dtype, str) and dtype in dtypes, f"{at} dtype")
        expect(isinstance(dims, list) and len(dims) == len(shape)
               and all(is_int(d) and d == want for d, want in zip(dims, shape)), f"{at} shape")
        expect(isinstance(data, str), f"{at} data")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError:
            raise DataError(f"{at} base64") from None
        code = "<" + _STRUCT_CODES[dtype]
        count = math.prod(shape)
        expect(len(raw) == count * struct.calcsize(code), f"{at} length")
        values = [struct.unpack_from(code, raw, i * struct.calcsize(code))[0]
                  for i in range(count)]
        if len(shape) == 2:
            values = [values[i:i + shape[1]] for i in range(0, count, shape[1])]
        return dtype, values

    expect(isinstance(doc, dict), f"{where} must be an object")
    m = doc.get("nodes")
    expect(is_int(m) and m >= 1, f"{where}: nodes")
    _, kind = column("kind", ["|u1"], [m])
    expect(all(k in (0, 1) for k in kind), f"{where}: kind")
    s = sum(kind)
    left, right = [-1] * m, [-1] * m
    queue, next_id = collections.deque([0]), 1
    while queue:
        i = queue.popleft()
        if kind[i]:
            expect(next_id + 1 < m, f"{where} node {i}: child index out of range")
            left[i], right[i] = next_id, next_id + 1
            queue.extend((next_id, next_id + 1))
            next_id += 2
    expect(next_id == m, f"{where}: {m - next_id} unreachable node(s)")
    _, feats = column("features", [smallest_uint(n_bands - 1)], [s, fs])
    _, projs = column("projections", ["<f8"], [s, fs])
    _, thrs = column("thresholds", ["<f8"], [s])
    width, tallies = column("class_counts", ["|u1", "<u2", "<u4", "<u8"], [m - s, 2])
    expect(width == smallest_uint(max([c for t in tallies for c in t], default=0)),
           f"{where}: class_counts width")

    features, projections, thresholds, counts = [], [], [], []
    splits, leaves = iter(range(s)), iter(range(m - s))
    for i in range(m):
        at = f"{where} node {i}"
        if kind[i]:
            j = next(splits)
            expect(all(f < n_bands for f in feats[j]), f"{at}: feature index out of range")
            expect(all(math.isfinite(v) for v in projs[j]), f"{at}: projection")
            expect(math.isfinite(thrs[j]), f"{at}: threshold")
            features.append(feats[j])
            projections.append(projs[j])
            thresholds.append(thrs[j])
            counts.append([0, 0])
        else:
            tally = tallies[next(leaves)]
            expect(sum(tally) > 0, f"{at}: leaf class_counts all zero")
            expect(sum(tally) < 2**63, f"{at}: leaf class_counts sum beyond int64")
            features.append([-1] * fs)
            projections.append([0.0] * fs)
            thresholds.append(0.0)
            counts.append(tally)
    counts = np.array(counts, dtype=np.int64)
    return FlatTree(
        kind=np.array(kind, dtype=np.uint8),
        features=np.array(features, dtype=np.int64),
        projections=np.array(projections, dtype=np.float64),
        thresholds=np.array(thresholds, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=counts,
        probs=counts / np.maximum(counts.sum(axis=1, keepdims=True), 1),
    )


def _load_as_the_reference(path):
    """load_model's model, or None when it rejects the file, checked
    against load_model with the reference tree reader: both accept or
    both reject, and the trees they accept are equal, dtypes included."""
    def load(reader):
        with mock.patch.object(model_io, "_parse_tree", reader):
            try:
                return load_model(path)
            except DataError:
                return None

    model, want = load(model_io._parse_tree), load(_reference_parse_tree)
    assert (model is None) == (want is None)
    for got, ref in zip(model.trees if model else [], want.trees if want else []):
        for name in TREE_FIELDS:
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b)
    return model


def _load_or_reject_then_predict(data):
    """load_model raises DataError on the bytes, as the reference reader
    does, or returns the reference's model, which predict_raster runs on
    with outputs in their domains."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ccf.json")
        with open(path, "wb") as fh:
            fh.write(data)
        model = _load_as_the_reference(path)
    if model is None:
        return
    rng = np.random.default_rng(0)
    values = (rng.normal(size=(4, 5, model.n_bands)) * 3).astype(np.float32)
    values[1, 2, 0] = -9.0
    with np.errstate(all="ignore"):  # an extreme scaler overflows to inf
        mask, prob = predict_raster(model, MultispectralRaster(values, nodata=-9.0))
    valid = mask != 255
    assert valid.sum() == values.shape[0] * values.shape[1] - 1
    assert (mask[valid] < 2).all()
    assert prob.dtype == np.float32
    assert ((prob[valid] >= 0) & (prob[valid] <= 1)).all()
    assert (prob[~valid] == -1).all()


class TestModelProperties:
    @settings(max_examples=400)
    @given(st.lists(_MODEL_EDIT, max_size=3), _BYTE_EDIT)
    def test_mutated_model_is_rejected_or_predicts(self, edits, byte_edit):
        _load_or_reject_then_predict(_mutate_model(_model_text(), edits, byte_edit))

    def test_every_single_value_edit_is_rejected_or_predicts(self):
        # exhaustive over positions: each edit alone, each odd number
        n_positions = len(list(_positions(json.loads(_model_text()))))
        for where in range(n_positions):
            for value in (None, True, -1, 0, 2, 2**62, 2**63, 10**400, 1e308, "x", []):
                _load_or_reject_then_predict(
                    _mutate_model(_model_text(), [("set", where, value)])
                )

    def test_unmutated_model_loads(self):
        # the properties above would hold vacuously if it were rejected
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "m.ccf.json")
            with open(path, "wb") as fh:
                fh.write(_mutate_model(_model_text(), []))
            assert load_model(path).n_bands == 3


class TestReportIo:
    def test_percent_rounding_and_nulls(self, tmp_path):
        pred = np.array([[0, 1, 1], [0, 0, 255]], dtype=np.uint8)
        truth = np.array([[0, 1, 0], [0, 255, 1]], dtype=np.uint8)
        report = evaluate(pred, truth, n_classes=3)
        path = write_report(report, tmp_path / "r.json", class_names=("a", "b", "c"))
        doc = read_report(path)
        assert doc["region"] is None
        assert doc["class_names"] == ["a", "b", "c"]
        assert doc["pixel_accuracy"] == report.pixel_accuracy
        assert doc["pixel_accuracy_percent"] == round(report.pixel_accuracy * 100.0, 1)
        assert doc["iou_per_class"][2] is None  # class c never appears
        assert doc["iou_per_class_percent"][2] is None
        assert doc["evaluated_pixels"] == report.evaluated_pixels
        assert doc["skipped_pixels"] == report.skipped_pixels
        assert doc["confusion"] == [[int(v) for v in row] for row in report.confusion.counts]

    def test_one_decimal(self, tmp_path):
        pred = np.array([[0, 0, 1]], dtype=np.uint8)
        truth = np.array([[0, 1, 1]], dtype=np.uint8)
        doc = read_report(write_report(evaluate(pred, truth), tmp_path / "r.json"))
        assert doc["pixel_accuracy_percent"] == 66.7


class TestSceneGeneration:
    def test_deterministic(self):
        spec = SyntheticSceneSpec(seed=11)
        r1, m1 = generate_scene(spec)
        r2, m2 = generate_scene(spec)
        assert r1.values.tobytes() == r2.values.tobytes()
        np.testing.assert_array_equal(m1, m2)

    @pytest.mark.parametrize("preset", ["blobs", "oblique", "ring"])
    def test_presets_give_both_classes(self, preset):
        raster, mask = generate_scene(SyntheticSceneSpec(preset=preset, seed=0))
        assert raster.values.shape == (64, 64, 10)
        assert raster.values.dtype == np.float32
        assert mask.shape == (64, 64)
        assert set(np.unique(mask)) == {0, 1}

    def test_ring_geometry(self):
        _, mask = generate_scene(SyntheticSceneSpec(preset="ring", seed=3))
        assert mask[32, 32] == 0  # center hole
        assert mask[0, 0] == 0  # outside the annulus
        assert mask[32, 51] == 1  # radius ~0.3 lands inside

    def test_oblique_roughly_balanced(self):
        _, mask = generate_scene(SyntheticSceneSpec(preset="oblique", seed=5))
        frac = mask.mean()
        assert 0.4 < frac < 0.6

    def test_unlabeled_border(self):
        spec = SyntheticSceneSpec(seed=2, unlabeled_border=2)
        _, mask = generate_scene(spec)
        assert (mask[:2] == 255).all() and (mask[-2:] == 255).all()
        assert (mask[:, :2] == 255).all() and (mask[:, -2:] == 255).all()
        _, plain = generate_scene(SyntheticSceneSpec(seed=2))
        np.testing.assert_array_equal(mask[2:-2, 2:-2], plain[2:-2, 2:-2])

    def test_overflowing_noise_refused(self):
        # 1e39 is finite as a float64 but overflows the float32 raster
        with pytest.raises(DataError, match="raster values must be finite"):
            generate_scene(SyntheticSceneSpec(width=4, height=4, noise_std=1e39))

    def test_seed_changes_scene(self):
        r1, _ = generate_scene(SyntheticSceneSpec(seed=0))
        r2, _ = generate_scene(SyntheticSceneSpec(seed=1))
        assert r1.values.tobytes() != r2.values.tobytes()

    @pytest.mark.parametrize(
        "kwargs,pattern",
        [
            ({"width": 0}, "zero-area"),
            ({"preset": "stripes"}, "unknown preset"),
            ({"class_separation": -1.0}, "class_separation"),
            ({"bands": 0}, "bands"),
            ({"unlabeled_border": -1}, "unlabeled_border"),
            ({"noise_std": -0.5}, "noise_std"),
            ({"class_separation": float("nan")},
             r"class_separation must be a finite number >= 0, got nan\Z"),
            ({"noise_std": float("inf")}, r"noise_std must be a finite number >= 0, got inf\Z"),
        ],
    )
    def test_bad_specs(self, kwargs, pattern):
        with pytest.raises(DataError, match=pattern):
            SyntheticSceneSpec(**kwargs)

    @pytest.mark.parametrize("value", [True, "4", None])
    @pytest.mark.parametrize("field", ["width", "height", "bands", "class_separation",
                                       "noise_std", "seed", "unlabeled_border"])
    def test_numbers_only(self, field, value):
        # a bool is no number: width=True would draw a one-pixel-wide scene
        with pytest.raises(DataError, match=field):
            SyntheticSceneSpec(**{field: value})


class TestBayesEstimate:
    def test_matches_gaussian_cdf(self):
        spec = SyntheticSceneSpec(class_separation=6.0, noise_std=1.0)
        want = norm.cdf(3.0)  # separation s, noise sigma: Phi(s / (2 sigma))
        assert abs(bayes_accuracy_estimate(spec) - want) < 1e-12
        assert bayes_accuracy_estimate(spec) > 0.99

    def test_zero_separation_is_chance(self):
        assert bayes_accuracy_estimate(SyntheticSceneSpec(class_separation=0.0)) == 0.5

    def test_noiseless(self):
        assert bayes_accuracy_estimate(SyntheticSceneSpec(noise_std=0.0)) == 1.0
        assert (
            bayes_accuracy_estimate(
                SyntheticSceneSpec(noise_std=0.0, class_separation=0.0)
            )
            == 0.5
        )

    def test_oblique_is_deterministic(self):
        assert bayes_accuracy_estimate(SyntheticSceneSpec(preset="oblique")) == 1.0


def _holdout_accuracy(spec, seed=0):
    """Train on the scene's balanced 80 percent, score the held-out 20."""
    raster, mask = generate_scene(spec)
    samples = extract_samples(raster, mask)
    balanced = balance_classes(samples, np.random.default_rng(seed))
    train, test = stratified_split(balanced, SplitSpec(seed=seed))
    scaler = fit_scaler(train)
    std_train = type(train)(
        standardize(train.features, scaler), train.labels, train.class_names
    )
    model = train_forest(std_train, TrainConfig(n_trees=10, seed=seed), scaler=scaler)
    pred = predict_class_batch(model, test.features)
    return float((pred == test.labels).mean())


class TestSceneLearnability:
    def test_zero_separation_is_chance_level(self):
        spec = SyntheticSceneSpec(width=32, height=32, class_separation=0.0, seed=8)
        acc = _holdout_accuracy(spec)
        assert 0.38 <= acc <= 0.62  # no signal in the spectra

    def test_wide_separation_is_learnable(self):
        spec = SyntheticSceneSpec(width=32, height=32, class_separation=8.0, seed=9)
        assert _holdout_accuracy(spec) >= 0.97
