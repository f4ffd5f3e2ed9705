"""File formats plus the synthetic scene generator used by tests.

Rasters and masks are sidecar pairs: a raw payload (<name>.bin) of
little-endian band-sequential planes (float32 for spectra, one u8 plane
for label masks) and a JSON header (<name>.json) that describes it.
_write_sidecar and _read_sidecar are the one writer and the one reader
of that convention. Models and evaluation reports are single JSON
documents. Every file goes through _write_atomic (temp file in the same
directory, then os.replace; a sidecar's payload before its header), so a
failed or interrupted write leaves any earlier file whole. Writers emit
deterministic bytes so repeated runs can be compared with cmp, and every
reader rejects malformed input with a DataError instead of crashing or
guessing.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import InitVar, dataclass

import numpy as np

from .cca import ColumnStats
from .errors import DataError, is_int, is_real
from .forest import MODEL_FORMAT_VERSION, CcfModel, FlatTree, TrainConfig
from .forest import default_feature_subsample
from .metrics import EvalReport
from .pipeline import UNLABELED, check_mask

RASTER_DTYPE = "f32le"
MASK_DTYPE = "u8"
LAYOUT = "band-sequential"
_NUMPY_DTYPES = {RASTER_DTYPE: "<f4", MASK_DTYPE: "u1"}
_READ_BLOCK = 1 << 16  # most payload bytes _fill_planes reads at a time

PRESETS = ("blobs", "oblique", "ring")


@dataclass(frozen=True)
class MultispectralRaster:
    """In-memory H x W x B float32 image, one spectrum per pixel."""

    values: np.ndarray
    nodata: float | None = None
    band_names: tuple[str, ...] | None = None

    adopt: InitVar[bool] = False  # values is new, C-ordered float32, checked finite

    def __post_init__(self, adopt):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise DataError(f"raster values must be H x W x B, got ndim={v.ndim}")
        if min(v.shape) < 1:
            raise DataError(f"empty raster: shape {v.shape}")
        if not adopt:  # the caller keeps its array; the raster holds a copy
            if not np.isfinite(v).all():
                raise DataError("raster values must be finite")
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.nodata is not None:
            if not is_real(self.nodata):
                raise DataError(f"nodata must be a finite number, got {self.nodata!r}")
            object.__setattr__(self, "nodata", float(self.nodata))
        if self.band_names is not None:
            names = tuple(str(n) for n in self.band_names)
            if len(names) != v.shape[2]:
                raise DataError(
                    f"{len(names)} band name(s) for {v.shape[2]} band(s)"
                )
            object.__setattr__(self, "band_names", names)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]


def _sidecar_paths(path) -> tuple[str, str]:
    """Map a header/payload/base path to the (.json, .bin) pair."""
    p = os.fspath(path)
    if p.endswith(".json"):
        base = p[:-5]
    elif p.endswith(".bin"):
        base = p[:-4]
    else:
        base = p
    return base + ".json", base + ".bin"


def _write_atomic(path, chunks) -> str:
    """Write the byte chunks to <path>.<pid>.tmp in path's directory, then
    rename that over path; returns path. A failure at any point removes
    the temp file, so path holds either its earlier bytes or all new ones."""
    p = os.fspath(path)
    tmp = f"{p}.{os.getpid()}.tmp"  # same directory, so os.replace is atomic
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, p)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return p


def _write_json(doc: dict, path) -> str:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    return _write_atomic(path, [text.encode()])


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
        raise DataError(f"malformed header {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"malformed header {path}: expected a JSON object")
    return doc


def _write_sidecar(path, dtype: str, planes: np.ndarray, extra=None) -> tuple[str, str]:
    """Write a bands x height x width array as <base>.bin, then the
    <base>.json header that describes it; returns the two paths. The
    payload goes first, so a new header never appears before its
    payload is complete."""
    header_path, payload_path = _sidecar_paths(path)
    bands, height, width = planes.shape
    payload = np.ascontiguousarray(planes, dtype=_NUMPY_DTYPES[dtype])
    _write_atomic(payload_path, [payload])
    header = {
        "width": width,
        "height": height,
        "bands": bands,
        "dtype": dtype,
        "layout": LAYOUT,
        **(extra or {}),
    }
    _write_json(header, header_path)
    return header_path, payload_path


def _read_sidecar(path, dtype: str, bands_fixed=None):
    """Load and check a sidecar header, then read its payload.

    Returns (header, values): values is a new height x width x bands
    array of dtype, the layout MultispectralRaster holds. Checks
    width/height/bands (bands must equal bands_fixed when that is
    given), dtype, layout, the payload length and that every value is
    finite; other value checks are the caller's.
    """
    header_path, payload_path = _sidecar_paths(path)
    doc = _load_json(header_path)
    dims = []
    for key in ("width", "height", "bands"):
        v = doc.get(key)
        if not is_int(v):
            raise DataError(f"malformed header {header_path}: {key} must be an integer")
        if v < 1:
            raise DataError(f"empty raster: {header_path} has {key}={v}")
        dims.append(v)
    w, h, b = dims
    if bands_fixed is not None and b != bands_fixed:
        raise DataError(f"{header_path}: masks are single-band, got bands={b}")
    for key, want in (("dtype", dtype), ("layout", LAYOUT)):
        if doc.get(key) != want:
            raise DataError(
                f"{header_path}: unsupported {key} {doc.get(key)!r}, expected {want!r}"
            )
    item = np.dtype(_NUMPY_DTYPES[dtype])
    expected = w * h * b * item.itemsize
    try:
        with open(payload_path, "rb") as fh:
            got = os.fstat(fh.fileno()).st_size
            if got == expected:  # before allocating: the header is not trusted
                values = np.empty((h, w, b), dtype=item)
                got = _fill_planes(values, fh, header_path)
    except OSError as exc:
        raise DataError(f"cannot read {payload_path}: {exc}") from exc
    if got != expected:
        raise DataError(
            f"payload length mismatch: expected {expected} bytes, "
            f"got {got} ({payload_path})"
        )
    return doc, values


def _fill_planes(values: np.ndarray, fh, header_path) -> int:
    """Read a band-sequential payload from fh into the height x width x
    bands array values, _READ_BLOCK bytes at a time, checking that every
    value is finite; returns the number of bytes read."""
    rows = max(1, _READ_BLOCK // (values.shape[1] * values.itemsize))
    # a short read (the file shrank since it was opened) leaves zeros or
    # earlier, finite values in buf; the byte count reports the shortfall
    buf = np.zeros((rows, values.shape[1]), dtype=values.dtype)
    done = 0
    for plane in values.transpose(2, 0, 1):
        for top in range(0, plane.shape[0], rows):
            block = buf[: plane.shape[0] - top]
            n = fh.readinto(block)
            finite = np.isfinite(block)
            if not finite.all():
                i = done + int(np.argmin(finite)) * values.itemsize
                raise DataError(f"{header_path}: non-finite payload value at byte offset {i}")
            plane[top : top + rows] = block
            done += n
    return done


def write_raster(raster: MultispectralRaster, path) -> tuple[str, str]:
    """Write <base>.json + <base>.bin; returns the two paths."""
    extra = {}
    if raster.nodata is not None:
        extra["nodata"] = raster.nodata
    if raster.band_names is not None:
        extra["band_names"] = list(raster.band_names)
    return _write_sidecar(path, RASTER_DTYPE, raster.values.transpose(2, 0, 1), extra)


def read_raster(header_path) -> MultispectralRaster:
    """Read a raster written by write_raster, validating everything."""
    doc, values = _read_sidecar(header_path, RASTER_DTYPE)
    nodata = doc.get("nodata")
    if nodata is not None:
        if not is_real(nodata):
            raise DataError(f"{header_path}: nodata must be a finite number")
        nodata = float(nodata)
    band_names = doc.get("band_names")
    if band_names is not None:
        b = values.shape[2]
        if (
            not isinstance(band_names, list)
            or len(band_names) != b
            or not all(isinstance(n, str) for n in band_names)
        ):
            raise DataError(
                f"{header_path}: band_names must list {b} strings"
            )
        band_names = tuple(band_names)
    return MultispectralRaster(values, nodata, band_names, adopt=True)


def write_mask(mask, path) -> tuple[str, str]:
    """Write an H x W label mask (values 0, 1, or 255) as u8 sidecar files."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise DataError(f"mask must be 2-D, got ndim={m.ndim}")
    if min(m.shape) < 1:
        raise DataError(f"empty raster: mask shape {m.shape}")
    check_mask(m)
    return _write_sidecar(path, MASK_DTYPE, m[None])


def read_mask(header_path) -> np.ndarray:
    """Read a u8 label mask, enforcing the {0, 1, 255} value domain."""
    _, values = _read_sidecar(header_path, MASK_DTYPE, bands_fixed=1)
    check_mask(values)
    return values[..., 0]


# --- model serialization -------------------------------------------------


def save_model(model: CcfModel, path) -> str:
    """Serialize a trained model to one JSON document (full float
    precision; floats round-trip exactly), written atomically; returns
    the path."""
    head = _dumps({
        "format_version": model.format_version,
        "n_bands": model.n_bands,
        "class_names": list(model.class_names),
        "scaler": {
            "mean": [float(v) for v in model.scaler.mean],
            "stddev": [float(v) for v in model.scaler.stddev],
        },
        "config": _config_doc(model.config, model.n_bands),
    })

    def chunks():
        # "trees" is the last key; encoding one tree at a time keeps a
        # single tree's text in memory, not the whole document's
        yield (head[:-1] + ',"trees":[').encode()
        for i, tree in enumerate(model.trees):
            yield (("," if i else "") + _dumps(_tree_doc(tree))).encode()
        yield b"]}\n"

    return _write_atomic(path, chunks())


def _config_doc(cfg: TrainConfig, n_bands: int) -> dict:
    """A model's config block: cfg's settings and, in their places, the
    fixed growth settings a model over n_bands bands was grown with."""
    return {
        "n_trees": cfg.n_trees,
        "min_node_size": TrainConfig.min_node_size,
        "max_depth": cfg.max_depth,
        "feature_subsample": default_feature_subsample(n_bands),
        "gamma": TrainConfig.gamma,
        "seed": cfg.seed,
    }


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def _tree_doc(tree: FlatTree) -> dict:
    kind = tree.kind.tolist()
    features = tree.features.tolist()
    projections = tree.projections.tolist()
    thresholds = tree.thresholds.tolist()
    left = tree.left.tolist()
    right = tree.right.tolist()
    counts = tree.counts.tolist()
    nodes = []
    for i in range(tree.n_nodes):
        if kind[i] == 1:
            nodes.append(
                {
                    "kind": "split",
                    "feature_indices": features[i],
                    "projection": projections[i],
                    "threshold": thresholds[i],
                    "left": left[i],
                    "right": right[i],
                }
            )
        else:
            nodes.append({"kind": "leaf", "class_counts": counts[i]})
    return {"nodes": nodes}


def _expect(cond: bool, msg: str):
    if not cond:
        raise DataError(msg)


def _float_list(values, length, name, path):
    _expect(
        isinstance(values, list) and len(values) == length
        and all(is_real(v) for v in values),
        f"{path}: {name} must be a list of {length} finite number(s)",
    )
    return [float(v) for v in values]


def load_model(path) -> CcfModel:
    """Parse and structurally validate a saved model. _parse_tree checks
    each field of a tree as one array, so past JSON decoding a tree costs
    a few numpy calls per field, not Python work per value."""
    p = os.fspath(path)
    doc = _load_json(p)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"{p}: unsupported model format_version {version!r}, "
            f"expected {MODEL_FORMAT_VERSION!r}"
        )
    n_bands = doc.get("n_bands")
    _expect(
        is_int(n_bands) and n_bands >= 1,
        f"{p}: n_bands must be a positive integer",
    )
    class_names = doc.get("class_names")
    _expect(
        isinstance(class_names, list) and len(class_names) == 2
        and all(isinstance(c, str) for c in class_names),
        f"{p}: class_names must list 2 strings",
    )

    scaler_doc = doc.get("scaler")
    _expect(isinstance(scaler_doc, dict), f"{p}: missing scaler")
    scaler = ColumnStats(
        mean=np.array(_float_list(scaler_doc.get("mean"), n_bands, "scaler.mean", p)),
        stddev=np.array(
            _float_list(scaler_doc.get("stddev"), n_bands, "scaler.stddev", p)
        ),
    )
    _expect(
        bool((scaler.stddev >= 0).all()), f"{p}: scaler.stddev must be >= 0"
    )

    cfg_doc = doc.get("config")
    _expect(isinstance(cfg_doc, dict), f"{p}: missing config")
    try:
        config = TrainConfig(
            n_trees=cfg_doc.get("n_trees"),
            max_depth=cfg_doc.get("max_depth"),
            seed=cfg_doc.get("seed"),
        )
    except DataError as exc:
        raise DataError(f"{p}: bad config: {exc}") from exc
    # the fixed settings hold exactly the values save_model writes, type too
    for key, want in _config_doc(config, n_bands).items():
        got = cfg_doc.get(key)
        _expect(
            type(got) is type(want) and got == want,
            f"{p}: bad config: {key} must be {want!r}, got {got!r}",
        )

    trees_doc = doc.get("trees")
    _expect(
        isinstance(trees_doc, list) and len(trees_doc) == config.n_trees,
        f"{p}: expected {config.n_trees} tree(s) per config",
    )
    fs = default_feature_subsample(n_bands)
    trees = [_parse_tree(t, i, n_bands, fs, p) for i, t in enumerate(trees_doc)]
    return CcfModel(
        trees=trees,
        scaler=scaler,
        n_bands=n_bands,
        class_names=tuple(class_names),
        config=config,
        format_version=version,
    )


def _column(values, width, name, dtype, where) -> np.ndarray:
    """One field of many nodes as an array: values holds a number per
    node (width None) or a list of width numbers per node. An index or a
    count is an int (a bool is no number); a real is an int or a float."""
    noun = "int64 integers" if dtype is np.int64 else "finite numbers"
    if width is not None:
        _expect(
            set(map(type, values)) <= {list} and set(map(len, values)) <= {width},
            f"{where}: each {name} must be a list of {width} {noun}",
        )
        values = list(itertools.chain.from_iterable(values))
    types = {int} if dtype is np.int64 else {int, float}
    try:
        out = np.array(values, dtype=dtype) if set(map(type, values)) <= types else None
    except OverflowError:  # an int beyond int64, or beyond the float range
        out = None
    _expect(
        out is not None and (dtype is np.int64 or bool(np.isfinite(out).all())),
        f"{where}: {name} values must be {noun}",
    )
    return out if width is None else out.reshape(-1, width)


def _no_bad_node(bad, ids, where, what):
    """Raise what for the first node of ids where bad holds, if any does."""
    if bad.any():
        raise DataError(f"{where} node {ids[int(np.argmax(bad))]}: {what}")


def _parse_tree(doc, tree_index: int, n_bands: int, fs: int, path) -> FlatTree:
    """One tree of a ccf-1 document as a FlatTree. Per node this only
    pulls the fields out of its object; each field is then checked for
    every node at once, as an array."""
    where = f"{path}: tree {tree_index}"
    _expect(isinstance(doc, dict), f"{where} must be an object")
    nodes = doc.get("nodes")
    _expect(isinstance(nodes, list) and len(nodes) >= 1, f"{where}: empty node list")
    m = len(nodes)
    split_at, feats, projs, thrs, lefts, rights = [], [], [], [], [], []
    leaf_at, tallies = [], []
    for i, nd in enumerate(nodes):
        _expect(isinstance(nd, dict), f"{where} node {i} must be an object")
        kind = nd.get("kind")
        if kind == "split":
            split_at.append(i)
            feats.append(nd.get("feature_indices"))
            projs.append(nd.get("projection"))
            thrs.append(nd.get("threshold"))
            lefts.append(nd.get("left"))
            rights.append(nd.get("right"))
        elif kind == "leaf":
            leaf_at.append(i)
            tallies.append(nd.get("class_counts"))
        else:
            raise DataError(f"{where} node {i}: unknown node kind {kind!r}")

    features = np.full((m, fs), -1, dtype=np.int64)
    projections, thresholds = np.zeros((m, fs)), np.zeros(m)
    left, right = np.full((2, m), -1, dtype=np.int64)
    counts = np.zeros((m, 2), dtype=np.int64)
    f = _column(feats, fs, "feature_indices", np.int64, where)
    _no_bad_node(((f < 0) | (f >= n_bands)).any(axis=1), split_at, where,
                 f"feature index out of range [0, {n_bands})")
    features[split_at] = f
    projections[split_at] = _column(projs, fs, "projection", np.float64, where)
    thresholds[split_at] = _column(thrs, None, "threshold", np.float64, where)
    for name, values, out in (("left", lefts, left), ("right", rights, right)):
        child = _column(values, None, name, np.int64, where)
        _no_bad_node((child < 0) | (child >= m), split_at, where,
                     f"{name} child index out of range [0, {m})")
        out[split_at] = child
    tally = _column(tallies, 2, "class_counts", np.int64, where)
    _no_bad_node((tally < 0).any(axis=1), leaf_at, where, "negative class count")
    _no_bad_node((tally == 0).all(axis=1), leaf_at, where, "leaf class_counts all zero")
    # the tree stores counts and their sum as int64
    _no_bad_node(tally[:, 0] > np.iinfo(np.int64).max - tally[:, 1], leaf_at, where,
                 "leaf class_counts sum beyond int64")
    counts[leaf_at] = tally

    # every node reachable from the root exactly once: each is referenced
    # once (the root by the tree itself), and none sits in a detached cycle
    refs = np.bincount(np.concatenate(([0], left[split_at], right[split_at])), minlength=m)
    _expect(not (refs > 1).any(),
            f"{where}: node {int(np.argmax(refs > 1))} referenced more than once")
    reached, level = 1, np.zeros(1, dtype=np.int64)
    while level.size:  # ends, as no node has two parents and none the root
        level = level[left[level] >= 0]
        level = np.concatenate((left[level], right[level]))
        reached += level.size
    _expect(reached == m, f"{where}: {m - reached} unreachable node(s)")
    return FlatTree.from_rows(features, projections, thresholds, left, right, counts)


# --- evaluation reports ---------------------------------------------------


def write_report(report: EvalReport, path, class_names=None) -> str:
    """Serialize an EvalReport as JSON: percent figures rounded to one
    decimal for readability, raw fractions alongside for tooling. The
    region field is always null."""
    def pct(v):
        return None if v is None else round(v * 100.0, 1)

    doc = {
        "region": None,
        "pixel_accuracy_percent": pct(report.pixel_accuracy),
        "mean_iou_percent": pct(report.mean_iou),
        "pixel_accuracy": report.pixel_accuracy,
        "mean_iou": report.mean_iou,
        "iou_per_class": list(report.iou_per_class),
        "iou_per_class_percent": [pct(v) for v in report.iou_per_class],
        "class_names": None if class_names is None else list(class_names),
        "confusion": [[int(v) for v in row] for row in report.confusion.counts],
        "abstain": [int(v) for v in report.confusion.abstain],
        "evaluated_pixels": report.evaluated_pixels,
        "skipped_pixels": report.skipped_pixels,
    }
    return _write_json(doc, path)


def read_report(path) -> dict:
    return _load_json(path)


# --- synthetic scenes ------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Parameters for a deterministic synthetic scene.

    class_separation is the Euclidean distance between the two class
    means in spectral space ("blobs"/"ring") or the margin pushed around
    the decision line ("oblique"); noise_std scales the per-band noise.
    """

    preset: str = "blobs"
    width: int = 64
    height: int = 64
    bands: int = 10
    class_separation: float = 4.0
    noise_std: float = 1.0
    seed: int = 0
    unlabeled_border: int = 0

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise DataError(
                f"unknown preset {self.preset!r}; choose from {', '.join(PRESETS)}"
            )
        if not (is_int(self.width) and is_int(self.height)) \
                or self.width < 1 or self.height < 1:
            raise DataError(
                f"zero-area scene: width={self.width!r}, height={self.height!r}"
            )
        if not is_int(self.bands) or self.bands < 1:
            raise DataError(f"bands must be >= 1, got {self.bands!r}")
        if not is_real(self.class_separation) or self.class_separation < 0:
            raise DataError(
                f"class_separation must be >= 0, got {self.class_separation!r}"
            )
        if not is_real(self.noise_std) or self.noise_std < 0:
            raise DataError(f"noise_std must be >= 0, got {self.noise_std!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not is_int(self.unlabeled_border) or self.unlabeled_border < 0:
            raise DataError(
                f"unlabeled_border must be >= 0, got {self.unlabeled_border!r}"
            )


def _grid(spec: SyntheticSceneSpec):
    """Pixel-center coordinates normalized to [0, 1] per axis."""
    ys = (np.arange(spec.height) + 0.5) / spec.height
    xs = (np.arange(spec.width) + 0.5) / spec.width
    return np.meshgrid(ys, xs, indexing="ij")


def generate_scene(spec: SyntheticSceneSpec):
    """Deterministic (raster, mask) pair for one scene spec.

    blobs   : a few random ellipses form class 1; class means differ by
              class_separation in spectral space.
    oblique : the label is the sign of band0+band1 noise, pushed apart by
              class_separation along that diagonal; no axis-aligned
              threshold can separate it.
    ring    : class 1 is a centered annulus, spectra as in blobs.

    Per-band affine scale/offset decorates all presets so the spectra
    are not pre-standardized. The RNG draw order is fixed: spatial
    parameters first (blobs only), then one noise block.
    """
    rng = np.random.default_rng(spec.seed)
    h, w, b = spec.height, spec.width, spec.bands

    if spec.preset == "blobs":
        n_blobs = int(rng.integers(3, 7))
        cx = rng.uniform(0.1, 0.9, n_blobs)
        cy = rng.uniform(0.1, 0.9, n_blobs)
        rx = rng.uniform(0.08, 0.3, n_blobs)
        ry = rng.uniform(0.08, 0.3, n_blobs)
        yy, xx = _grid(spec)
        label = np.zeros((h, w), dtype=bool)
        for i in range(n_blobs):
            label |= ((xx - cx[i]) / rx[i]) ** 2 + ((yy - cy[i]) / ry[i]) ** 2 <= 1.0
        values = rng.standard_normal((h, w, b)) * spec.noise_std
        values += label[..., None] * (spec.class_separation / math.sqrt(b))
    elif spec.preset == "ring":
        yy, xx = _grid(spec)
        rr = np.sqrt((xx - 0.5) ** 2 + (yy - 0.5) ** 2)
        label = (rr >= 0.18) & (rr <= 0.42)
        values = rng.standard_normal((h, w, b)) * spec.noise_std
        values += label[..., None] * (spec.class_separation / math.sqrt(b))
    else:  # oblique
        values = rng.standard_normal((h, w, b)) * spec.noise_std
        label = values[..., 0] + values[..., 1] > 0.0
        push = np.where(label, 1.0, -1.0) * (
            spec.class_separation / (2.0 * math.sqrt(2.0))
        )
        values[..., 0] += push
        values[..., 1] += push

    scale = np.linspace(0.75, 1.5, b)
    offset = np.linspace(-2.0, 3.0, b)
    values = values * scale + offset

    mask = label.astype(np.uint8)
    border = spec.unlabeled_border
    if border > 0:
        mask[:border, :] = UNLABELED
        mask[-border:, :] = UNLABELED
        mask[:, :border] = UNLABELED
        mask[:, -border:] = UNLABELED
    raster = MultispectralRaster(values=values.astype(np.float32))
    return raster, mask


def bayes_accuracy_estimate(spec: SyntheticSceneSpec) -> float:
    """Accuracy of the optimal classifier on balanced classes.

    For the Gaussian presets (blobs, ring) two isotropic classes at
    distance s with noise sigma give Phi(s / (2 sigma)); the per-band
    affine decoration is invertible and changes nothing. The oblique
    preset's labels are a deterministic function of the spectrum, so its
    Bayes accuracy is 1. Spatial layout is ignored: the estimate assumes
    a pixel's class prior is 1/2, matching the balanced training setup.
    """
    if spec.preset == "oblique":
        return 1.0
    if spec.noise_std == 0.0:
        return 1.0 if spec.class_separation > 0 else 0.5
    t = spec.class_separation / (2.0 * spec.noise_std)
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
