"""Raster, mask and evaluation-report files, and the synthetic scenes
the tests, demos and benchmark generate.

Rasters and masks are sidecar pairs: a raw payload (<name>.bin) of
little-endian band-sequential planes (float32 for spectra, one u8 plane
for label masks) and a JSON header (<name>.json) that describes it.
write_sidecars is their one writer, a chunk of each payload at a time
(write_raster and write_mask write the whole payload as one chunk),
_check_header their one header check and RasterFile.window their one
reader, a window of pixels at a time (read_raster and read_mask read
the whole payload as one window; open_mask checks a mask window by
window and leaves it in its file).
A MultispectralRaster holds its pixels as the payload lays them out and
gives the same height, width, bands, nodata and window in memory: all
that forest and pipeline read of a raster.
Evaluation reports are single JSON documents; the model file is
model_io's, which shares _write_atomic and _load_json. Every file goes
through _write_atomic (temp files in the same directory, renamed by
os.replace once every file is written; a sidecar's payload before its
header), so a failed or interrupted write leaves every earlier file
whole. Writers emit deterministic bytes so
repeated runs can be compared with cmp, and every reader rejects
malformed input with a DataError instead of crashing or guessing.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DataError, is_int, is_real
from .pipeline import UNLABELED, check_mask

RASTER_DTYPE = "f32le"
MASK_DTYPE = "u8"
LAYOUT = "band-sequential"
_NUMPY_DTYPES = {RASTER_DTYPE: "<f4", MASK_DTYPE: "u1"}
_F32_LIMIT = 2.0**128 - 2.0**103  # the least double that float32 rounds to inf

PRESETS = ("blobs", "oblique", "ring")
_MASK_WINDOW = 1 << 16  # pixels of a mask open_mask and mask_windows read at once


def _check_nodata(nodata, where: str = "") -> float | None:
    """nodata as a float (None stays None); a DataError unless float32
    rounds it to a finite value, so a float32 pixel can equal it."""
    if nodata is not None and not (is_real(nodata) and abs(nodata) < _F32_LIMIT):
        raise DataError(f"{where}nodata must be a finite float32 number, got {nodata!r}")
    return None if nodata is None else float(nodata)


@dataclass(frozen=True)
class MultispectralRaster:
    """In-memory H x W x B float32 image, one spectrum per pixel. values
    is a read-only view of C-contiguous B x H x W planes, the payload's
    band-sequential layout, so window is RasterFile.window's layout too."""

    values: np.ndarray
    nodata: float | None = None
    band_names: tuple[str, ...] | None = None

    adopt: InitVar[bool] = False  # take over new float32 values, planes C-ordered: no copy

    def __post_init__(self, adopt):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 3:
            raise DataError(f"raster values must be H x W x B, got ndim={v.ndim}")
        if min(v.shape) < 1:
            raise DataError(f"empty raster: shape {v.shape}")
        planes = v.transpose(2, 0, 1)
        # unless adopted, the caller keeps its array and the raster holds a copy
        planes = np.ascontiguousarray(planes) if adopt else planes.copy()
        for plane in planes:  # a plane at a time: the check's bools cost one plane
            if not np.isfinite(plane).all():
                raise DataError("raster values must be finite")
        names = self.band_names
        if names is not None:
            names = tuple(str(n) for n in names)
            if len(names) != v.shape[2]:
                raise DataError(f"{len(names)} band name(s) for {v.shape[2]} band(s)")
        self._hold(planes, _check_nodata(self.nodata), names)

    def _hold(self, planes: np.ndarray, nodata, band_names) -> None:
        planes.setflags(write=False)
        object.__setattr__(self, "values", planes.transpose(1, 2, 0))
        object.__setattr__(self, "nodata", nodata)
        object.__setattr__(self, "band_names", band_names)

    @classmethod
    def _read(cls, file: RasterFile) -> MultispectralRaster:
        """file's whole payload, checked finite by RasterFile.window as it
        reads it; built without __post_init__, so no value is checked twice."""
        raster = object.__new__(cls)
        pixels = file.window(0, file.height * file.width)  # planes.T: one read
        raster._hold(pixels.T.reshape(file.bands, file.height, file.width),
                     file.nodata, file.band_names)
        return raster

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]

    def window(self, start: int, size: int) -> np.ndarray:
        """RasterFile.window's pixels in its layout, a read-only view of values."""
        planes = self.values.transpose(2, 0, 1).reshape(self.bands, -1)
        return planes[:, start : start + size].T


def _sidecar_paths(path) -> tuple[str, str]:
    """Map a header/payload/base path to the (.json, .bin) pair."""
    p = os.fspath(path)
    base = p.removesuffix(".json") if p.endswith(".json") else p.removesuffix(".bin")
    return base + ".json", base + ".bin"


def _write_atomic(parts) -> list[str]:
    """Write each (path, chunk) of parts to <path>.<pid>.tmp in path's
    directory, a path's chunks in turn, then rename every temp file over
    its path, in the order the paths first came; returns those paths. A
    failure before the renames removes every temp file, so no path
    changes unless every file is complete. An OSError is raised as a
    DataError that names its path."""
    temps = {}  # path -> its open temp file
    try:
        for path, chunk in parts:
            path = os.fspath(path)
            with _writing(path):
                if path not in temps:  # same directory, so os.replace is atomic
                    temps[path] = open(f"{path}.{os.getpid()}.tmp", "wb")
                temps[path].write(chunk)
        for path, fh in temps.items():
            with _writing(path):
                fh.close()
        for path, fh in temps.items():
            with _writing(path):
                os.replace(fh.name, path)
    except BaseException:
        for fh in temps.values():
            with contextlib.suppress(OSError):  # a failed flush: the file goes anyway
                fh.close()
            if os.path.exists(fh.name):
                os.unlink(fh.name)
        raise
    return list(temps)


@contextlib.contextmanager
def _writing(path):
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()


def _write_json(doc: dict, path) -> str:
    return _write_atomic([(path, _json_bytes(doc))])[0]


def _load_json(path, what: str) -> dict:
    """The JSON object in path; its errors name it what (header, model, report)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
        raise DataError(f"malformed {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"malformed {what} {path}: expected a JSON object")
    return doc


def _header(dtype: str, shape, extra=None) -> bytes:
    bands, height, width = shape
    return _json_bytes({
        "width": width,
        "height": height,
        "bands": bands,
        "dtype": dtype,
        "layout": LAYOUT,
        **(extra or {}),
    })


def write_sidecars(outputs, chunks) -> list[tuple[str, str]]:
    """Write sidecar files from their payloads, chunk by chunk. outputs
    lists each file's (path, dtype, (bands, height, width), extra header
    fields); chunks yields tuples of one array per output, each the next
    values of its band-sequential payload. Every payload is renamed
    before any header, and only once every chunk is written
    (_write_atomic): a new header never appears before its payload is
    complete, and a failure changes no output. Returns each output's
    (header, payload) paths."""
    paths = [_sidecar_paths(path) for path, *_ in outputs]

    def parts():
        for arrays in chunks:
            for (_, payload), (_, dtype, _, _), values in zip(paths, outputs, arrays):
                yield payload, np.ascontiguousarray(values, dtype=_NUMPY_DTYPES[dtype])
        for (header, _), (_, dtype, shape, extra) in zip(paths, outputs):
            yield header, _header(dtype, shape, extra)

    _write_atomic(parts())
    return paths


def _length_mismatch(expected: int, got: int, payload_path) -> DataError:
    return DataError(
        f"payload length mismatch: expected {expected} bytes, got {got} ({payload_path})"
    )


def _check_finite(block: np.ndarray, offset: int, payload_path) -> None:
    """Raise unless every value of block, the payload's bytes from offset
    on, is finite, naming the first bad value's byte offset."""
    finite = np.isfinite(block)
    if not finite.all():
        i = offset + int(np.argmin(finite)) * block.itemsize
        header_path = _sidecar_paths(payload_path)[0]
        raise DataError(f"{header_path}: non-finite payload value at byte offset {i}")


@dataclass(frozen=True)
class RasterFile:
    """A checked sidecar raster (or mask) whose pixels stay in its file."""

    path: str  # the band-sequential payload
    height: int
    width: int
    bands: int
    nodata: float | None = None
    dtype: str = RASTER_DTYPE
    band_names: tuple[str, ...] | None = None

    def window(self, start: int, size: int) -> np.ndarray:
        """Pixels start .. start + size - 1, row-major (fewer at the end),
        read and checked finite band by band, as a pixels x bands array
        whose bands are contiguous columns, as cca.standardize reads them."""
        n = self.height * self.width
        planes = np.empty((self.bands, min(size, n - start)), dtype=_NUMPY_DTYPES[self.dtype])
        try:
            with open(self.path, "rb") as fh:
                for k, plane in enumerate(planes):
                    offset = (k * n + start) * planes.itemsize
                    fh.seek(offset)
                    got = fh.readinto(plane)
                    if got != plane.nbytes:  # the file now ends at offset + got
                        raise _length_mismatch(n * self.bands * planes.itemsize,
                                               offset + got, self.path)
                    if plane.dtype.kind == "f":  # a mask's u8 plane is finite
                        _check_finite(plane, offset, self.path)
        except OSError as exc:
            raise DataError(f"cannot read {self.path}: {exc}") from exc
        return planes.T


def _check_header(path, dtype: str) -> RasterFile:
    """The RasterFile of a sidecar, its payload unread. Checks
    width/height/bands (a mask has one band), dtype, layout, the optional
    nodata and band_names, and the payload's size."""
    header_path, payload_path = _sidecar_paths(path)
    doc = _load_json(header_path, "header")
    dims = []
    for key in ("width", "height", "bands"):
        v = doc.get(key)
        if not is_int(v):
            raise DataError(f"malformed header {header_path}: {key} must be an integer")
        if v < 1:
            raise DataError(f"empty raster: {header_path} has {key}={v}")
        dims.append(v)
    w, h, b = dims
    if dtype == MASK_DTYPE and b != 1:
        raise DataError(f"{header_path}: masks are single-band, got bands={b}")
    for key, want in (("dtype", dtype), ("layout", LAYOUT)):
        if doc.get(key) != want:
            raise DataError(
                f"{header_path}: unsupported {key} {doc.get(key)!r}, expected {want!r}"
            )
    nodata = _check_nodata(doc.get("nodata"), f"{header_path}: ")
    band_names = doc.get("band_names")
    if band_names is not None:
        if not (isinstance(band_names, list) and len(band_names) == b
                and all(isinstance(n, str) for n in band_names)):
            raise DataError(f"{header_path}: band_names must list {b} strings")
        band_names = tuple(band_names)
    expected = w * h * b * np.dtype(_NUMPY_DTYPES[dtype]).itemsize
    try:
        with open(payload_path, "rb") as fh:
            got = os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise DataError(f"cannot read {payload_path}: {exc}") from exc
    if got != expected:
        raise _length_mismatch(expected, got, payload_path)
    return RasterFile(payload_path, h, w, b, nodata, dtype, band_names)


def write_raster(raster: MultispectralRaster, path) -> tuple[str, str]:
    """Write <base>.json + <base>.bin; returns the two paths."""
    extra = {}
    if raster.nodata is not None:
        extra["nodata"] = raster.nodata
    if raster.band_names is not None:
        extra["band_names"] = list(raster.band_names)
    planes = raster.values.transpose(2, 0, 1)
    return write_sidecars([(path, RASTER_DTYPE, planes.shape, extra)], [(planes,)])[0]


def read_raster(header_path) -> MultispectralRaster:
    """Read a raster written by write_raster, validating everything."""
    return MultispectralRaster._read(_check_header(header_path, RASTER_DTYPE))


def open_raster(header_path) -> RasterFile:
    """Check a raster written by write_raster as read_raster does, but leave
    its pixels in the file for RasterFile.window to read a window at a time."""
    return _check_header(header_path, RASTER_DTYPE)


def write_mask(mask, path) -> tuple[str, str]:
    """Write an H x W label mask (values 0, 1, or 255) as u8 sidecar files."""
    m = np.asarray(mask)
    if m.ndim != 2:
        raise DataError(f"mask must be 2-D, got ndim={m.ndim}")
    if min(m.shape) < 1:
        raise DataError(f"empty raster: mask shape {m.shape}")
    check_mask(m)
    return write_sidecars([(path, MASK_DTYPE, (1, *m.shape), None)], [(m,)])[0]


def read_mask(header_path) -> np.ndarray:
    """Read a u8 label mask, enforcing the {0, 1, 255} value domain."""
    file = _check_header(header_path, MASK_DTYPE)
    values = file.window(0, file.height * file.width)[:, 0].reshape(file.height, file.width)
    check_mask(values)
    return values


def open_mask(header_path) -> RasterFile:
    """Check a mask as read_mask does, its values a window at a time
    (1 B/px of reads), but leave them in the file for mask_windows or
    RasterFile.window to read again."""
    file = _check_header(header_path, MASK_DTYPE)
    for k, labels in enumerate(mask_windows(file)):
        check_mask(labels, first=k * _MASK_WINDOW)
    return file


def mask_windows(file: RasterFile):
    """The labels of a mask file, _MASK_WINDOW consecutive pixels at a
    time (fewer at the end), in order."""
    for start in range(0, file.height * file.width, _MASK_WINDOW):
        yield file.window(start, _MASK_WINDOW)[:, 0]


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
    return _load_json(path, "report")


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
        for key in ("class_separation", "noise_std"):
            v = getattr(self, key)
            if not is_real(v) or v < 0:
                raise DataError(f"{key} must be a finite number >= 0, got {v!r}")
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


@np.errstate(over="ignore", invalid="ignore")  # the raster refuses an overflow as non-finite
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
    elif spec.preset == "ring":
        yy, xx = _grid(spec)
        rr = np.sqrt((xx - 0.5) ** 2 + (yy - 0.5) ** 2)
        label = (rr >= 0.18) & (rr <= 0.42)
    values = rng.standard_normal((h, w, b))
    values *= spec.noise_std
    if spec.preset == "oblique":
        label = values[..., 0] + values[..., 1] > 0.0
        push = np.where(label, 1.0, -1.0) * (
            spec.class_separation / (2.0 * math.sqrt(2.0))
        )
        values[..., 0] += push
        values[..., 1] += push
    else:
        values += label[..., None] * (spec.class_separation / math.sqrt(b))

    scale = np.linspace(0.75, 1.5, b)
    offset = np.linspace(-2.0, 3.0, b)
    values *= scale
    planes = np.empty((b, h, w), dtype=np.float32)  # the raster's band-sequential layout
    np.add(values, offset, out=planes.transpose(1, 2, 0), casting="same_kind")

    mask = label.astype(np.uint8)
    border = spec.unlabeled_border
    if border > 0:
        mask[:border, :] = UNLABELED
        mask[-border:, :] = UNLABELED
        mask[:, :border] = UNLABELED
        mask[:, -border:] = UNLABELED
    return MultispectralRaster(planes.transpose(1, 2, 0), adopt=True), mask


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
