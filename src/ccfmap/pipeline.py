"""Dataset preparation: pixel extraction, balancing, splitting, scaling.

Turns raster+mask pairs into the flat table form the forest consumes:
assemble_region_dataset (extract_samples for one pair), balance_classes,
stratified_split and fit_scaler, the steps `ccfmap train` runs. The table
keeps the rasters' float32 pixels through all of them: fit_scaler reads
them a block of rows at a time, and the first float64 table is the
standardized one (cca.standardize). Every random step takes an explicit
Generator or seed, so identical inputs reproduce identical SampleSets
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from itertools import starmap

import numpy as np

from .cca import ColumnStats, as_matrix, column_stats
from .errors import DataError, is_int, is_real

UNLABELED = 255  # mask value of a pixel with no label

DEFAULT_CLASS_NAMES = ("environment", "informal")


@dataclass(frozen=True)
class SampleSet:
    """Immutable table of per-pixel spectra and their class labels.

    features : (n, B) float32 or float64, one row per labeled pixel
    labels   : (n,) integer class indices < len(class_names)

    float32 features (raster pixels) stay float32; any other dtype
    becomes float64. The set copies a caller's arrays. The steps here
    pass arrays they just built (features, int64 labels) with adopt=True,
    and the set takes those over instead, so each step's table exists
    once.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...] = DEFAULT_CLASS_NAMES

    adopt: InitVar[bool] = False

    def __post_init__(self, adopt):
        feats = as_matrix(self.features, "features", float32=True)
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DataError(
                f"labels must be 1-D with one entry per feature row, got "
                f"shape {labels.shape} for {feats.shape[0]} row(s)"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise DataError(f"labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64, copy=False)
        k = len(self.class_names)
        if k < 2:
            raise DataError("need at least 2 class names")
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            bad = labels[(labels < 0) | (labels >= k)][0]
            raise DataError(f"label {bad} outside [0, {k})")
        if not adopt:  # the caller keeps its arrays; the set holds copies
            feats, labels = feats.copy(), labels.copy()
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_bands(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def take(self, indices) -> "SampleSet":
        idx = np.asarray(indices, dtype=np.int64)
        # take gathers whole rows, about twice as fast as fancy indexing,
        # into the same C-ordered bytes
        return SampleSet(self.features.take(idx, axis=0), self.labels.take(idx),
                         self.class_names, adopt=True)


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split parameters: train fraction plus its own RNG seed."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        frac, seed = self.train_fraction, self.seed
        if not is_real(frac) or not (0.0 < frac < 1.0):
            raise DataError(f"train_fraction must be in (0, 1), got {frac!r}")
        if not is_int(seed) or seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {seed!r}")


def check_mask(mask: np.ndarray, classes: int = 2, name: str = "mask", first: int = 0) -> None:
    """The one label rule, for read_mask, open_mask, write_mask,
    extract_samples and metrics.confusion: DataError unless each value
    equals a class below classes or UNLABELED (so 0.5 and NaN are
    refused); costs 2 B/px. mask may be a window of a larger mask whose
    pixel index first is its first value: the error names the larger
    mask's index."""
    bad = mask != UNLABELED
    for c in range(classes):
        bad &= mask != c
    if bad.any():
        i = int(bad.argmax())
        raise DataError(
            f"{name} contains illegal value {mask.flat[i]} at pixel index {first + i}"
        )


def valid_pixels(values: np.ndarray, nodata) -> np.ndarray:
    """True where no band (last axis) equals nodata; all True without one.
    Compared band by band, each band contiguous in a raster's window."""
    valid = np.ones(values.shape[:-1], dtype=bool)
    if nodata is not None:
        nd = np.asarray(nodata, dtype=values.dtype)
        for band in np.moveaxis(values, -1, 0):
            valid &= band != nd
    return valid


def extract_samples(raster, mask) -> SampleSet:
    """One sample per labeled, valid pixel, read by raster.window, row-major.

    Pixels whose mask value is UNLABELED(255) are skipped, as is any pixel
    containing the raster's nodata value in any band. The features are
    the raster's float32 pixels, one C-ordered table.
    """
    return assemble_region_dataset([(raster, mask)])


def _labeled_pixels(raster, mask):
    """A pair's labeled, valid pixels in the raster's own dtype (float32)
    and their int64 labels, both row-major."""
    mask = np.asarray(mask)
    shape = (raster.height, raster.width)
    if mask.shape != shape:
        raise DataError(f"mask shape {mask.shape} does not match raster {shape}")
    check_mask(mask)
    pixels, labels = raster.window(0, mask.size), mask.ravel()
    valid = (labels != UNLABELED) & valid_pixels(pixels, raster.nodata)
    if not valid.any():
        raise DataError("zero labeled pixels")
    return pixels[valid], labels[valid].astype(np.int64)


def _balanced_rows(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """balance_classes's row indices into the set with these labels."""
    counts = np.bincount(labels)
    present = np.flatnonzero(counts)
    if present.size < 2:
        raise DataError("cannot balance with a single class present")
    m = int(counts[present].min())
    kept = [rng.choice(np.flatnonzero(labels == c), size=m, replace=False) for c in present]
    order = np.concatenate(kept)
    return order[rng.permutation(order.size)]


def _split_rows(labels: np.ndarray, class_names, spec: SplitSpec):
    """stratified_split's train and test row indices into the set with
    these labels and class names."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(2,)))
    train_parts = []
    test_parts = []
    counts = np.bincount(labels, minlength=len(class_names))
    for c in range(len(class_names)):
        n_c = int(counts[c])
        if n_c < 2:
            raise DataError(
                f"class {c} ({class_names[c]}) has {n_c} sample(s); "
                f"need at least 2 to split"
            )
        perm = rng.permutation(np.flatnonzero(labels == c))
        n_train = int(math.floor(spec.train_fraction * n_c))
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def balance_classes(s: SampleSet, rng: np.random.Generator) -> SampleSet:
    """Downsample every present class to the minority count, then shuffle.

    Per-class subsets are drawn without replacement in ascending class
    order, then the concatenation is permuted, all by the one rng, so the
    output ordering is a pure function of (input, rng state).
    """
    return s.take(_balanced_rows(s.labels, rng))


def stratified_split(s: SampleSet, spec: SplitSpec) -> tuple[SampleSet, SampleSet]:
    """Per class: floor(train_fraction * n_c) samples to train, rest to test.

    Every class must bring at least 2 samples so neither side can lose a
    class entirely at the default 0.8 fraction.
    """
    train, test = _split_rows(s.labels, s.class_names, spec)
    return s.take(train), s.take(test)


def fit_scaler(train: SampleSet) -> ColumnStats:
    """Per-band mean/stddev from the TRAINING samples only.

    Bands with stddev 0 are the constant-band flag; standardize() will
    center them without scaling.
    """
    return column_stats(train.features)


def assemble_region_dataset(pairs) -> SampleSet:
    """extract_samples over (raster, mask) pairs, concatenated in order.
    A pair is dropped once its pixels are taken, so a generator holds one
    at a time; the pairs' float32 pixels are joined into one C-ordered
    float32 table, and one pair's pixels are that table."""
    parts, labels = [], []
    for i, (pixels, part_labels) in enumerate(starmap(_labeled_pixels, pairs)):
        if parts and pixels.shape[1] != parts[0].shape[1]:
            raise DataError(
                f"band mismatch: pair 0 has {parts[0].shape[1]} band(s), "
                f"pair {i} has {pixels.shape[1]}"
            )
        parts.append(pixels)
        labels.append(part_labels)
    if not parts:
        raise DataError("no raster/mask pairs given")
    if len(parts) == 1:  # new arrays already: no second table
        return SampleSet(np.ascontiguousarray(parts[0]), labels[0], adopt=True)
    return SampleSet(np.concatenate(parts), np.concatenate(labels), adopt=True)
