"""Dataset preparation: pixel extraction, balancing, splitting, scaling.

Turns raster+mask pairs into the flat table form the forest consumes.
Every random step takes an explicit Generator or seed, so identical
inputs reproduce identical SampleSets byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .cca import ColumnStats, as_matrix, column_stats
from .errors import DataError

UNLABELED = 255  # mask value of a pixel with no label
MASK_VALUES = (0, 1, UNLABELED)
_VALID_BLOCK = 1 << 14  # pixels valid_pixels compares at a time

DEFAULT_CLASS_NAMES = ("environment", "informal")


@dataclass(frozen=True)
class SampleSet:
    """Immutable table of per-pixel spectra and their class labels.

    features : (n, B) float64, one row per labeled pixel
    labels   : (n,) integer class indices < len(class_names)

    The set copies a caller's arrays. The steps here pass arrays they
    just built (float64 features, int64 labels) with adopt=True, and the
    set takes those over instead, so each step's table exists once.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...] = DEFAULT_CLASS_NAMES

    adopt: InitVar[bool] = False

    def __post_init__(self, adopt):
        feats = as_matrix(self.features, "features")
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
        return SampleSet(self.features[idx], self.labels[idx], self.class_names, adopt=True)


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split parameters: train fraction plus its own RNG seed."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise DataError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DataError(f"seed must be a non-negative integer, got {self.seed!r}")


def _raster_values(raster):
    """Accept a raster object (values + nodata attributes) or a bare array."""
    if isinstance(raster, np.ndarray):
        return raster, None
    return raster.values, getattr(raster, "nodata", None)


def check_mask(mask: np.ndarray) -> None:
    """Raise DataError unless every value of mask is in MASK_VALUES."""
    bad = ~np.isin(mask, MASK_VALUES)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise DataError(
            f"mask contains illegal value {mask.flat[i]} at pixel index {i}"
        )


def valid_pixels(values: np.ndarray, nodata) -> np.ndarray:
    """True where no band (last axis) equals nodata; all True without one.
    Blocks of pixels are compared band by band: no temporary is large."""
    valid = np.ones(values.shape[:-1], dtype=bool)
    if nodata is not None:
        nd = np.asarray(nodata, dtype=values.dtype)
        pixels, flags = values.reshape(valid.size, values.shape[-1]), valid.reshape(-1)
        for start in range(0, valid.size, _VALID_BLOCK):
            for column in pixels[start : start + _VALID_BLOCK].T:
                flags[start : start + _VALID_BLOCK] &= column != nd
    return valid


def extract_samples(raster, mask) -> SampleSet:
    """One sample per labeled, valid pixel, in row-major pixel order.

    Pixels whose mask value is UNLABELED(255) are skipped, as is any pixel
    containing the raster's nodata value in any band.
    """
    values, nodata = _raster_values(raster)
    values = np.asarray(values)
    if values.ndim != 3:
        raise DataError(f"raster values must be H x W x B, got ndim={values.ndim}")
    mask = np.asarray(mask)
    if mask.shape != values.shape[:2]:
        raise DataError(
            f"mask shape {mask.shape} does not match raster {values.shape[:2]}"
        )
    check_mask(mask)
    valid = (mask != UNLABELED) & valid_pixels(values, nodata)
    if not valid.any():
        raise DataError("zero labeled pixels")
    return SampleSet(
        values[valid].astype(np.float64), mask[valid].astype(np.int64), adopt=True
    )


def balance_classes(s: SampleSet, rng: np.random.Generator) -> SampleSet:
    """Downsample every present class to the minority count, then shuffle.

    Per-class subsets are drawn without replacement in ascending class
    order, then the concatenation is permuted, all by the one rng, so the
    output ordering is a pure function of (input, rng state).
    """
    counts = s.class_counts()
    present = np.flatnonzero(counts)
    if present.size < 2:
        raise DataError("cannot balance with a single class present")
    m = int(counts[present].min())
    kept = []
    for c in present:
        idx = np.flatnonzero(s.labels == c)
        kept.append(rng.choice(idx, size=m, replace=False))
    order = np.concatenate(kept)
    return s.take(order[rng.permutation(order.size)])


def stratified_split(s: SampleSet, spec: SplitSpec) -> tuple[SampleSet, SampleSet]:
    """Per class: floor(train_fraction * n_c) samples to train, rest to test.

    Every class must bring at least 2 samples so neither side can lose a
    class entirely at the default 0.8 fraction.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(2,)))
    train_parts = []
    test_parts = []
    counts = s.class_counts()
    for c in range(s.n_classes):
        n_c = int(counts[c])
        if n_c < 2:
            raise DataError(
                f"class {c} ({s.class_names[c]}) has {n_c} sample(s); "
                f"need at least 2 to split"
            )
        idx = np.flatnonzero(s.labels == c)
        perm = rng.permutation(idx)
        n_train = int(math.floor(spec.train_fraction * n_c))
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    return s.take(np.concatenate(train_parts)), s.take(np.concatenate(test_parts))


def fit_scaler(train: SampleSet) -> ColumnStats:
    """Per-band mean/stddev from the TRAINING samples only.

    Bands with stddev 0 are the constant-band flag; standardize() will
    center them without scaling.
    """
    return column_stats(train.features)


def assemble_region_dataset(pairs) -> SampleSet:
    """Concatenate extract_samples over (raster, mask) pairs in order. A
    pair is dropped once extracted, so a generator holds one at a time."""
    parts = []
    for i, part in enumerate(map(lambda pair: extract_samples(*pair), pairs)):
        if parts and part.n_bands != parts[0].n_bands:
            raise DataError(
                f"band mismatch: pair 0 has {parts[0].n_bands} band(s), "
                f"pair {i} has {part.n_bands}"
            )
        parts.append(part)
    if not parts:
        raise DataError("no raster/mask pairs given")
    if len(parts) == 1:
        return parts[0]
    return SampleSet(
        np.concatenate([p.features for p in parts], axis=0),
        np.concatenate([p.labels for p in parts]),
        parts[0].class_names,
        adopt=True,
    )
