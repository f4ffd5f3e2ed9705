"""Canonical correlation forest training and prediction.

Trees use oblique hyperplane splits: each node draws a small feature
subset, runs CCA between a with-replacement resample of the node (the
projection bootstrap) and the one-hot labels, then scans every candidate
threshold on the full node's projections for the weighted-Gini minimum.
There is no bagging of the data itself; every tree sees every sample and
all randomness comes from the per-node draws of an independent per-tree
RNG stream, which makes training deterministic for a given seed no
matter how many workers run.

Each tree is grown straight into a FlatTree: parallel per-node arrays in
preorder, the one tree representation training, prediction and the
model format share.

Prediction standardizes a batch straight into one column-major block
(bands x rows, one contiguous row per band). _route walks each tree
depth-first with arrays of row indices; a split gathers only its own
feature columns for the rows that reach it, so a row costs
feature_subsample reads per level it descends, not one read per band.

_fan_out runs both training and prediction on up to CCF_THREADS worker
processes. Each worker receives the shared inputs once, when it starts
(the training set, or the model and the raster's pixels), and a task is
a small number: a tree index, or the start offset of a piece of
consecutive valid pixels. predict_raster fans out only above
_FANOUT_FLOOR valid pixels. A row's prediction does not depend on the
rows routed with it, so the outputs are the same bytes for any worker
count.

Numeric conventions that matter for reproducibility:
  * _project is the single projection routine: training partitions and
    prediction routes with the same arithmetic, so the two agree bit for
    bit. It adds the terms one feature at a time, left to right. Up to 7
    features per node this equals numpy's row sum (x * a).sum(axis=1),
    which earlier models were grown with, except that a sum of negative
    zeros stays -0.0 (it compares equal to numpy's 0.0). From 8 features
    on, numpy sums a row in 8 interleaved partial sums, so a model grown
    with feature_subsample >= 8 (more than 64 bands by default) can
    differ in the last bits from one grown by that older code;
  * thresholds are midpoints of consecutive distinct projected values,
    searched on the uncentered projection;
  * Gini terms accumulate class by class, left to right.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

# standardize is not called here, but perfbench/tracer.py wraps the name
from .cca import ColumnStats, as_matrix, cca, scale_divisor, standardize  # noqa: F401
from .errors import DataError
from .pipeline import UNLABELED, SampleSet, valid_pixels

MODEL_FORMAT_VERSION = "ccf-1"

_PREDICT_CHUNK = 1 << 18  # most rows one predict_proba_batch call routes
_FANOUT_FLOOR = 1 << 15  # fewer valid pixels than this predict in-process


def default_feature_subsample(n_bands: int) -> int:
    """ceil(log2(d)) + 1 features per node, never more than d."""
    if n_bands < 1:
        raise DataError(f"n_bands must be >= 1, got {n_bands}")
    return min(n_bands, int(math.ceil(math.log2(n_bands))) + 1)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class TrainConfig:
    """Forest hyperparameters; n_trees is the only knob that usually
    needs touching, the rest are sane defaults."""

    n_trees: int = 10
    min_node_size: int = 2
    max_depth: int | None = None
    feature_subsample: int | None = None
    gamma: float = 1e-8
    seed: int = 0

    def resolved(self, n_bands: int) -> "TrainConfig":
        """Validate (a bool is no number here) and fill the
        feature_subsample default for n_bands."""
        if not _is_int(self.n_trees) or self.n_trees < 1:
            raise DataError(f"n_trees must be >= 1, got {self.n_trees!r}")
        if not _is_int(self.min_node_size) or self.min_node_size < 1:
            raise DataError(f"min_node_size must be >= 1, got {self.min_node_size!r}")
        if self.max_depth is not None and (
            not _is_int(self.max_depth) or self.max_depth < 0
        ):
            raise DataError(f"max_depth must be None or >= 0, got {self.max_depth!r}")
        try:
            gamma_ok = math.isfinite(self.gamma) and self.gamma >= 0
        except (TypeError, OverflowError):  # not a number, or an int beyond float
            gamma_ok = False
        if isinstance(self.gamma, bool) or not gamma_ok:
            raise DataError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not _is_int(self.seed) or not (0 <= self.seed < 2**64):
            raise DataError(f"seed must be a 64-bit non-negative integer, got {self.seed!r}")
        fs = self.feature_subsample
        if fs is None:
            fs = default_feature_subsample(n_bands)
        elif not _is_int(fs) or not (1 <= fs <= n_bands):
            raise DataError(
                f"feature_subsample must be in [1, {n_bands}], got {fs!r}"
            )
        return replace(
            self,
            n_trees=int(self.n_trees),
            min_node_size=int(self.min_node_size),
            max_depth=None if self.max_depth is None else int(self.max_depth),
            feature_subsample=int(fs),
            gamma=float(self.gamma),
            seed=int(self.seed),
        )


@dataclass
class FlatTree:
    """One tree as parallel node arrays, preorder; node 0 is the root.

    A split row routes a row left iff its projection onto the row's
    direction is <= the threshold.
    """

    kind: np.ndarray  # (m,) uint8: 1 split, 0 leaf
    features: np.ndarray  # (m, fs) int64 ascending, -1 on leaf rows
    projections: np.ndarray  # (m, fs) float64 direction, 0 on leaf rows
    thresholds: np.ndarray  # (m,) float64
    left: np.ndarray  # (m,) int64 child ids, -1 on leaves
    right: np.ndarray
    counts: np.ndarray  # (m, k) int64 leaf tallies, 0 on split rows
    probs: np.ndarray  # (m, k) float64

    @classmethod
    def from_rows(cls, features, projections, thresholds, left, right, counts):
        """Build a tree from per-node rows. kind and probs follow from
        them: a row with a left child is a split, and a leaf's probs are
        its counts normalized (split rows have zero counts, so zero probs)."""
        left = np.asarray(left, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        return cls(
            kind=(left >= 0).astype(np.uint8),
            features=np.asarray(features, dtype=np.int64),
            projections=np.asarray(projections, dtype=np.float64),
            thresholds=np.asarray(thresholds, dtype=np.float64),
            left=left,
            right=np.asarray(right, dtype=np.int64),
            counts=counts,
            probs=counts / np.maximum(counts.sum(axis=1, keepdims=True), 1),
        )

    @property
    def n_nodes(self) -> int:
        return self.kind.shape[0]


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def best_split(projections, labels, n_classes: int):
    """Exhaustive weighted-Gini scan over every candidate split.

    Candidates are midpoints of consecutive distinct values in each
    projection column. Returns (component, threshold, gini) minimizing
    the children's weighted Gini impurity, ties broken toward the lower
    component index and then the lower threshold; None when no column has
    two distinct values. Per-class terms accumulate in fixed class order
    so the result is bit-reproducible against a scalar reference loop.
    """
    z = np.asarray(projections, dtype=np.float64)
    y = np.asarray(labels)
    if z.ndim != 2 or z.shape[0] != y.shape[0]:
        raise DataError(
            f"projections must be (n, r) paired with n labels, got "
            f"{z.shape} and {y.shape}"
        )
    n = y.shape[0]
    best = None
    for j in range(z.shape[1]):
        col = z[:, j]
        order = np.argsort(col, kind="stable")
        zs = col[order]
        boundary = np.flatnonzero(zs[:-1] < zs[1:]) + 1  # candidate left sizes
        if boundary.size == 0:
            continue
        onehot = _one_hot(y[order], n_classes)
        cum = np.cumsum(onehot, axis=0)
        left_counts = cum[boundary - 1]  # (m, k)
        total = cum[-1]
        n_left = boundary.astype(np.float64)
        n_right = float(n) - n_left
        gini_left = np.zeros(boundary.size)
        gini_right = np.zeros(boundary.size)
        for c in range(n_classes):
            p = left_counts[:, c] / n_left
            gini_left += p * p
            q = (total[c] - left_counts[:, c]) / n_right
            gini_right += q * q
        gini = (n_left * (1.0 - gini_left) + n_right * (1.0 - gini_right)) / float(n)
        i = int(np.argmin(gini))  # first minimum = lowest threshold
        gi = float(gini[i])
        if best is None or gi < best[2]:
            lo = float(zs[boundary[i] - 1])
            hi = float(zs[boundary[i]])
            t = 0.5 * (lo + hi)
            if not (t < hi):  # midpoint rounded up; fall back to the low value
                t = lo
            best = (j, t, gi)
    return best


def _project(columns, direction) -> np.ndarray:
    """Project rows onto one direction, given their feature columns.

    columns[j] holds every row's value of the direction's j-th feature.
    The terms accumulate one column at a time, in feature order. Training
    and prediction both call this, so a training-time partition and a
    prediction-time routing agree bit for bit.
    """
    z = columns[0] * direction[0]
    for j in range(1, len(direction)):
        z += columns[j] * direction[j]
    return z


def _try_split(x, y, k, config, rng):
    """One split attempt; None means the node collapses to a leaf.

    The rng is consumed identically (one feature draw, one bootstrap
    draw) whether or not the attempt succeeds, so downstream nodes are
    unaffected by local degeneracies.
    """
    n, d = x.shape
    feats = np.sort(rng.choice(d, size=config.feature_subsample, replace=False))
    x_sub = x[:, feats]
    boot = rng.integers(0, n, size=n)

    # a degenerate bootstrap (single class or constant draw) gets a retry
    # with the CCA on the full node, so separable nodes still split
    for rows in (boot, slice(None)):
        res = cca(x_sub[rows], _one_hot(y[rows], k), config.gamma)
        if not res.n_components:
            continue
        z = np.stack([_project(x_sub.T, a) for a in res.a.T], axis=1)
        choice = best_split(z, y, k)
        if choice is not None:
            j, threshold, _ = choice
            return feats, res.a[:, j].copy(), threshold, z[:, j] <= threshold
    return None


def _grow(x, y, k, config, rng) -> FlatTree:
    """Iterative preorder tree growth straight into FlatTree rows.

    Equivalent to the recursive procedure (node, then left subtree, then
    right) including rng order, but immune to Python recursion limits on
    deep trees. A split's left child is always the next row; its right
    child's id is filled in when that child is popped. A node becomes a
    leaf when it is pure, smaller than 2*min_node_size, at max_depth, or
    admits no valid split; each child of a split gets at least one row.
    """
    fs = config.feature_subsample
    leaf_features = np.full(fs, -1, dtype=np.int64)
    leaf_projection = np.zeros(fs)
    no_counts = np.zeros(k, dtype=np.int64)
    features, projections, thresholds, left, right, counts = [], [], [], [], [], []
    stack = [(x, y, 0, -1)]  # rows, labels, depth, parent awaiting this right child
    while stack:
        xn, yn, level, parent = stack.pop()
        i = len(thresholds)
        if parent >= 0:
            right[parent] = i
        tally = np.bincount(yn, minlength=k).astype(np.int64)
        attempt = None
        if not (
            int((tally > 0).sum()) <= 1
            or yn.size < 2 * config.min_node_size
            or (config.max_depth is not None and level >= config.max_depth)
        ):
            attempt = _try_split(xn, yn, k, config, rng)
        if attempt is None:
            features.append(leaf_features)
            projections.append(leaf_projection)
            thresholds.append(0.0)
            left.append(-1)
            counts.append(tally)
        else:
            feats, direction, threshold, go_left = attempt
            features.append(feats)
            projections.append(direction)
            thresholds.append(threshold)
            left.append(i + 1)
            counts.append(no_counts)
            # compress measured about twice as fast as xn[go_left] here
            for side, awaiting in ((~go_left, i), (go_left, -1)):
                stack.append(
                    (xn.compress(side, axis=0), yn.compress(side), level + 1, awaiting)
                )
        right.append(-1)
    return FlatTree.from_rows(features, projections, thresholds, left, right, counts)


@dataclass
class CcfModel:
    """A trained forest plus everything prediction needs: the scaler
    fitted on the training region, band count, class names, and the
    resolved config snapshot."""

    trees: list
    scaler: ColumnStats
    n_bands: int
    class_names: tuple[str, ...]
    config: TrainConfig
    format_version: str = MODEL_FORMAT_VERSION

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, tree_index))
    )


def _build_tree(features, labels, k, config, tree_index):
    return _grow(features, labels, k, config, _tree_rng(config.seed, tree_index))


def _worker_count(n_tasks: int) -> int:
    """Worker processes for n_tasks: CCF_THREADS when set, else every
    core, never more than n_tasks."""
    env = os.environ.get("CCF_THREADS", "").strip()
    if not env:
        return min(n_tasks, os.cpu_count() or 1)
    try:
        cap = int(env)
    except ValueError:
        cap = 0  # reported below, with the non-positive values
    if cap < 1:
        raise DataError(f"CCF_THREADS must be a positive integer, got {env!r}")
    return min(n_tasks, cap)


_held_task = None  # a pool worker's fn with its inputs, set by the initializer


def _hold_task(fn, *inputs):
    global _held_task
    _held_task = functools.partial(fn, *inputs)


def _run_held_task(task):
    return _held_task(task)


def _fan_out(fn, inputs, tasks, workers: int):
    """fn(*inputs, task) for every task, in task order: lazily in this
    process when workers <= 1, else on a pool whose workers receive fn
    and inputs once, when they start. Under fork they inherit them, so
    only tasks and results are pickled. A worker's error shuts the pool
    down and is raised here."""
    if workers <= 1:
        return map(functools.partial(fn, *inputs), tasks)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_hold_task, initargs=(fn, *inputs)
    ) as pool:
        return list(pool.map(_run_held_task, tasks))


def train_forest(samples: SampleSet, config: TrainConfig | None = None,
                 scaler: ColumnStats | None = None) -> CcfModel:
    """Train n_trees oblique trees on the full sample set.

    samples.features are expected already standardized by the pipeline;
    pass the fitted scaler so the model can standardize raw spectra at
    prediction time (an identity scaler is recorded when omitted).
    """
    cfg = (config if config is not None else TrainConfig()).resolved(samples.n_bands)
    counts = samples.class_counts()
    if int((counts > 0).sum()) < 2:
        raise DataError("degenerate labels: need at least 2 classes present")
    if len(samples) < 2 * cfg.min_node_size:
        raise DataError(
            f"need at least {2 * cfg.min_node_size} samples, got {len(samples)}"
        )
    if scaler is None:
        scaler = ColumnStats(
            mean=np.zeros(samples.n_bands), stddev=np.ones(samples.n_bands)
        )
    else:
        mean = np.asarray(scaler.mean, dtype=np.float64)
        stddev = np.asarray(scaler.stddev, dtype=np.float64)
        if mean.shape != (samples.n_bands,) or stddev.shape != (samples.n_bands,):
            raise DataError(
                f"scaler covers {mean.shape} band(s), samples have {samples.n_bands}"
            )
        scaler = ColumnStats(mean=mean, stddev=stddev)

    # a task is a tree index; per-tree RNG streams make the result
    # independent of scheduling
    inputs = (samples.features, samples.labels, samples.n_classes, cfg)
    trees = _fan_out(_build_tree, inputs, range(cfg.n_trees), _worker_count(cfg.n_trees))
    return CcfModel(
        trees=list(trees),
        scaler=scaler,
        n_bands=samples.n_bands,
        class_names=samples.class_names,
        config=cfg,
        format_version=MODEL_FORMAT_VERSION,
    )


def _route(tree: FlatTree, cols: np.ndarray) -> np.ndarray:
    """Leaf id of every row routed down one tree.

    cols is bands x rows: cols[b, i] is band b of row i. Each split
    gathers only its own feature columns for the rows that reach it.
    """
    kind = tree.kind.tolist()
    features = tree.features.tolist()
    projections = tree.projections.tolist()
    thresholds = tree.thresholds.tolist()
    left = tree.left.tolist()
    right = tree.right.tolist()
    n = cols.shape[1]
    leaf = np.empty(n, dtype=np.int64)
    stack = [(0, np.arange(n))]
    while stack:
        nid, idx = stack.pop()
        if not kind[nid]:
            leaf[idx] = nid
            continue
        # idx is ascending and duplicate-free, so a node every row reaches
        # can read the columns in place
        if idx.size == n:
            columns = [cols[f] for f in features[nid]]
        else:
            columns = [np.take(cols[f], idx) for f in features[nid]]
        z = _project(columns, projections[nid])
        go_left = z <= thresholds[nid]
        # compress measured several times faster than idx[go_left] here
        left_idx = idx.compress(go_left)
        right_idx = idx.compress(~go_left)
        if right_idx.size:
            stack.append((right[nid], right_idx))
        if left_idx.size:
            stack.append((left[nid], left_idx))
    return leaf


def predict_proba_batch(model: CcfModel, spectra) -> np.ndarray:
    """Ensemble class distribution for each row of raw spectra. float32
    rows are read as they are, without a float64 copy of the rows."""
    rows = np.asarray(spectra)
    if rows.dtype != np.float32:
        rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.n_bands:
        raise DataError(
            f"spectra must be (n, {model.n_bands}), got {rows.shape}"
        )
    # the standardized bands x rows block in one allocation, bit-identical to standardize
    mean, stddev = (np.asarray(v, dtype=np.float64)[:, None] for v in model.scaler)
    cols = np.subtract(rows.T, mean, dtype=np.float64, order="C")
    cols /= scale_divisor(stddev)
    as_matrix(cols.T, "spectra")  # at least one row, all finite
    # rows that are the caller's temporary (a piece in _predict_piece) are
    # freed here, before routing, which then reuses their memory instead of
    # faulting in fresh pages
    del spectra, rows
    out = np.zeros((cols.shape[1], model.n_classes))
    for tree in model.trees:
        out += tree.probs[_route(tree, cols)]
    out /= len(model.trees)
    return out


def predict_class_batch(model: CcfModel, spectra) -> np.ndarray:
    probs = predict_proba_batch(model, spectra)
    return np.argmax(probs, axis=1)  # ties resolve to the lowest index


def _predict_piece(model, flat, idx, size, start):
    """Classes and class-1 probabilities of one piece of valid pixels:
    the pixels idx[start:start + size] of the pixels x bands array flat."""
    p = predict_proba_batch(model, flat[idx[start : start + size]])
    return np.argmax(p, axis=1).astype(np.uint8), p[:, 1].astype(np.float32)


def predict_raster(model: CcfModel, raster):
    """Per-pixel prediction over a full raster.

    Returns (mask, informal_prob): an H x W uint8 label mask, UNLABELED where
    any band equals the raster's nodata value, and an H x W float32 map
    of the class-1 probability (-1 on nodata pixels). Rasters with at
    least _FANOUT_FLOOR valid pixels are split over _worker_count worker
    processes; the result is the same for any number of workers.
    """
    values = np.asarray(raster.values)
    if values.ndim != 3:
        raise DataError(f"raster values must be H x W x B, got ndim={values.ndim}")
    h, w, b = values.shape
    if b != model.n_bands:
        raise DataError(
            f"band mismatch: raster has {b} band(s), model expects {model.n_bands}"
        )
    flat = values.reshape(-1, b)
    valid = valid_pixels(flat, getattr(raster, "nodata", None))

    mask = np.full(h * w, UNLABELED, dtype=np.uint8)
    prob = np.full(h * w, -1.0, dtype=np.float32)
    idx = np.flatnonzero(valid)
    workers = _worker_count(idx.size)  # checks CCF_THREADS even when serial
    pooled = workers > 1 and idx.size >= _FANOUT_FLOOR
    size = min(_PREDICT_CHUNK, math.ceil(idx.size / workers)) if pooled else _PREDICT_CHUNK
    starts = range(0, idx.size, size)
    pieces = _fan_out(
        _predict_piece, (model, flat, idx, size), starts, workers if pooled else 1
    )
    for start, (classes, p1) in zip(starts, pieces):
        rows = idx[start : start + size]
        mask[rows] = classes
        prob[rows] = p1
    return mask.reshape(h, w), prob.reshape(h, w)
