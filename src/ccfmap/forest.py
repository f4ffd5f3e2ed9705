"""Canonical correlation forest training and prediction.

Trees use oblique hyperplane splits: each node draws a small feature
subset, takes the CCA direction between a with-replacement resample of
the node (the projection bootstrap) and its labels, then scans every
candidate threshold on the full node's projections for the weighted-Gini
minimum; a bootstrap with no direction or no split is retried on the
full node. Training takes two classes, so the CCA has one direction, in
closed form (cca.binary_directions).

Trees grow level by level. The open nodes of a level hold their rows as
contiguous segments of one index array, and each step (the draws, the
weighted moments with one stacked eigh, the split search, the
partition) runs on all of them in a few numpy calls. There is no bagging
of the data itself; every tree sees every sample, and all randomness
comes from one RNG stream per tree and level, SeedSequence(seed,
spawn_key=(0, tree, level)), drawn in node order. So training is
deterministic for a given seed no matter how many workers run. Each tree
is laid out as a FlatTree: parallel per-node arrays in level order, the
one tree representation training, prediction and the ccf-3 columns share.

Growth and prediction read one layout: a bands x rows block, one
contiguous row per band, the transpose of cca.standardize's column-major
result. train_forest hands every tree its training set as that block,
as float64 whatever the set's dtype, and both growth's gather and
_finish_small read band f of row r at f * n + r of its flat view, n the
block's row count; the root, every row in order, takes its features'
rows of the block whole. A value held per
node (a bootstrap offset, a feature, a direction, a mean, a threshold)
reaches the node's rows as cca.spread(value, sizes): np.repeat, or on a
one-node level the value itself, broadcast. It is never found by
indexing with a per-row node id. The bootstrap (_draw) is one stream of
per-row-bound draws, rng.integers(0, np.repeat(sizes, sizes)), which
numpy serves one row at a time; so a node of at least _LARGE_NODE rows
draws its part with a scalar bound, the same numbers in one fast call,
and each run of smaller nodes keeps one per-row-bound call. The two
stable sorts by node (the split search and the partition) key on the
smallest unsigned dtype that holds the largest key (_segment_keys),
which numpy sorts by radix up to 16 bits; a level of one node needs no
sort by node. A stable sort gives one permutation whatever the key
dtype, so the trees do not depend on it.

_split_nodes is the one place that decides which nodes grow alone. It
walks a level of more than _BLOCK rows (the first levels of a large
training set, where a few nodes hold every row) once, in pieces, as
_draw does (_runs): each node of more than _BLOCK rows alone, its
feature columns gathered from their rows of the block and its moments a
block of rows at a time so that their temporaries stay in L2 cache, and
each run of smaller nodes as one batch. A piece runs every step from the
feature gather to the split search; a smaller level is one piece, of
whole arrays. cca.node_moments
sums a node in leaves of at most cca._SUM_LEAF rows and still gives
np.add.reduceat's bits, by numpy's summation contract (numpy 2.x):
reduceat adds a segment x[s:e] as x[s] + P(x[s+1:e]), P the pairwise
sum, which adds fewer than 8 terms in turn, up to 128 in eight
accumulators, and splits a longer run at n // 2 rounded down to a
multiple of 8, with no buffer chunking. So the blocked sum walks P's
splits down to leaf-sized runs, sums each run with one reduceat after a
-0.0 term (np.add.reduce would start from +0.0 and lose the sign of a
sum of -0.0 terms), adds the runs in P's order and adds x[s] last; the
total weight and weighted class-1 count are whole numbers, summed as
integers. _node_split sorts only the rows of the value bins whose Gini
bound reaches the best cut between bins (on bulk's large nodes, at most
1.5% of the rows), and scans their candidates _BLOCK sorted rows at a
time with _gini_term's arithmetic; a block's first least Gini replaces
the best only when it is strictly lower, best_split's lowest-threshold
tie rule.

Prediction routes the block predict_proba_batch standardizes. _route
walks each tree in two phases. It goes depth-first with arrays of row
indices while a split holds more than _SMALL_NODE rows; such a split
gathers only its own feature columns for the rows that reach it, so a
row costs feature_subsample reads per level it descends, not one read
per band. A smaller split is parked, and after the walk _finish_small
takes all of the tree's parked rows down at once, one level per step,
each row with its own node id. Deep trees end in thousands of small
nodes, and the depth-first walk pays its numpy calls per node; the
batched pass pays them once per level. Both phases project through
_project and compare with <=, so where the cut falls does not change a
leaf. A depth-first split hands _project a generator, so it holds one
gathered feature column at a time. A split that more than _BLOCK rows
reach (_blocked_go_left) gathers, projects and compares them one block
of _BLOCK rows at a time, into one bool array that the split's rows are
then compressed by: a block's temporaries are 256 KB each and stay in a
2 MB L2 cache, where a 65,536-row window's are 512 KB each beside its
5.2 MB float64 block of 10 bands. On the bulk benchmark (2 vCPUs, then
with 262,144-row windows) that took cross_s from 0.31 to 0.28 s.
predict_proba_batch sums the leaf distributions class-major, one
contiguous run of rows per class, and returns their (rows, 2) transpose;
_classes is the one class rule (class 1 iff its probability exceeds
class 0's, argmax's tie rule).

_fan_out runs both training and prediction on up to CCF_THREADS worker
processes, never more than the usable cores. Each worker receives the
shared inputs once, when it starts (the training block, or the model and
the raster), and a task is a small number: a tree index, or the start
of a window of consecutive pixels, which reads them by raster.window
and applies the nodata rule to them. It submits at most 2 tasks per
worker ahead of the result it yields, so results do not queue up in the
parent. predict_windows is prediction's one stream: it fans out only
above _FANOUT_FLOOR pixels, gives every worker the same number of equal
windows of about _PREDICT_CHUNK pixels (_window_size) and yields each
window's classes and probabilities in pixel order, for the CLI to write
or score as they arrive; predict_raster collects them into whole-scene
arrays. A window costs about 130 B per pixel (the float32 pixels, their
valid copy, the float64 block and the routing arrays), so every
process's peak follows the window, not the raster. A row's prediction
does not depend on the rows routed with it, so the outputs are the same
bytes for any worker count and any window layout.

Numeric conventions that matter for reproducibility:
  * _project is the single projection routine: training partitions and
    prediction routes with the same arithmetic, so the two agree bit for
    bit. It adds the terms one feature at a time, left to right;
  * thresholds are midpoints of consecutive distinct projected values,
    searched on the uncentered projection;
  * Gini terms accumulate class by class, left to right.
"""

from __future__ import annotations

import collections
import functools
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cca import cca  # noqa: F401  (not called here; perfbench/tracer.py counts it)
from .cca import ColumnStats, binary_directions, node_moments, segment_moments, spread, standardize
from .errors import DataError, is_int
from .pipeline import UNLABELED, SampleSet, valid_pixels

MODEL_FORMAT_VERSION = "ccf-3"

_PREDICT_CHUNK = 1 << 16  # pixels a prediction window aims at (_window_size)
_FANOUT_FLOOR = 1 << 15  # fewer pixels than this predict in-process
_SMALL_NODE = 128  # most rows a split may hold for _route to park it for _finish_small
_BLOCK = 1 << 15  # most rows _route or a growth step handles at once: 256 KB per float64 column
_LARGE_NODE = 1 << 12  # fewest rows of a node that draws its bootstrap on its own
_SPLIT_BINS = 1 << 14  # value bins of _node_split's pruned search


def default_feature_subsample(n_bands: int) -> int:
    """ceil(log2(d)) + 1 features per node, never more than d."""
    if n_bands < 1:
        raise DataError(f"n_bands must be >= 1, got {n_bands}")
    return min(n_bands, int(math.ceil(math.log2(n_bands))) + 1)


@dataclass(frozen=True)
class TrainConfig:
    """Forest settings: the number of trees and the seed. The rest of
    growth is fixed: every node draws default_feature_subsample(n_bands)
    features, a node of fewer than 2 * min_node_size rows is a leaf,
    trees grow to purity (no max_depth) and gamma is the CCA ridge."""

    n_trees: int = 10
    seed: int = 0

    min_node_size: ClassVar[int] = 2
    max_depth: ClassVar[None] = None
    gamma: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not is_int(self.n_trees) or self.n_trees < 1:
            raise DataError(f"n_trees must be >= 1, got {self.n_trees!r}")
        if not is_int(self.seed) or not (0 <= self.seed < 2**64):
            raise DataError(f"seed must be a 64-bit non-negative integer, got {self.seed!r}")
        # numpy integers become ints, which a saved model records as JSON
        object.__setattr__(self, "n_trees", int(self.n_trees))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass
class FlatTree:
    """One tree as parallel node arrays in level order: the root, then
    each level's nodes in parent order, left child before right, so the
    k-th split (by node id) has children 2k + 1 and 2k + 2.

    A split row routes a row left iff its projection onto the row's
    direction is <= the threshold.
    """

    kind: np.ndarray  # (m,) uint8: 1 split, 0 leaf
    features: np.ndarray  # (m, fs) int64 ascending, -1 on leaf rows
    projections: np.ndarray  # (m, fs) float64 direction, 0 on leaf rows
    thresholds: np.ndarray  # (m,) float64
    left: np.ndarray  # (m,) int64 child ids, -1 on leaves
    right: np.ndarray
    counts: np.ndarray  # (m, 2) int64 leaf tallies, 0 on split rows
    probs: np.ndarray  # (m, 2) float64

    @classmethod
    def from_columns(cls, kind, features, projections, thresholds, class_counts):
        """A tree from its columns in node order (kind of every node, the
        rest of the splits or the leaves), padded to per-node rows. A
        leaf's probs are its counts normalized; split rows get zeros."""
        kind = np.asarray(kind, dtype=np.uint8)
        split_at = np.flatnonzero(kind)

        def per_node(values, at, fill, dtype):
            out = np.full((kind.size, *np.shape(values)[1:]), fill, dtype=dtype)
            out[at] = values
            return out

        left = per_node(2 * np.arange(split_at.size) + 1, split_at, -1, np.int64)
        counts = per_node(class_counts, kind == 0, 0, np.int64)
        return cls(
            kind=kind,
            features=per_node(features, split_at, -1, np.int64),
            projections=per_node(projections, split_at, 0, np.float64),
            thresholds=per_node(thresholds, split_at, 0, np.float64),
            left=left,
            right=np.where(kind, left + 1, -1),
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

    columns yields every row's value of each feature of the direction in
    turn: a 2-D array, or a generator that gathers a column only when its
    term is added. The terms accumulate one column at a time, in feature
    order. Training and prediction both call this, so a training-time
    partition and a prediction-time routing agree bit for bit.
    """
    terms = zip(columns, direction)
    column, a = next(terms)
    z = column * a
    for column, a in terms:
        z += column * a
    return z


def _segment_keys(sizes, step=1):
    """step * s for every row of segment s (sizes[s] rows each), in the
    smallest unsigned dtype that holds step * len(sizes) - 1. numpy's
    stable sort of 8- and 16-bit keys is a radix sort."""
    top = step * sizes.size
    return np.repeat(np.arange(0, top, step, dtype=np.min_scalar_type(top - 1)), sizes)


def _gini_term(k, k1):
    """best_split's k * (1 - (p0 * p0 + p1 * p1)) with p0 = (k - k1) / k
    and p1 = k1 / k: the same operations in place (a float product does
    not depend on operand order), overwriting k1."""
    g = k - k1
    g /= k
    g *= g
    k1 /= k
    k1 *= k1
    g += k1
    np.subtract(1.0, g, out=g)
    g *= k
    return g


def _gini(n, nl, l1, n1):
    """best_split's Gini of the cuts that keep nl of a node's n rows, l1 of
    its n1 class-1 rows, on the left (float whole numbers; l1 overwritten)."""
    r1 = np.subtract(n1, l1)
    gini = _gini_term(nl, l1)
    gini += _gini_term(n - nl, r1)
    gini /= n
    return gini


def _runs(large):
    """(first, stop, is_large) for the nodes in order: each node where
    large holds alone, and each run of other nodes between them as one
    range, so a caller handles a large node by itself and a run of small
    ones in one batch."""
    out, run = [], 0  # run: the first node not yet handed out
    for s in np.flatnonzero(large).tolist():
        if run < s:
            out.append((run, s, False))
        out.append((s, s + 1, True))
        run = s + 1
    if run < large.size or not out:
        out.append((run, large.size, False))
    return out


def _node_split(z, y):
    """_batched_splits of one segment, all of z's rows, sorting only the
    rows that can hold the best cut.

    Each projection falls in one of _SPLIT_BINS equal-width value bins,
    and bincount gives each bin's rows and class-1 rows. So the cut
    between two non-empty bins has exact counts and Gini. The weighted
    Gini of a cut, 2 k0 k1 / (k0 + k1) summed over both sides, is
    concave in the left side's (zeros, ones), so a cut inside a bin is
    no better than the best corner of the box its counts lie in: the
    counts before the bin and after it, and the two mixes. Only the bins
    whose corner bound reaches the best cut between bins (with a margin
    for rounding) are sorted and scanned, _BLOCK sorted rows at a time.
    The two bins around the best cut between bins are kept by their own
    corner, and a cut across a dropped bin is no better than that bin's
    corner, so it never wins. The first least Gini in value order wins,
    best_split's tie rule. A range whose scale is not finite (all values
    equal, a NaN, an overflowing spread) is one bin: every row is sorted.
    Returns _batched_splits' arrays, of one element each."""
    n = z.size
    zmin = z.min()
    with np.errstate(all="ignore"):  # the spread may be 0, not finite or overflow
        scale = _SPLIT_BINS / (z.max() - zmin)
    if 0 < scale < np.inf:
        b = np.subtract(z, zmin)
        b *= scale
        b = b.astype(np.intp)  # monotone in z: equal values share a bin
        np.minimum(b, _SPLIT_BINS - 1, out=b)
    else:
        b = np.zeros(n, dtype=np.intp)
    rows = np.bincount(b, minlength=_SPLIT_BINS)
    full = np.flatnonzero(rows)  # the non-empty bins, in value order
    rows, ones = rows[full], np.bincount(b[y.astype(bool)], minlength=_SPLIT_BINS)[full]
    c1 = np.cumsum(ones)  # class-1 and class-0 rows up to each bin's end
    c0 = np.cumsum(rows) - c1
    a0, a1 = c0 - (rows - ones), c1 - ones  # ... and before its start
    total = int(c1[-1])
    edge = _gini(n, np.add(c0[:-1], c1[:-1], dtype=np.float64), c1[:-1].astype(np.float64), total)
    reach = edge.min() if edge.size else np.inf

    def corner(k0, k1):  # a cut's 2 k0 k1 / (k0 + k1), both sides summed
        r0, r1 = n - total - k0, total - k1
        return (2 * k0 * k1 / np.maximum(k0 + k1, 1) + 2 * r0 * r1 / np.maximum(r0 + r1, 1)) / n

    bound = np.minimum(np.minimum(corner(a0, a1), corner(c0, c1)),
                       np.minimum(corner(a0, c1), corner(c0, a1)))
    # computed Ginis lie within about 1e-15 of the exact ones, so this margin keeps every tie
    keep = bound <= reach + 1e-12
    kept = np.zeros(_SPLIT_BINS, dtype=bool)
    kept[full[keep]] = True
    idx = np.flatnonzero(kept.take(b))
    del b
    idx = idx[np.argsort(z[idx])]  # ties may fall in any order, as in _batched_splits
    zs = z[idx]
    # rows and class-1 rows left of a cut after each sorted row: the
    # dropped bins' rows before its bin are added to the sorted ones
    kept_rows, kept_ones = rows[keep], ones[keep]
    left = np.repeat((a0 + a1)[keep] - (np.cumsum(kept_rows) - kept_rows), kept_rows)
    left += np.arange(1, idx.size + 1)
    left_ones = np.repeat(a1[keep] - (np.cumsum(kept_ones) - kept_ones), kept_rows)
    left_ones += np.cumsum(y[idx])
    best, at = None, 0
    for lo in range(0, idx.size - 1, _BLOCK):
        hi = min(lo + _BLOCK, idx.size - 1)  # a candidate keeps sorted rows up to i < size - 1 left
        cand = lo + np.flatnonzero(zs[lo:hi] < zs[lo + 1 : hi + 1])
        if cand.size:
            gini = _gini(n, left[cand].astype(np.float64), left_ones[cand].astype(np.float64),
                         total)
            k = int(np.argmin(gini))  # the first least Gini
            if best is None or gini[k] < best:
                best, at = gini[k], int(cand[k])
    if best is None:
        return np.zeros(1), np.zeros(1), *np.zeros((2, 1), dtype=np.int64)
    t = 0.5 * (zs[at] + zs[at + 1])
    t = t if t < zs[at + 1] else zs[at]
    return np.array([t]), np.array([best]), np.array([left[at]]), np.array([left_ones[at]])


def _batched_splits(z, y, starts, sizes):
    """best_split(z[s][:, None], y[s], 2) for every segment s of rows at
    once, with best_split's Gini arithmetic bit for bit: one sort by
    (segment, z), and one Gini array over every candidate.

    y holds 0/1 labels, and segment s holds the sizes[s] rows from
    starts[s]. Returns, per segment, the threshold, the Gini, the left
    child's rows (0 where best_split gives None) and the left child's
    class-1 rows.
    """
    m = starts.size
    # by (segment, z); ties in z may fall in any order, as candidate
    # splits lie only between distinct values
    order = np.argsort(z)
    if m > 1:
        seg = _segment_keys(sizes)
        order = order[np.argsort(seg[order], kind="stable")]
    zs = z[order]
    ones = np.concatenate(([0], np.cumsum(y[order])))  # class-1 rows before each position
    del order
    threshold, best = np.zeros(m), np.zeros(m)
    n_left, ones_left = np.zeros((2, m), dtype=np.int64)
    # a candidate keeps the sorted rows up to position i on the left
    cand = zs[:-1] < zs[1:]
    if m > 1:
        cand &= seg[:-1] == seg[1:]
    cand = np.flatnonzero(cand)
    if cand.size == 0:
        return threshold, best, n_left, ones_left
    per_seg = np.diff(np.searchsorted(cand, starts), append=cand.size)  # candidates in each
    n = spread(sizes.astype(np.float64), per_seg)
    nl = np.subtract(cand + 1, spread(starts, per_seg), dtype=np.float64)
    l1 = np.subtract(ones[cand + 1], spread(ones[starts], per_seg), dtype=np.float64)
    # the counts are whole numbers, so they may be formed in any order
    gini = _gini(n, nl, l1, spread(ones[starts + sizes] - ones[starts], per_seg))
    # each segment's least Gini, at its lowest threshold
    s = np.flatnonzero(per_seg)
    head = (np.cumsum(per_seg) - per_seg)[s]
    low = np.minimum.reduceat(gini, head)
    hit = np.flatnonzero(gini == spread(low, per_seg[s]))
    first = hit[np.searchsorted(hit, head)]
    i = cand[first]
    best[s] = gini[first]
    lo, hi = zs[i], zs[i + 1]
    t = 0.5 * (lo + hi)
    threshold[s] = np.where(t < hi, t, lo)  # a midpoint rounded up falls back to lo
    n_left[s] = i + 1 - starts[s]
    ones_left[s] = ones[i + 1] - ones[starts[s]]
    return threshold, best, n_left, ones_left


def _draw(rng, sizes):
    """rng.integers(0, np.repeat(sizes, sizes)): for each node s, sizes[s]
    draws below sizes[s], the same numbers, leaving rng in the same state.
    numpy serves a per-row bound one row at a time, so a node of at least
    _LARGE_NODE rows draws with one scalar-bound call, and each run of
    smaller nodes between such nodes with one per-row-bound call;
    consecutive calls continue one stream."""
    pieces = [
        rng.integers(0, sizes[a], size=sizes[a]) if large
        else rng.integers(0, np.repeat(sizes[a:b], sizes[a:b]))
        for a, b, large in _runs(sizes >= _LARGE_NODE)
    ]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _split_nodes(block, y, rows, feats, starts, rng):
    """One split attempt for each node of _build_tree's block: its rows
    are the segment of rows from its start, its features a row of feats.
    The direction comes from a projection bootstrap drawn from rng (as
    multinomial row weights), or from every row when rng is None, and the
    threshold from every row's projection. Returns the directions,
    thresholds, left sizes (0: no split), left class-1 counts and the
    projections. A node's results depend on its own rows alone, so a
    level of more than _BLOCK rows goes in pieces (_runs): each node of
    more than _BLOCK rows alone, each run of smaller nodes as one batch."""
    sizes = np.diff(starts, append=rows.size)
    boot = None
    if rng is not None:
        draw = _draw(rng, sizes)
        draw += spread(starts, sizes)
        boot = np.bincount(draw, minlength=rows.size)
        del draw
    if rows.size <= _BLOCK:  # no large node
        return _split_piece(block, y, rows, feats, starts, sizes, boot, False)
    pieces = []
    for a, b, alone in _runs(sizes > _BLOCK):
        lo, hi = starts[a], starts[b - 1] + sizes[b - 1]
        w = None if boot is None else boot[lo:hi]
        pieces.append(_split_piece(block, y, rows[lo:hi], feats[a:b], starts[a:b] - lo,
                                   sizes[a:b], w, alone))
    return pieces[0] if len(pieces) == 1 else [np.concatenate(p) for p in zip(*pieces)]


def _split_piece(block, y, rows, feats, starts, sizes, weights, alone):
    """_split_nodes' steps, from the feature gather to the split search,
    for one piece of a level and its bootstrap row weights (or None): by
    node_moments and _node_split for a node alone, else by
    segment_moments and _batched_splits. A piece of one node gathers each
    feature from its row of block, with no flat index, and the root, one
    node of every row in order, takes its features' rows whole."""
    n = block.shape[1]
    cols = np.empty((feats.shape[1], rows.size))
    # every index is in range; take's default mode="raise" would write out
    # through a buffer of out's size, at a fourth of the speed
    if sizes.size > 1:
        flat = block.reshape(-1)  # band f of row r at f * n + r
        for j in range(feats.shape[1]):
            flat.take(spread(feats[:, j] * n, sizes) + rows, out=cols[j], mode="clip")
    elif rows.size == n:
        block.take(feats[0], axis=0, out=cols, mode="clip")
    else:
        for j, f in enumerate(feats[0]):
            block[f].take(rows, out=cols[j], mode="clip")
    yr = y[rows]
    moments = (node_moments(cols, yr, weights) if alone
               else segment_moments(cols, yr, starts, weights))
    a = binary_directions(*moments, TrainConfig.gamma)
    z = _project(cols, (spread(a[:, j], sizes) for j in range(a.shape[1])))
    del cols
    t, _, n_left, ones_left = _node_split(z, yr) if alone else _batched_splits(z, yr, starts, sizes)
    return a, t, n_left, ones_left, z


def _partition(rows, z, t, ok, sizes):
    """The rows of the next level: those of the nodes where ok, each
    node's rows (sizes[s] of them, projected to z) split at its
    threshold t[s], stably by (node, side). A level where every node
    splits keeps all its rows, uncopied."""
    if not ok.all():
        keep = np.repeat(ok, sizes)
        rows, z, t, sizes = rows[keep], z[keep], t[ok], sizes[ok]
    key = _segment_keys(sizes, 2)
    key += z > np.repeat(t, sizes)
    return rows[np.argsort(key, kind="stable")]


def _build_tree(block, y, config, tree_index) -> FlatTree:
    """Grow tree tree_index level by level, into a FlatTree in level order.

    block is the training set as train_forest hands it over, bands x
    rows and C-contiguous, and y the rows' 0/1 labels. A level's nodes
    are the children of the last level's splits, in parent order, left
    before right: the tree's node order. The rows of the nodes that try
    a split lie as contiguous segments of one index array, each in
    ascending row order, and every step below runs on all of them at
    once. A node becomes a leaf when it is pure, smaller than
    2*min_node_size, or admits no split; each child of a split gets at
    least one row.
    """
    bands, n = block.shape
    fs = default_feature_subsample(bands)
    rows = np.arange(n)
    sizes = np.array([n])
    ones = np.array([np.count_nonzero(y)])
    levels = []
    while True:
        depth = len(levels)
        tries = (ones > 0) & (ones < sizes) & (sizes >= 2 * config.min_node_size)
        split = np.zeros(sizes.size, dtype=bool)
        tally = np.column_stack([sizes - ones, ones])
        if not tries.any():
            levels.append((split, np.empty((0, fs), dtype=np.int64), np.empty((0, fs)),
                           np.empty(0), tally))
            return FlatTree.from_columns(*map(np.concatenate, zip(*levels)))
        if not tries.all():
            rows = rows[np.repeat(tries, sizes)]
        n_node, n_ones = sizes[tries], ones[tries]
        starts = np.cumsum(n_node) - n_node
        seed = np.random.SeedSequence(config.seed, spawn_key=(0, tree_index, depth))
        rng = np.random.default_rng(seed)
        feats = np.argsort(rng.random((starts.size, bands)), axis=1)[:, :fs]
        feats.sort(axis=1)
        a, t, nl, n1, z = _split_nodes(block, y, rows, feats, starts, rng)
        # no direction or no split from the bootstrap: retry on the whole node
        retry = nl == 0
        if retry.any():
            sub = np.repeat(retry, n_node)
            n_sub = n_node[retry]
            a[retry], t[retry], nl[retry], n1[retry], z[sub] = _split_nodes(
                block, y, rows[sub], feats[retry], np.cumsum(n_sub) - n_sub, None
            )
        ok = nl > 0
        split[tries] = ok
        levels.append((split, feats[ok], a[ok], t[ok], tally[~split]))
        rows = _partition(rows, z, t, ok, n_node)
        sizes = np.column_stack([nl, n_node - nl])[ok].ravel()
        ones = np.column_stack([n1, n_ones - n1])[ok].ravel()


@dataclass
class CcfModel:
    """A trained two-class forest plus everything prediction needs: the
    scaler fitted on the training region, band count, class names, and
    the config it was trained with."""

    trees: list
    scaler: ColumnStats
    n_bands: int
    class_names: tuple[str, ...]
    config: TrainConfig
    format_version: ClassVar[str] = MODEL_FORMAT_VERSION


def _usable_cores() -> int:
    """The cores this process may run on (os.cpu_count ignores affinity)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_tasks: int) -> int:
    """Worker processes for n_tasks: never more than n_tasks, the usable
    cores or CCF_THREADS when that is set. A pool launches all its
    workers at once, so a larger CCF_THREADS is clamped, not obeyed."""
    env = os.environ.get("CCF_THREADS", "").strip()
    if not env:
        return min(n_tasks, _usable_cores())
    try:
        cap = int(env)
    except ValueError:
        cap = 0  # reported below, with the non-positive values
    if cap < 1:
        raise DataError(f"CCF_THREADS must be a positive integer, got {env!r}")
    return min(n_tasks, cap, _usable_cores())


_held_task = None  # a pool worker's fn with its inputs, set by the initializer


def _hold_task(fn, *inputs):
    global _held_task
    _held_task = functools.partial(fn, *inputs)


def _run_held_task(task):
    return _held_task(task)


def _fan_out(fn, inputs, tasks, workers: int):
    """Yield fn(*inputs, task) for every task, in task order, as each
    arrives: computed in this process when workers <= 1, else on a pool
    whose workers receive fn and inputs once, when they start. Under fork
    they inherit them, so only tasks and results are pickled. At most
    2 * workers tasks are submitted ahead of the result yielded, so
    finished results do not pile up, and closing the generator submits
    no further task and cancels those not started. A worker's error
    shuts the pool down and is raised here."""
    if workers <= 1:
        yield from map(functools.partial(fn, *inputs), tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # loaded only by a command that forks
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_hold_task, initargs=(fn, *inputs)
    ) as pool:
        ahead = collections.deque()  # submitted, not yet yielded
        try:
            for task in tasks:
                ahead.append(pool.submit(_run_held_task, task))
                if len(ahead) > 2 * workers:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
        finally:
            for future in ahead:
                future.cancel()


def train_forest(samples: SampleSet, config: TrainConfig | None = None,
                 scaler: ColumnStats | None = None) -> CcfModel:
    """Train n_trees oblique trees on the full sample set.

    samples.features are expected already standardized by the pipeline;
    pass the fitted scaler so the model can standardize raw spectra at
    prediction time (an identity scaler is recorded when omitted). Trees
    grow from one float64 bands x rows block of the features: a view of a
    column-major float64 table (cca.standardize's), else a copy.
    """
    cfg = config if config is not None else TrainConfig()
    if samples.n_classes != 2:
        raise DataError(f"training needs exactly 2 classes, got {samples.n_classes}")
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

    # a task is a tree index; per-level RNG streams make the result
    # independent of scheduling
    inputs = (np.ascontiguousarray(samples.features.T, dtype=np.float64), samples.labels, cfg)
    trees = _fan_out(_build_tree, inputs, range(cfg.n_trees), _worker_count(cfg.n_trees))
    return CcfModel(
        trees=list(trees),
        scaler=scaler,
        n_bands=samples.n_bands,
        class_names=samples.class_names,
        config=cfg,
    )


def _route(tree: FlatTree, cols: np.ndarray) -> np.ndarray:
    """Leaf id of every row routed down one tree.

    cols is bands x rows: cols[b, i] is band b of row i. The walk goes
    depth-first with arrays of row indices, and each split gathers only
    its own feature columns for the rows that reach it. A split that at
    most _SMALL_NODE rows reach is parked instead, and _finish_small
    takes all of the tree's parked rows to their leaves at once. A split
    that more than _BLOCK rows reach projects them _BLOCK rows at a time
    (_blocked_go_left), so its temporaries fit in L2 cache (bulk
    benchmark cross_s 0.31 -> 0.28 s on 2 vCPUs); a smaller one projects
    its rows in one go, with no added call.
    """
    kind = tree.kind.tolist()
    features = tree.features.tolist()
    projections = tree.projections.tolist()
    thresholds = tree.thresholds.tolist()
    left = tree.left.tolist()
    n = cols.shape[1]
    leaf = np.empty(n, dtype=np.int64)
    parked_at, parked = [], []
    stack = [(0, np.arange(n))]
    while stack:
        nid, idx = stack.pop()
        if not kind[nid]:
            leaf[idx] = nid
            continue
        if idx.size <= _SMALL_NODE:
            parked_at.append(nid)
            parked.append(idx)
            continue
        # idx is ascending and duplicate-free, so a node every row reaches
        # can read the columns in place
        if idx.size > _BLOCK:
            go_left = _blocked_go_left(cols, idx, features[nid], projections[nid],
                                       thresholds[nid])
        else:
            if idx.size == n:
                columns = (cols[f] for f in features[nid])
            else:
                columns = (cols[f].take(idx) for f in features[nid])
            go_left = _project(columns, projections[nid]) <= thresholds[nid]
        # compress measured several times faster than idx[go_left] here
        left_idx = idx.compress(go_left)
        right_idx = idx.compress(~go_left)
        if right_idx.size:
            stack.append((left[nid] + 1, right_idx))  # level order: right is left + 1
        if left_idx.size:
            stack.append((left[nid], left_idx))
    if parked:
        rows = np.concatenate(parked)
        at = np.repeat(parked_at, [idx.size for idx in parked])
        _finish_small(tree, cols, at, rows, leaf)
    return leaf


def _blocked_go_left(cols, idx, features, direction, threshold):
    """_route's z <= threshold for the rows idx of a split, _BLOCK rows
    at a time: each block's gathered columns and projection stay in L2
    cache, and each row's arithmetic is the unblocked one. The rows of a
    split every row reaches are read as column slices in place."""
    go_left = np.empty(idx.size, dtype=bool)
    in_place = idx.size == cols.shape[1]
    for lo in range(0, idx.size, _BLOCK):
        hi = lo + _BLOCK
        if in_place:
            columns = (cols[f, lo:hi] for f in features)
        else:
            part = idx[lo:hi]
            columns = (cols[f].take(part) for f in features)
        np.less_equal(_project(columns, direction), threshold, out=go_left[lo:hi])
    return go_left


def _finish_small(tree: FlatTree, cols, at, rows, leaf):
    """Route each row rows[i] from split node at[i] down to its leaf and
    record it in leaf, all rows one level at a time: a step gathers each
    row's own node's features, direction and threshold, and a row drops
    out when it reaches a leaf."""
    n = cols.shape[1]
    flat = cols.reshape(-1)
    while rows.size:
        columns = flat.take(tree.features[at].T * n + rows)
        z = _project(columns, tree.projections[at].T)
        # right is left + 1; not z <= t, so a NaN goes right as in _route
        at = tree.left.take(at) + ~(z <= tree.thresholds.take(at))
        done = tree.kind.take(at) == 0
        leaf[rows.compress(done)] = at.compress(done)
        rows, at = rows.compress(~done), at.compress(~done)


def predict_proba_batch(model: CcfModel, spectra) -> np.ndarray:
    """Ensemble class distribution for each row of raw spectra. float32
    rows are read as they are, without a float64 copy of the rows."""
    rows = np.asarray(spectra)
    if rows.ndim != 2 or rows.shape[1] != model.n_bands:
        raise DataError(
            f"spectra must be (n, {model.n_bands}), got {rows.shape}"
        )
    cols = standardize(rows, model.scaler).T  # bands x rows, C-contiguous
    # rows the caller handed on (a window in _predict_piece) are freed here,
    # before routing, which then reuses their memory, not fresh pages
    del spectra, rows
    # class-major: the same additions, in the same order, as (rows, 2) sums
    sums = np.zeros((2, cols.shape[1]))
    for tree in model.trees:
        leaf = _route(tree, cols)
        for c in range(2):
            sums[c] += tree.probs[:, c].take(leaf)
        del leaf  # freed before the next tree routes
    sums /= len(model.trees)
    return sums.T


def _classes(probs) -> np.ndarray:
    """argmax of each row of predict_proba_batch's result, whose columns
    are contiguous: class 1 iff it beats class 0, so a tie is class 0."""
    return probs[:, 1] > probs[:, 0]


def predict_class_batch(model: CcfModel, spectra) -> np.ndarray:
    return _classes(predict_proba_batch(model, spectra)).astype(np.intp)


def _predict_piece(model, raster, size, start):
    """Classes (uint8) and class-1 probabilities (float32) of the window
    raster.window(start, size), UNLABELED and -1 on its nodata pixels.
    Only valid pixels are routed; an all-valid window as is, no copy."""
    window = raster.window(start, size)
    ok = valid_pixels(window, raster.nodata)
    classes = np.full(ok.size, UNLABELED, dtype=np.uint8)
    p1 = np.full(ok.size, -1.0, dtype=np.float32)
    if ok.any():
        rows = [window if ok.all() else window[ok]]  # handed on, not kept, so
        del window  # predict_proba_batch frees them before routing
        p = predict_proba_batch(model, rows.pop())
        classes[ok] = _classes(p)
        p1[ok] = p[:, 1]
    return classes, p1


def _window_size(n: int, workers: int) -> int:
    """Pixels per window of an n-pixel raster on workers processes. Each
    worker gets k equal windows, k the whole number nearest n / (workers *
    _PREDICT_CHUNK) and at least 1. A region a little larger than one
    window per worker thus stays one window per worker: k rounded up would
    cut it into twice as many short windows, and a cap of _PREDICT_CHUNK
    into full windows and a short last one that one worker routes alone."""
    k = max(1, round(n / (workers * _PREDICT_CHUNK)))
    return math.ceil(n / (workers * k))


def predict_windows(model: CcfModel, raster):
    """Per-pixel prediction over a raster (see raster_io), one window of
    consecutive pixels at a time, read through raster.window: views of a
    MultispectralRaster's band planes, or reads from the file of a raster
    open_raster checked.

    Yields (start, classes, p1) for each window in pixel order: the
    window's first pixel index, its uint8 classes (UNLABELED where any
    band equals the raster's nodata value) and its float32 class-1
    probabilities (-1 on nodata pixels). The windows are equal, about
    _PREDICT_CHUNK pixels each and the same number per worker
    (_window_size); rasters of at least _FANOUT_FLOOR pixels are split
    over _worker_count worker processes, at most 2 windows per worker
    ahead of the one yielded (_fan_out). So no whole-scene array is
    built, and the windows are the same bytes for any number of workers.
    The band count and CCF_THREADS are checked when the first window is
    asked for; closing the generator stops the workers.
    """
    h, w, b = raster.height, raster.width, raster.bands
    if b != model.n_bands:
        raise DataError(
            f"band mismatch: raster has {b} band(s), model expects {model.n_bands}"
        )
    n = h * w
    workers = _worker_count(n if n >= _FANOUT_FLOOR else 1)  # checks CCF_THREADS always
    size = _window_size(n, workers)
    starts = range(0, n, size)
    pieces = _fan_out(_predict_piece, (model, raster, size), starts, workers)
    try:
        for start, (classes, p1) in zip(starts, pieces):
            yield start, classes, p1
    finally:
        pieces.close()  # a consumer that stops early stops the pool


def predict_raster(model: CcfModel, raster):
    """predict_windows' windows collected into (mask, informal_prob): an
    H x W uint8 label mask and an H x W float32 map of the class-1
    probability. The CLI streams predict_windows instead; this whole-scene
    form serves the demos and the library's callers."""
    n = raster.height * raster.width
    mask, prob = np.empty(n, dtype=np.uint8), np.empty(n, dtype=np.float32)
    for start, classes, p1 in predict_windows(model, raster):
        mask[start : start + classes.size], prob[start : start + classes.size] = classes, p1
    return mask.reshape(raster.height, raster.width), prob.reshape(raster.height, raster.width)
