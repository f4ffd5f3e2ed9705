"""A frozen copy of the tree-growth level kernel as it was before growth
drew large nodes' bootstraps with a scalar bound, gathered columns from a
flat view and searched a one-node level without the by-node sort.

tests/test_forest.py grows trees with this _split_nodes monkeypatched
into ccfmap.forest and requires the same trees, byte for byte. Nothing
here may be changed to follow the package: it is the reference.
"""

import numpy as np

from ccfmap.cca import binary_directions
from ccfmap.forest import TrainConfig, _project, _segment_keys


def segment_moments(cols, y, starts, weights=None):
    """cca's covariances against two classes, for each segment of rows.

    cols[j] holds feature j of every row, y each row's class (0 or 1),
    and the segments begin at starts. Row i counts weights[i] times (a
    non-negative integer, default 1); each segment needs a total weight
    of at least 2. Returns Cxx (m, f, f) and c = cov(x, y) (m, f), n-1
    convention, with exact zeros for a column constant over a segment's
    weighted rows, as _centered gives.
    """
    f, r = cols.shape
    sizes = np.diff(starts, append=r)
    w = np.ones(r) if weights is None else np.asarray(weights, dtype=np.float64)
    drawn = np.flatnonzero(w)
    first = drawn[np.searchsorted(drawn, starts)]
    total = np.add.reduceat(w, starts)
    wx, prod = np.empty(r), np.empty(r)  # row-wise products, reused
    yc = y - np.repeat(np.add.reduceat(np.multiply(w, y, out=prod), starts) / total, sizes)
    xc = np.empty_like(cols)
    for j in range(f):
        # less a weighted row's own value, a constant column is exact zeros
        np.subtract(cols[j], np.repeat(cols[j][first], sizes), out=xc[j])
        mean = np.add.reduceat(np.multiply(w, xc[j], out=wx), starts) / total
        xc[j] -= np.repeat(mean, sizes)
    cxx = np.empty((starts.size, f, f))
    c = np.empty((starts.size, f))
    for j in range(f):
        np.multiply(w, xc[j], out=wx)
        c[:, j] = np.add.reduceat(np.multiply(wx, yc, out=prod), starts)
        for k in range(j, f):
            cxx[:, j, k] = cxx[:, k, j] = np.add.reduceat(
                np.multiply(wx, xc[k], out=prod), starts
            )
    scale = 1.0 / (total - 1.0)
    return cxx * scale[:, None, None], c * scale[:, None]


def _segment_splits(z, y, starts):
    """best_split(z[s][:, None], y[s], 2) for every segment s of rows at
    once, with best_split's Gini arithmetic bit for bit.

    y holds 0/1 labels and the segments begin at starts. Returns, per
    segment, the threshold, the Gini, the left child's rows (0 where
    best_split gives None) and the left child's class-1 rows.
    """
    r, m = z.size, starts.size
    sizes = np.diff(starts, append=r)
    seg = _segment_keys(sizes)
    # by (segment, z); ties in z may fall in any order, as candidate
    # splits lie only between distinct values
    order = np.argsort(z)
    order = order[np.argsort(seg[order], kind="stable")]
    zs = z[order]
    ones = np.concatenate(([0], np.cumsum(y[order])))  # class-1 rows before each position
    del order
    threshold, best = np.zeros(m), np.zeros(m)
    n_left, ones_left = np.zeros((2, m), dtype=np.int64)
    # a candidate keeps the sorted rows up to position i on the left
    cand = np.flatnonzero((zs[:-1] < zs[1:]) & (seg[:-1] == seg[1:]))
    if cand.size == 0:
        return threshold, best, n_left, ones_left
    per_seg = np.diff(np.searchsorted(cand, starts), append=cand.size)  # candidates in each
    n = np.repeat(sizes.astype(np.float64), per_seg)
    nl = (cand + 1 - np.repeat(starts, per_seg)).astype(np.float64)
    l1 = (ones[cand + 1] - np.repeat(ones[starts], per_seg)).astype(np.float64)
    r1 = np.repeat(ones[starts + sizes] - ones[starts], per_seg) - l1  # class-1 rows on the right
    # best_split's float operations, in its order; the counts are whole
    # numbers, so they may be formed in any order
    p0, p1 = (nl - l1) / nl, l1 / nl
    gini = nl * (1.0 - (p0 * p0 + p1 * p1))
    nr = n - nl
    p0, p1 = (nr - r1) / nr, r1 / nr
    gini += nr * (1.0 - (p0 * p0 + p1 * p1))
    gini /= n
    # each segment's least Gini, at its lowest threshold
    s = np.flatnonzero(per_seg)
    head = (np.cumsum(per_seg) - per_seg)[s]
    low = np.minimum.reduceat(gini, head)
    hit = np.flatnonzero(gini == np.repeat(low, per_seg[s]))
    first = hit[np.searchsorted(hit, head)]
    i = cand[first]
    best[s] = gini[first]
    lo, hi = zs[i], zs[i + 1]
    t = 0.5 * (lo + hi)
    threshold[s] = np.where(t < hi, t, lo)  # a midpoint rounded up falls back to lo
    n_left[s] = i + 1 - starts[s]
    ones_left[s] = ones[i + 1] - ones[starts[s]]
    return threshold, best, n_left, ones_left


def _split_nodes(x, y, rows, feats, starts, rng):
    """One split attempt for each node: its rows are the segment of rows
    from its start, its features a row of feats. The direction comes
    from a projection bootstrap drawn from rng (as multinomial row
    weights), or from every row when rng is None, and the threshold from
    every row's projection. Returns the directions, thresholds, left
    sizes (0: no split), left class-1 counts and the projections."""
    sizes = np.diff(starts, append=rows.size)
    boot = None
    if rng is not None:
        draw = rng.integers(0, np.repeat(sizes, sizes))
        draw += np.repeat(starts, sizes)
        boot = np.bincount(draw, minlength=rows.size)
        del draw
    cols = np.empty((feats.shape[1], rows.size))
    for j in range(feats.shape[1]):
        cols[j] = x[rows, np.repeat(feats[:, j], sizes)]
    yr = y[rows]
    a = binary_directions(*segment_moments(cols, yr, starts, boot), TrainConfig.gamma)
    del boot
    z = _project(cols, np.repeat(a.T, sizes, axis=1))
    del cols
    t, _, n_left, ones_left = _segment_splits(z, yr, starts)
    return a, t, n_left, ones_left, z
