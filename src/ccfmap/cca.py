"""Column statistics and regularized canonical correlation analysis.

Everything here computes in float64, with samples in rows. column_stats
and standardize also read float32 rows (raster pixels) as they are: each
float32 value converts to float64 exactly, so they give the bits of the
float64 cast without holding one. column_stats converts a block of rows
at a time and gives the mean and std of numpy's row-order sum.
The CCA implementation whitens both sides with a ridge-stabilized inverse
square root and reads the canonical directions off an SVD of the whitened
cross-covariance, which is numerically safer than solving the generalized
eigenproblem directly and handles rank-deficient inputs (constant columns,
one-hot labels) without special cases. Tree growth takes the two-class
case in closed form, for many row segments at once (binary_directions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, is_real

# Columns whose sample stddev falls at or below this are treated as constant
# when standardizing (divisor 1 instead of ~0).
CONSTANT_COLUMN_TOL = 1e-12

# Relative eigenvalue cutoff deciding the numeric rank of a covariance.
_RANK_RTOL = 1e-12


def as_matrix(values, name: str = "matrix", float32: bool = False) -> np.ndarray:
    """Coerce to a finite float64 2-D array, raising DataError otherwise.
    With float32=True, float32 values stay float32, not copied."""
    m = np.asarray(values)
    if not (float32 and m.dtype == np.float32):
        m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DataError(f"{name} must be 2-D (rows=samples), got ndim={m.ndim}")
    if m.shape[0] < 1:
        raise DataError(f"{name} needs at least 1 row(s), got {m.shape[0]}")
    if m.shape[1] < 1:
        raise DataError(f"{name} needs at least one column")
    if not np.isfinite(m).all():
        bad = int(np.flatnonzero(~np.isfinite(m).ravel())[0])
        r, c = divmod(bad, m.shape[1])
        raise DataError(f"{name} contains a non-finite value at row {r}, column {c}")
    return m


class ColumnStats(NamedTuple):
    """Per-column mean and sample stddev (ddof=1) of a training matrix."""

    mean: np.ndarray
    stddev: np.ndarray


# rows column_stats converts to float64 at a time: 320 KB of 10 bands, which
# stay in L2 cache
_STATS_ROWS = 1 << 12


def column_stats(m) -> ColumnStats:
    """Mean and sample standard deviation of each column.

    Bit for bit numpy's mean(axis=0) and std(axis=0, ddof=1) of the
    C-ordered float64 table of m's values, computed _STATS_ROWS rows at a
    time (_column_sums), so a float32 table is read without a float64
    copy and the std makes no whole-table x - mean. An F-ordered m gets
    the bits of its C-ordered copy. A single-row matrix has no spread to
    estimate, so its stddev is reported as zero rather than NaN.
    """
    m = as_matrix(m, "matrix", float32=True)
    n = m.shape[0]
    mean = _column_sums(m) / n
    if n == 1:
        stddev = np.zeros_like(mean)
    else:
        stddev = np.sqrt(_column_sums(m, mean) / (n - 1))
    return ColumnStats(mean=mean, stddev=stddev)


def _column_sums(m, mean=None):
    """np.add.reduce(x, axis=0) of the C-ordered float64 table x of m's
    values, or of (x - mean) ** 2, bit for bit, a block of _STATS_ROWS
    rows at a time. numpy adds axis 0 of a C-ordered table of two or more
    columns one row at a time, in row order, so each block is reduced
    after a first row that holds the sum of the rows before it. A single
    column is contiguous and summed pairwise, so it is one block."""
    n, f = m.shape
    step = n if f == 1 else _STATS_ROWS
    buf = np.empty((min(n, step) + 1, f))  # the sum so far, then a block
    total = None
    for lo in range(0, n, step):
        x = buf[1 : 1 + min(step, n - lo)]
        x[...] = m[lo : lo + step]
        if mean is not None:
            x -= mean
            np.square(x, out=x)
        if total is None:
            total = np.add.reduce(x, axis=0)
        else:
            buf[0] = total
            total = np.add.reduce(buf[: x.shape[0] + 1], axis=0)
    return total


def standardize(m, stats: ColumnStats) -> np.ndarray:
    """Center by stats.mean and scale by stats.stddev, column-wise.

    Columns with stddev <= CONSTANT_COLUMN_TOL are only centered; dividing
    by a near-zero spread would blow up round-off noise. float32 rows (a
    raster window, each band a contiguous column) are read as they are,
    without a float64 copy. The result is column-major, each column one
    contiguous run, so its transpose is, without a copy, the bands x rows
    block that tree growth gathers from and prediction routes.
    """
    m = np.asarray(m)
    if m.dtype != np.float32:
        m = np.asarray(m, dtype=np.float64)
    mean = np.asarray(stats.mean, dtype=np.float64)
    stddev = np.asarray(stats.stddev, dtype=np.float64)
    if mean.shape != m.shape[-1:] or stddev.shape != m.shape[-1:]:
        raise DataError(
            f"stats cover {mean.size} column(s) but matrix has shape {m.shape}"
        )
    out = np.subtract(m, mean, dtype=np.float64, order="F")
    out /= np.where(stddev > CONSTANT_COLUMN_TOL, stddev, 1.0)
    return as_matrix(out, "matrix")  # 2-D, at least one row and column, all finite


def _centered(m: np.ndarray) -> np.ndarray:
    """Subtract column means, forcing exactly-constant columns to zero.

    Without the fixup, the mean of a repeated non-dyadic value rounds a
    hair off the value itself and the residual round-off can masquerade
    as rank.
    """
    c = m - m.mean(axis=0)
    const = np.ptp(m, axis=0) == 0
    if const.any():
        c[:, const] = 0.0
    return c


@dataclass(frozen=True)
class CcaResult:
    """Canonical directions for one x/y pairing.

    a : (dx, r) projection columns for x, b : (dy, r) for y, rho : (r,)
    canonical correlations in non-increasing order. x_mean and y_mean are
    the centering means captured when the analysis ran; project() needs
    them to reproduce the fitted projection on new rows.
    """

    a: np.ndarray
    b: np.ndarray
    rho: np.ndarray
    x_mean: np.ndarray
    y_mean: np.ndarray

    @property
    def n_components(self) -> int:
        return self.a.shape[1]


def _inv_sqrt(cov: np.ndarray, shift: float) -> tuple[np.ndarray, int]:
    """Inverse square root of a symmetric PSD matrix on its numeric range.

    Rank is read off the eigenvalues of `cov` itself (relative cutoff
    _RANK_RTOL); the inversion then uses the ridged spectrum w + shift, so
    regularization stabilizes the scaling without inflating the rank.
    """
    w, v = np.linalg.eigh(cov)
    tol = max(w[-1], 0.0) * _RANK_RTOL
    keep = w > tol
    rank = int(keep.sum())
    if rank == 0:
        return np.zeros_like(cov), 0
    vk = v[:, keep]
    return (vk / np.sqrt(w[keep] + shift)) @ vk.T, rank


def cca(x, y, gamma: float = 1e-8) -> CcaResult:
    """Canonical correlation analysis of paired samples.

    Covariances use the n-1 convention. Each side is whitened with a
    ridge of gamma * trace(C)/dim added to the spectrum, which keeps the
    scaling stable when columns are nearly collinear. The number of
    returned components is min(rank(Cxx), rank(Cyy)), ranks measured
    before the ridge; correlations are clamped into [0, 1].

    Sign convention: the first non-zero entry of every column of `a` is
    positive, with the matching column of `b` flipped in tandem so the
    projected pair keeps its correlation.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise DataError(
            f"x and y must pair rows, got {x.shape[0]} vs {y.shape[0]}"
        )
    if x.shape[0] < 2:
        raise DataError("cca needs at least 2 rows")
    if not is_real(gamma) or gamma < 0:
        raise DataError(f"gamma must be a finite non-negative float, got {gamma!r}")

    n = x.shape[0]
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = _centered(x)
    yc = _centered(y)
    f = 1.0 / (n - 1)
    cxx = xc.T @ xc * f
    cyy = yc.T @ yc * f
    cxy = xc.T @ yc * f

    dx = x.shape[1]
    dy = y.shape[1]
    wx, rank_x = _inv_sqrt(cxx, gamma * np.trace(cxx) / dx)
    wy, rank_y = _inv_sqrt(cyy, gamma * np.trace(cyy) / dy)
    r = min(rank_x, rank_y)
    if r == 0:
        return CcaResult(
            a=np.zeros((dx, 0)),
            b=np.zeros((dy, 0)),
            rho=np.zeros(0),
            x_mean=x_mean,
            y_mean=y_mean,
        )

    u, s, vt = np.linalg.svd(wx @ cxy @ wy)
    a = wx @ u[:, :r]
    b = wy @ vt[:r].T
    rho = np.clip(s[:r], 0.0, 1.0)

    # A singular direction can land in the null space of the pseudo-inverse
    # square root when the cross-covariance is (near) zero; drop such
    # trailing columns so every returned column has non-zero norm.
    norms = np.sqrt((a * a).sum(axis=0)) * np.sqrt((b * b).sum(axis=0))
    while r > 0 and norms[r - 1] == 0.0:
        r -= 1
    a = a[:, :r]
    b = b[:, :r]
    rho = rho[:r]

    for j in range(r):
        col = a[:, j]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0:
            a[:, j] = -col
            b[:, j] = -b[:, j]

    return CcaResult(a=a, b=b, rho=rho, x_mean=x_mean, y_mean=y_mean)


def spread(values, counts):
    """np.repeat(values, counts): each segment's value for every one of
    its rows. A single segment keeps its (1,) array, which broadcasts to
    the same elementwise results without a pass over the rows."""
    return values if counts.size == 1 else np.repeat(values, counts)


def segment_moments(cols, y, starts, weights=None):
    """cca's covariances against two classes, for each segment of rows.

    cols[j] holds feature j of every row, y each row's class (0 or 1),
    and the segments begin at starts. Row i counts weights[i] times (a
    non-negative integer, default 1); each segment needs a total weight
    of at least 2. Returns Cxx (m, f, f) and c = cov(x, y) (m, f), n-1
    convention, with exact zeros for a column constant over a segment's
    weighted rows, as _centered gives.

    Every sum is one np.add.reduceat over a segment. node_moments gives
    one segment's moments bit for bit while making its terms a leaf of at
    most _SUM_LEAF rows at a time. That rests on numpy's summation
    contract (numpy 2.x): reduceat adds a segment x[s:e] as x[s] +
    P(x[s+1:e]), where P, the pairwise sum, adds fewer than 8 terms in
    turn, up to _PAIRWISE_BLOCK terms in eight accumulators, and splits a
    longer run at n // 2 rounded down to a multiple of 8, P(left) +
    P(right), with no buffer chunking; a row-wise reduceat of a 2-D array
    adds each row the same way.
    """
    f, r = cols.shape
    sizes = np.diff(starts, append=r)
    w = np.ones(r) if weights is None else np.asarray(weights, dtype=np.float64)
    drawn = np.flatnonzero(w != 0)  # numpy finds a bool array's nonzeros fastest
    first = drawn[np.searchsorted(drawn, starts)]
    total = np.add.reduceat(w, starts)
    wx, prod = np.empty(r), np.empty(r)  # row-wise products, reused
    yc = y - spread(np.add.reduceat(np.multiply(w, y, out=prod), starts) / total, sizes)
    xc = np.empty_like(cols)
    for j in range(f):
        # less a weighted row's own value, a constant column is exact zeros
        np.subtract(cols[j], spread(cols[j][first], sizes), out=xc[j])
        mean = np.add.reduceat(np.multiply(w, xc[j], out=wx), starts) / total
        xc[j] -= spread(mean, sizes)
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


# numpy's pairwise sum adds at most this many terms without splitting them
_PAIRWISE_BLOCK = 128
# most rows _pairwise_sums makes terms for at once: a leaf's 20 product rows
# (5 features) take 640 KB, so they stay in a 2 MB L2 cache with the leaf's
# centered columns. On a 327,216-row node (2 vCPUs) leaves of 2,048, 4,096,
# 8,192 and 16,384 rows took 100, 50, 48 and 58 ns/row; at 32,768 rows or
# fewer, one batch (46 ns/row) beats leaves (53 to 59 ns/row). 4,096 and
# 8,192 tie: serial growth of bulk's 10 trees took 1.64 and 1.63 s, and
# perfbench bulk train_s (2 workers) 1.82 and 1.77 s, 8,192 faster in 4 of
# 10 alternating pairs; the smaller leaf was kept
_SUM_LEAF = 1 << 12


def _pairwise_sums(terms, k, n):
    """np.add.reduceat(x, [0], axis=1)[:, 0] of a (k, n) array x, bit for
    bit, making at most _SUM_LEAF of x's columns at a time: terms(lo, hi,
    out) writes columns lo:hi of x into out.

    reduceat adds x[:, 0] + P(x[:, 1:]). This walks P's splits from the
    top until a run has at most max(_SUM_LEAF, _PAIRWISE_BLOCK) terms, sums
    each such run with one row-wise reduceat after a -0.0 (-0.0 + v is v for
    every v, where np.add.reduce starts from +0.0 and turns a sum of -0.0
    terms into +0.0), and adds the runs up in P's order.
    """
    leaf = max(_SUM_LEAF, _PAIRWISE_BLOCK)
    buf = np.empty((k, min(n - 1, leaf) + 1))
    buf[:, 0] = -0.0
    head = np.empty((k, 1))
    terms(0, 1, head)
    return head[:, 0] + _pairwise(terms, buf, leaf, 1, n - 1)


def _pairwise(terms, buf, leaf, lo, m):
    """P of columns lo:lo + m, split as P splits them down to runs of at
    most leaf columns, each made in buf after its -0.0 column."""
    if m <= leaf:
        terms(lo, lo + m, buf[:, 1 : m + 1])
        return np.add.reduceat(buf[:, : m + 1], [0], axis=1)[:, 0]
    half = m // 2
    half -= half % 8
    return _pairwise(terms, buf, leaf, lo, half) + _pairwise(terms, buf, leaf, lo + half, m - half)


def node_moments(cols, y, weights=None):
    """segment_moments of one segment, all of cols' rows, in its (1, f, f)
    and (1, f) shapes, summed by _pairwise_sums: a pass for the column
    means, then one for the products, each a leaf of rows at a time. The
    total weight and the weighted class-1 count are whole numbers, so they
    are summed as integers, exactly."""
    f, n = cols.shape
    if weights is None:
        total, ones, first = n, np.count_nonzero(y), 0
    else:
        total, ones = int(weights.sum()), int(np.dot(weights, y))
        first = int(np.argmax(weights != 0))
    at_first = cols[:, first, None]
    ymean = ones / total
    leaf = min(n, max(_SUM_LEAF, _PAIRWISE_BLOCK))
    xc, wx, yc = np.empty((f, leaf)), np.empty((f, leaf)), np.empty(leaf)

    def weighted(x, lo, hi, out):
        return x if weights is None else np.multiply(x, weights[lo:hi], out=out)

    def centered(lo, hi, out):
        # less a weighted row's own value, a constant column is exact zeros
        np.subtract(cols[:, lo:hi], at_first, out=out)
        weighted(out, lo, hi, out)

    mean = (_pairwise_sums(centered, f, n) / total)[:, None]

    def products(lo, hi, out):
        m = hi - lo
        x = np.subtract(cols[:, lo:hi], at_first, out=xc[:, :m])
        x -= mean
        wxm = weighted(x, lo, hi, wx[:, :m])
        np.multiply(wxm, np.subtract(y[lo:hi], ymean, out=yc[:m]), out=out[:f])
        row = f
        for j in range(f):
            np.multiply(wxm[j], x[j:], out=out[row : row + f - j])
            row += f - j

    sums = _pairwise_sums(products, f + f * (f + 1) // 2, n)
    cxx = np.empty((1, f, f))
    row = f
    for j in range(f):
        cxx[0, j, j:] = cxx[0, j:, j] = sums[row : row + f - j]
        row += f - j
    scale = 1.0 / (total - 1.0)
    return cxx * scale, sums[None, :f] * scale


def binary_directions(cxx, c, gamma: float = 1e-8) -> np.ndarray:
    """cca's first x direction against two classes, for stacked moments.

    One-hot labels of two classes give Cyy rank 1, so the whitened
    cross-covariance has rank 1 and its left singular vector is
    Wx c / |Wx c|: the direction is a = Wx^2 c / |Wx c|, with Wx cca's
    ridged inverse square root of Cxx on its numeric range. Returns
    (m, f) directions under cca's sign rule, and a zero row where cca has
    no direction: Cxx of rank 0, one class only, or Wx c = 0.
    """
    w, v = np.linalg.eigh(cxx)
    keep = w > np.maximum(w[:, -1:], 0.0) * _RANK_RTOL
    shift = gamma * np.trace(cxx, axis1=1, axis2=2) / cxx.shape[1]
    inv = np.divide(1.0, w + shift[:, None], out=np.zeros_like(w), where=keep)
    p = (c[:, None, :] @ v)[:, 0]  # V^T c
    norm2 = (p * p * inv).sum(axis=1)  # |Wx c|^2
    a = (v @ (p * inv)[:, :, None])[:, :, 0]
    a *= np.divide(1.0, np.sqrt(norm2), out=np.zeros_like(norm2), where=norm2 > 0)[:, None]
    lead = a[np.arange(a.shape[0]), np.argmax(a != 0, axis=1)]
    a[lead < 0] *= -1.0
    return a


def project(m, components: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Apply fitted canonical directions to new rows: (m - mean) @ components."""
    m = as_matrix(m, "matrix")
    components = np.asarray(components, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if components.ndim != 2:
        raise DataError("components must be a 2-D (columns = directions) array")
    if m.shape[1] != components.shape[0]:
        raise DataError(
            f"matrix has {m.shape[1]} column(s) but components expect "
            f"{components.shape[0]}"
        )
    if mean.shape != (m.shape[1],):
        raise DataError(f"mean must have shape ({m.shape[1]},), got {mean.shape}")
    return (m - mean) @ components
