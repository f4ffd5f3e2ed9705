"""Column statistics and regularized canonical correlation analysis.

Everything here operates on plain float64 arrays with samples in rows.
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


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, raising DataError otherwise."""
    m = np.asarray(values, dtype=np.float64)
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


def column_stats(m) -> ColumnStats:
    """Mean and sample standard deviation of each column.

    A single-row matrix has no spread to estimate, so its stddev is
    reported as zero rather than NaN.
    """
    m = as_matrix(m, "matrix")
    mean = m.mean(axis=0)
    if m.shape[0] == 1:
        stddev = np.zeros_like(mean)
    else:
        stddev = m.std(axis=0, ddof=1)
    return ColumnStats(mean=mean, stddev=stddev)


def standardize(m, stats: ColumnStats) -> np.ndarray:
    """Center by stats.mean and scale by stats.stddev, column-wise.

    Columns with stddev <= CONSTANT_COLUMN_TOL are only centered; dividing
    by a near-zero spread would blow up round-off noise. float32 rows (a
    raster window, each band a contiguous column) are read as they are,
    without a float64 copy. The result is column-major,
    each column one contiguous run: the layout in which tree growth
    gathers a node's feature columns, and whose transpose is the bands x
    rows block prediction routes.
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
