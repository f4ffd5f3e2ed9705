"""Unit tests for column statistics and canonical correlation analysis.

Expected values were computed by hand (small closed-form cases) or by
independent brute-force oracles defined inline; nothing is copied from
the implementation under test.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ccfmap.cca import (
    CcaResult,
    ColumnStats,
    binary_directions,
    cca,
    _centered,
    column_stats,
    project,
    segment_moments,
    standardize,
)
from ccfmap.errors import DataError


class TestColumnStats:
    def test_two_point_column(self):
        stats = column_stats([[1.0], [3.0]])
        np.testing.assert_allclose(stats.mean, [2.0])
        np.testing.assert_allclose(stats.stddev, [np.sqrt(2.0)])

    def test_mixed_columns(self):
        # second column holds +-10, sample variance 200
        stats = column_stats([[0.0, 10.0], [0.0, -10.0]])
        np.testing.assert_allclose(stats.mean, [0.0, 0.0])
        np.testing.assert_allclose(stats.stddev, [0.0, np.sqrt(200.0)])

    def test_single_row_has_zero_stddev(self):
        stats = column_stats([[4.0, -1.0, 0.5]])
        np.testing.assert_array_equal(stats.stddev, [0.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(DataError, match="row 1, column 0"):
            column_stats([[1.0], [np.nan]])

    def test_rejects_1d(self):
        with pytest.raises(DataError):
            column_stats([1.0, 2.0, 3.0])


class TestStandardize:
    def test_round_trip_moments(self):
        rng = np.random.default_rng(11)
        m = rng.normal(3.0, 2.5, size=(200, 4))
        z = standardize(m, column_stats(m))
        np.testing.assert_allclose(z.mean(axis=0), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0, ddof=1), np.ones(4), rtol=1e-12)

    def test_constant_column_not_scaled(self):
        m = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        z = standardize(m, column_stats(m))
        # constant column is centered only, no division by ~0
        np.testing.assert_array_equal(z[:, 0], np.zeros(5))
        assert np.isfinite(z).all()

    def test_shape_mismatch(self):
        stats = ColumnStats(mean=np.zeros(3), stddev=np.ones(3))
        with pytest.raises(DataError, match="3 column"):
            standardize(np.ones((4, 2)), stats)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_column_major_with_the_row_major_values(self, order):
        rng = np.random.default_rng(12)
        m = np.asarray(rng.normal(3.0, 2.5, size=(300, 5)), order=order)
        m[:, 2] = 7.0  # a constant column: divisor 1
        stats = column_stats(m)
        z = standardize(m, stats)
        assert z.flags.f_contiguous
        divisor = stats.stddev.copy()
        divisor[2] = 1.0  # the constant column is only centered
        want = (np.ascontiguousarray(m) - stats.mean) / divisor
        assert z.tobytes(order="C") == want.tobytes()


class TestCentered:
    def test_constant_column_is_exact_zero(self):
        # 3.7 repeated: the column mean rounds off the value itself, but
        # centering must still give exact zeros, so a constant column
        # has exactly zero covariance with anything
        x = np.full((7, 1), 3.7)
        y = np.arange(7.0).reshape(-1, 1)
        np.testing.assert_array_equal(_centered(x), np.zeros((7, 1)))
        np.testing.assert_array_equal(_centered(x).T @ _centered(y), [[0.0]])


def _one_hot(labels, k):
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def _best_direction_2d(x, y_col, n_angles=20001):
    """Brute-force oracle: scan directions on the half-circle for the one
    maximizing |corr(x @ u, y_col)|. Only valid for 2-column x."""
    thetas = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    u = np.stack([np.cos(thetas), np.sin(thetas)])
    zx = (x - x.mean(axis=0)) @ u
    zy = y_col - y_col.mean()
    num = np.abs(zy @ zx)
    den = np.sqrt((zx * zx).sum(axis=0) * float(zy @ zy))
    corr = num / den
    i = int(np.argmax(corr))
    return u[:, i], float(corr[i])


class TestCca:
    def test_perfect_linear_relation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 1))
        res = cca(x, 2.0 * x + 1.0)
        assert res.n_components == 1
        assert res.rho[0] > 1.0 - 1e-6

    def test_axis_aligned_hand_case(self):
        # y duplicates the first x column; the top direction must be the
        # first axis with correlation 1
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        res = cca(x, x[:, :1])
        assert res.n_components == 1
        assert res.rho[0] > 1.0 - 1e-6
        assert abs(res.a[1, 0]) < 1e-8 * abs(res.a[0, 0])
        assert res.a[0, 0] > 0

    def test_direction_against_grid_oracle(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, 300)
        x = rng.normal(0.0, 0.3, size=(300, 2))
        x[labels == 1] += np.array([1.0, -1.0])
        y = _one_hot(labels, 2)

        res = cca(x, y)
        assert res.n_components == 1
        u_star, corr_star = _best_direction_2d(x, y[:, 0])

        a = res.a[:, 0]
        cos = abs(a @ u_star) / np.sqrt(a @ a)
        assert cos > np.cos(1e-3)
        assert res.rho[0] == pytest.approx(corr_star, abs=1e-4)

    def test_one_hot_binary_yields_single_component(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(120, 6))
        y = _one_hot(rng.integers(0, 2, 120), 2)
        res = cca(x, y)
        # centered one-hot with two classes has rank 1
        assert res.n_components == 1

    def test_rho_sorted_and_bounded(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(200, 5))
        y = x @ rng.normal(size=(5, 3)) + 0.5 * rng.normal(size=(200, 3))
        res = cca(x, y)
        assert res.n_components == 3
        assert np.all(res.rho[:-1] >= res.rho[1:] - 1e-12)
        assert np.all(res.rho >= 0.0) and np.all(res.rho <= 1.0)

    def test_projected_pairs_reach_reported_correlation(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(500, 4))
        y = x[:, :2] @ np.array([[1.0, 0.3], [-0.2, 1.1]])
        y += 0.7 * rng.normal(size=(500, 2))
        res = cca(x, y)
        zx = project(x, res.a, res.x_mean)
        zy = project(y, res.b, res.y_mean)
        for j in range(res.n_components):
            got = np.corrcoef(zx[:, j], zy[:, j])[0, 1]
            assert got == pytest.approx(res.rho[j], abs=1e-6)

    def test_affine_invariance_of_correlations(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(400, 5))
        y = _one_hot(rng.integers(0, 3, 400), 3)
        y_noise = y + 0.0  # keep one-hot exact
        base = cca(x, y_noise)

        t = rng.normal(size=(5, 5)) + 3.0 * np.eye(5)
        shift = rng.normal(size=5)
        res = cca(x @ t + shift, y_noise)
        assert res.n_components == base.n_components
        np.testing.assert_allclose(res.rho, base.rho, atol=1e-6)

    def test_independent_noise_has_small_correlation(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4000, 3))
        y = rng.normal(size=(4000, 2))
        res = cca(x, y)
        assert res.n_components == 2
        assert res.rho[0] < 0.1

    def test_deterministic(self):
        rng = np.random.default_rng(55)
        x = rng.normal(size=(150, 4))
        y = rng.normal(size=(150, 3))
        first = cca(x, y)
        second = cca(x, y)
        np.testing.assert_array_equal(first.a, second.a)
        np.testing.assert_array_equal(first.b, second.b)
        np.testing.assert_array_equal(first.rho, second.rho)

    def test_sign_convention(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(60, 4))
            y = rng.normal(size=(60, 2))
            res = cca(x, y)
            for j in range(res.n_components):
                col = res.a[:, j]
                nz = np.flatnonzero(col)
                assert nz.size > 0
                assert col[nz[0]] > 0

    def test_constant_x_degenerates(self):
        x = np.full((10, 3), 3.7)
        y = np.arange(20.0).reshape(10, 2)
        res = cca(x, y)
        assert res.n_components == 0
        assert res.a.shape == (3, 0)
        assert res.rho.shape == (0,)

    def test_single_class_y_degenerates(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(10, 3))
        y = np.tile([1.0, 0.0], (10, 1))
        res = cca(x, y)
        assert res.n_components == 0

    def test_independent_constant_free_columns_keep_nonzero_norm(self):
        rng = np.random.default_rng(77)
        res = cca(rng.normal(size=(50, 3)), rng.normal(size=(50, 2)))
        norms = np.linalg.norm(res.a, axis=0)
        assert res.n_components == 2
        assert np.all(norms > 0)

    def test_row_mismatch(self):
        with pytest.raises(DataError, match="pair rows"):
            cca(np.ones((5, 2)), np.ones((6, 2)))

    def test_single_row_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            cca(np.ones((1, 2)), np.ones((1, 2)))

    def test_negative_gamma_rejected(self):
        with pytest.raises(DataError, match="gamma"):
            cca(np.ones((4, 2)), np.ones((4, 2)), gamma=-1e-3)

    @pytest.mark.parametrize("gamma", [True, "4", None])
    def test_gamma_must_be_a_number(self, gamma):
        with pytest.raises(DataError, match="gamma"):
            cca(np.ones((4, 2)), np.ones((4, 2)), gamma=gamma)

    def test_nan_rejected_with_location(self):
        x = np.ones((4, 2))
        x[2, 1] = np.inf
        with pytest.raises(DataError, match="row 2, column 1"):
            cca(x, np.ones((4, 2)))


class TestProject:
    def test_matches_manual_projection(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(30, 3))
        comp = rng.normal(size=(3, 2))
        mean = m.mean(axis=0)
        np.testing.assert_array_equal(
            project(m, comp, mean), (m - mean) @ comp
        )

    def test_column_mismatch(self):
        with pytest.raises(DataError, match="expect"):
            project(np.ones((4, 3)), np.ones((2, 1)), np.zeros(3))

    def test_mean_shape_mismatch(self):
        with pytest.raises(DataError, match="mean"):
            project(np.ones((4, 3)), np.ones((3, 1)), np.zeros(2))

    def test_result_type_is_plain_array(self):
        res = project(np.ones((2, 2)), np.ones((2, 1)), np.zeros(2))
        assert isinstance(res, np.ndarray)
        assert res.shape == (2, 1)


@st.composite
def _cca_problem(draw):
    """Paired x and y from a drawn seed. x has 1-4 free columns on
    varied scales plus up to two columns that add no rank (a constant or
    a multiple of a free column); y is one-hot labels, independent noise,
    or a noisy linear function of x."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_free = draw(st.integers(1, 4))
    n = draw(st.integers(n_free + 6, 60))
    x = rng.normal(size=(n, n_free)) * rng.uniform(0.1, 10.0, n_free) + rng.normal(0, 5, n_free)
    for extra in draw(st.lists(st.sampled_from(["constant", "multiple"]), max_size=2)):
        col = (np.full(n, rng.normal()) if extra == "constant"
               else rng.integers(-3, 4) * x[:, rng.integers(n_free)])
        x = np.insert(x, rng.integers(x.shape[1] + 1), col, axis=1)
    y_kind = draw(st.sampled_from(["one_hot", "noise", "linear"]))
    if y_kind == "one_hot":
        k = draw(st.integers(2, 3))
        labels = rng.permutation(np.arange(n) % k)
        y = _one_hot(labels, k)
    elif y_kind == "noise":
        y = rng.normal(size=(n, draw(st.integers(1, 3))))
    else:
        y = x @ rng.normal(size=(x.shape[1], 2)) + 0.3 * rng.normal(size=(n, 2))
    return x, y


def _rank(m):
    c = m - m.mean(axis=0)
    return int(np.linalg.matrix_rank(c)) if c.any() else 0


class TestCcaInvariants:
    @given(_cca_problem())
    def test_correlations_bounded_sorted_and_within_rank(self, problem):
        x, y = problem
        res = cca(x, y)
        assert ((res.rho >= 0.0) & (res.rho <= 1.0)).all()
        assert (res.rho[:-1] >= res.rho[1:] - 1e-12).all()
        assert res.n_components <= min(_rank(x), _rank(y))

    @given(_cca_problem())
    def test_sign_rule(self, problem):
        x, y = problem
        res = cca(x, y)
        xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
        for j in range(res.n_components):
            a, b = res.a[:, j], res.b[:, j]
            first = a[np.flatnonzero(a)[0]]
            assert first > 0
            # b turns with a, so each projected pair keeps its correlation
            zx, zy = xc @ a, yc @ b
            assert zx @ zy >= -1e-9 * np.linalg.norm(zx) * np.linalg.norm(zy)

    @given(_cca_problem(), st.integers(0, 2**32 - 1))
    def test_correlations_invariant_under_affine_maps(self, problem, seed):
        x, y = problem
        rng = np.random.default_rng(seed)
        d = x.shape[1]
        a = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
        assume(np.linalg.cond(a) < 100.0)
        # gamma=0: the ridge scales with trace(Cxx), which the map changes
        base = cca(x, y, gamma=0.0)
        moved = cca(x @ a + rng.normal(0, 10, d), y, gamma=0.0)
        assert moved.n_components == base.n_components
        np.testing.assert_allclose(moved.rho, base.rho, atol=1e-6)


@st.composite
def _segment_draws(draw):
    """1-3 segments of rows sharing f columns, each with 0/1 labels and a
    bootstrap draw of as many row picks as it has rows. Values are small
    integers (repeats, constant and collinear columns) or floats."""
    f = draw(st.integers(1, 4))
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-10.0, 10.0, allow_subnormal=False),
    )
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 12))
        x = draw(hnp.arrays(np.float64, (n, f), elements=value))
        y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
        picks = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n - 1)))
        segments.append((x, y, picks))
    return segments


def _stack(segments):
    """Columns, labels, segment starts and bincount weights of segments."""
    cols = np.hstack([x.T for x, _, _ in segments])
    y = np.concatenate([y for _, y, _ in segments])
    sizes = [len(y) for _, y, _ in segments]
    starts = np.cumsum([0] + sizes[:-1])
    weights = np.concatenate([np.bincount(p, minlength=len(p)) for _, _, p in segments])
    return np.ascontiguousarray(cols), y, starts, weights


class TestBinaryDirections:
    """The batched closed form used by tree growth against cca itself."""

    @given(_segment_draws())
    def test_moments_equal_those_of_repeated_rows(self, segments):
        cxx, c = segment_moments(*_stack(segments))
        for i, (x, y, picks) in enumerate(segments):
            xr, yr = x[picks], y[picks].astype(np.float64)
            xc = _centered(xr)
            want_cxx = xc.T @ xc / (len(yr) - 1)
            want_c = xc.T @ (yr - yr.mean()) / (len(yr) - 1)
            scale = max(np.abs(want_cxx).max(), 1e-300)
            np.testing.assert_allclose(cxx[i], want_cxx, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(c[i], want_c, rtol=1e-12, atol=1e-12 * np.sqrt(scale))
            constant = np.ptp(xr, axis=0) == 0
            assert (cxx[i][constant] == 0).all() and (cxx[i][:, constant] == 0).all()
            assert (c[i][constant] == 0).all()

    @given(_segment_draws())
    def test_parallel_to_cca_first_direction(self, segments):
        a = binary_directions(*segment_moments(*_stack(segments)))
        for i, (x, y, picks) in enumerate(segments):
            res = cca(x[picks], _one_hot(y[picks], 2))
            if not a[i].any():
                # no direction: cca has none, or one of no correlation
                assert res.n_components == 0 or res.rho[0] < 1e-6
                continue
            assert res.n_components == 1
            if res.rho[0] < 1e-6:
                continue  # uncorrelated: the direction is round-off in both
            want = res.a[:, 0]
            cos = a[i] @ want / (np.linalg.norm(a[i]) * np.linalg.norm(want))
            assert cos >= 1.0 - 1e-9
            np.testing.assert_allclose(np.linalg.norm(a[i]), np.linalg.norm(want), rtol=1e-6)
            assert a[i][np.flatnonzero(a[i])[0]] > 0

    def test_no_direction_on_one_class_or_constant_draws(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 3))
        x[4:8] = [1.0, 2.0, 3.0]  # rows 4-7 hold the same values
        y = np.array([0, 1] * 6)
        cols = np.ascontiguousarray(x.T)
        starts = np.array([0])
        one_class = np.zeros(12, np.int64)
        one_class[[0, 2, 4]] = [5, 4, 3]  # draws class-0 rows only
        constant = np.zeros(12, np.int64)
        constant[[4, 5, 6, 7]] = 3  # both classes, all columns constant
        for weights in (one_class, constant):
            assert not binary_directions(*segment_moments(cols, y, starts, weights)).any()
        assert binary_directions(*segment_moments(cols, y, starts)).all()


def test_result_component_count_property():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(40, 3))
    res = cca(x, x[:, :2] + 0.1 * rng.normal(size=(40, 2)))
    assert isinstance(res, CcaResult)
    assert res.n_components == res.a.shape[1] == res.b.shape[1] == res.rho.size
