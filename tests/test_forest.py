"""Tests for oblique-tree growth, the split search, and forest prediction."""

import dataclasses
import importlib
import json
import math
import os
import pickle
import re
import tracemalloc
from concurrent import futures
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import growth_reference
from ccfmap import forest, model_io
from ccfmap.cca import CONSTANT_COLUMN_TOL, ColumnStats, standardize
from ccfmap.errors import DataError
from ccfmap.forest import (
    CcfModel,
    FlatTree,
    TrainConfig,
    _build_tree,
    _project,
    _worker_count,
    best_split,
    default_feature_subsample,
    predict_class_batch,
    predict_proba_batch,
    predict_raster,
    train_forest,
)
from ccfmap.pipeline import SampleSet, fit_scaler
from ccfmap.model_io import load_model, save_model
from ccfmap.raster_io import MultispectralRaster, open_raster, read_raster, write_raster

TREE_FIELDS = [f.name for f in dataclasses.fields(FlatTree)]
cca_module = importlib.import_module("ccfmap.cca")  # the package's ccfmap.cca is the function


def _blobs(n_per_class, n_bands, separation, rng):
    """Two spherical Gaussian classes pushed apart along the all-ones axis."""
    u = np.ones(n_bands) / np.sqrt(n_bands)
    x0 = rng.normal(size=(n_per_class, n_bands)) - 0.5 * separation * u
    x1 = rng.normal(size=(n_per_class, n_bands)) + 0.5 * separation * u
    x = np.vstack([x0, x1])
    y = np.repeat([0, 1], n_per_class)
    perm = rng.permutation(len(y))
    return SampleSet(x[perm], y[perm])


def _perceptron_separable(x, y, epochs=60):
    """True when a linear separator exists (perceptron convergence)."""
    aug = np.hstack([x, np.ones((len(x), 1))])
    sign = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(aug.shape[1])
    for _ in range(epochs):
        errors = 0
        for i in range(len(aug)):
            if sign[i] * (aug[i] @ w) <= 0:
                w += sign[i] * aug[i]
                errors += 1
        if errors == 0:
            return True
    return False


def _scalar_best_split(z, y, k):
    """Pure-python mirror of the split scan, same accumulation order."""
    n = len(y)
    total = [0] * k
    for lab in y:
        total[int(lab)] += 1
    best = None
    for j in range(z.shape[1]):
        order = np.argsort(z[:, j], kind="stable")
        zs = [float(z[i, j]) for i in order]
        ys = [int(y[i]) for i in order]
        left = [0] * k
        for i in range(n - 1):
            left[ys[i]] += 1
            if not (zs[i] < zs[i + 1]):
                continue
            nl = float(i + 1)
            nr = float(n) - nl
            gl = 0.0
            gr = 0.0
            for c in range(k):
                p = left[c] / nl
                gl += p * p
                q = (total[c] - left[c]) / nr
                gr += q * q
            g = (nl * (1.0 - gl) + nr * (1.0 - gr)) / float(n)
            if best is None or g < best[2]:
                lo, hi = zs[i], zs[i + 1]
                t = 0.5 * (lo + hi)
                if not (t < hi):
                    t = lo
                best = (j, t, g)
    return best


def _enumerated_best_split(z, y, k):
    """Score every midpoint of every column by plain counting, in Python
    floats, and keep the least (gini, component, threshold)."""
    n = len(y)
    labels = [int(v) for v in y]
    total = [labels.count(c) for c in range(k)]
    candidates = []
    for j in range(z.shape[1]):
        col = [float(v) for v in z[:, j]]
        values = sorted(set(col))
        for lo, hi in zip(values, values[1:]):
            t = 0.5 * (lo + hi)
            if not (t < hi):
                t = lo
            left = [0] * k
            for v, c in zip(col, labels):
                if v <= lo:
                    left[c] += 1
            nl = float(sum(left))
            nr = float(n) - nl
            gl = 0.0
            gr = 0.0
            for c in range(k):
                p = left[c] / nl
                gl += p * p
                q = (total[c] - left[c]) / nr
                gr += q * q
            g = (nl * (1.0 - gl) + nr * (1.0 - gr)) / float(n)
            candidates.append((g, j, t))
    if not candidates:
        return None
    g, j, t = min(candidates)
    return j, t, g


@st.composite
def _split_problem(draw):
    """Projections with many repeated values (small integers), values one
    ulp apart around 2**52, where half the midpoints round up onto the
    higher value, and arbitrary finite floats; labels from k classes."""
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, 4))
    k = draw(st.integers(2, 4))
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.integers(-3, 3).map(lambda v: 2.0**52 + v),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    z = draw(hnp.arrays(np.float64, (n, r), elements=value))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return z, y, k


def _leaf_model(count_rows, n_bands=3):
    """Hand-built forest of single-leaf trees, one per counts row."""
    k = len(count_rows[0])
    fs = default_feature_subsample(n_bands)
    trees = [
        FlatTree.from_columns([0], np.empty((0, fs)), np.empty((0, fs)), [], [counts])
        for counts in count_rows
    ]
    return CcfModel(
        trees=trees,
        scaler=ColumnStats(np.zeros(n_bands), np.ones(n_bands)),
        n_bands=n_bands,
        class_names=tuple(f"c{i}" for i in range(k)),
        config=TrainConfig(),
    )


def _block(x):
    """The bands x rows block train_forest grows trees from."""
    return np.ascontiguousarray(np.asarray(x).T)


def _grow_tree(samples, config, seed):
    """Grow tree 0 of a forest seeded with seed, as train_forest does."""
    cfg = dataclasses.replace(config, seed=seed)
    return _build_tree(_block(samples.features), samples.labels, cfg, 0)


def _assert_same_trees(a, b):
    """Every FlatTree field equal, dtype included, tree by tree."""
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        for name in TREE_FIELDS:
            x, y = getattr(ta, name), getattr(tb, name)
            assert x.dtype == y.dtype, name
            np.testing.assert_array_equal(x, y, err_msg=name)


def _route(tree, x):
    """Route rows down one tree with the forest's router. Returns each
    row's leaf id and how many times a row met a threshold exactly."""
    leaf = forest._route(tree, np.ascontiguousarray(x.T))
    split = np.flatnonzero(tree.kind)
    parent = np.full(tree.n_nodes, -1)
    parent[tree.left[split]] = parent[tree.right[split]] = split
    # climb every row from its leaf to the root, checking each split it passed
    on_threshold = 0
    rows, at = np.arange(len(x)), leaf
    while rows.size:
        up = parent[at]
        rows, at, up = rows[up >= 0], at[up >= 0], up[up >= 0]
        z = _project(x[rows[:, None], tree.features[up]].T, tree.projections[up].T)
        on_threshold += int((z == tree.thresholds[up]).sum())
        np.testing.assert_array_equal(tree.left[up] == at, z <= tree.thresholds[up])
        at = up
    return leaf, on_threshold


# _route's small-node cuts, with a test id suffix each: depth-first only,
# the module's value, and level by level only (above every batch a test routes)
_ROUTING_CUTS = {0: "-depth-first", forest._SMALL_NODE: "", 2**62: "-levels"}


def _walk(tree, row):
    """Leaf id of one row, walked node by node in Python floats."""
    nid = 0
    while tree.kind[nid]:
        feats = tree.features[nid].tolist()
        direction = tree.projections[nid].tolist()
        z = row[feats[0]] * direction[0]
        for f, a in zip(feats[1:], direction[1:]):
            z += row[f] * a
        nid = tree.left[nid] if z <= tree.thresholds[nid] else tree.right[nid]
    return nid


@st.composite
def _level_order_tree(draw):
    """A random tree over a few bands in level order, with small-integer
    directions and half-integer thresholds, and the children its shape
    gives each split; up to 300 rows on a small integer grid, so that
    many rows sit on thresholds; and a cut between 1 and the rows."""
    n_bands = draw(st.integers(1, 5))
    fs = default_feature_subsample(n_bands)
    children = [None]  # per node of a tree in growth order: its children
    for _ in range(draw(st.integers(0, 30))):
        leaves = [i for i, c in enumerate(children) if c is None]
        at = leaves[draw(st.integers(0, len(leaves) - 1))]
        children[at] = (len(children), len(children) + 1)
        children += [None, None]
    order = [0]  # breadth first from the root, left child before right
    for i in order:
        order += children[i] or ()
    ids = {node: nid for nid, node in enumerate(order)}
    small = st.integers(-2, 2).map(float)
    kind, features, projections, thresholds, counts, want = [], [], [], [], [], {}
    for node in order:
        c = children[node]
        kind.append(int(c is not None))
        if c is None:
            counts.append(draw(st.tuples(st.integers(0, 3), st.integers(1, 3))))
            continue
        features.append(sorted(draw(st.permutations(range(n_bands)))[:fs]))
        projections.append([draw(small) for _ in range(fs)])
        thresholds.append(draw(small) / 2)
        want[ids[node]] = (ids[c[0]], ids[c[1]])
    tree = FlatTree.from_columns(kind, np.reshape(features, (-1, fs)),
                                 np.reshape(projections, (-1, fs)), thresholds, counts)
    n_rows = draw(st.integers(1, 300))
    rows = draw(hnp.arrays(np.int64, (n_rows, n_bands), elements=st.integers(-2, 2)))
    return tree, want, rows.astype(np.float64), draw(st.integers(1, n_rows))


def _scalar_proba(model, row):
    """Reference walk of one row in Python floats: standardize, project
    term by term left to right, then average the leaves tree by tree."""
    x = [
        (v - mu) / (sd if sd > CONSTANT_COLUMN_TOL else 1.0)
        for v, mu, sd in zip(row.tolist(), model.scaler.mean.tolist(),
                             model.scaler.stddev.tolist())
    ]
    total = np.zeros(2)
    for tree in model.trees:
        total += tree.probs[_walk(tree, x)]
    total /= len(model.trees)
    return total


@st.composite
def _grid_problem(draw):
    """Rows on a coarse integer grid (many repeated rows and projections),
    labels from the two classes training takes, both present."""
    k = 2
    n_bands = draw(st.integers(2, 6))
    n_rows = draw(st.integers(8, 48))
    grid = draw(hnp.arrays(np.int64, (n_rows, n_bands), elements=st.integers(0, 3)))
    labels = draw(hnp.arrays(np.int64, n_rows, elements=st.integers(0, k - 1)))
    labels[:k] = np.arange(k)
    queries = draw(hnp.arrays(np.int64, (draw(st.integers(1, 6)), n_bands),
                              elements=st.integers(-1, 4)))
    n_trees = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return grid.astype(np.float64), labels, k, queries.astype(np.float64), n_trees, seed


def _train_on_recorded_pool(s, monkeypatch):
    """Train 5 trees on 2 workers; return the pool's initargs and the
    pickled size of each task submitted to it."""
    monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
    monkeypatch.setenv("CCF_THREADS", "2")
    pools, task_bytes = [], []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            task_bytes.append(len(pickle.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    model = train_forest(s, TrainConfig(n_trees=5, seed=3))
    assert len(model.trees) == 5
    [kwargs] = pools
    return kwargs.get("initargs", ()), task_bytes


class TestFeatureSubsample:
    @pytest.mark.parametrize(
        "n_bands,expected",
        [(1, 1), (2, 2), (4, 3), (8, 4), (10, 5), (16, 5), (1024, 11)],
    )
    def test_values(self, n_bands, expected):
        assert default_feature_subsample(n_bands) == expected

    def test_zero_bands(self):
        with pytest.raises(DataError):
            default_feature_subsample(0)


class TestTrainConfig:
    def test_fills_default_subsample(self):
        # two settings; the rest of growth is fixed on the class
        assert [f.name for f in dataclasses.fields(TrainConfig)] == ["n_trees", "seed"]
        assert TrainConfig() == TrainConfig(n_trees=10, seed=0)
        assert (TrainConfig.min_node_size, TrainConfig.max_depth, TrainConfig.gamma) == (
            2, None, 1e-8)
        tree = _grow_tree(_blobs(40, 10, 2.0, np.random.default_rng(0)), TrainConfig(), 0)
        assert tree.features.shape[1] == default_feature_subsample(10) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": 0},
            {"n_trees": -1},
            {"n_trees": 2.0},
            {"n_trees": np.int64(0)},
            {"n_trees": np.float64(4.0)},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 3.0},
            {"n_trees": "4"},
            {"n_trees": None},
            {"seed": np.int64(-1)},
            {"seed": "4"},
            {"seed": None},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(DataError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "field",
        ["n_trees", "min_node_size", "max_depth", "feature_subsample", "seed", "gamma"],
    )
    def test_rejects_bool(self, tmp_path, field, value):
        # bool is an int subclass: True would pass as 1 and False as 0
        if field in {f.name for f in dataclasses.fields(TrainConfig)}:
            with pytest.raises(DataError, match=field):
                TrainConfig(**{field: value})
            return
        # a fixed setting is only ever read from a model file's config block
        model = train_forest(_blobs(20, 4, 2.0, np.random.default_rng(0)),
                             TrainConfig(n_trees=1))
        with open(save_model(model, tmp_path / "m.ccf.json")) as f:
            doc = json.load(f)
        doc["config"][field] = value
        bad = tmp_path / "bad.ccf.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"bad config: {field}"):
            load_model(bad)

    def test_numpy_integers_become_ints(self):
        cfg = TrainConfig(n_trees=np.int64(3), seed=np.uint64(2**63))
        assert [type(v) for v in (cfg.n_trees, cfg.seed)] == [int] * 2
        assert cfg == TrainConfig(n_trees=3, seed=2**63)


class TestBestSplit:
    def test_clean_boundary(self):
        z = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        assert best_split(z, y, 2) == (0, 1.5, 0.0)

    def test_tie_takes_lowest_threshold(self):
        z = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        comp, thr, gini = best_split(z, y, 2)
        assert (comp, thr) == (0, 0.5)
        assert gini == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_prefers_cleaner_component(self):
        noisy = np.array([0.0, 3.0, 1.0, 2.0])
        clean = np.array([0.0, 1.0, 2.0, 3.0])
        z = np.column_stack([noisy, clean])
        y = np.array([0, 0, 1, 1])
        comp, thr, gini = best_split(z, y, 2)
        assert comp == 1
        assert (thr, gini) == (1.5, 0.0)

    def test_constant_column_none(self):
        z = np.full((5, 1), 2.0)
        y = np.array([0, 1, 0, 1, 0])
        assert best_split(z, y, 2) is None

    def test_single_sample_none(self):
        assert best_split(np.array([[1.0]]), np.array([0]), 2) is None

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            best_split(np.zeros((3, 1)), np.zeros(2, dtype=int), 2)

    def test_matches_scalar_oracle_exactly(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(2, 65))
            r = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            if trial % 2:
                z = rng.normal(size=(n, r))
            else:
                # gridded values force duplicate-handling through both paths
                z = rng.integers(0, 4, size=(n, r)).astype(np.float64)
            y = rng.integers(0, k, size=n)
            got = best_split(z, y, k)
            want = _scalar_best_split(z, y, k)
            if want is None:
                assert got is None
            else:
                assert got == want  # bit-exact tuple match

    @given(_split_problem())
    def test_equals_enumeration_of_every_midpoint(self, problem):
        z, y, k = problem
        got = best_split(z, y, k)
        want = _enumerated_best_split(z, y, k)
        if want is None:
            assert got is None
            return
        assert got[0] == want[0]
        assert got[1].hex() == want[1].hex()
        assert got[2].hex() == want[2].hex()


@st.composite
def _segment_layout(draw):
    """Projections in 1-8 consecutive segments with 0/1 labels. Segments
    hold one row, one repeated value, or draws of small integers, values
    one ulp apart around 2**52 and arbitrary finite floats."""
    value = st.one_of(
        st.integers(-3, 3).map(float),
        st.integers(-3, 3).map(lambda v: 2.0**52 + v),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    parts = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 12))
        if draw(st.booleans()):
            parts.append(np.full(n, draw(value)))
        else:
            parts.append(draw(hnp.arrays(np.float64, n, elements=value)))
    z = np.concatenate(parts)
    y = draw(hnp.arrays(np.int64, z.size, elements=st.integers(0, 1)))
    starts = np.cumsum([0] + [p.size for p in parts[:-1]])
    return z, y, starts


def _sizes(starts, n):
    return np.diff(starts, append=n)


class TestSegmentSplits:
    """The level-wise split search against best_split, node by node."""

    @given(_segment_layout())
    def test_each_segment_equals_best_split(self, layout):
        z, y, starts = layout
        threshold, gini, n_left, ones_left = forest._batched_splits(z, y, starts,
                                                                    _sizes(starts, z.size))
        for s, (a, b) in enumerate(zip(starts, np.append(starts[1:], z.size))):
            want = best_split(z[a:b, None], y[a:b], 2)
            if want is None:
                assert n_left[s] == 0
                continue
            assert want[0] == 0
            assert threshold[s].hex() == want[1].hex()
            assert gini[s].hex() == want[2].hex()
            go_left = z[a:b] <= threshold[s]
            assert n_left[s] == go_left.sum()
            assert ones_left[s] == y[a:b][go_left].sum()

    @given(_segment_layout())
    def test_each_segment_equals_its_own_call(self, layout):
        # a one-segment call skips the by-segment sort and spreads its
        # per-segment values by broadcasting; it must give the same bits
        z, y, starts = layout
        got = forest._batched_splits(z, y, starts, _sizes(starts, z.size))
        for s, (a, b) in enumerate(zip(starts, np.append(starts[1:], z.size))):
            alone = forest._batched_splits(z[a:b], y[a:b], np.array([0]), np.array([b - a]))
            for many, one in zip(got, alone):
                assert many[s : s + 1].tobytes() == one.tobytes()


class TestSplitNodes:
    """On a level of more than forest._BLOCK rows, _split_nodes takes each
    node of more than _BLOCK rows alone (cca.node_moments, _node_split)
    and each run of smaller nodes in one batch (segment_moments,
    _batched_splits): the results of one batch of the whole level, bit for
    bit, from a bootstrap and from every row."""

    @pytest.mark.parametrize("block", [1, 8, 128, 999])  # 999: one large node, r < 2 block
    def test_large_nodes_equal_one_batch(self, monkeypatch, block):
        monkeypatch.setattr(cca_module, "_SUM_LEAF", 16)  # a large node spans leaves
        rng = np.random.default_rng(block)
        sizes = rng.permutation([2, 3, 8, 9, 129, 130, 700, 4, 1_000])
        starts = np.cumsum(sizes) - sizes
        r, n = sizes.sum(), sizes.sum() + 500  # the level holds some of the block's rows
        data = _block(rng.normal(size=(n, 6)))
        y = rng.integers(0, 2, size=n)
        rows = np.sort(rng.choice(n, r, replace=False))
        feats = np.sort(np.argsort(rng.random((sizes.size, 6)), axis=1)[:, :3], axis=1)
        alone, batched = [], []

        def spy_moments(cols, y, weights, node=forest.node_moments):
            alone.append(cols.shape[1])
            return node(cols, y, weights)

        def spy_batch(cols, y, starts, weights, segments=forest.segment_moments):
            batched.append(cols.shape[1])
            return segments(cols, y, starts, weights)

        def spy_split(z, y, split=forest._node_split):
            alone.append(z.size)
            return split(z, y)

        def split_nodes(seed):  # a bootstrap drawn from seed, or every row
            rng = None if seed is None else np.random.default_rng(seed)
            return forest._split_nodes(data, y, rows, feats, starts, rng)

        large = sizes[sizes > block].tolist()
        for seed in (block, None):
            with monkeypatch.context() as m:
                m.setattr(forest, "_BLOCK", r)
                want = split_nodes(seed)
            alone.clear()
            batched.clear()
            with monkeypatch.context() as m:
                m.setattr(forest, "_BLOCK", block)
                m.setattr(forest, "node_moments", spy_moments)
                m.setattr(forest, "segment_moments", spy_batch)
                m.setattr(forest, "_node_split", spy_split)
                got = split_nodes(seed)
            assert len(got) == len(want) == 5
            for u, v in zip(got, want):
                assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
            assert (got[2] > 0).sum() >= 6
            assert alone == [size for size in large for _ in range(2)]  # moments, then split
            assert sum(batched) == r - sum(large)

    @pytest.mark.parametrize("alone", [False, True])
    def test_root_gathers_without_an_index(self, alone):
        # a piece of one node gathers each feature from its row of the
        # block, and the root, which holds every row in order, takes its
        # features' rows whole. A block that refuses a flat view shows that
        # neither gathers by a flat index; the reference is the root of a
        # block of the node's rows alone. A piece of two nodes gathers by one
        class NoFlatView(np.ndarray):
            def reshape(self, *args, **kwargs):
                raise AssertionError("a flat index gather")

        rng = np.random.default_rng(19)
        n = 300
        x, y = rng.normal(size=(n + 1, 6)), rng.integers(0, 2, size=n + 1)
        feats, starts, sizes = np.array([[0, 2, 5]]), np.array([0]), np.array([n])
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n)
        for rows in (np.arange(n), np.delete(np.arange(n + 1), 17)):
            root = forest._split_piece(_block(x[rows]).view(NoFlatView), y[rows], np.arange(n),
                                       feats, starts, sizes, weights, alone)
            by_rows = forest._split_piece(_block(x).view(NoFlatView), y, rows, feats, starts,
                                          sizes, weights, alone)
            for u, v in zip(root, by_rows):
                assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
            assert root[2][0] > 0
        if not alone:
            with pytest.raises(AssertionError, match="flat index"):
                forest._split_piece(_block(x).view(NoFlatView), y, np.arange(n),
                                    np.repeat(feats, 2, axis=0), np.array([0, 100]),
                                    np.array([100, n - 100]), weights, alone)


class TestBlockedSplits:
    """_node_split searches one node _BLOCK sorted rows at a time, with
    the results of _batched_splits on that node, bit for bit."""

    @staticmethod
    def _blocked_equals_one_batch(monkeypatch, block, z, y, starts):
        monkeypatch.setattr(forest, "_BLOCK", block)
        got = []
        for a, size in zip(starts, _sizes(starts, z.size)):
            zn, yn = z[a : a + size], y[a : a + size]
            got.append(forest._node_split(zn, yn))
            want = forest._batched_splits(zn, yn, np.array([0]), np.array([size]))
            for u, v in zip(got[-1], want):
                assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        return [np.concatenate(p) for p in zip(*got)]

    @pytest.mark.parametrize("block", [5, 6])
    def test_gini_tie_across_a_block_boundary(self, monkeypatch, block):
        # left 4 rows of class 0 or right 4 rows of class 0: the same Gini,
        # from sorted rows 4 and 8, which lie in different blocks
        z = np.arange(12.0)
        y = np.array([0] * 4 + [1] * 4 + [0] * 4)
        got = self._blocked_equals_one_batch(monkeypatch, block, z, y, np.array([0]))
        want = best_split(z[:, None], y, 2)
        assert got[0][0] == want[1] == 3.5 and got[1][0] == want[2]
        assert got[2][0] == 4 and got[3][0] == 0

    def test_blocks_without_candidates_and_a_node_without_a_split(self, monkeypatch):
        rng = np.random.default_rng(41)
        pieces = [
            np.arange(12.0),  # the tie above
            np.repeat([0.0, 1.0], [20, 23]),  # one candidate: most blocks have none
            np.array([1.0, 0.0, 1.0]),
            np.full(30, 2.5),  # no split
            rng.integers(0, 3, size=9).astype(np.float64),
            rng.integers(0, 4, size=200).astype(np.float64),  # tie heavy
        ]
        z = np.concatenate(pieces)
        y = rng.integers(0, 2, size=z.size)
        y[:12] = [0] * 4 + [1] * 4 + [0] * 4
        starts = np.cumsum([0] + [p.size for p in pieces[:-1]])
        got = self._blocked_equals_one_batch(monkeypatch, 5, z, y, starts)
        assert got[2][0] == 4 and got[2][1] == 20 and got[2][3] == 0

    @pytest.mark.parametrize("block", [3, 16, 64])
    def test_tie_heavy_layouts(self, monkeypatch, block):
        rng = np.random.default_rng(block)
        for _ in range(20):
            sizes = rng.integers(1, 4 * block, size=rng.integers(1, 8))
            starts = np.cumsum(sizes) - sizes
            z = rng.integers(0, rng.integers(1, 6), size=sizes.sum()) * 0.1
            y = rng.integers(0, 2, size=z.size)
            self._blocked_equals_one_batch(monkeypatch, block, z, y, starts)


@st.composite
def _binned_node(draw):
    """One node's projections and 0/1 labels, all drawn from one of: a
    small integer grid (groups of equal values on the edges of a few
    equal-width bins), signed zeros beside 1, a spread that overflows
    (+-1e308), a subnormal spread, or arbitrary finite floats."""
    value = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.sampled_from([-0.0, 0.0, 1.0]),
        st.sampled_from([-1e308, -1.0, 0.0, 1e308]),
        st.integers(0, 6).map(lambda k: k * 5e-324),
        st.floats(allow_nan=False, allow_infinity=False),
    ]))
    z = draw(hnp.arrays(np.float64, draw(st.integers(1, 40)), elements=value))
    y = draw(hnp.arrays(np.int64, z.size, elements=st.integers(0, 1)))
    return z, y


class TestPrunedSplits:
    """_node_split sorts only the value bins whose Gini bound reaches the
    best cut between bins. For any number of bins it gives the arrays of
    _batched_splits on the node, bit for bit, and best_split's cut."""

    @staticmethod
    def _equals_one_batch_and_best_split(z, y, bins=None):
        with mock.patch.object(forest, "_SPLIT_BINS", bins or forest._SPLIT_BINS):
            got = forest._node_split(z, y)
        want = forest._batched_splits(z, y, np.array([0]), np.array([z.size]))
        for u, v in zip(got, want):
            assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
        ref = best_split(z[:, None], y, 2)
        if ref is None:
            assert got[2][0] == 0
            return
        assert got[0][0].hex() == ref[1].hex() and got[1][0].hex() == ref[2].hex()
        go_left = z <= got[0][0]
        assert got[2][0] == go_left.sum() and got[3][0] == y[go_left].sum()

    @pytest.mark.parametrize("bins, z, y", [
        (3, [0, 0, 2, 2, 2, 4, 4, 6], [0, 1, 0, 0, 1, 1, 0, 1]),  # ties on both bin edges
        (64, [5] * 6, [0, 1, 0, 1, 1, 0]),  # all equal: no split
        (2, [-0.0, 0.0, -0.0, 0.0, 1.0, 1.0], [0, 1, 1, 0, 1, 1]),  # -0.0 equals +0.0
        (3, [0, 1, 2, 3], [1, 1, 1, 1]),  # one class: the first cut
        (64, range(10), [0] * 9 + [1]),  # the best cut at the last edge
        (64, [-1e308, 0.0, 1e308, 1e308], [0, 0, 1, 1]),  # the spread overflows
        (64, [0.0, 5e-324, 1e-323, 1.5e-323], [0, 1, 1, 0]),  # subnormal spread
        (2, [0.0, 5e-324, 1e-323, 1.5e-323], [0, 1, 1, 0]),
        # the best cut inside a bin, above both of the bin's edges
        (3, [1, 2, 3, 6], [0, 1, 1, 0]),
        # the best cut between bins, which the bound of its own bins keeps
        # only with the rounding margin
        (64, [0, 1, 2, 2, 3, 3], [0, 1, 1, 1, 1, 0]),
        (3, [0, 1, 2], [0, 1, 0]),  # a tie: the smaller left side wins
    ])
    def test_nodes(self, bins, z, y):
        self._equals_one_batch_and_best_split(np.array(z, dtype=np.float64), np.array(y), bins)

    @pytest.mark.parametrize("bins", [1, 64])
    def test_tie_across_a_block_boundary(self, monkeypatch, bins):
        # the kept rows are scanned _BLOCK rows at a time; the cuts after
        # sorted values 3 and 7 tie, and they lie in different blocks
        monkeypatch.setattr(forest, "_BLOCK", 2)
        z, y = np.arange(12.0), np.array([0] * 4 + [1] * 4 + [0] * 4)
        self._equals_one_batch_and_best_split(z, y, bins)

    @pytest.mark.parametrize("bins", [1, 2, 3, 64])
    @given(_binned_node())
    def test_any_node(self, bins, node):
        self._equals_one_batch_and_best_split(*node, bins)

    @pytest.mark.parametrize("bins", [None, 64])
    def test_noisy_and_tied_large_nodes(self, bins):
        # nodes of thousands of rows: most bins are dropped, and the kept
        # ones lie apart
        rng = np.random.default_rng(23)
        for n in rng.integers(1_000, 40_000, size=12):
            z = rng.normal(size=n)
            for y in ((z + rng.normal(scale=0.5, size=n) > 0.3), rng.random(n) < 0.1):
                self._equals_one_batch_and_best_split(z, y.astype(np.int64), bins)
            self._equals_one_batch_and_best_split(np.round(z, 1), (z > 0).astype(np.int64), bins)

    def test_a_large_node_sorts_few_rows(self, monkeypatch):
        rng = np.random.default_rng(29)
        n = 200_000
        z = rng.normal(size=n)
        y = (z + rng.normal(scale=0.3, size=n) > 0).astype(np.int64)
        sorted_rows = []

        def spy(a, *args, argsort=np.argsort, **kwargs):
            sorted_rows.append(a.size)
            return argsort(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "argsort", spy)
            got = forest._node_split(z, y)
        assert len(sorted_rows) == 1 and 0 < sorted_rows[0] <= 0.02 * n
        want = forest._batched_splits(z, y, np.array([0]), np.array([n]))
        for u, v in zip(got, want):
            assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()


class TestProject:
    @pytest.mark.parametrize("fs", range(1, 8))
    def test_equals_numpy_row_sum_below_eight_terms(self, fs):
        # models grown before the column-wise projection used this row sum
        rng = np.random.default_rng(fs)
        x = rng.normal(size=(500, fs)) * 10.0 ** rng.integers(-6, 7, size=(500, fs))
        a = rng.normal(size=fs)
        assert _project(x.T, a).tobytes() == (x * a).sum(axis=1).tobytes()

    @pytest.mark.parametrize("fs", [8, 13])
    def test_adds_terms_left_to_right(self, fs):
        rng = np.random.default_rng(100 + fs)
        x = rng.normal(size=(50, fs)) * 10.0 ** rng.integers(-6, 7, size=(50, fs))
        a = rng.normal(size=fs).tolist()
        expected = []
        for row in x.tolist():
            z = row[0] * a[0]
            for v, c in zip(row[1:], a[1:]):
                z += v * c
            expected.append(z)
        assert _project(x.T, a).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("fs", [1, 5, 13])
    def test_generator_of_columns_equals_the_array(self, fs):
        # _route hands over one gathered column at a time, _finish_small a
        # 2-D block with a direction per row
        rng = np.random.default_rng(200 + fs)
        x = rng.normal(size=(fs, 400)) * 10.0 ** rng.integers(-6, 7, size=(fs, 400))
        idx = np.flatnonzero(rng.random(400) < 0.6)
        a = rng.normal(size=fs).tolist()
        want = _project(x[:, idx], a).tobytes()
        assert _project((x[f].take(idx) for f in range(fs)), a).tobytes() == want
        per_row = rng.normal(size=(fs, idx.size))
        want = _project(x[:, idx], per_row).tobytes()
        assert _project((x[f].take(idx) for f in range(fs)), per_row).tobytes() == want


class TestGrowNode:
    def test_pure_node_is_leaf(self):
        s = SampleSet(np.random.default_rng(0).normal(size=(5, 2)), np.ones(5, dtype=int))
        tree = _grow_tree(s, TrainConfig(), 0)
        assert tree.n_nodes == 1 and tree.kind[0] == 0
        np.testing.assert_array_equal(tree.counts[0], [0, 5])
        np.testing.assert_array_equal(tree.probs[0], [0.0, 1.0])

    def test_unsplittable_mixed_node(self):
        s = SampleSet(np.ones((4, 2)), np.array([0, 0, 1, 1]))
        tree = _grow_tree(s, TrainConfig(), 1)
        assert tree.n_nodes == 1 and tree.kind[0] == 0
        np.testing.assert_array_equal(tree.probs[0], [0.5, 0.5])

    def test_four_point_line(self):
        s = SampleSet(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]))
        tree = _grow_tree(s, TrainConfig(), 0)
        np.testing.assert_array_equal(tree.kind, [1, 0, 0])
        np.testing.assert_array_equal(tree.left, [1, -1, -1])
        np.testing.assert_array_equal(tree.right, [2, -1, -1])
        np.testing.assert_array_equal(tree.features[0], [0])
        # one pure pair on each side, whichever sign the direction took
        assert sorted([list(tree.counts[1]), list(tree.counts[2])]) == [[0, 2], [2, 0]]
        boundary = tree.thresholds[0] / tree.projections[0, 0]
        assert 1.0 < boundary < 2.0

    def test_min_node_size_stops_growth(self):
        s = SampleSet(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 0]))
        tree = _grow_tree(s, TrainConfig(), 0)
        np.testing.assert_array_equal(tree.kind, [0])  # 3 < 2 * TrainConfig.min_node_size


class TestFlattenTree:
    """Growth writes the tree flat, in level order, with FlatTree's dtypes."""

    def test_level_order_layout(self):
        s = _blobs(80, 6, 2.0, np.random.default_rng(17))
        tree = _grow_tree(s, TrainConfig(), 3)
        m, fs = tree.n_nodes, default_feature_subsample(6)
        assert m > 7
        dtypes = {"kind": np.uint8, "features": np.int64, "projections": np.float64,
                  "thresholds": np.float64, "left": np.int64, "right": np.int64,
                  "counts": np.int64, "probs": np.float64}
        shapes = {"features": (m, fs), "projections": (m, fs),
                  "counts": (m, 2), "probs": (m, 2)}
        for name in TREE_FIELDS:
            arr = getattr(tree, name)
            assert arr.dtype == dtypes[name], name
            assert arr.shape == shapes.get(name, (m,)), name
        split = tree.kind == 1
        k = np.arange(split.sum())
        np.testing.assert_array_equal(tree.left[split], 2 * k + 1)
        np.testing.assert_array_equal(tree.right[split], 2 * k + 2)
        assert m == 2 * k.size + 1
        # a node's depth, from its parent's: never less than the last node's
        depth = np.zeros(m, dtype=np.int64)
        for nid in np.flatnonzero(split):
            depth[[tree.left[nid], tree.right[nid]]] = depth[nid] + 1
        assert (np.diff(depth) >= 0).all() and depth[-1] > 2
        assert (tree.features[split] >= 0).all()
        assert (tree.counts[split] == 0).all() and (tree.probs[split] == 0).all()
        leaf = ~split
        assert (tree.left[leaf] == -1).all() and (tree.right[leaf] == -1).all()
        assert (tree.features[leaf] == -1).all()
        assert (tree.projections[leaf] == 0).all() and (tree.thresholds[leaf] == 0).all()
        leaf_counts = tree.counts[leaf]
        np.testing.assert_array_equal(
            tree.probs[leaf], leaf_counts / leaf_counts.sum(axis=1, keepdims=True)
        )
        np.testing.assert_array_equal(leaf_counts.sum(axis=0), s.class_counts())

    def test_single_leaf(self):
        tree = FlatTree.from_columns([0], np.empty((0, 3)), np.empty((0, 3)), [], [[1, 1]])
        assert tree.n_nodes == 1
        assert tree.kind[0] == 0
        np.testing.assert_array_equal(tree.probs, [[0.5, 0.5]])


class TestTrainForest:
    def test_single_class_rejected(self):
        s = SampleSet(np.random.default_rng(0).normal(size=(10, 3)), np.zeros(10, int))
        with pytest.raises(DataError, match="degenerate labels"):
            train_forest(s)

    def test_more_than_two_classes_rejected(self):
        rng = np.random.default_rng(0)
        s = SampleSet(rng.normal(size=(12, 3)), np.arange(12) % 3, ("a", "b", "c"))
        with pytest.raises(DataError, match="exactly 2 classes, got 3"):
            train_forest(s)

    def test_too_few_samples(self):
        s = SampleSet(np.random.default_rng(0).normal(size=(3, 3)), np.array([0, 1, 0]))
        with pytest.raises(DataError, match="at least 4"):
            train_forest(s)

    def test_model_records_config(self):
        s = _blobs(30, 10, 6.0, np.random.default_rng(1))
        model = train_forest(s, TrainConfig(n_trees=3, seed=7))
        assert len(model.trees) == 3
        assert model.config.n_trees == 3
        assert all(t.features.shape[1] == 5 for t in model.trees)
        assert model.config.seed == 7
        assert model.n_bands == 10
        assert model.class_names == ("environment", "informal")
        # one format per release: a class constant, not a per-model field
        assert model.format_version == forest.MODEL_FORMAT_VERSION
        assert "format_version" not in {f.name for f in dataclasses.fields(CcfModel)}

    def test_identity_scaler_default(self):
        s = _blobs(20, 4, 6.0, np.random.default_rng(2))
        model = train_forest(s, TrainConfig(n_trees=2))
        np.testing.assert_array_equal(model.scaler.mean, np.zeros(4))
        np.testing.assert_array_equal(model.scaler.stddev, np.ones(4))

    def test_scaler_band_mismatch(self):
        s = _blobs(20, 4, 6.0, np.random.default_rng(3))
        bad = ColumnStats(np.zeros(3), np.ones(3))
        with pytest.raises(DataError, match="scaler"):
            train_forest(s, TrainConfig(n_trees=1), scaler=bad)

    def test_float32_set_grows_the_trees_of_its_float64_cast(self):
        s = _blobs(300, 6, 1.5, np.random.default_rng(13))
        pixels = SampleSet(s.features.astype(np.float32), s.labels)
        cast = SampleSet(pixels.features.astype(np.float64), s.labels)
        assert pixels.features.dtype == np.float32
        cfg = TrainConfig(n_trees=3, seed=5)
        _assert_same_trees(train_forest(pixels, cfg), train_forest(cast, cfg))

    def test_perfect_fit_on_separable_blobs(self):
        rng = np.random.default_rng(11)
        s = _blobs(1000, 10, 8.0, rng)
        assert _perceptron_separable(s.features, s.labels)
        model = train_forest(s, TrainConfig(n_trees=10, seed=0))
        pred = predict_class_batch(model, s.features)
        assert (pred == s.labels).all()

    def test_deterministic_rebuild(self):
        s = _blobs(60, 8, 3.0, np.random.default_rng(5))
        a = train_forest(s, TrainConfig(n_trees=5, seed=42))
        b = train_forest(s, TrainConfig(n_trees=5, seed=42))
        _assert_same_trees(a, b)

    def test_seed_changes_forest(self):
        s = _blobs(60, 8, 3.0, np.random.default_rng(6))
        a = train_forest(s, TrainConfig(n_trees=3, seed=0))
        b = train_forest(s, TrainConfig(n_trees=3, seed=1))
        same = all(
            ta.n_nodes == tb.n_nodes and np.array_equal(ta.thresholds, tb.thresholds)
            for ta, tb in zip(a.trees, b.trees)
        )
        assert not same

    def test_worker_count_does_not_change_model(self, monkeypatch):
        # overlapping blobs: deep trees of more than 500 nodes each
        s = _blobs(1500, 6, 1.0, np.random.default_rng(7))
        monkeypatch.setattr(forest, "_usable_cores", lambda: 3)  # unset runs 3 too
        monkeypatch.setenv("CCF_THREADS", "1")
        serial = train_forest(s, TrainConfig(n_trees=4, seed=9))
        assert min(t.n_nodes for t in serial.trees) > 500
        for threads in ("2", "3", None):
            if threads is None:
                monkeypatch.delenv("CCF_THREADS")
            else:
                monkeypatch.setenv("CCF_THREADS", threads)
            _assert_same_trees(serial, train_forest(s, TrainConfig(n_trees=4, seed=9)))

    def test_pool_receives_samples_once(self, monkeypatch):
        s = _blobs(300, 6, 3.0, np.random.default_rng(19))
        assert s.features.flags.c_contiguous
        initargs, task_bytes = _train_on_recorded_pool(s, monkeypatch)
        # a row-major set is handed over as one bands x rows copy
        [block] = [a for a in initargs if isinstance(a, np.ndarray) and a.ndim == 2]
        assert block.flags.c_contiguous and not np.shares_memory(block, s.features)
        np.testing.assert_array_equal(block, s.features.T)
        assert [a is s.labels for a in initargs].count(True) == 1
        # the 300 x 6 features alone pickle to over 14 KB
        assert task_bytes and max(task_bytes) < 1024

    def test_pool_receives_the_standardized_matrix_itself(self, monkeypatch):
        raw = _blobs(300, 6, 3.0, np.random.default_rng(19))
        # as the CLI builds its training set: standardized, column-major, taken over
        s = SampleSet(standardize(raw.features, fit_scaler(raw)), raw.labels, adopt=True)
        assert s.features.flags.f_contiguous
        initargs, _ = _train_on_recorded_pool(s, monkeypatch)
        # its bands x rows block is a view of the table, not a copy
        [block] = [a for a in initargs if isinstance(a, np.ndarray) and a.ndim == 2]
        assert block.flags.c_contiguous and block.base is s.features

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_count_rejected(self, monkeypatch, value):
        s = _blobs(20, 4, 6.0, np.random.default_rng(2))
        monkeypatch.setenv("CCF_THREADS", value)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(DataError, match="CCF_THREADS.*" + re.escape(repr(value))):
            train_forest(s, TrainConfig(n_trees=2))

    @pytest.mark.parametrize("value", [None, "", "  "])
    def test_unset_thread_count_means_all_cores(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("CCF_THREADS", raising=False)
        else:
            monkeypatch.setenv("CCF_THREADS", value)
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        assert _worker_count(10_000) == cores
        assert _worker_count(1) == 1

    def test_thread_count_above_the_cores_is_clamped(self, monkeypatch):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 3)
        monkeypatch.setenv("CCF_THREADS", "5000")
        assert _worker_count(10**6) == 3
        assert _worker_count(2) == 2

    def test_training_rows_reroute_to_their_leaves(self, monkeypatch):
        # a unit grid on a 2**48 offset: many rows share a projection, and
        # distinct projections lie a few ulps apart, so split midpoints
        # round onto a row's value and rows sit exactly on thresholds
        rng = np.random.default_rng(18)
        grid = rng.integers(0, 4, size=(400, 5))
        y = (grid[:, 0] + grid[:, 1] + rng.integers(0, 3, size=400) > 4).astype(np.int64)
        s = SampleSet(2.0**48 + grid, y)
        model = train_forest(s, TrainConfig(n_trees=6, seed=4))
        for cut in _ROUTING_CUTS:
            monkeypatch.setattr(forest, "_SMALL_NODE", cut)
            ties = 0
            for tree in model.trees:
                leaf, on_threshold = _route(tree, s.features)
                ties += on_threshold
                assert (leaf >= 0).all() and (tree.kind[leaf] == 0).all()
                tally = np.zeros_like(tree.counts)
                np.add.at(tally, (leaf, s.labels), 1)
                np.testing.assert_array_equal(tally, tree.counts)
            assert ties > 0


class TestLevelGrowth:
    """Each level of a tree draws from its own stream, keyed on (tree,
    level), and growth holds its rows as index segments."""

    def test_each_level_draws_features_in_node_order(self):
        s = _blobs(300, 6, 1.0, np.random.default_rng(22))
        cfg = TrainConfig(n_trees=3, seed=5)
        model = train_forest(s, cfg)
        fs = default_feature_subsample(6)
        checked = 0
        for i, tree in enumerate(model.trees):
            level, depth = np.array([0]), 0
            while level.size:
                split = tree.kind[level] == 1
                # a leaf tried a split, and found none, when it is mixed and big enough
                n = tree.counts[level]
                tried = split | ((n > 0).all(axis=1) & (n.sum(axis=1) >= 2 * cfg.min_node_size))
                seq = np.random.SeedSequence(cfg.seed, spawn_key=(0, i, depth))
                draw = np.random.default_rng(seq).random((np.count_nonzero(tried), 6))
                feats = np.sort(np.argsort(draw, axis=1)[:, :fs], axis=1)
                np.testing.assert_array_equal(tree.features[level[split]], feats[split[tried]])
                checked += np.count_nonzero(split)
                kids = tree.left[level[split]]
                level, depth = np.column_stack([kids, kids + 1]).ravel(), depth + 1
        assert checked == sum(int(t.kind.sum()) for t in model.trees) > 100

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_growth_peaks_under_three_times_the_features(self, order):
        # the block of a row-major (C) table is a copy, of a column-major
        # (F) one a view; either way growth allocates only its working set
        s = _blobs(20_000, 10, 3.0, np.random.default_rng(23))
        block = _block(np.asarray(s.features, order=order))
        cfg = TrainConfig()
        tracemalloc.start()
        try:
            tree = _build_tree(block, s.labels, cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.n_nodes > 1000
        assert peak <= 3 * block.nbytes

    def test_feature_layout_does_not_change_the_tree(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CCF_THREADS", "1")
        s = _blobs(2_000, 8, 1.5, np.random.default_rng(24))
        cfg = TrainConfig(n_trees=2, seed=3)
        f = SampleSet(np.asfortranarray(s.features), s.labels, adopt=True)
        assert s.features.flags.c_contiguous and f.features.flags.f_contiguous
        s_model, f_model = train_forest(s, cfg), train_forest(f, cfg)
        assert min(t.n_nodes for t in s_model.trees) > 100
        _assert_same_trees(s_model, f_model)
        a, b = (save_model(m, tmp_path / f"{i}.json") for i, m in enumerate([s_model, f_model]))
        assert open(a, "rb").read() == open(b, "rb").read()


_LARGE = forest._LARGE_NODE
_node_size = st.one_of(
    st.integers(1, 40),
    st.sampled_from([_LARGE - 1, _LARGE, _LARGE + 1]),
    st.integers(_LARGE, 2 * _LARGE),
)


class TestBootstrapDraw:
    """_draw serves each large node with a scalar bound and each run of
    smaller nodes with one per-row-bound call: the oracle's numbers, and
    the oracle's generator state after them."""

    @given(st.lists(_node_size, min_size=1, max_size=8), st.integers(0, 2**32))
    @example([3, 17, 2], 0)  # all small
    @example([_LARGE, _LARGE + 5, 2 * _LARGE], 1)  # all large
    @example([_LARGE + 9], 2)  # one node
    @example([_LARGE, 5, 9], 3)  # a large node first
    @example([5, 9, _LARGE], 4)  # a large node last
    @example([5, _LARGE, 9, 7, _LARGE - 1, _LARGE, 2], 5)  # large nodes between runs
    def test_equals_one_per_row_bound_call(self, sizes, seed):
        sizes = np.array(sizes)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = forest._draw(got_rng, sizes)
        want = want_rng.integers(0, np.repeat(sizes, sizes))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()


def _oblique(rng):
    """20k rows across an oblique plane, with label noise: nodes above
    _LARGE_NODE on five levels, beside small ones from the third on."""
    x = rng.normal(size=(20_000, 6))
    y = x @ rng.normal(size=6) + 0.5 * rng.normal(size=20_000) > 0
    return x, y.astype(np.int64)


def _overlapping(rng):
    """Two blobs half a standard deviation apart: deep trees of small
    nodes, some of whose bootstraps find no split."""
    s = _blobs(1_500, 8, 0.5, rng)
    return np.array(s.features), np.array(s.labels)


def _ties(rng):
    """Three values per column, one column constant: tied projections."""
    x = rng.integers(0, 3, size=(4_000, 6)).astype(np.float64)
    x[:, 2] = 1.0
    y = x[:, 0] + x[:, 1] + rng.integers(0, 2, size=4_000) > 2
    return x, y.astype(np.int64)


class TestLevelKernelReference:
    """Trees grown by the level kernel equal, byte for byte, those grown
    with tests/growth_reference.py's frozen copy of the kernel it
    replaced: per-row-bound draws, a two-index gather, a direction block
    and the by-node sort on every level, and a partition that copies the
    rows it keeps even when it keeps them all."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("make", [_oblique, _overlapping, _ties])
    def test_trees_equal_the_frozen_kernel(self, make, order, monkeypatch):
        self._equal_the_frozen_kernel(make, order, monkeypatch)

    @pytest.mark.parametrize("make", [_oblique, _overlapping, _ties])
    def test_blocked_trees_equal_the_frozen_kernel(self, make, monkeypatch):
        # the tier-1 sets take the large-node paths: node_moments' leaf by
        # leaf sums and _node_split's block by block search
        monkeypatch.setattr(forest, "_BLOCK", 64)
        monkeypatch.setattr(cca_module, "_SUM_LEAF", 128)
        moments, splits = [], []

        def spy_moments(cols, y, weights, node=forest.node_moments):
            moments.append(cols.shape[1])
            return node(cols, y, weights)

        def spy_split(z, y, split=forest._node_split):
            splits.append(z.size)
            return split(z, y)

        monkeypatch.setattr(forest, "node_moments", spy_moments)
        monkeypatch.setattr(forest, "_node_split", spy_split)
        self._equal_the_frozen_kernel(make, "C", monkeypatch)
        # nodes of several leaves and of several blocks
        assert max(moments) > 2 * 128 + 1 and max(splits) > 2 * 64

    @staticmethod
    def _equal_the_frozen_kernel(make, order, monkeypatch):
        # train_forest hands growth a copy of a C-ordered set, a view of an F one
        monkeypatch.setenv("CCF_THREADS", "1")
        x, y = make(np.random.default_rng(7))
        s = SampleSet(np.asarray(x, order=order), y, adopt=True)
        draws, retries, every_row_splits = [], [], []

        def spy_draw(rng, sizes, draw=forest._draw):
            draws.append(sizes)
            return draw(rng, sizes)

        def spy_split(*args, split=forest._split_nodes):
            retries.append(args[-1] is None)
            return split(*args)

        def spy_partition(rows, z, t, ok, sizes, partition=forest._partition):
            # a level of several nodes that every row reached, and all split
            every_row_splits.append(rows.size == len(y) and ok.size > 1 and ok.all())
            return partition(rows, z, t, ok, sizes)

        cfg = TrainConfig(n_trees=2, seed=3)
        with monkeypatch.context() as m:
            m.setattr(forest, "_draw", spy_draw)
            m.setattr(forest, "_split_nodes", spy_split)
            m.setattr(forest, "_partition", spy_partition)
            got = train_forest(s, cfg).trees

        def frozen_split(block, *args):  # the frozen kernel reads rows x bands
            return growth_reference._split_nodes(block.T, *args)

        monkeypatch.setattr(forest, "_split_nodes", frozen_split)
        monkeypatch.setattr(forest, "_partition", growth_reference._partition)
        want = train_forest(s, cfg).trees
        assert any(retries) and any(every_row_splits)
        if make is _oblique:
            large = [sizes for sizes in draws if (sizes >= _LARGE).any()]
            assert len(large) >= 4 and any((sizes < _LARGE).any() for sizes in large)
        for a, b in zip(got, want):
            assert a.n_nodes > 100
            for name in TREE_FIELDS:
                u, v = getattr(a, name), getattr(b, name)
                assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name


def _int64_segment_keys(sizes, step=1):
    return np.repeat(np.arange(0, step * sizes.size, step, dtype=np.int64), sizes)


class TestRadixKeys:
    """The segment sorts key on the smallest unsigned dtype that holds the
    largest key, which numpy sorts stably by radix from 8 and 16 bits.
    Around each dtype switch they equal a stable sort on int64 keys."""

    @pytest.mark.parametrize("m, dtype", [
        (255, np.uint8), (256, np.uint8), (257, np.uint16),
        (65_535, np.uint16), (65_536, np.uint16), (65_537, np.uint32),
    ])
    def test_key_dtype(self, m, dtype):
        assert forest._segment_keys(np.ones(m, dtype=np.int64)).dtype == dtype

    @pytest.mark.parametrize("m", [255, 256, 257, 65_535, 65_536, 65_537])
    def test_segment_splits_equal_int64_keys(self, m, monkeypatch):
        rng = np.random.default_rng(m)
        sizes = rng.integers(1, 5, size=m)
        starts = np.cumsum(sizes) - sizes
        z = rng.integers(0, 4, size=sizes.sum()).astype(np.float64)
        y = rng.integers(0, 2, size=z.size)
        got = forest._batched_splits(z, y, starts, sizes)
        monkeypatch.setattr(forest, "_segment_keys", _int64_segment_keys)
        want = forest._batched_splits(z, y, starts, sizes)
        assert (got[2] > 0).sum() > m // 4
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_split", [
        127, 128, 129, 255, 256, 257, 32_767, 32_768, 32_769, 65_535, 65_536, 65_537,
    ])
    def test_partition_equals_int64_keys(self, n_split):
        rng = np.random.default_rng(n_split)
        m = n_split + 3  # three nodes that do not split
        ok = np.ones(m, dtype=bool)
        ok[rng.choice(m, 3, replace=False)] = False
        sizes = rng.integers(2, 5, size=m)
        rows = np.sort(rng.choice(4 * sizes.sum(), sizes.sum(), replace=False))
        z = rng.integers(0, 4, size=rows.size).astype(np.float64)
        t = rng.integers(0, 3, size=m) + 0.5
        seg = np.repeat(np.arange(m), sizes)
        keep = ok[seg]
        key = (2 * seg + (z > t[seg]))[keep]
        want = rows[keep][np.argsort(key, kind="stable")]
        assert forest._partition(rows, z, t, ok, sizes).tobytes() == want.tobytes()


class TestPrediction:
    def test_single_leaf_passthrough(self):
        model = _leaf_model([[1, 3]])
        probs = predict_proba_batch(model, [[0.0, 0.0, 0.0]])[0]
        np.testing.assert_array_equal(probs, [0.25, 0.75])
        assert predict_class_batch(model, [[9.0, 9.0, 9.0]])[0] == 1

    def test_two_tree_average_and_tie(self):
        model = _leaf_model([[5, 0], [0, 5]])
        probs = predict_proba_batch(model, [[1.0, 2.0, 3.0]])[0]
        np.testing.assert_array_equal(probs, [0.5, 0.5])
        assert predict_class_batch(model, [[1.0, 2.0, 3.0]])[0] == 0  # tie -> lowest index

    def test_probs_sum_to_one(self):
        s = _blobs(80, 6, 2.0, np.random.default_rng(8))
        model = train_forest(s, TrainConfig(n_trees=5, seed=3))
        probs = predict_proba_batch(model, np.random.default_rng(9).normal(size=(40, 6)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_batch_equals_loop_bitwise(self):
        s = _blobs(60, 6, 2.5, np.random.default_rng(10))
        model = train_forest(s, TrainConfig(n_trees=4, seed=1))
        queries = np.random.default_rng(11).normal(size=(25, 6))
        batch = predict_proba_batch(model, queries)
        for i in range(len(queries)):
            single = predict_proba_batch(model, queries[i][None, :])[0]
            np.testing.assert_array_equal(batch[i], single)

    @given(_grid_problem())
    def test_batch_matches_scalar_walk(self, problem):
        grid, labels, k, queries, n_trees, seed = problem
        scaler = ColumnStats(grid.mean(axis=0), grid.std(axis=0))
        samples = SampleSet(standardize(grid, scaler), labels,
                            tuple(f"c{i}" for i in range(k)))
        with mock.patch.dict(os.environ, {"CCF_THREADS": "1"}):
            model = train_forest(samples, TrainConfig(n_trees=n_trees, seed=seed),
                                 scaler=scaler)
        rows = np.vstack([grid, queries])
        batch = predict_proba_batch(model, rows)
        for row, got in zip(rows, batch):
            expected = _scalar_proba(model, row)
            assert got.tobytes() == expected.tobytes()
            single = predict_proba_batch(model, row[None, :])[0]
            assert single.tobytes() == expected.tobytes()

    @given(_level_order_tree())
    def test_route_equals_a_walk_at_every_cut(self, problem):
        # any level-order shape, as load_model accepts them
        tree, children, rows, drawn_cut = problem
        split = np.flatnonzero(tree.kind)
        assert {nid: (tree.left[nid], tree.right[nid]) for nid in split} == children
        n_bands = rows.shape[1]
        loaded = model_io._parse_tree(model_io._tree_doc(tree, n_bands, "model"), 0,
                                      n_bands, tree.features.shape[1], "model")
        for name in TREE_FIELDS:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(tree, name))
        want = [_walk(tree, row) for row in rows.tolist()]
        cols = np.ascontiguousarray(rows.T)
        for cut in [*_ROUTING_CUTS, drawn_cut]:
            with mock.patch.object(forest, "_SMALL_NODE", cut):
                assert forest._route(tree, cols).tolist() == want
        # every split of more than drawn_cut rows projected drawn_cut rows at a time
        with mock.patch.object(forest, "_SMALL_NODE", 0), \
                mock.patch.object(forest, "_BLOCK", drawn_cut):
            assert forest._route(tree, cols).tolist() == want

    def test_route_derives_the_right_child(self, monkeypatch):
        # in level order a split's right child is left + 1: routing never reads right
        s = _blobs(300, 6, 1.0, np.random.default_rng(21))  # overlapping: deep trees
        model = train_forest(s, TrainConfig(n_trees=3, seed=4))
        cols = np.ascontiguousarray(s.features.T)
        for cut in _ROUTING_CUTS:
            monkeypatch.setattr(forest, "_SMALL_NODE", cut)
            for tree in model.trees:
                no_right = dataclasses.replace(tree, right=np.full_like(tree.right, -7))
                np.testing.assert_array_equal(forest._route(no_right, cols),
                                              forest._route(tree, cols))

    def test_float32_rows_equal_their_float64_values(self, monkeypatch):
        rng = np.random.default_rng(20)
        s = _blobs(80, 5, 2.0, rng)
        scaler = ColumnStats(rng.normal(size=5), np.array([0.5, 0.0, 2.0, 1e-13, 3.0]))
        model = train_forest(s, TrainConfig(n_trees=4, seed=5), scaler=scaler)
        rows = (3.0 * rng.normal(size=(200, 5))).astype(np.float32)
        blocks = []
        real_route = forest._route

        def capture_route(tree, cols):
            blocks.append(cols)
            return real_route(tree, cols)

        monkeypatch.setattr(forest, "_route", capture_route)
        got = predict_proba_batch(model, rows)
        # the routed block holds exactly what standardize gives the
        # float64 rows, laid out bands x rows
        want_block = standardize(rows.astype(np.float64), scaler).T
        assert blocks[0].flags.c_contiguous
        assert blocks[0].tobytes() == np.ascontiguousarray(want_block).tobytes()
        want = predict_proba_batch(model, rows.astype(np.float64))
        assert got.tobytes() == want.tobytes()
        for row, p in zip(rows[:20].astype(np.float64), got):
            assert p.tobytes() == _scalar_proba(model, row).tobytes()

    @staticmethod
    def _tie_model():
        """Three trees on 3 bands: two split at band 0 <= 0 and vote
        exactly [1, 0] and [0, 1] there, one is a [1, 1] leaf, so every
        row with band 0 <= 0 ties; the others get uneven sums, class 0
        winning where band 1 <= 0 and class 1 elsewhere."""
        bands, on_band = [0, 1, 2], np.eye(3)
        trees = [
            FlatTree.from_columns([1, 0, 0], [bands], on_band[:1], [0.0], [[4, 0], [1, 2]]),
            FlatTree.from_columns([1, 0, 1, 0, 0], [bands, bands], on_band[:2], [0.0, 0.0],
                                  [[0, 3], [7, 3], [1, 9]]),
            FlatTree.from_columns([0], np.empty((0, 3)), np.empty((0, 3)), [], [[1, 1]]),
        ]
        return dataclasses.replace(_leaf_model([[1, 1]]), trees=trees)

    def test_sums_add_leaf_rows_in_tree_order(self):
        model = self._tie_model()
        rows = np.random.default_rng(22).normal(size=(500, 3))
        want = np.zeros((500, 2))
        for tree in model.trees:
            want += tree.probs[forest._route(tree, np.ascontiguousarray(rows.T))]
        want /= len(model.trees)
        got = predict_proba_batch(model, rows)
        assert got.shape == (500, 2)
        assert got.tobytes() == want.tobytes()

    def test_tied_rows_take_class_zero(self):
        model = self._tie_model()
        values = np.random.default_rng(23).normal(size=(20, 25, 3)).astype(np.float32)
        rows = values.reshape(-1, 3)
        proba = predict_proba_batch(model, rows)
        tied = rows[:, 0] <= 0
        assert (proba[tied, 0] == proba[tied, 1]).all()
        want = np.where(tied, 0, (rows[:, 1] > 0).astype(np.intp))
        np.testing.assert_array_equal(proba.argmax(axis=1), want)
        classes = predict_class_batch(model, rows)
        assert classes.dtype == np.intp
        np.testing.assert_array_equal(classes, want)
        piece, p1 = forest._predict_piece(model, MultispectralRaster(values), 500, 0)
        np.testing.assert_array_equal(piece, want)
        assert p1.tobytes() == proba[:, 1].astype(np.float32).tobytes()

    def test_window_memory_per_routed_row(self):
        # a shallow 10-band forest, as on separable oblique tiles: splits
        # below the root still hold tens of thousands of rows. The float64
        # bands x rows block alone is 80 B/row, and standardize peaks at
        # about 90; holding a split's five gathered columns at once, or
        # summing (rows, 2) leaf gathers, takes routing to about 170
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8000, 10))
        model = train_forest(SampleSet(x, (x[:, 0] + x[:, 1] > 0).astype(np.int64)),
                             TrainConfig(n_trees=5, seed=6))
        n = 1 << 17
        held = [rng.normal(size=(n, 10)).astype(np.float32)]
        tracemalloc.start()
        try:
            predict_proba_batch(model, held.pop())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 155

    def test_non_finite_rows_rejected(self):
        model = _leaf_model([[1, 1]], n_bands=3)
        rows = np.ones((4, 3), dtype=np.float32)
        rows[2, 1] = np.nan
        with pytest.raises(DataError, match="row 2, column 1"):
            predict_proba_batch(model, rows)

    def test_wrong_band_count(self):
        model = _leaf_model([[1, 1]], n_bands=3)
        with pytest.raises(DataError, match="3"):
            predict_proba_batch(model, np.array([1.0, 2.0])[None, :])
        with pytest.raises(DataError, match="3"):
            predict_proba_batch(model, np.ones((4, 2)))


class TestBlockedRouting:
    """A split that more than forest._BLOCK rows reach projects them one
    block at a time, reading the all-rows root's columns in place and
    gathering a partial node's: the leaves and probability bytes of one
    block, with a short last block or not."""

    @staticmethod
    def _model(separation):
        # separation 0.5 grows trees to purity; 4 grows shallow ones
        s = _blobs(400, 5, separation, np.random.default_rng(30))
        return train_forest(s, TrainConfig(n_trees=3, seed=6))

    @pytest.mark.parametrize("block", [5, 64, 1000])
    @pytest.mark.parametrize("separation", [0.5, 4.0], ids=["deep", "shallow"])
    def test_blocks_equal_one_block(self, monkeypatch, block, separation):
        model = self._model(separation)
        rows = 2.0 * np.random.default_rng(31).normal(size=(2_777, 5))
        cols = standardize(rows, model.scaler).T
        monkeypatch.setattr(forest, "_BLOCK", rows.shape[0])
        want_leaves = [forest._route(tree, cols) for tree in model.trees]
        want = predict_proba_batch(model, rows)
        blocked = []

        def spy(cols, idx, *args, go_left=forest._blocked_go_left):
            blocked.append((idx.size == cols.shape[1], idx.size))
            return go_left(cols, idx, *args)

        monkeypatch.setattr(forest, "_blocked_go_left", spy)
        monkeypatch.setattr(forest, "_BLOCK", block)
        for tree, leaf in zip(model.trees, want_leaves):
            assert forest._route(tree, cols).tobytes() == leaf.tobytes()
        assert predict_proba_batch(model, rows).tobytes() == want.tobytes()
        assert (True, rows.shape[0]) in blocked  # the root, in place
        # a partial node over several blocks, the last of them short
        assert any(not root and size % block for root, size in blocked)

    def test_pooled_raster_equals_serial(self, monkeypatch):
        model = self._model(0.5)
        values = np.random.default_rng(32).normal(size=(40, 50, 5)).astype(np.float32)
        raster = MultispectralRaster(values)
        monkeypatch.setenv("CCF_THREADS", "1")
        want_mask, want_prob = predict_raster(model, raster)
        monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setattr(forest, "_BLOCK", 64)  # windows of 1,000 rows: 15 blocks and 40 rows
        monkeypatch.setenv("CCF_THREADS", "2")
        pools = []
        real_pool = futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", counting_pool)
        mask, prob = predict_raster(model, raster)
        assert pools == [2]
        assert mask.tobytes() == want_mask.tobytes()
        assert prob.tobytes() == want_prob.tobytes()


class TestPredictRaster:
    def _model(self):
        s = _blobs(60, 4, 4.0, np.random.default_rng(12))
        return train_forest(s, TrainConfig(n_trees=3, seed=2))

    def test_single_pixel_matches_direct_call(self):
        model = self._model()
        values = np.random.default_rng(13).normal(size=(1, 1, 4)).astype(np.float32)
        mask, prob = predict_raster(model, MultispectralRaster(values))
        direct = predict_proba_batch(model, values[0, 0].astype(np.float64)[None, :])[0]
        assert mask.shape == (1, 1) and prob.shape == (1, 1)
        assert mask[0, 0] == np.argmax(direct)
        assert prob[0, 0] == np.float32(direct[1])

    def test_all_nodata(self):
        model = self._model()
        values = np.zeros((3, 4, 4), dtype=np.float32)
        mask, prob = predict_raster(model, MultispectralRaster(values, nodata=0.0))
        assert (mask == 255).all()
        assert (prob == -1.0).all()

    def test_grid_matches_pixel_loop(self):
        model = self._model()
        rng = np.random.default_rng(14)
        values = rng.normal(size=(16, 16, 4)).astype(np.float32)
        values[3, 5, 2] = -7.0  # nodata hit on one band
        raster = MultispectralRaster(values, nodata=-7.0)
        mask, prob = predict_raster(model, raster)
        for i in range(16):
            for j in range(16):
                if (values[i, j] == -7.0).any():
                    assert mask[i, j] == 255
                    assert prob[i, j] == -1.0
                else:
                    row = values[i, j].astype(np.float64)[None, :]
                    p = predict_proba_batch(model, row)[0]
                    assert mask[i, j] == np.argmax(p)
                    assert prob[i, j] == np.float32(p[1])

    def _gappy_raster(self):
        """13 x 11 pixels; every fifth pixel from the fourth on has one
        band at nodata, which leaves 115 valid pixels."""
        values = np.random.default_rng(17).normal(size=(13, 11, 4)).astype(np.float32)
        flat = values.reshape(-1, 4)
        for p in range(3, flat.shape[0], 5):
            flat[p, p % 4] = -7.0
        return MultispectralRaster(values, nodata=-7.0)

    @pytest.mark.parametrize("threads,cut,from_file", [
        pytest.param(threads, cut, from_file,
                     id=str(threads) + suffix + ("-file" if from_file else ""))
        for from_file in [False, True]
        for cut, suffix in _ROUTING_CUTS.items() for threads in ["1", "2", "3", None, "5000"]
    ])
    def test_outputs_identical_across_worker_counts(self, monkeypatch, tmp_path, threads, cut,
                                                    from_file):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 3)  # unset and 5000 run 3
        model = self._model()
        raster = self._gappy_raster()
        want_mask, want_prob = predict_raster(model, raster)  # serial, one piece, in memory
        if from_file:  # each window then reads its pixels from the file
            write_raster(MultispectralRaster(raster.values, raster.nodata), tmp_path / "g")
            raster = open_raster(tmp_path / "g.json")

        monkeypatch.setattr(forest, "_SMALL_NODE", cut)
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 39)
        if threads is None:
            monkeypatch.delenv("CCF_THREADS", raising=False)
        else:
            monkeypatch.setenv("CCF_THREADS", threads)
        pools = []
        real_pool = futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", counting_pool)
        mask, prob = predict_raster(model, raster)

        workers = forest._worker_count(10**6)
        assert pools == ([] if workers == 1 else [workers])
        # _PREDICT_CHUNK 39 gives windows of 36 pixels (one or two workers) or
        # 48 (three); every stretch of 39 pixels, and so every window, holds
        # nodata pixels and valid ones
        windows = (want_mask.ravel() == 255)[: 3 * 39].reshape(3, 39)
        assert windows.any(axis=1).all() and (~windows).any(axis=1).all()
        assert mask.tobytes() == want_mask.tobytes()
        assert prob.tobytes() == want_prob.tobytes()

    def _windowed_raster(self):
        """12 x 13 pixels, four windows of 39: all nodata, all valid, then
        two with every fifth pixel at nodata."""
        values = np.random.default_rng(18).normal(size=(12, 13, 4)).astype(np.float32)
        flat = values.reshape(-1, 4)
        flat[:39, 1] = -7.0
        flat[78::5, 3] = -7.0
        return MultispectralRaster(values, nodata=-7.0)

    def test_all_nodata_and_all_valid_windows(self, monkeypatch):
        model = self._model()
        raster = self._windowed_raster()
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 39)
        monkeypatch.setenv("CCF_THREADS", "1")
        want_mask, want_prob = predict_raster(model, raster)
        assert (want_mask.ravel()[:39] == 255).all() and (want_prob.ravel()[:39] == -1).all()
        assert (want_mask.ravel()[39:78] != 255).all()

        monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setenv("CCF_THREADS", "2")
        mask, prob = predict_raster(model, raster)
        assert mask.tobytes() == want_mask.tobytes()
        assert prob.tobytes() == want_prob.tobytes()

    def test_windows_route_their_valid_pixels_through_standardize(self, monkeypatch):
        model = self._model()
        raster = self._windowed_raster()
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 39)
        batches, standardized = [], []
        real_batch, real_standardize = forest.predict_proba_batch, forest.standardize

        def capture_batch(model, spectra):
            batches.append((len(spectra), np.shares_memory(spectra, raster.values)))
            return real_batch(model, spectra)

        def counting_standardize(m, stats):
            standardized.append(len(m))
            return real_standardize(m, stats)

        monkeypatch.setattr(forest, "predict_proba_batch", capture_batch)
        monkeypatch.setattr(forest, "standardize", counting_standardize)
        predict_raster(model, raster)
        # the all-nodata window is not routed; the all-valid one is a view
        # of the raster, the others copies of their valid pixels
        assert batches == [(39, True), (31, False), (31, False)]
        assert standardized == [39, 31, 31]

    def test_file_windows_bound_memory(self, tmp_path, monkeypatch):
        s = _blobs(60, 8, 4.0, np.random.default_rng(19))
        model = train_forest(s, TrainConfig(n_trees=3, seed=2))
        values = np.random.default_rng(20).normal(size=(512, 512, 8)).astype(np.float32)
        write_raster(MultispectralRaster(values), tmp_path / "big")
        payload = values.nbytes
        del values
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 4096)
        monkeypatch.setenv("CCF_THREADS", "1")

        def peak(load):
            tracemalloc.start()
            try:
                predict_raster(model, load(tmp_path / "big.json"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the raster read whole holds the payload; windows read from the file do not
        assert peak(open_raster) < 0.25 * payload < payload < peak(read_raster)

    @pytest.mark.parametrize("side,threads,workers,windows", [
        (1024, "2", 2, [65_536] * 16),
        (384, "2", 2, [73_728] * 2),  # rounded to nearest: not 65,536 + 65,536 + 16,384
        (512, "2", 2, [65_536] * 4),
        (64, "1", 1, [4_096]),
        (64, "2", 1, [4_096]),  # below _FANOUT_FLOOR: serial whatever CCF_THREADS says
    ])
    def test_window_layout(self, monkeypatch, side, threads, workers, windows):
        """The windows predict_raster hands _fan_out, read from a stand-in
        that records them and returns nodata windows without routing."""
        model = self._model()
        monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
        monkeypatch.setenv("CCF_THREADS", threads)
        n, seen = side * side, []

        def record(fn, inputs, tasks, n_workers):
            size = inputs[2]
            seen.append(n_workers)
            for start in tasks:
                m = min(size, n - start)
                seen.append(m)
                yield np.full(m, 255, np.uint8), np.full(m, -1, np.float32)

        monkeypatch.setattr(forest, "_fan_out", record)
        raster = MultispectralRaster(np.zeros((side, side, 4), np.float32))
        mask, prob = predict_raster(model, raster)
        assert seen == [workers] + windows
        assert (mask == 255).all() and (prob == -1).all()

    @given(st.integers(1, 10**9), st.integers(1, 64))
    def test_windows_are_bounded_and_shared_evenly(self, n, workers):
        size = forest._window_size(n, workers)
        count = math.ceil(n / size)
        assert size <= 1.5 * forest._PREDICT_CHUNK  # as the window count is the nearest
        if n >= workers * forest._PREDICT_CHUNK:
            assert count % workers == 0  # every worker routes as many windows
        else:
            assert count <= workers  # one window each, or fewer

    def test_default_windows_bound_memory(self, tmp_path, monkeypatch):
        """predict on a 512^2 x 10 raster read from its file, serially: four
        windows of 65,536 pixels peak about 8.8 MiB above the outputs (about
        140 B per window pixel). One window of 262,144 pixels peaked 34 MiB."""
        s = _blobs(60, 10, 4.0, np.random.default_rng(21))
        model = train_forest(s, TrainConfig(n_trees=3, seed=2))
        values = np.random.default_rng(22).normal(size=(512, 512, 10)).astype(np.float32)
        write_raster(MultispectralRaster(values), tmp_path / "big")
        del values
        monkeypatch.setenv("CCF_THREADS", "1")
        raster = open_raster(tmp_path / "big.json")
        tracemalloc.start()
        try:
            predict_raster(model, raster)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = 512 * 512 * (1 + 4)  # the uint8 mask and float32 probabilities
        assert peak - outputs < 12 * 2**20

    @pytest.mark.parametrize("threads", ["2", None])
    def test_small_raster_builds_no_pool(self, monkeypatch, threads):
        model = self._model()
        raster = self._gappy_raster()
        if threads is None:
            monkeypatch.delenv("CCF_THREADS", raising=False)
        else:
            monkeypatch.setenv("CCF_THREADS", threads)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        mask, _ = predict_raster(model, raster)
        assert mask.size == 143 < forest._FANOUT_FLOOR

    def test_worker_error_propagates(self, monkeypatch):
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 39)
        monkeypatch.setenv("CCF_THREADS", "2")

        def failing_batch(model, spectra):
            raise DataError("piece failed")

        monkeypatch.setattr(forest, "predict_proba_batch", failing_batch)
        with pytest.raises(DataError, match="piece failed"):
            predict_raster(self._model(), self._gappy_raster())

    def test_band_mismatch(self):
        model = self._model()
        with pytest.raises(DataError, match="band mismatch"):
            predict_raster(model, MultispectralRaster(np.zeros((2, 2, 5), np.float32)))


class TestFanOut:
    """_fan_out on a stand-in pool (conftest.stand_in_pool) that runs each
    task when its result is read and logs every submit and cancel."""

    @staticmethod
    def _submitted(log):
        return [task for what, task in log if what == "submit"]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_two_tasks_per_worker_ahead_in_task_order(self, stand_in_pool, workers):
        results = forest._fan_out(lambda scale, task: scale * task, (10,), range(20), workers)
        for i, result in enumerate(results):
            assert result == 10 * i  # task order
            # the tasks after the one yielded: 2 * workers, fewer at the end
            assert self._submitted(stand_in_pool) == list(range(min(20, i + 1 + 2 * workers)))
        assert i == 19

    def test_closing_early_submits_no_more_and_cancels_the_rest(self, stand_in_pool):
        results = forest._fan_out(lambda scale, task: scale * task, (1,), range(20), 2)
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        results.close()  # as a consumer does whose write failed
        assert self._submitted(stand_in_pool) == list(range(7))
        assert [task for what, task in stand_in_pool if what == "cancel"] == [3, 4, 5, 6]

    def test_predict_windows_closed_early_stops_the_pool(self, stand_in_pool, monkeypatch):
        model = TestPredictRaster()._model()
        stand_in_pool.clear()  # training's trees
        monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 16)
        monkeypatch.setenv("CCF_THREADS", "2")
        raster = MultispectralRaster(np.zeros((16, 16, 4), np.float32), nodata=0.0)
        windows = forest.predict_windows(model, raster)
        assert next(windows)[0] == 0
        windows.close()
        assert self._submitted(stand_in_pool) == [0, 16, 32, 48, 64]  # of 16 windows
        assert [task for what, task in stand_in_pool if what == "cancel"] == [16, 32, 48, 64]


class TestSeedStability:
    def test_predictions_mostly_agree_across_seeds(self):
        rng = np.random.default_rng(15)
        train = _blobs(400, 10, 5.0, rng)
        queries = _blobs(800, 10, 5.0, np.random.default_rng(16))
        a = train_forest(train, TrainConfig(n_trees=50, seed=100))
        b = train_forest(train, TrainConfig(n_trees=50, seed=200))
        pa = predict_class_batch(a, queries.features)
        pb = predict_class_batch(b, queries.features)
        agreement = (pa == pb).mean()
        assert agreement >= 0.98
