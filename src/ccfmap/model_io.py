"""The model file, format ccf-1: one JSON document with the two class
names, the scaler, the training config and every tree as a flat node
list.

save_model writes it through raster_io._write_atomic and load_model
reads it through raster_io._load_json, so every file the package writes
or reads goes through one atomic writer and one JSON reader. load_model
checks each field of every tree, and the scaler, as one array with
_column, the one judge of what a valid model number is, and rejects a
malformed model with a DataError instead of predicting from it.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .cca import ColumnStats
from .errors import DataError, is_int
from .forest import MODEL_FORMAT_VERSION, CcfModel, FlatTree, TrainConfig
from .forest import default_feature_subsample
from .raster_io import _load_json, _write_atomic


def save_model(model: CcfModel, path) -> str:
    """Serialize a trained model to one JSON document (full float
    precision; floats round-trip exactly), written atomically; returns
    the path."""
    head = _dumps({
        "format_version": model.format_version,
        "n_bands": model.n_bands,
        "class_names": list(model.class_names),
        "scaler": {
            "mean": [float(v) for v in model.scaler.mean],
            "stddev": [float(v) for v in model.scaler.stddev],
        },
        "config": _config_doc(model.config, model.n_bands),
    })

    def chunks():
        # "trees" is the last key; encoding one tree at a time keeps a
        # single tree's text in memory, not the whole document's
        yield (head[:-1] + ',"trees":[').encode()
        for i, tree in enumerate(model.trees):
            yield (("," if i else "") + _dumps(_tree_doc(tree))).encode()
        yield b"]}\n"

    return _write_atomic(path, chunks())


def _config_doc(cfg: TrainConfig, n_bands: int) -> dict:
    """A model's config block: cfg's settings and, in their places, the
    fixed growth settings a model over n_bands bands was grown with."""
    return {
        "n_trees": cfg.n_trees,
        "min_node_size": TrainConfig.min_node_size,
        "max_depth": cfg.max_depth,
        "feature_subsample": default_feature_subsample(n_bands),
        "gamma": TrainConfig.gamma,
        "seed": cfg.seed,
    }


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def _tree_doc(tree: FlatTree) -> dict:
    kind = tree.kind.tolist()
    features = tree.features.tolist()
    projections = tree.projections.tolist()
    thresholds = tree.thresholds.tolist()
    left = tree.left.tolist()
    right = tree.right.tolist()
    counts = tree.counts.tolist()
    nodes = []
    for i in range(tree.n_nodes):
        if kind[i] == 1:
            nodes.append(
                {
                    "kind": "split",
                    "feature_indices": features[i],
                    "projection": projections[i],
                    "threshold": thresholds[i],
                    "left": left[i],
                    "right": right[i],
                }
            )
        else:
            nodes.append({"kind": "leaf", "class_counts": counts[i]})
    return {"nodes": nodes}


def _expect(cond: bool, msg: str):
    if not cond:
        raise DataError(msg)


def load_model(path) -> CcfModel:
    """Parse and structurally validate a saved model. _parse_tree checks
    each field of a tree as one array, so past JSON decoding a tree costs
    a few numpy calls per field, not Python work per value."""
    p = os.fspath(path)
    doc = _load_json(p)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"{p}: unsupported model format_version {version!r}, "
            f"expected {MODEL_FORMAT_VERSION!r}"
        )
    n_bands = doc.get("n_bands")
    _expect(
        is_int(n_bands) and n_bands >= 1,
        f"{p}: n_bands must be a positive integer",
    )
    class_names = doc.get("class_names")
    _expect(
        isinstance(class_names, list) and len(class_names) == 2
        and all(isinstance(c, str) for c in class_names),
        f"{p}: class_names must list 2 strings",
    )

    scaler_doc = doc.get("scaler")
    _expect(isinstance(scaler_doc, dict), f"{p}: missing scaler")
    scaler = ColumnStats(*(
        _column([scaler_doc.get(key)], n_bands, f"scaler.{key}", np.float64, p)[0]
        for key in ColumnStats._fields
    ))
    _expect(
        bool((scaler.stddev >= 0).all()), f"{p}: scaler.stddev must be >= 0"
    )

    cfg_doc = doc.get("config")
    _expect(isinstance(cfg_doc, dict), f"{p}: missing config")
    try:
        config = TrainConfig(
            n_trees=cfg_doc.get("n_trees"),
            max_depth=cfg_doc.get("max_depth"),
            seed=cfg_doc.get("seed"),
        )
    except DataError as exc:
        raise DataError(f"{p}: bad config: {exc}") from exc
    # the fixed settings hold exactly the values save_model writes, type too
    for key, want in _config_doc(config, n_bands).items():
        got = cfg_doc.get(key)
        _expect(
            type(got) is type(want) and got == want,
            f"{p}: bad config: {key} must be {want!r}, got {got!r}",
        )

    trees_doc = doc.get("trees")
    _expect(
        isinstance(trees_doc, list) and len(trees_doc) == config.n_trees,
        f"{p}: expected {config.n_trees} tree(s) per config",
    )
    fs = default_feature_subsample(n_bands)
    trees = [_parse_tree(t, i, n_bands, fs, p) for i, t in enumerate(trees_doc)]
    return CcfModel(
        trees=trees,
        scaler=scaler,
        n_bands=n_bands,
        class_names=tuple(class_names),
        config=config,
        format_version=version,
    )


def _column(values, width, name, dtype, where) -> np.ndarray:
    """One field of many nodes as an array: values holds a number per
    node (width None) or a list of width numbers per node (the scaler's
    mean or stddev is one such list). An index or a count is an int (a
    bool is no number); a real is an int or a float."""
    noun = "int64 integers" if dtype is np.int64 else "finite numbers"
    if width is not None:
        _expect(
            set(map(type, values)) <= {list} and set(map(len, values)) <= {width},
            f"{where}: each {name} must be a list of {width} {noun}",
        )
        values = list(itertools.chain.from_iterable(values))
    types = {int} if dtype is np.int64 else {int, float}
    try:
        out = np.array(values, dtype=dtype) if set(map(type, values)) <= types else None
    except OverflowError:  # an int beyond int64, or beyond the float range
        out = None
    _expect(
        out is not None and (dtype is np.int64 or bool(np.isfinite(out).all())),
        f"{where}: {name} values must be {noun}",
    )
    return out if width is None else out.reshape(-1, width)


def _no_bad_node(bad, ids, where, what):
    """Raise what for the first node of ids where bad holds, if any does."""
    if bad.any():
        raise DataError(f"{where} node {ids[int(np.argmax(bad))]}: {what}")


def _parse_tree(doc, tree_index: int, n_bands: int, fs: int, path) -> FlatTree:
    """One tree of a ccf-1 document as a FlatTree. Per node this only
    pulls the fields out of its object; each field is then checked for
    every node at once, as an array."""
    where = f"{path}: tree {tree_index}"
    _expect(isinstance(doc, dict), f"{where} must be an object")
    nodes = doc.get("nodes")
    _expect(isinstance(nodes, list) and len(nodes) >= 1, f"{where}: empty node list")
    m = len(nodes)
    split_at, feats, projs, thrs, lefts, rights = [], [], [], [], [], []
    leaf_at, tallies = [], []
    for i, nd in enumerate(nodes):
        _expect(isinstance(nd, dict), f"{where} node {i} must be an object")
        kind = nd.get("kind")
        if kind == "split":
            split_at.append(i)
            feats.append(nd.get("feature_indices"))
            projs.append(nd.get("projection"))
            thrs.append(nd.get("threshold"))
            lefts.append(nd.get("left"))
            rights.append(nd.get("right"))
        elif kind == "leaf":
            leaf_at.append(i)
            tallies.append(nd.get("class_counts"))
        else:
            raise DataError(f"{where} node {i}: unknown node kind {kind!r}")

    features = np.full((m, fs), -1, dtype=np.int64)
    projections, thresholds = np.zeros((m, fs)), np.zeros(m)
    left, right = np.full((2, m), -1, dtype=np.int64)
    counts = np.zeros((m, 2), dtype=np.int64)
    f = _column(feats, fs, "feature_indices", np.int64, where)
    _no_bad_node(((f < 0) | (f >= n_bands)).any(axis=1), split_at, where,
                 f"feature index out of range [0, {n_bands})")
    features[split_at] = f
    projections[split_at] = _column(projs, fs, "projection", np.float64, where)
    thresholds[split_at] = _column(thrs, None, "threshold", np.float64, where)
    for name, values, out in (("left", lefts, left), ("right", rights, right)):
        child = _column(values, None, name, np.int64, where)
        _no_bad_node((child < 0) | (child >= m), split_at, where,
                     f"{name} child index out of range [0, {m})")
        out[split_at] = child
    tally = _column(tallies, 2, "class_counts", np.int64, where)
    _no_bad_node((tally < 0).any(axis=1), leaf_at, where, "negative class count")
    _no_bad_node((tally == 0).all(axis=1), leaf_at, where, "leaf class_counts all zero")
    # the tree stores counts and their sum as int64
    _no_bad_node(tally[:, 0] > np.iinfo(np.int64).max - tally[:, 1], leaf_at, where,
                 "leaf class_counts sum beyond int64")
    counts[leaf_at] = tally

    # every node reachable from the root exactly once: each is referenced
    # once (the root by the tree itself), and none sits in a detached cycle
    refs = np.bincount(np.concatenate(([0], left[split_at], right[split_at])), minlength=m)
    _expect(not (refs > 1).any(),
            f"{where}: node {int(np.argmax(refs > 1))} referenced more than once")
    reached, level = 1, np.zeros(1, dtype=np.int64)
    while level.size:  # ends, as no node has two parents and none the root
        level = level[left[level] >= 0]
        level = np.concatenate((left[level], right[level]))
        reached += level.size
    _expect(reached == m, f"{where}: {m - reached} unreachable node(s)")
    return FlatTree.from_rows(features, projections, thresholds, left, right, counts)
