"""The model file, format ccf-3: one JSON document with the two class
names, the scaler, the training config and every tree as binary columns.

A tree entry holds its node count and the columns kind (|u1: 1 split,
0 leaf), features (the smallest unsigned dtype that holds n_bands - 1),
projections and thresholds (<f8) of the split nodes, and class_counts
(the smallest unsigned dtype that holds the largest count) of the
leaves, in FlatTree's level order, which implies every child id. A column
is {"dtype", "shape", "data"}, data being base64 of its little-endian
bytes. The arrays stay in the one file, so a model is one path to size,
copy or replace atomically.

Both directions go through raster_io's one atomic writer and one JSON
reader. save_model refuses a value its column would not hold exactly (a
NaN threshold, a negative count) before it writes anything. load_model
takes only the dtypes above and checks each column's byte length against
its shape and the node count before it reads a value, then every field
of a tree as one array; a malformed model raises a DataError.
"""

from __future__ import annotations

import base64
import json
import math
import os

import numpy as np

from .cca import ColumnStats
from .errors import DataError, is_int, is_real
from .forest import MODEL_FORMAT_VERSION, CcfModel, FlatTree, TrainConfig
from .forest import default_feature_subsample
from .raster_io import _load_json, _write_atomic

_UINTS = ("|u1", "<u2", "<u4", "<u8")


def save_model(model: CcfModel, path) -> str:
    """Serialize a trained model to one JSON document (floats keep every
    bit), written atomically; returns the path."""
    p = os.fspath(path)
    doc = {
        "format_version": model.format_version,
        "n_bands": model.n_bands,
        "class_names": list(model.class_names),
        "scaler": {key: [float(v) for v in getattr(model.scaler, key)]
                   for key in ColumnStats._fields},
        "config": _config_doc(model.config, model.n_bands),
        "trees": [_tree_doc(tree, model.n_bands, f"{p}: tree {i}")
                  for i, tree in enumerate(model.trees)],
    }
    return _write_atomic([(p, (_dumps(doc) + "\n").encode())])[0]


def _config_doc(cfg: TrainConfig, n_bands: int) -> dict:
    """A model's config block: cfg's settings and, in their places, the
    fixed growth settings a model over n_bands bands was grown with."""
    return {
        "n_trees": cfg.n_trees,
        "min_node_size": TrainConfig.min_node_size,
        "max_depth": TrainConfig.max_depth,
        "feature_subsample": default_feature_subsample(n_bands),
        "gamma": TrainConfig.gamma,
        "seed": cfg.seed,
    }


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def _uint(top: int) -> str:
    """The smallest unsigned dtype that holds 0..top."""
    return next(t for t in _UINTS if top <= np.iinfo(t).max)


def _tree_doc(tree: FlatTree, n_bands: int, where: str) -> dict:
    split, leaf = tree.kind == 1, tree.kind == 0
    counts = tree.counts[leaf]
    columns = {
        "kind": (tree.kind, "|u1"),
        "features": (tree.features[split], _uint(n_bands - 1)),
        "projections": (tree.projections[split], "<f8"),
        "thresholds": (tree.thresholds[split], "<f8"),
        "class_counts": (counts, _uint(int(counts.max(initial=0)))),
    }
    return {"nodes": tree.n_nodes, **{
        name: _encode(values, dtype, name, where) for name, (values, dtype) in columns.items()
    }}


def _encode(values: np.ndarray, dtype: str, name: str, where: str) -> dict:
    """values as a column of dtype. Casting wraps integers and keeps NaN,
    so a value the column would not hold exactly raises a DataError."""
    out = values.astype(dtype)
    _expect(
        np.array_equal(out, values) and bool(np.isfinite(out).all()),
        f"{where}: {name} values must be finite and fit {dtype}",
    )
    return {"dtype": dtype, "shape": list(out.shape),
            "data": base64.b64encode(out.tobytes()).decode("ascii")}


def _expect(cond: bool, msg: str):
    if not cond:
        raise DataError(msg)


def load_model(path) -> CcfModel:
    """Parse and structurally validate a saved model. _parse_tree checks
    each field of a tree as one array, so past JSON decoding a tree costs
    a few numpy calls per column, not Python work per value."""
    p = os.fspath(path)
    doc = _load_json(p, "model")
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
    for key in ColumnStats._fields:
        values = scaler_doc.get(key)
        _expect(isinstance(values, list) and len(values) == n_bands
                and all(map(is_real, values)),
                f"{p}: scaler.{key} must be a list of {n_bands} finite numbers")
    scaler = ColumnStats(*(np.array(scaler_doc[k], dtype=np.float64) for k in ColumnStats._fields))
    _expect(bool((scaler.stddev >= 0).all()), f"{p}: scaler.stddev must be >= 0")

    cfg_doc = doc.get("config")
    _expect(isinstance(cfg_doc, dict), f"{p}: missing config")
    try:
        config = TrainConfig(n_trees=cfg_doc.get("n_trees"), seed=cfg_doc.get("seed"))
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
    )


def _array(doc: dict, name: str, dtypes, shape: list, where: str) -> np.ndarray:
    """Column name of a tree entry as a read-only array of one of dtypes,
    of the given shape and from exactly the bytes it needs; the sizes are
    compared as Python ints, so no shape reaches numpy unchecked."""
    col = doc.get(name)
    _expect(isinstance(col, dict), f"{where}: {name} must be a column object")
    dtype, dims, data = col.get("dtype"), col.get("shape"), col.get("data")
    _expect(dtype in dtypes,
            f"{where}: {name} dtype must be one of {', '.join(dtypes)}, got {dtype!r}")
    _expect(isinstance(dims, list) and all(map(is_int, dims)) and dims == shape,
            f"{where}: {name} shape must be {shape}, got {dims!r}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:  # no string, no ASCII, or no base64
        raise DataError(f"{where}: {name} data is not base64: {exc}") from exc
    size = math.prod(shape) * np.dtype(dtype).itemsize
    _expect(len(raw) == size,
            f"{where}: {name} holds {len(raw)} bytes, its shape needs {size}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _no_bad_node(bad, ids, where, what):
    """Raise what for the first node of ids where bad holds, if any does."""
    if bad.any():
        raise DataError(f"{where} node {ids[int(np.argmax(bad))]}: {what}")


def _parse_tree(doc, tree_index: int, n_bands: int, fs: int, path) -> FlatTree:
    """One tree of a ccf-3 document as a FlatTree. Each column is checked
    for its dtype and byte length, then each field for every node at
    once, as an array."""
    where = f"{path}: tree {tree_index}"
    _expect(isinstance(doc, dict), f"{where} must be an object")
    m = doc.get("nodes")
    _expect(is_int(m) and m >= 1, f"{where}: nodes must be a positive integer")
    kind = _array(doc, "kind", ("|u1",), [m], where)
    _no_bad_node(kind > 1, range(m), where, "kind must be 0 (leaf) or 1 (split)")
    split_at, leaf_at = np.flatnonzero(kind), np.flatnonzero(kind == 0)
    s = split_at.size
    # with these two, node j > 0 has one parent, split (j - 1) // 2, at an
    # id below j, so every node leads back to the root: the kinds are a tree
    _expect(m == 2 * s + 1, f"{where}: {s} split(s) need {2 * s + 1} nodes, got {m}")
    _no_bad_node(split_at > 2 * np.arange(s), split_at, where,
                 "the k-th split must come before its children 2k + 1 and 2k + 2")

    f = _array(doc, "features", (_uint(n_bands - 1),), [s, fs], where)
    _no_bad_node((f >= n_bands).any(axis=1), split_at, where,
                 f"feature index out of range [0, {n_bands})")
    proj = _array(doc, "projections", ("<f8",), [s, fs], where)
    thr = _array(doc, "thresholds", ("<f8",), [s], where)
    _no_bad_node(~np.isfinite(np.column_stack((proj, thr))).all(axis=1), split_at, where,
                 "projections and thresholds must be finite numbers")
    tally = _array(doc, "class_counts", _UINTS, [m - s, 2], where)
    _expect(tally.dtype.str == _uint(int(tally.max(initial=0))),
            f"{where}: class_counts dtype must be the smallest that holds its counts")
    _no_bad_node((tally == 0).all(axis=1), leaf_at, where, "leaf class_counts all zero")
    # the tree stores counts and their sum as int64; two counts of at most
    # its max add up in uint64 without wrapping
    big = np.iinfo(np.int64).max
    tally = tally.astype(np.uint64)
    _no_bad_node((tally > big).any(axis=1) | (tally.sum(axis=1) > big), leaf_at, where,
                 "leaf class_counts sum beyond int64")
    return FlatTree.from_columns(kind, f, proj, thr, tally)
