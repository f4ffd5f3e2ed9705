"""Run one ccfmap CLI command in this process with its layer calls timed.

    python3 perfbench/tracer.py --spans OUT.json --cmd-id N [--probe] -- ARGV...

ARGV is what would follow `ccfmap` on the command line. The public names
that `ccfmap.cli` calls, and `predict_proba_batch` and `standardize` in
`ccfmap.forest`, are replaced by wrappers that record one span per call:
name, start, end, parent span, command id and the process's RSS
high-water mark at the end of the call. Spans stay in memory and are
written to OUT.json when the command returns; nothing under src/ changes.

With --probe, a `train` command is followed by a growth probe: the
SampleSet the CLI passed to `train_forest` is trained again serially
(CCF_THREADS=1) with `ccfmap.forest.cca` and `ccfmap.forest.best_split`
counted, and the serial model is compared array by array with the one
the CLI trained in parallel.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import time

import numpy as np

import ccfmap.cli
import ccfmap.forest

# wrapped name in ccfmap.cli -> span name ("<layer>.<function>")
CLI_SPANS = {
    "read_raster": "raster_io.read_raster",
    "read_mask": "raster_io.read_mask",
    "write_raster": "raster_io.write_raster",
    "write_mask": "raster_io.write_mask",
    "save_model": "raster_io.save_model",
    "load_model": "raster_io.load_model",
    "assemble_region_dataset": "pipeline.assemble",
    "balance_classes": "pipeline.balance",
    "stratified_split": "pipeline.split",
    "fit_scaler": "pipeline.fit_scaler",
    "standardize": "cca.standardize",
    "train_forest": "forest.train_forest",
    "predict_class_batch": "forest.predict_class_batch",
    "predict_raster": "forest.predict_raster",
    "evaluate": "metrics.evaluate",
}
FOREST_SPANS = {
    "predict_proba_batch": "forest.predict_proba_batch",
    "standardize": "cca.standardize",
}
TREE_FIELDS = ("kind", "features", "projections", "thresholds",
               "left", "right", "counts", "probs")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sidecar_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _read_bytes(args, _result) -> dict:
    base = os.fspath(args[0])
    for ext in (".json", ".bin"):
        if base.endswith(ext):
            base = base[: -len(ext)]
    return {"bytes": _sidecar_bytes([base + ".json", base + ".bin"])}


# per-span extras, computed from the call's arguments and result
EXTRAS = {
    "raster_io.read_raster": _read_bytes,
    "raster_io.read_mask": _read_bytes,
    "raster_io.write_raster": lambda a, r: {"bytes": _sidecar_bytes(r)},
    "raster_io.write_mask": lambda a, r: {"bytes": _sidecar_bytes(r)},
    "raster_io.save_model": lambda a, r: {"bytes": _sidecar_bytes([r])},
    "forest.train_forest": lambda a, r: {"rows": len(a[0])},
    "forest.predict_proba_batch": lambda a, r: {
        "rows": int(np.shape(a[1])[0]), "trees": len(a[0].trees)},
    "forest.predict_raster": lambda a, r: {"pixels": int(r[0].size)},
    "metrics.evaluate": lambda a, r: {"evaluated_pixels": r.evaluated_pixels},
}


class Tracer:
    """In-memory span recorder for one command."""

    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans = []
        self._open = []  # indices of spans not yet ended, innermost last

    def call(self, name, fn, args, kwargs):
        span = {"name": name, "cmd": self.cmd_id,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter()}
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["rss_mb"] = _rss_mb()
            self._open.pop()
        extra = EXTRAS.get(name)
        if extra is not None:
            span.update(extra(args, result))
        return result

    def wrap(self, module, attr, name):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        setattr(module, attr, wrapper)


class Counter:
    """Call count and total seconds of one function, for hot inner calls
    where a span per call would be most of the output."""

    def __init__(self, module, attr):
        self.calls = 0
        self.seconds = 0.0
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1

        setattr(module, attr, wrapper)


def tree_shape(tree, min_node_size: int, max_depth):
    """(max depth, leaf depths, no-split leaves) from one FlatTree.

    A no-split leaf is one the grower tried to split and could not: it
    holds two classes, at least 2 * min_node_size samples, and is above
    max_depth, so growth ran the split search there and found nothing.
    """
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    frontier = np.array([0])
    level = 0
    while frontier.size:
        depth[frontier] = level
        split = frontier[tree.kind[frontier] == 1]
        frontier = np.concatenate([tree.left[split], tree.right[split]])
        level += 1
    leaves = tree.kind == 0
    counts = tree.counts[leaves]
    attempted = ((counts > 0).sum(axis=1) >= 2) & (counts.sum(axis=1) >= 2 * min_node_size)
    if max_depth is not None:
        attempted &= depth[leaves] < max_depth
    return int(depth.max()), depth[leaves], int(attempted.sum())


def model_differences(a, b) -> list:
    """Names of the parts where two CcfModels differ; empty when equal."""
    diffs = []
    if len(a.trees) != len(b.trees):
        return [f"tree count {len(a.trees)} != {len(b.trees)}"]
    for t, (ta, tb) in enumerate(zip(a.trees, b.trees)):
        for field in TREE_FIELDS:
            x, y = getattr(ta, field), getattr(tb, field)
            if x.dtype != y.dtype or not np.array_equal(x, y):
                diffs.append(f"tree {t} {field}")
    if not (np.array_equal(a.scaler.mean, b.scaler.mean)
            and np.array_equal(a.scaler.stddev, b.scaler.stddev)):
        diffs.append("scaler")
    for attr in ("n_bands", "class_names", "config", "format_version"):
        if getattr(a, attr) != getattr(b, attr):
            diffs.append(attr)
    return diffs


def growth_probe(samples, config, scaler, parallel_model) -> dict:
    os.environ["CCF_THREADS"] = "1"
    cca = Counter(ccfmap.forest, "cca")
    split = Counter(ccfmap.forest, "best_split")
    t0 = time.perf_counter()
    serial = ccfmap.forest.train_forest(samples, config, scaler=scaler)
    serial_s = time.perf_counter() - t0

    cfg = parallel_model.config
    nodes = internal = no_split = 0
    max_depth = 0
    leaf_depths = []
    for tree in parallel_model.trees:
        depth, leaves, attempted = tree_shape(tree, cfg.min_node_size, cfg.max_depth)
        nodes += tree.n_nodes
        internal += int(tree.kind.sum())
        no_split += attempted
        max_depth = max(max_depth, depth)
        leaf_depths.append(leaves)
    return {
        "serial_s": serial_s,
        "cca_calls": cca.calls,
        "cca_s": cca.seconds,
        "best_split_calls": split.calls,
        "best_split_s": split.seconds,
        "nodes": nodes,
        "internal": internal,
        "no_split_leaves": no_split,
        "max_depth": max_depth,
        "mean_leaf_depth": float(np.concatenate(leaf_depths).mean()),
        "differences": model_differences(serial, parallel_model),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON path")
    parser.add_argument("--cmd-id", type=int, default=0)
    parser.add_argument("--probe", action="store_true",
                        help="after a train command, run the serial growth probe")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer(args.cmd_id)
    for attr, name in CLI_SPANS.items():
        tracer.wrap(ccfmap.cli, attr, name)
    for attr, name in FOREST_SPANS.items():
        tracer.wrap(ccfmap.forest, attr, name)

    captured = {}
    train_forest = ccfmap.cli.train_forest

    def capture_train(samples, config=None, scaler=None):
        model = train_forest(samples, config, scaler=scaler)
        captured.update(samples=samples, config=config, scaler=scaler, model=model)
        return model

    ccfmap.cli.train_forest = capture_train

    exit_code = tracer.call("cli.main", ccfmap.cli.main, (argv,), {})
    probe = None
    probe_s = 0.0
    if args.probe and exit_code == 0 and captured:
        t0 = time.perf_counter()
        probe = growth_probe(captured["samples"], captured["config"],
                             captured["scaler"], captured["model"])
        probe_s = time.perf_counter() - t0
    doc = {"argv": argv, "exit_code": exit_code, "probe_s": probe_s,
           "spans": tracer.spans, "probe": probe}
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
