"""The names and attributes perfbench/tracer.py reads from the package.

The tracer wraps functions by their names in ccfmap.cli and ccfmap.forest
and reads model fields to count nodes and compare models. A rename or a
removed field breaks `perfbench/run.py --trace 1` without failing any
other test, so this checks each of them.
"""

import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from ccfmap import cli, forest
from ccfmap.forest import FlatTree, TrainConfig, train_forest
from ccfmap.pipeline import SampleSet

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines names only; wrapping happens in main()
    return module


def test_every_name_and_field_the_tracer_reads_exists():
    tracer = _load_tracer()
    for attr in tracer.CLI_SPANS:
        assert callable(getattr(cli, attr)), attr
    # FOREST_SPANS are wrapped; the growth probe counts cca and best_split
    for attr in [*tracer.FOREST_SPANS, "cca", "best_split", "train_forest"]:
        assert callable(getattr(forest, attr)), attr
    assert set(tracer.TREE_FIELDS) <= {f.name for f in dataclasses.fields(FlatTree)}

    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal(size=(60, 4)) - 1.0, rng.normal(size=(60, 4)) + 1.0])
    model = train_forest(SampleSet(x, np.repeat([0, 1], 60)),
                         TrainConfig(n_trees=2, seed=1))
    cfg = model.config
    assert (cfg.min_node_size, cfg.max_depth) == (2, None)
    for tree in model.trees:
        depth, leaf_depths, no_split = tracer.tree_shape(tree, cfg.min_node_size, cfg.max_depth)
        assert depth >= 1 and leaf_depths.size == tree.n_nodes - tree.kind.sum()
        assert no_split >= 0
    # reads every tree field, the scaler, n_bands, class_names, config, format_version
    assert tracer.model_differences(model, model) == []
    other = dataclasses.replace(model, class_names=("a", "b"))
    assert tracer.model_differences(model, other) == ["class_names"]


def test_traced_train_with_probe(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CCF_THREADS="2")
    scene = tmp_path / "scene"
    assert cli.main(["synth", "--width", "24", "--height", "24", "--seed", "2",
                     "--out", str(scene)]) == 0
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--probe", "--",
         "train", "--raster", str(scene / "raster.json"), "--mask", str(scene / "mask.json"),
         "--out", str(tmp_path / "m.ccf.json"), "--trees", "3", "--seed", "4"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["exit_code"] == 0
    assert doc["probe"]["differences"] == []
    names = {span["name"] for span in doc["spans"]}
    assert {"cli.main", "raster_io.read_raster", "forest.train_forest",
            "raster_io.save_model", "metrics.evaluate"} <= names
