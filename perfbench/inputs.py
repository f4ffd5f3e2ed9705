"""Write one workload's input files from a seed.

Run as a child process of run.py, which times it as the set-up cost:

    python3 perfbench/inputs.py --workload deep --seed 1 --out DIR

Only the package's public scene generator and raster/mask writers are
used, so the program under test receives nothing but files. Scene seeds
are derived from the workload seed (seed * 100 + slot), so the same seed
always writes byte-identical inputs. The bulk training tiles are the
exception: they are the same for every seed (see BULK_TILE_SEEDS).
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from ccfmap import (
    MultispectralRaster,
    SyntheticSceneSpec,
    bayes_accuracy_estimate,
    generate_scene,
    write_mask,
    write_raster,
)

# deep: labeled pixels kept per class in the 256x256 training scene. A blob
# layout covers a seed-dependent share of the scene, so a fixed count keeps
# the training set (and with it the node count) the same size on every seed:
# 2 * floor(0.8 * 10000) = 16000 training rows.
DEEP_LABELED_PER_CLASS = 10_000
DEEP_SEPARATION = 3.0
DEEP_REGION = 512
DEEP_SMALL = 384
# bulk: on separable oblique data a tree's size hinges on whether the node's
# random feature subset holds both informative bands, so the node count of
# a 10-tree forest varies about threefold from seed to seed. The training
# tiles (and the train --seed, in run.py) are therefore fixed; the workload
# seed picks the regions that are mapped.
BULK_TILE_SEEDS = (0, 1, 2, 3)
BULK_SEPARATION = 4.0
BULK_TILE = 320
BULK_REGION = 1024
BULK_SMALL = 512
BULK_BORDER = 32  # nodata frame around the cross region, in pixels
NODATA = -9999.0
SESSION_SEPARATION = 5.0


def _spec(preset, size, separation, seed, border=0):
    return SyntheticSceneSpec(
        preset=preset,
        width=size,
        height=size,
        class_separation=separation,
        seed=seed,
        unlabeled_border=border,
    )


def _write_pair(raster, mask, out, name):
    write_raster(raster, os.path.join(out, name))
    write_mask(mask, os.path.join(out, name + "_truth"))


def _deep_training_scene(seed):
    """First derived blobs scene whose minority class has enough pixels,
    with each class thinned at random to exactly DEEP_LABELED_PER_CLASS."""
    for slot in range(50):
        spec = _spec("blobs", 256, DEEP_SEPARATION, seed * 100 + slot)
        raster, mask = generate_scene(spec)
        if np.bincount(mask.ravel(), minlength=2)[:2].min() >= DEEP_LABELED_PER_CLASS:
            break
    else:
        raise RuntimeError(f"no blobs layout with a large enough minority for seed {seed}")
    flat = mask.ravel().copy()
    rng = np.random.default_rng(spec.seed)
    for c in (0, 1):
        idx = np.flatnonzero(flat == c)
        flat[rng.choice(idx, size=idx.size - DEEP_LABELED_PER_CLASS, replace=False)] = 255
    return raster, flat.reshape(mask.shape), spec


def write_deep(seed, out):
    raster, mask, train_spec = _deep_training_scene(seed)
    _write_pair(raster, mask, out, "train")
    region_spec = _spec("blobs", DEEP_REGION, DEEP_SEPARATION, seed * 100 + 50)
    _write_pair(*generate_scene(region_spec), out, "region")
    _write_pair(*generate_scene(_spec("blobs", DEEP_SMALL, DEEP_SEPARATION,
                                      seed * 100 + 51)), out, "small")
    return {"train_scene_seed": train_spec.seed,
            "bayes_accuracy_estimate": bayes_accuracy_estimate(region_spec)}


def _with_nodata_frame(raster, border):
    values = np.array(raster.values)
    values[:border] = NODATA
    values[-border:] = NODATA
    values[:, :border] = NODATA
    values[:, -border:] = NODATA
    return MultispectralRaster(values=values, nodata=NODATA)


def write_bulk(seed, out):
    for i, tile_seed in enumerate(BULK_TILE_SEEDS):
        _write_pair(*generate_scene(_spec("oblique", BULK_TILE, BULK_SEPARATION, tile_seed)),
                    out, f"tile{i}")
    raster, mask = generate_scene(_spec("oblique", BULK_REGION, BULK_SEPARATION,
                                        seed * 100 + 50, border=BULK_BORDER))
    _write_pair(_with_nodata_frame(raster, BULK_BORDER), mask, out, "region")
    _write_pair(*generate_scene(_spec("oblique", BULK_SMALL, BULK_SEPARATION,
                                      seed * 100 + 51)), out, "small")
    return {}


def write_session(seed, out):
    # the session's own scene comes from `ccfmap synth`; only the second
    # region that `cross` scores is written here
    spec = _spec("blobs", 64, SESSION_SEPARATION, seed * 100 + 51)
    _write_pair(*generate_scene(spec), out, "small")
    return {}


WRITERS = {"deep": write_deep, "bulk": write_bulk, "session": write_session}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WRITERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    info = WRITERS[args.workload](args.seed, args.out)
    with open(os.path.join(args.out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh)


if __name__ == "__main__":
    main()
