"""Command-line front end: train, predict, evaluate, cross, synth.

predict and cross hold no whole-scene array: they take the windows of
forest.predict_windows as they arrive, and predict writes each to both
payloads (raster_io.write_sidecars) while cross adds up its confusion
tally against the truth mask's same pixels (metrics.evaluate_windows).
evaluate tallies two mask files the same way. A mask is checked whole,
a window at a time, before any of this (raster_io.open_mask).

Exit codes: 0 success, 1 usage error (an unknown or missing flag, a flag
out of range, unpaired --raster/--mask, or an output that names an
input), 2 data/validation error, 3 numeric failure, 4 out of memory or a
lost worker process. Every run echoes its resolved configuration to
stderr; every failure prints one line starting with "ccfmap: error:"
(or "numeric error:") so scripts can grep for it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys

import numpy as np

from .errors import DataError
from .forest import TrainConfig, predict_class_batch, predict_windows, train_forest
from .forest import predict_raster  # noqa: F401  (not called here; perfbench/tracer.py wraps it)
from .metrics import evaluate, evaluate_windows
from .pipeline import (
    UNLABELED,
    SampleSet,
    SplitSpec,
    assemble_region_dataset,
    balance_classes,
    fit_scaler,
    stratified_split,
)
from .cca import standardize
from .model_io import load_model, save_model
from .raster_io import (
    MASK_DTYPE,
    PRESETS,
    RASTER_DTYPE,
    SyntheticSceneSpec,
    _sidecar_paths,
    bayes_accuracy_estimate,
    generate_scene,
    mask_windows,
    open_mask,
    open_raster,
    read_mask,
    read_raster,
    write_mask,
    write_raster,
    write_report,
    write_sidecars,
)

PROG = "ccfmap"

_EXIT_USAGE = 1
_EXIT_DATA = 2
_EXIT_NUMERIC = 3
_EXIT_RESOURCES = 4


class _UsageError(Exception):
    """A command line main refuses with exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that leaves a usage failure, a subcommand's too, to main."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _ranged(convert, rule: str, ok):
    """An argparse type: convert the text, then refuse a value that fails ok
    as "must be <rule>". Text convert refuses keeps argparse's wording."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


_COUNT = _ranged(int, ">= 1", lambda v: v >= 1)
_SEED = _ranged(int, "in [0, 2**64)", lambda v: 0 <= v < 2**64)
_FRACTION = _ranged(float, "in (0, 1)", lambda v: 0 < v < 1)
_NON_NEGATIVE = _ranged(float, "a finite number >= 0", lambda v: math.isfinite(v) and v >= 0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Settlement mapping with canonical correlation forests.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="train a forest from raster/mask pairs")
    p.add_argument("--raster", action="append", required=True,
                   help="raster header path; repeat for multiple tiles")
    p.add_argument("--mask", action="append", required=True,
                   help="mask header path paired with the matching --raster")
    p.add_argument("--out", required=True, help="output model path (.ccf.json)")
    p.add_argument("--trees", type=_COUNT, default=10, help="number of trees")
    p.add_argument("--seed", type=_SEED, default=0, help="RNG seed")
    p.add_argument("--split", type=_FRACTION, default=0.8,
                   help="train fraction for the stratified split")
    p.add_argument("--no-eval", action="store_true",
                   help="skip the held-out evaluation report")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict a mask for a raster")
    p.add_argument("--model", required=True)
    p.add_argument("--raster", required=True)
    p.add_argument("--out-mask", required=True)
    p.add_argument("--out-prob", required=True,
                   help="output path for the informal-probability raster")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a predicted mask against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="report path (.report.json)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("cross", help="evaluate a model on another region")
    p.add_argument("--model", required=True)
    p.add_argument("--raster", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True, help="report path (.report.json)")
    p.set_defaults(func=cmd_cross)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--preset", choices=PRESETS, default="blobs")
    p.add_argument("--width", type=_COUNT, default=64)
    p.add_argument("--height", type=_COUNT, default=64)
    p.add_argument("--bands", type=_COUNT, default=10)
    p.add_argument("--separation", type=_NON_NEGATIVE, default=4.0,
                   help="class separation in spectral space")
    p.add_argument("--noise", type=_NON_NEGATIVE, default=1.0, help="noise stddev")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)
    return parser


def _refuse_overwrites(inputs, outputs) -> None:
    """Raise a usage error for the first output that names a file of an
    input or an earlier output. Each is a (flag, path): --model and --out
    name one file, the other flags a raster's or mask's sidecar pair."""
    named = []
    for k, (flag, path) in enumerate(inputs + outputs):
        path = os.path.realpath(path)  # a symlinked directory hides no input
        files = (path,) if flag in ("--model", "--out") else _sidecar_paths(path)
        for other, taken in named if k >= len(inputs) else ():
            if shared := [f for f in files if f in taken]:
                raise _UsageError(f"{other} and {flag} both name {' and '.join(shared)}")
        named.append((flag, files))


def _report_path(model_path: str) -> str:
    """model_path less its .ccf.json (or .json), plus .report.json."""
    return re.sub(r"(\.ccf)?\.json\Z", "", model_path) + ".report.json"


def _score(label, report, path, class_names=None) -> None:
    """Write the report to path and print the headline line, label first."""
    path = write_report(report, path, class_names=class_names)
    print(
        f"{label}pixel_accuracy {report.pixel_accuracy * 100.0:.1f}%, "
        f"mean_iou {report.mean_iou * 100.0:.1f}%, report: {path}"
    )


def cmd_train(args) -> None:
    if len(args.raster) != len(args.mask):
        raise _UsageError(
            f"--raster and --mask must come in pairs, got "
            f"{len(args.raster)} raster(s) and {len(args.mask)} mask(s)"
        )
    # the settings and the paths are checked before any raster is read
    config = TrainConfig(n_trees=args.trees, seed=args.seed)
    spec = SplitSpec(train_fraction=args.split, seed=args.seed)
    reads = [("--raster", r) for r in args.raster] + [("--mask", m) for m in args.mask]
    writes = [("--out", args.out)] + ([] if args.no_eval else [("--out", _report_path(args.out))])
    _refuse_overwrites(reads, writes)
    # the library's steps, nested, and train rebound, so each set is freed
    # as soon as the step it feeds returns
    train, test = stratified_split(
        balance_classes(
            assemble_region_dataset(  # reads one pair at a time
                (read_raster(r), read_mask(m)) for r, m in zip(args.raster, args.mask)
            ),
            np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(1,))),
        ),
        spec,
    )
    scaler = fit_scaler(train)
    train = SampleSet(
        standardize(train.features, scaler), train.labels, train.class_names, adopt=True
    )
    model = train_forest(train, config, scaler=scaler)
    save_model(model, args.out)
    print(
        f"model written: {args.out} ({model.config.n_trees} trees, "
        f"{len(train)} train / {len(test)} held-out samples)"
    )
    if not args.no_eval:
        _score("holdout: ", evaluate(predict_class_batch(model, test.features), test.labels),
               _report_path(args.out), model.class_names)


def cmd_predict(args) -> None:
    outputs = [("--out-mask", args.out_mask), ("--out-prob", args.out_prob)]
    _refuse_overwrites([("--model", args.model), ("--raster", args.raster)], outputs)
    model = load_model(args.model)
    raster = open_raster(args.raster)
    labeled = 0

    def counted(windows):  # each window's two outputs, its labeled pixels counted
        nonlocal labeled
        for _, classes, p1 in windows:
            labeled += int((classes != UNLABELED).sum())
            yield classes, p1

    # each window goes to both payloads as it arrives; nothing is renamed
    # until the last one is written
    shape = (1, raster.height, raster.width)
    with contextlib.closing(predict_windows(model, raster)) as windows:
        write_sidecars(
            [(args.out_mask, MASK_DTYPE, shape, None),
             (args.out_prob, RASTER_DTYPE, shape,
              {"nodata": -1.0, "band_names": ["informal_probability"]})],
            counted(windows))
    print(
        f"mask written: {args.out_mask} ({labeled}/{raster.height * raster.width} pixels "
        f"labeled); probability raster: {args.out_prob}"
    )


def cmd_evaluate(args) -> None:
    _refuse_overwrites([("--pred", args.pred), ("--truth", args.truth)], [("--out", args.out)])
    pred, truth = open_mask(args.pred), open_mask(args.truth)
    shapes = (pred.height, pred.width), (truth.height, truth.width)
    if shapes[0] != shapes[1]:
        raise DataError(f"shape mismatch: pred {shapes[0]} vs truth {shapes[1]}")
    _score("", evaluate_windows(zip(mask_windows(pred), mask_windows(truth))), args.out)


def cmd_cross(args) -> None:
    inputs = [("--model", args.model), ("--raster", args.raster), ("--mask", args.mask)]
    _refuse_overwrites(inputs, [("--out", args.out)])
    model = load_model(args.model)
    raster = open_raster(args.raster)
    truth = open_mask(args.mask)  # its values are checked before predicting
    shape, truth_shape = (raster.height, raster.width), (truth.height, truth.width)
    if truth_shape != shape:  # before predicting, not after
        raise DataError(f"shape mismatch: raster {shape} vs truth {truth_shape}")
    with contextlib.closing(predict_windows(model, raster)) as windows:
        report = evaluate_windows((classes, truth.window(start, classes.size)[:, 0])
                                  for start, classes, _ in windows)
    _score("cross-region: ", report, args.out, model.class_names)


def cmd_synth(args) -> None:
    spec = SyntheticSceneSpec(
        preset=args.preset,
        width=args.width,
        height=args.height,
        bands=args.bands,
        class_separation=args.separation,
        noise_std=args.noise,
        seed=args.seed,
    )
    raster, mask = generate_scene(spec)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}") from exc
    raster_paths = write_raster(raster, os.path.join(args.out, "raster"))
    mask_paths = write_mask(mask, os.path.join(args.out, "mask"))
    print(f"bayes_accuracy_estimate={bayes_accuracy_estimate(spec):.6f}")
    print(f"raster written: {raster_paths[0]} + {raster_paths[1]}")
    print(f"mask written: {mask_paths[0]} + {mask_paths[1]}")


def _broken_pool() -> type:
    """What a pool that lost a worker raises, imported only once an exception
    reaches main's except clause: a command that forks no pool never loads it."""
    from concurrent.futures import BrokenExecutor
    return BrokenExecutor


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = {k: v for k, v in vars(args).items() if k != "func"}
        print(f"{PROG}: config {json.dumps(config, sort_keys=True)}", file=sys.stderr)
        args.func(args)
    except SystemExit as exc:  # --help, after printing the help
        return exc.code
    except _UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except DataError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"{PROG}: numeric error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (MemoryError, _broken_pool()) as exc:  # a worker the OOM killer ends breaks the pool
        print(f"{PROG}: error: out of memory or a worker process lost ({exc!r}); "
              f"a lower CCF_THREADS runs fewer workers", file=sys.stderr)
        return _EXIT_RESOURCES
    return 0


if __name__ == "__main__":
    sys.exit(main())
