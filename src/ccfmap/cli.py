"""Command-line front end: train, predict, evaluate, cross, synth.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numeric
failure. Every run echoes its resolved configuration to stderr, and every
failure prints a single line starting with "<prog>: error:" (or
"numeric error:") so scripts can grep for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DataError
from .forest import TrainConfig, predict_class_batch, predict_raster, train_forest
from .metrics import evaluate
from .pipeline import (
    UNLABELED,
    SampleSet,
    SplitSpec,
    assemble_region_dataset,
    balanced_split,
    fit_scaler,
)
# balanced_split composes these two; perfbench/tracer.py wraps both names here
from .pipeline import balance_classes, stratified_split  # noqa: F401
from .cca import standardize
from .model_io import load_model, save_model
from .raster_io import (
    PRESETS,
    MultispectralRaster,
    SyntheticSceneSpec,
    _sidecar_paths,
    bayes_accuracy_estimate,
    generate_scene,
    read_mask,
    read_raster,
    write_mask,
    write_raster,
    write_report,
)

PROG = "ccfmap"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_DATA = 2
_EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
    p.add_argument("--trees", type=int, default=10, help="number of trees")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--split", type=float, default=0.8,
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
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--bands", type=int, default=10)
    p.add_argument("--separation", type=float, default=4.0,
                   help="class separation in spectral space")
    p.add_argument("--noise", type=float, default=1.0, help="noise stddev")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)
    return parser


def _usage_error(message: str) -> int:
    print(f"{PROG}: error: {message}", file=sys.stderr)
    return _EXIT_USAGE


def _report_path(model_path: str) -> str:
    base = model_path
    if base.endswith(".ccf.json"):
        base = base[: -len(".ccf.json")]
    elif base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".report.json"


def cmd_train(args) -> int:
    if len(args.raster) != len(args.mask):
        return _usage_error(
            f"--raster and --mask must come in pairs, got "
            f"{len(args.raster)} raster(s) and {len(args.mask)} mask(s)"
        )
    if not (0.0 < args.split < 1.0):
        return _usage_error(f"--split must be in (0, 1), got {args.split}")
    if args.trees < 1:
        return _usage_error(f"--trees must be >= 1, got {args.trees}")
    if args.seed < 0:
        return _usage_error(f"--seed must be >= 0, got {args.seed}")

    # the settings are checked before any raster is read
    config = TrainConfig(n_trees=args.trees, seed=args.seed)
    spec = SplitSpec(train_fraction=args.split, seed=args.seed)
    # nested, and train rebound, so no earlier set outlives its step
    train, test = balanced_split(
        assemble_region_dataset(  # reads one pair at a time
            (read_raster(r), read_mask(m)) for r, m in zip(args.raster, args.mask)
        ),
        np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(1,))),
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
        pred = predict_class_batch(model, test.features)
        report = evaluate(pred, test.labels)
        path = write_report(
            report, _report_path(args.out), class_names=model.class_names
        )
        print(
            f"holdout: pixel_accuracy {report.pixel_accuracy * 100.0:.1f}%, "
            f"mean_iou {report.mean_iou * 100.0:.1f}%, report: {path}"
        )
    return _EXIT_OK


def cmd_predict(args) -> int:
    mask_files, prob_files = (_sidecar_paths(os.path.abspath(p))
                              for p in (args.out_mask, args.out_prob))
    if mask_files == prob_files:
        return _usage_error(f"--out-mask and --out-prob both name {' and '.join(mask_files)}")
    model = load_model(args.model)
    raster = read_raster(args.raster)
    mask, prob = predict_raster(model, raster)
    write_mask(mask, args.out_mask)
    prob_raster = MultispectralRaster(
        values=prob[..., None],
        nodata=-1.0,
        band_names=("informal_probability",),
    )
    write_raster(prob_raster, args.out_prob)
    labeled = int((mask != UNLABELED).sum())
    print(
        f"mask written: {args.out_mask} ({labeled}/{mask.size} pixels labeled); "
        f"probability raster: {args.out_prob}"
    )
    return _EXIT_OK


def cmd_evaluate(args) -> int:
    pred = read_mask(args.pred)
    truth = read_mask(args.truth)
    report = evaluate(pred, truth)
    path = write_report(report, args.out)
    print(
        f"pixel_accuracy {report.pixel_accuracy * 100.0:.1f}%, "
        f"mean_iou {report.mean_iou * 100.0:.1f}%, report: {path}"
    )
    return _EXIT_OK


def cmd_cross(args) -> int:
    model = load_model(args.model)
    raster = read_raster(args.raster)
    truth = read_mask(args.mask)
    pred, _ = predict_raster(model, raster)
    report = evaluate(pred, truth)
    path = write_report(report, args.out, class_names=model.class_names)
    print(
        f"cross-region: pixel_accuracy {report.pixel_accuracy * 100.0:.1f}%, "
        f"mean_iou {report.mean_iou * 100.0:.1f}%, report: {path}"
    )
    return _EXIT_OK


def cmd_synth(args) -> int:
    if args.width < 1 or args.height < 1:
        return _usage_error(
            f"--width and --height must be >= 1, got {args.width}x{args.height}"
        )
    if args.bands < 1:
        return _usage_error(f"--bands must be >= 1, got {args.bands}")
    if args.separation < 0:
        return _usage_error(f"--separation must be >= 0, got {args.separation}")
    if args.noise < 0:
        return _usage_error(f"--noise must be >= 0, got {args.noise}")
    if args.seed < 0:
        return _usage_error(f"--seed must be >= 0, got {args.seed}")

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
    return _EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    config = {k: v for k, v in vars(args).items() if k != "func"}
    print(f"{PROG}: config {json.dumps(config, sort_keys=True)}", file=sys.stderr)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"{PROG}: numeric error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
