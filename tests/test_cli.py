"""End-to-end tests for the ccfmap command line."""

import base64
import json
import os
import re
import shutil
import signal
import struct
import tracemalloc
import weakref
from concurrent import futures

import numpy as np
import pytest

from ccfmap import cli, forest, raster_io
from ccfmap.cli import main
from ccfmap.errors import DataError
from ccfmap.metrics import evaluate
from ccfmap.model_io import load_model
from ccfmap.raster_io import (
    MultispectralRaster,
    open_raster,
    read_mask,
    read_raster,
    read_report,
    write_mask,
    write_raster,
    write_report,
)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """A well-separated 48x48 blobs scene (Bayes accuracy ~0.99997)."""
    out = tmp_path_factory.mktemp("scene")
    rc = main(
        [
            "synth", "--preset", "blobs", "--separation", "8",
            "--width", "48", "--height", "48", "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def model_dir(scene_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = main(
        [
            "train",
            "--raster", str(scene_dir / "raster.json"),
            "--mask", str(scene_dir / "mask.json"),
            "--out", str(out / "model.ccf.json"),
            "--seed", "3",
        ]
    )
    assert rc == 0
    return out


_TRAIN = ["train", "--raster", "r.json", "--mask", "m.json", "--out", "o.json"]


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_flag(self):
        assert main(["train", "--bogus"]) == 1

    def test_bad_preset(self):
        assert main(["synth", "--preset", "stripes", "--out", "x"]) == 1

    def test_zero_width(self, tmp_path, capsys):
        assert main(["synth", "--width", "0", "--out", str(tmp_path)]) == 1
        assert "ccfmap: error:" in capsys.readouterr().err

    def test_train_missing_mask(self):
        assert main(["train", "--raster", "r.json", "--out", "m.json"]) == 1

    def test_train_pair_mismatch(self, capsys):
        rc = main(
            [
                "train", "--raster", "a.json", "--raster", "b.json",
                "--mask", "only.json", "--out", "m.json",
            ]
        )
        assert rc == 1
        assert "pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["0", "1.0", "-0.2"])
    def test_train_bad_split(self, split):
        rc = main(
            [
                "train", "--raster", "r.json", "--mask", "m.json",
                "--out", "o.json", "--split", split,
            ]
        )
        assert rc == 1

    def test_train_seed_checked_before_reading(self, capsys, monkeypatch):
        def no_read(path):
            raise AssertionError("a raster was read")

        monkeypatch.setattr(cli, "read_raster", no_read)
        rc = main(
            [
                "train", "--raster", "r.json", "--mask", "m.json",
                "--out", "o.json", "--seed", str(2**64),
            ]
        )
        assert rc == 1
        assert _error_lines(capsys.readouterr().err) == [
            f"ccfmap: error: argument --seed: must be in [0, 2**64), got {2**64}"
        ]

    def test_train_bad_trees(self):
        rc = main(
            [
                "train", "--raster", "r.json", "--mask", "m.json",
                "--out", "o.json", "--trees", "0",
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("argv,message", [
        (["synth", "--noise", "nan"], "argument --noise: must be a finite number >= 0, got nan"),
        (["synth", "--separation", "inf"],
         "argument --separation: must be a finite number >= 0, got inf"),
        (["synth", "--width", "0"], "argument --width: must be >= 1, got 0"),
        (_TRAIN + ["--trees", "0"], "argument --trees: must be >= 1, got 0"),
        (_TRAIN + ["--trees", "1.5"], "argument --trees: invalid int value: '1.5'"),
        (_TRAIN + ["--split", "nan"], "argument --split: must be in (0, 1), got nan"),
        (_TRAIN + ["--seed", "-1"], "argument --seed: must be in [0, 2**64), got -1"),
        (_TRAIN + ["--seed", str(2**64)],
         f"argument --seed: must be in [0, 2**64), got {2**64}"),
        (["predict", "--model", "m.ccf.json", "--raster", "r.json", "--out-mask", "p"],
         "the following arguments are required: --out-prob"),
        (_TRAIN + ["--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_one_error_line_and_nothing_read(self, argv, message, tmp_path, capsys,
                                             monkeypatch):
        def no_read(*args, **kwargs):
            raise AssertionError("an input was read")

        for name in ("read_raster", "open_raster", "read_mask", "load_model"):
            monkeypatch.setattr(cli, name, no_read)
        if argv[0] == "synth":
            argv = argv + ["--out", str(tmp_path / "scene")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert _error_lines(err) == [f"ccfmap: error: {message}"]
        assert not [line for line in err.splitlines() if re.match(r"ccfmap \w+: error:", line)]
        assert not os.listdir(tmp_path)


class TestConfigEcho:
    def test_stderr_json_line(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("ccfmap: config "))
        config = json.loads(line[len("ccfmap: config "):])
        assert config["subcommand"] == "synth"
        assert config["seed"] == 0
        assert config["preset"] == "blobs"


class TestSynth:
    def test_writes_scene_and_reports_bayes(self, tmp_path, capsys):
        out = tmp_path / "scene"
        rc = main(
            [
                "synth", "--preset", "ring", "--width", "20", "--height", "22",
                "--bands", "4", "--separation", "8", "--out", str(out),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "bayes_accuracy_estimate=0.999968" in stdout
        raster = read_raster(out / "raster.json")
        assert raster.values.shape == (22, 20, 4)
        mask = read_mask(out / "mask.json")
        assert mask.shape == (22, 20)

    @pytest.mark.parametrize("preset", ["blobs", "oblique", "ring"])
    @pytest.mark.parametrize("noise", ["1e39", "1e308"])
    def test_overflowing_noise_gives_one_error_line(self, preset, noise, tmp_path, capsys,
                                                    recwarn):
        # finite, so argparse takes it, but the float32 raster overflows
        rc = main(["synth", "--preset", preset, "--width", "4", "--height", "4",
                   "--noise", noise, "--out", str(tmp_path / "s")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("ccfmap: config ")
        assert lines[1] == "ccfmap: error: raster values must be finite"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not os.listdir(tmp_path)


class TestTrain:
    def test_model_and_report(self, model_dir):
        model = load_model(model_dir / "model.ccf.json")
        assert model.config.n_trees == 10  # default --trees
        assert model.config.seed == 3
        assert model.n_bands == 10
        assert model.class_names == ("environment", "informal")
        report = read_report(model_dir / "model.report.json")
        assert report["pixel_accuracy"] >= 0.99
        assert report["class_names"] == ["environment", "informal"]

    def test_no_eval_skips_report(self, scene_dir, tmp_path):
        rc = main(
            [
                "train",
                "--raster", str(scene_dir / "raster.json"),
                "--mask", str(scene_dir / "mask.json"),
                "--out", str(tmp_path / "m.ccf.json"),
                "--trees", "2", "--no-eval",
            ]
        )
        assert rc == 0
        assert (tmp_path / "m.ccf.json").exists()
        assert not (tmp_path / "m.report.json").exists()

    def test_multiple_pairs(self, scene_dir, tmp_path, capsys):
        args = [
            "train",
            "--raster", str(scene_dir / "raster.json"),
            "--mask", str(scene_dir / "mask.json"),
            "--raster", str(scene_dir / "raster.json"),
            "--mask", str(scene_dir / "mask.json"),
            "--out", str(tmp_path / "m.ccf.json"),
            "--trees", "2",
        ]
        assert main(args) == 0
        assert "model written" in capsys.readouterr().out

    def test_bad_thread_count(self, scene_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CCF_THREADS", "abc")
        rc = main(
            [
                "train",
                "--raster", str(scene_dir / "raster.json"),
                "--mask", str(scene_dir / "mask.json"),
                "--out", str(tmp_path / "m.ccf.json"),
            ]
        )
        assert rc == 2
        assert "ccfmap: error: CCF_THREADS must be a positive integer, got 'abc'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "m.ccf.json").exists()

    def test_training_set_held_once_when_workers_start(self, tmp_path, monkeypatch):
        argv = ["train", "--out", str(tmp_path / "m.ccf.json")]
        for seed in (1, 2):
            out = tmp_path / f"tile{seed}"
            assert main(["synth", "--preset", "oblique", "--width", "160",
                         "--height", "160", "--seed", str(seed), "--out", str(out)]) == 0
            argv += ["--raster", str(out / "raster.json"), "--mask", str(out / "mask.json")]

        class Called(Exception):
            pass

        seen = {}

        def held_at_call(samples, config=None, scaler=None):
            seen["held"] = tracemalloc.get_traced_memory()[0]
            seen["matrix"] = samples.features.nbytes
            raise Called

        monkeypatch.setattr(cli, "train_forest", held_at_call)
        tracemalloc.start()
        try:
            with pytest.raises(Called):
                main(argv)
        finally:
            tracemalloc.stop()
        # the standardized train set plus the test set and the labels; the
        # rasters, the pooled and balanced sets and the raw train set are gone
        assert seen["matrix"] > 1_000_000
        assert seen["held"] <= 1.5 * seen["matrix"]

    def test_each_set_is_freed_once_the_step_it_feeds_returns(self, scene_dir, tmp_path,
                                                              monkeypatch):
        made, entered = {}, []

        def kept(name, step):
            def call(*args):
                out = step(*args)
                made[name] = weakref.ref(out)
                return out
            return call

        def freed_before(name, step):
            def call(*args):
                assert made[name]() is None, f"the {name} set outlived its step"
                entered.append(step.__name__)
                return step(*args)
            return call

        monkeypatch.setattr(cli, "assemble_region_dataset",
                            kept("pooled", cli.assemble_region_dataset))
        monkeypatch.setattr(cli, "balance_classes", kept("balanced", cli.balance_classes))
        monkeypatch.setattr(cli, "stratified_split",
                            freed_before("pooled", cli.stratified_split))
        monkeypatch.setattr(cli, "fit_scaler", freed_before("balanced", cli.fit_scaler))
        assert main(["train", "--raster", str(scene_dir / "raster.json"),
                     "--mask", str(scene_dir / "mask.json"), "--trees", "1", "--no-eval",
                     "--out", str(tmp_path / "m.ccf.json")]) == 0
        assert entered == ["stratified_split", "fit_scaler"]

    def test_all_unlabeled_mask(self, scene_dir, tmp_path, capsys):
        blank = np.full((48, 48), 255, dtype=np.uint8)
        write_mask(blank, tmp_path / "blank")
        rc = main(
            [
                "train",
                "--raster", str(scene_dir / "raster.json"),
                "--mask", str(tmp_path / "blank.json"),
                "--out", str(tmp_path / "m.ccf.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "ccfmap: error:" in err
        assert "zero labeled pixels" in err


class TestPredict:
    def test_outputs(self, scene_dir, model_dir, tmp_path):
        rc = main(
            [
                "predict",
                "--model", str(model_dir / "model.ccf.json"),
                "--raster", str(scene_dir / "raster.json"),
                "--out-mask", str(tmp_path / "pred"),
                "--out-prob", str(tmp_path / "prob"),
            ]
        )
        assert rc == 0
        pred = read_mask(tmp_path / "pred.json")
        assert pred.shape == (48, 48)
        assert set(np.unique(pred)) <= {0, 1}  # scene has no nodata
        prob = read_raster(tmp_path / "prob.json")
        assert prob.band_names == ("informal_probability",)
        assert prob.nodata == -1.0
        assert prob.values.shape == (48, 48, 1)
        assert prob.values.min() >= 0.0 and prob.values.max() <= 1.0
        # mask and probability map tell the same story
        agree = (prob.values[..., 0] > 0.5) == (pred == 1)
        assert agree.mean() > 0.99

    def test_band_mismatch(self, model_dir, tmp_path, capsys):
        rc = main(
            [
                "synth", "--bands", "5", "--width", "8", "--height", "8",
                "--out", str(tmp_path / "narrow"),
            ]
        )
        assert rc == 0
        rc = main(
            [
                "predict",
                "--model", str(model_dir / "model.ccf.json"),
                "--raster", str(tmp_path / "narrow" / "raster.json"),
                "--out-mask", str(tmp_path / "pred"),
                "--out-prob", str(tmp_path / "prob"),
            ]
        )
        assert rc == 2
        assert "band mismatch" in capsys.readouterr().err

    def test_all_nodata_raster(self, model_dir, tmp_path):
        values = np.zeros((6, 6, 10), dtype=np.float32)
        raster = MultispectralRaster(values=values, nodata=0.0)
        write_raster(raster, tmp_path / "void")
        rc = main(
            [
                "predict",
                "--model", str(model_dir / "model.ccf.json"),
                "--raster", str(tmp_path / "void.json"),
                "--out-mask", str(tmp_path / "pred"),
                "--out-prob", str(tmp_path / "prob"),
            ]
        )
        assert rc == 0
        assert (read_mask(tmp_path / "pred.json") == 255).all()
        prob = read_raster(tmp_path / "prob.json")
        assert (prob.values == -1.0).all()

    @pytest.mark.parametrize("out_mask,out_prob", [
        ("out", "out.json"), ("out.bin", "out"), ("out.json", "./out.bin"), ("out", "out"),
    ])
    def test_outputs_sharing_files_rejected(self, scene_dir, tmp_path, capsys, monkeypatch,
                                            out_mask, out_prob):
        # the probability raster would overwrite the mask's header and payload
        monkeypatch.chdir(tmp_path)

        def no_model(path):
            raise AssertionError("the model was read")

        monkeypatch.setattr(cli, "load_model", no_model)
        rc = main(
            [
                "predict",
                "--model", "model.ccf.json",
                "--raster", str(scene_dir / "raster.json"),
                "--out-mask", out_mask,
                "--out-prob", out_prob,
            ]
        )
        assert rc == 1
        assert _error_lines(capsys.readouterr().err) == [
            f"ccfmap: error: --out-mask and --out-prob both name "
            f"{tmp_path / 'out.json'} and {tmp_path / 'out.bin'}"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_mask,out_prob,flag", [
        ("raster", "prob", "--out-mask"), ("raster.bin", "prob", "--out-mask"),
        ("pred", "raster.json", "--out-prob"), ("pred", "./raster", "--out-prob"),
    ])
    def test_output_naming_the_raster_rejected(self, scene_dir, tmp_path, capsys, monkeypatch,
                                               out_mask, out_prob, flag):
        # the output would replace the raster its windows are read from
        for name in ("raster.json", "raster.bin"):
            shutil.copy(scene_dir / name, tmp_path / name)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.chdir(tmp_path)

        def no_model(path):
            raise AssertionError("the model was read")

        monkeypatch.setattr(cli, "load_model", no_model)
        rc = main(
            [
                "predict",
                "--model", "model.ccf.json",
                "--raster", "raster.json",
                "--out-mask", out_mask,
                "--out-prob", out_prob,
            ]
        )
        assert rc == 1
        assert _error_lines(capsys.readouterr().err) == [
            f"ccfmap: error: --raster and {flag} both name "
            f"{tmp_path / 'raster.json'} and {tmp_path / 'raster.bin'}"
        ]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_non_finite_pixel_rejected_with_its_byte_offset(self, model_dir, tmp_path, capsys,
                                                            monkeypatch, threads):
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)  # "2" reads in the workers
        monkeypatch.setenv("CCF_THREADS", threads)
        values = np.random.default_rng(4).normal(size=(9, 8, 10)).astype(np.float32)
        _, payload = write_raster(MultispectralRaster(values), tmp_path / "r")
        pixel, band = 41, 6
        with open(payload, "r+b") as fh:
            fh.seek((band * 72 + pixel) * 4)
            fh.write(struct.pack("<f", np.nan))
        rc = main(
            [
                "predict",
                "--model", str(model_dir / "model.ccf.json"),
                "--raster", str(tmp_path / "r.json"),
                "--out-mask", str(tmp_path / "pred"),
                "--out-prob", str(tmp_path / "prob"),
            ]
        )
        assert rc == 2
        assert _error_lines(capsys.readouterr().err) == [
            f"ccfmap: error: {tmp_path / 'r.json'}: non-finite payload value "
            f"at byte offset {(band * 72 + pixel) * 4}"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.bin", "r.json"]

    @pytest.mark.parametrize("command", ["predict", "cross"])
    def test_payload_truncated_after_open(self, command, scene_dir, model_dir, tmp_path,
                                          capsys, monkeypatch):
        for name in ("raster.json", "raster.bin"):
            shutil.copy(scene_dir / name, tmp_path / name)
        full = os.path.getsize(tmp_path / "raster.bin")

        def open_then_truncate(path):
            raster = open_raster(path)
            os.truncate(tmp_path / "raster.bin", full - 4)
            return raster

        monkeypatch.setattr(cli, "open_raster", open_then_truncate)
        outputs = {
            "predict": ["--out-mask", str(tmp_path / "pred"),
                        "--out-prob", str(tmp_path / "prob")],
            "cross": ["--mask", str(scene_dir / "mask.json"),
                      "--out", str(tmp_path / "cross.report.json")],
        }[command]
        rc = main([command, "--model", str(model_dir / "model.ccf.json"),
                   "--raster", str(tmp_path / "raster.json"), *outputs])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert _error_lines(err) == [
            f"ccfmap: error: payload length mismatch: expected {full} bytes, "
            f"got {full - 4} ({tmp_path / 'raster.bin'})"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raster.bin", "raster.json"]

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_nodata_beyond_float32_rejected(self, command, scene_dir, model_dir, tmp_path,
                                            capsys, recwarn):
        shutil.copy(scene_dir / "raster.bin", tmp_path / "raster.bin")
        doc = json.loads((scene_dir / "raster.json").read_text())
        doc["nodata"] = 1e39  # finite as a double, inf as float32
        (tmp_path / "raster.json").write_text(json.dumps(doc))
        outputs = {
            "train": ["--mask", str(scene_dir / "mask.json"),
                      "--out", str(tmp_path / "m.ccf.json")],
            "predict": ["--model", str(model_dir / "model.ccf.json"),
                        "--out-mask", str(tmp_path / "pred"),
                        "--out-prob", str(tmp_path / "prob")],
        }[command]
        rc = main([command, "--raster", str(tmp_path / "raster.json"), *outputs])
        assert rc == 2
        assert _error_lines(capsys.readouterr().err) == [
            f"ccfmap: error: {tmp_path / 'raster.json'}: nodata must be a finite "
            f"float32 number, got 1e+39"
        ]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raster.bin", "raster.json"]

    def test_missing_model_file(self, scene_dir, tmp_path, capsys):
        rc = main(
            [
                "predict",
                "--model", str(tmp_path / "nope.ccf.json"),
                "--raster", str(scene_dir / "raster.json"),
                "--out-mask", str(tmp_path / "pred"),
                "--out-prob", str(tmp_path / "prob"),
            ]
        )
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err


def _error_lines(err):
    return [line for line in err.splitlines() if line.startswith("ccfmap: error:")]


def _illegal_mask(scene_dir, base, index, monkeypatch):
    """Write scene_dir's mask to base with the value 7 at pixel index, and
    check masks in windows of 100 pixels, so index lies in a later window."""
    _, payload = write_mask(read_mask(scene_dir / "mask.json"), base)
    with open(payload, "r+b") as fh:
        fh.seek(index)
        fh.write(b"\x07")
    monkeypatch.setattr(raster_io, "_MASK_WINDOW", 100)


class TestBadThreadCount:
    @pytest.mark.parametrize("command", ["predict", "cross"])
    def test_rejected_like_train(self, command, scene_dir, model_dir, tmp_path,
                                 capsys, monkeypatch):
        monkeypatch.setenv("CCF_THREADS", "abc")

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        raster = str(scene_dir / "raster.json")
        assert main(["train", "--raster", raster, "--mask", str(scene_dir / "mask.json"),
                     "--out", str(tmp_path / "m.ccf.json")]) == 2
        train_error = _error_lines(capsys.readouterr().err)
        assert train_error == [
            "ccfmap: error: CCF_THREADS must be a positive integer, got 'abc'"
        ]

        model = str(model_dir / "model.ccf.json")
        if command == "predict":
            argv = ["predict", "--model", model, "--raster", raster,
                    "--out-mask", str(tmp_path / "pred"),
                    "--out-prob", str(tmp_path / "prob")]
        else:
            argv = ["cross", "--model", model, "--raster", raster,
                    "--mask", str(scene_dir / "mask.json"),
                    "--out", str(tmp_path / "cross.report.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _error_lines(captured.err) == train_error
        assert not any(tmp_path.iterdir())  # no output written


class TestThreeClassModel:
    """A model file with three classes is rejected before any output is
    written: masks hold only 0, 1 and 255."""

    @pytest.fixture
    def three_class_model(self, model_dir, tmp_path):
        doc = json.loads((model_dir / "model.ccf.json").read_text())
        doc["class_names"].append("other")
        for tree in doc["trees"]:
            col = tree["class_counts"]
            counts = np.frombuffer(base64.b64decode(col["data"]), col["dtype"])
            wide = np.column_stack([counts.reshape(col["shape"]), np.ones(col["shape"][0])])
            col["shape"] = list(wide.shape)
            col["data"] = base64.b64encode(wide.astype(col["dtype"]).tobytes()).decode()
        path = tmp_path / "three.ccf.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("command", ["predict", "cross"])
    def test_rejected(self, command, three_class_model, scene_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--model", str(three_class_model),
                "--raster", str(scene_dir / "raster.json")]
        if command == "predict":
            argv += ["--out-mask", str(out / "pred"), "--out-prob", str(out / "prob")]
        else:
            argv += ["--mask", str(scene_dir / "mask.json"), "--out", str(out / "r.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "class_names must list 2 strings" in _error_lines(captured.err)[0]
        assert not any(out.iterdir())


class TestFailedWrite:
    """An output that cannot be written, here because its parent is a
    file, is a data error: exit 2, one error line, no temp file left."""

    @pytest.mark.parametrize("command", ["train", "predict", "evaluate", "cross", "synth"])
    def test_reported_as_data_error(self, command, scene_dir, model_dir, tmp_path, capsys):
        parent = tmp_path / "parent"
        parent.write_text("a file, not a directory")
        out = str(parent / "out")
        raster, mask = str(scene_dir / "raster.json"), str(scene_dir / "mask.json")
        model = str(model_dir / "model.ccf.json")
        argv = {
            "train": ["--raster", raster, "--mask", mask, "--out", out + ".ccf.json",
                      "--trees", "2"],
            "predict": ["--model", model, "--raster", raster, "--out-mask", out,
                        "--out-prob", str(tmp_path / "prob")],
            "evaluate": ["--pred", mask, "--truth", mask, "--out", out],
            "cross": ["--model", model, "--raster", raster, "--mask", mask, "--out", out],
            "synth": ["--width", "4", "--height", "4", "--out", out],
        }[command]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = _error_lines(err)
        assert len(errors) == 1 and errors[0].startswith(f"ccfmap: error: cannot write {out}")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["parent"]

    def test_probability_write_failure_leaves_the_mask(self, scene_dir, model_dir, tmp_path,
                                                       capsys):
        # the mask is complete before the probability raster fails, and
        # still neither output may change
        (tmp_path / "parent").write_text("a file, not a directory")
        write_mask(np.zeros((2, 3), np.uint8), tmp_path / "pred")  # an earlier mask
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["predict", "--model", str(model_dir / "model.ccf.json"),
                     "--raster", str(scene_dir / "raster.json"),
                     "--out-mask", str(tmp_path / "pred"),
                     "--out-prob", str(tmp_path / "parent" / "prob")]) == 2
        errors = _error_lines(capsys.readouterr().err)
        assert len(errors) == 1
        assert errors[0].startswith(f"ccfmap: error: cannot write {tmp_path / 'parent' / 'prob'}")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no *.tmp


class TestNoOutputOverwritesAnInput:
    """An output that names a file the command reads is a usage error:
    exit 1 before anything is read, one error line, every input whole."""

    @pytest.mark.parametrize("command,argv,clash", [
        ("train", ["--raster", "raster.json", "--mask", "mask.json", "--out", "raster.json"],
         "--raster and --out both name {raster.json}"),
        ("train", ["--raster", "raster.json", "--mask", "mask.report.json",
                   "--out", "mask.ccf.json"],
         "--mask and --out both name {mask.report.json}"),
        ("predict", ["--model", "m.ccf.json", "--raster", "raster.json",
                     "--out-mask", "pred", "--out-prob", "m.ccf.json"],
         "--model and --out-prob both name {m.ccf.json}"),
        ("evaluate", ["--pred", "mask.json", "--truth", "mask.json", "--out", "mask.json"],
         "--pred and --out both name {mask.json}"),
        ("evaluate", ["--pred", "mask.json", "--truth", "mask.json", "--out", "sub/up/mask.json"],
         "--pred and --out both name {mask.json}"),
        ("cross", ["--model", "m.ccf.json", "--raster", "raster.json", "--mask", "mask.json",
                   "--out", "./mask.bin"],
         "--mask and --out both name {mask.bin}"),
    ], ids=["train", "train-report", "predict", "evaluate", "evaluate-symlinked-dir", "cross"])
    def test_refused_with_inputs_unchanged(self, scene_dir, model_dir, tmp_path, capsys,
                                           monkeypatch, command, argv, clash):
        for name in ("raster.json", "raster.bin", "mask.json", "mask.bin"):
            shutil.copy(scene_dir / name, tmp_path / name)
        for ext in (".json", ".bin"):  # a mask named as the report of mask.ccf.json
            shutil.copy(scene_dir / f"mask{ext}", tmp_path / f"mask.report{ext}")
        shutil.copy(model_dir / "model.ccf.json", tmp_path / "m.ccf.json")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "up").symlink_to(tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        monkeypatch.chdir(tmp_path)
        assert main([command, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _error_lines(captured.err) == [
            "ccfmap: error: " + re.sub(r"\{(.*?)\}", lambda m: str(tmp_path / m[1]), clash)
        ]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


class TestResourceFailure:
    """A worker process killed mid-run (as the OOM killer does) and a
    MemoryError end in one error line that names CCF_THREADS, exit 4,
    and no output or temp file."""

    def _predict(self, scene_dir, model_dir, tmp_path, capsys):
        rc = main(["predict", "--model", str(model_dir / "model.ccf.json"),
                   "--raster", str(scene_dir / "raster.json"),
                   "--out-mask", str(tmp_path / "pred"), "--out-prob", str(tmp_path / "prob")])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == "" and "Traceback" not in captured.err
        errors = _error_lines(captured.err)
        assert len(errors) == 1 and "CCF_THREADS" in errors[0]
        assert list(tmp_path.iterdir()) == []
        return errors[0]

    def test_worker_killed(self, scene_dir, model_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setenv("CCF_THREADS", "2")
        parent, real_piece = os.getpid(), forest._predict_piece

        def killed_piece(model, raster, size, start):
            if start == 0:
                assert os.getpid() != parent, "the first window ran in the parent"
                os.kill(os.getpid(), signal.SIGKILL)
            return real_piece(model, raster, size, start)

        monkeypatch.setattr(forest, "_predict_piece", killed_piece)
        assert "BrokenProcessPool" in self._predict(scene_dir, model_dir, tmp_path, capsys)

    def test_memory_error_serial(self, scene_dir, model_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CCF_THREADS", "1")

        def no_memory(model, spectra):
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(forest, "predict_proba_batch", no_memory)
        assert self._predict(scene_dir, model_dir, tmp_path, capsys) == (
            "ccfmap: error: out of memory or a worker process lost (MemoryError('Unable to "
            "allocate 1.00 TiB')); a lower CCF_THREADS runs fewer workers"
        )


class TestPoolThatCannotStart:
    """A pool whose thread cannot start (as under an address-space limit,
    where thread start raises RuntimeError), or whose thread dies starting
    its queue's feeder thread, ends the workers it forked, which would
    otherwise wait for tasks forever and hold the command's exit, and the
    command exits 4 with one error line."""

    PRELUDE = "\n".join([
        "import threading",
        "start = threading.Thread.start",
        "def refuse(thread):",
        "    if {refused}:",
        "        raise RuntimeError(\"can't start new thread\")",
        "    start(thread)",
        "threading.Thread.start = refuse",
        "from ccfmap import forest",
        "forest._usable_cores = lambda: 2",
    ])
    REFUSED = {  # which thread starts fail
        "pool": "True",
        "feeder": "threading.current_thread() is not threading.main_thread()",
    }

    @pytest.mark.parametrize("refused", ["pool", "feeder"])
    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_exits_4_and_leaves_no_worker(self, command, refused, run_ccfmap, tmp_path):
        assert main(["synth", "--width", "256", "--height", "256", "--bands", "1",
                     "--separation", "8", "--out", str(tmp_path)]) == 0
        scene = ["--raster", tmp_path / "raster.json"]
        argv = {
            "predict": ["predict", "--model", tmp_path / "m.ccf.json", *scene,
                        "--out-mask", tmp_path / "pred", "--out-prob", tmp_path / "prob"],
            "train": ["train", *scene, "--mask", tmp_path / "mask.json",
                      "--out", tmp_path / "m.ccf.json", "--trees", "2"],
        }
        if command == "predict":  # 65,536 pixels, at least forest._FANOUT_FLOOR
            assert run_ccfmap([*argv["train"], "--no-eval"]).returncode == 0
        before = sorted(tmp_path.iterdir())
        prelude = self.PRELUDE.format(refused=self.REFUSED[refused])
        done = run_ccfmap(argv[command], threads="2", timeout=30, prelude=prelude)
        assert done.returncode == 4 and "Traceback" not in done.stderr
        assert _error_lines(done.stderr) == [
            "ccfmap: error: out of memory or a worker process lost (MemoryError(\"the worker "
            "pool could not start: can't start new thread\")); a lower CCF_THREADS runs fewer "
            "workers"]
        assert sorted(tmp_path.iterdir()) == before


class TestNumericFailure:
    """A numeric failure in growth, in this process or in a forked worker
    (which inherits the patch; the pool raises its error here), ends in
    one "numeric error" line after the config line, exit 3, no model."""

    @pytest.mark.parametrize("threads, where", [("1", "parent"), ("2", "worker")])
    def test_linalg_error_exits_3(self, threads, where, scene_dir, tmp_path, capsys,
                                  monkeypatch):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
        monkeypatch.setenv("CCF_THREADS", threads)
        parent = os.getpid()

        def no_directions(*args):
            side = "parent" if os.getpid() == parent else "worker"
            raise np.linalg.LinAlgError(f"eigh failed in the {side}")

        monkeypatch.setattr(forest, "binary_directions", no_directions)
        rc = main(["train", "--raster", str(scene_dir / "raster.json"),
                   "--mask", str(scene_dir / "mask.json"),
                   "--out", str(tmp_path / "model.ccf.json"), "--seed", "3"])
        captured = capsys.readouterr()
        assert rc == 3
        lines = captured.err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("ccfmap: config ")
        assert lines[1] == f"ccfmap: numeric error: eigh failed in the {where}"
        assert captured.out == "" and list(tmp_path.iterdir()) == []


class TestEvaluateAndCross:
    def test_perfect_self_evaluation(self, scene_dir, tmp_path):
        rc = main(
            [
                "evaluate",
                "--pred", str(scene_dir / "mask.json"),
                "--truth", str(scene_dir / "mask.json"),
                "--out", str(tmp_path / "eval.report.json"),
            ]
        )
        assert rc == 0
        report = read_report(tmp_path / "eval.report.json")
        assert report["pixel_accuracy_percent"] == 100.0
        assert report["mean_iou_percent"] == 100.0

    def test_shape_mismatch(self, scene_dir, tmp_path, capsys):
        small = np.zeros((4, 4), dtype=np.uint8)
        small[0, 0] = 1
        write_mask(small, tmp_path / "small")
        rc = main(
            [
                "evaluate",
                "--pred", str(tmp_path / "small.json"),
                "--truth", str(scene_dir / "mask.json"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert "ccfmap: error:" in capsys.readouterr().err

    def test_cross_shape_mismatch_found_before_predicting(self, scene_dir, model_dir,
                                                         tmp_path, capsys, monkeypatch):
        write_mask(np.zeros((24, 48), dtype=np.uint8), tmp_path / "half")

        def no_prediction(model, raster):
            raise AssertionError("the raster was predicted")

        monkeypatch.setattr(cli, "predict_windows", no_prediction)
        rc = main(
            [
                "cross",
                "--model", str(model_dir / "model.ccf.json"),
                "--raster", str(scene_dir / "raster.json"),
                "--mask", str(tmp_path / "half.json"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2
        assert _error_lines(capsys.readouterr().err) == [
            "ccfmap: error: shape mismatch: raster (48, 48) vs truth (24, 48)"
        ]
        assert not (tmp_path / "r.json").exists()

    def test_cross_illegal_truth_found_before_predicting(self, scene_dir, model_dir, tmp_path,
                                                         capsys, monkeypatch):
        _illegal_mask(scene_dir, tmp_path / "bad", 1000, monkeypatch)

        def no_prediction(model, raster):
            raise AssertionError("the raster was predicted")

        monkeypatch.setattr(cli, "predict_windows", no_prediction)
        rc = main(["cross", "--model", str(model_dir / "model.ccf.json"),
                   "--raster", str(scene_dir / "raster.json"),
                   "--mask", str(tmp_path / "bad.json"), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert _error_lines(capsys.readouterr().err) == [
            "ccfmap: error: mask contains illegal value 7 at pixel index 1000"  # the whole mask's
        ]
        assert not (tmp_path / "r.json").exists()

    def test_evaluate_checks_pred_before_truth(self, scene_dir, tmp_path, capsys, monkeypatch):
        _illegal_mask(scene_dir, tmp_path / "bad", 2000, monkeypatch)
        rc = main(["evaluate", "--pred", str(tmp_path / "bad.json"),
                   "--truth", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert _error_lines(capsys.readouterr().err) == [
            "ccfmap: error: mask contains illegal value 7 at pixel index 2000"
        ]

    def test_windowed_evaluate_equals_the_whole_masks(self, scene_dir, tmp_path, monkeypatch):
        truth = read_mask(scene_dir / "mask.json")
        pred = truth.copy()
        pred[::7, ::3] = 1 - pred[::7, ::3]
        pred[5, :] = 255  # abstentions
        truth = truth.copy()
        truth[:, 40:] = 255  # skipped pixels
        write_mask(pred, tmp_path / "pred")
        write_mask(truth, tmp_path / "truth")
        write_report(evaluate(pred, truth), tmp_path / "whole.report.json")
        monkeypatch.setattr(raster_io, "_MASK_WINDOW", 100)  # windows cut rows
        assert main(["evaluate", "--pred", str(tmp_path / "pred.json"),
                     "--truth", str(tmp_path / "truth.json"),
                     "--out", str(tmp_path / "windowed.report.json")]) == 0
        assert ((tmp_path / "windowed.report.json").read_bytes()
                == (tmp_path / "whole.report.json").read_bytes())

    def test_nothing_evaluable(self, scene_dir, tmp_path):
        blank = np.full((48, 48), 255, dtype=np.uint8)
        write_mask(blank, tmp_path / "blank")
        rc = main(
            [
                "evaluate",
                "--pred", str(scene_dir / "mask.json"),
                "--truth", str(tmp_path / "blank.json"),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2

    def test_cross_matches_predict_then_evaluate(self, scene_dir, model_dir, tmp_path):
        rc = main(
            [
                "cross",
                "--model", str(model_dir / "model.ccf.json"),
                "--raster", str(scene_dir / "raster.json"),
                "--mask", str(scene_dir / "mask.json"),
                "--out", str(tmp_path / "cross.report.json"),
            ]
        )
        assert rc == 0
        assert main(
            [
                "predict",
                "--model", str(model_dir / "model.ccf.json"),
                "--raster", str(scene_dir / "raster.json"),
                "--out-mask", str(tmp_path / "pred"),
                "--out-prob", str(tmp_path / "prob"),
            ]
        ) == 0
        assert main(
            [
                "evaluate",
                "--pred", str(tmp_path / "pred.json"),
                "--truth", str(scene_dir / "mask.json"),
                "--out", str(tmp_path / "eval.report.json"),
            ]
        ) == 0
        cross = read_report(tmp_path / "cross.report.json")
        manual = read_report(tmp_path / "eval.report.json")
        assert cross["pixel_accuracy"] == manual["pixel_accuracy"]
        assert cross["confusion"] == manual["confusion"]

    def test_label_flip_complements_accuracy(self, scene_dir, model_dir, tmp_path):
        truth = read_mask(scene_dir / "mask.json")
        flipped = np.where(truth == 255, 255, 1 - truth).astype(np.uint8)
        write_mask(flipped, tmp_path / "flipped")
        for name, mask_path in [("same", scene_dir / "mask.json"),
                                ("flip", tmp_path / "flipped.json")]:
            rc = main(
                [
                    "cross",
                    "--model", str(model_dir / "model.ccf.json"),
                    "--raster", str(scene_dir / "raster.json"),
                    "--mask", str(mask_path),
                    "--out", str(tmp_path / f"{name}.report.json"),
                ]
            )
            assert rc == 0
        same = read_report(tmp_path / "same.report.json")["pixel_accuracy"]
        flip = read_report(tmp_path / "flip.report.json")["pixel_accuracy"]
        assert abs((1.0 - same) - flip) < 1e-12


class TestStreamedOutputs:
    """predict and cross take their windows from forest.predict_windows and
    write or score each as it arrives: outputs the same bytes for any
    worker count, a worker's error as one error line, and no whole-scene
    output held in memory."""

    @pytest.fixture(scope="class")
    def gappy_dir(self, scene_dir, tmp_path_factory):
        """scene_dir's raster with one band at nodata on every fifth pixel
        from the fourth on."""
        out = tmp_path_factory.mktemp("gappy")
        values = read_raster(scene_dir / "raster.json").values.copy()
        flat = values.reshape(-1, values.shape[2])
        for p in range(3, flat.shape[0], 5):
            flat[p, p % flat.shape[1]] = -7.0
        write_raster(MultispectralRaster(values, nodata=-7.0), out / "raster")
        return out

    def _commands(self, scene_dir, model_dir, gappy_dir, out):
        model, raster = str(model_dir / "model.ccf.json"), str(gappy_dir / "raster.json")
        return [
            ["predict", "--model", model, "--raster", raster,
             "--out-mask", str(out / "pred"), "--out-prob", str(out / "prob")],
            ["cross", "--model", model, "--raster", raster,
             "--mask", str(scene_dir / "mask.json"), "--out", str(out / "cross.report.json")],
        ]

    def _outputs(self, out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    @pytest.mark.parametrize("threads", ["1", "2", "3", None])
    def test_outputs_identical_across_worker_counts(self, scene_dir, model_dir, gappy_dir,
                                                    tmp_path, monkeypatch, threads):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 3)
        want = tmp_path / "want"
        want.mkdir()
        monkeypatch.setenv("CCF_THREADS", "1")
        for argv in self._commands(scene_dir, model_dir, gappy_dir, want):
            assert main(argv) == 0  # serial, one window
        got = tmp_path / "got"
        got.mkdir()
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 39)  # windows of 36 or 48 pixels
        if threads is None:
            monkeypatch.delenv("CCF_THREADS")
        else:
            monkeypatch.setenv("CCF_THREADS", threads)
        for argv in self._commands(scene_dir, model_dir, gappy_dir, got):
            assert main(argv) == 0
        assert self._outputs(got) == self._outputs(want)
        assert len(self._outputs(want)) == 5  # two sidecar pairs and the report

    @pytest.mark.parametrize("command", ["predict", "cross"])
    def test_worker_error_propagates(self, scene_dir, model_dir, gappy_dir, tmp_path, capsys,
                                     monkeypatch, command):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 39)
        monkeypatch.setenv("CCF_THREADS", "2")

        def failing_batch(model, spectra):
            raise DataError("piece failed")

        monkeypatch.setattr(forest, "predict_proba_batch", failing_batch)
        out = tmp_path / "out"
        out.mkdir()
        [argv] = [a for a in self._commands(scene_dir, model_dir, gappy_dir, out)
                  if a[0] == command]
        assert main(argv) == 2
        assert _error_lines(capsys.readouterr().err) == ["ccfmap: error: piece failed"]
        assert not any(out.iterdir())

    def test_failed_write_submits_no_further_window(self, scene_dir, model_dir, tmp_path,
                                                    stand_in_pool, monkeypatch):
        monkeypatch.setattr(forest, "_usable_cores", lambda: 2)
        monkeypatch.setattr(forest, "_FANOUT_FLOOR", 16)
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 64)  # 36 windows of 64 pixels
        monkeypatch.setenv("CCF_THREADS", "2")
        (tmp_path / "parent").write_text("a file, not a directory")
        assert main(["predict", "--model", str(model_dir / "model.ccf.json"),
                     "--raster", str(scene_dir / "raster.json"),
                     "--out-mask", str(tmp_path / "pred"),
                     "--out-prob", str(tmp_path / "parent" / "prob")]) == 2
        # the first window's probabilities fail to write: it and the four
        # windows ahead of it were submitted, and those four are cancelled
        assert stand_in_pool == [("submit", s) for s in range(0, 320, 64)] + [
            ("cancel", s) for s in range(64, 320, 64)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["parent"]

    def test_commands_hold_no_whole_scene_output(self, tmp_path, monkeypatch):
        """predict and cross of a 1024^2 raster, serially in windows of
        4,096 pixels, peak (tracemalloc) below 1 B/px, where their outputs
        are 5 B/px: the model, a window and cross's fixed 0.5 MiB tally."""
        assert main(["synth", "--width", "32", "--height", "32", "--bands", "2",
                     "--separation", "8", "--out", str(tmp_path / "small")]) == 0
        assert main(["train", "--raster", str(tmp_path / "small" / "raster.json"),
                     "--mask", str(tmp_path / "small" / "mask.json"),
                     "--out", str(tmp_path / "m.ccf.json"), "--trees", "1", "--no-eval"]) == 0
        side = 1024
        values = np.random.default_rng(23).normal(size=(side, side, 2)).astype(np.float32)
        write_raster(MultispectralRaster(values, adopt=True), tmp_path / "big")
        write_mask((values[..., 0] > 0).astype(np.uint8), tmp_path / "truth")
        del values
        monkeypatch.setattr(forest, "_PREDICT_CHUNK", 4096)
        monkeypatch.setenv("CCF_THREADS", "1")
        common = ["--model", str(tmp_path / "m.ccf.json"), "--raster", str(tmp_path / "big.json")]
        outputs = side * side * (1 + 4)  # the uint8 mask and float32 probabilities
        for argv in (["predict", *common, "--out-mask", str(tmp_path / "pred"),
                      "--out-prob", str(tmp_path / "prob")],
                     ["cross", *common, "--mask", str(tmp_path / "truth.json"),
                      "--out", str(tmp_path / "cross.report.json")]):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < outputs / 5, argv[0]  # under 1 B/px: 0.40 and 0.63 MiB measured

    def test_address_space_below_the_outputs(self, run_ccfmap, tmp_path):
        """predict and cross of a 3000^2 raster, each in a child process
        under RLIMIT_AS of the child's base after `import numpy` plus 3/4 of
        the outputs' 45 MB (5 B/px), forked workers under the same limit,
        so no process may hold the outputs. The commands need about 9.4 MB
        above that base serially and 23.4 MB pooled, 8 MB of it a pool
        thread's stack. Every output equals an unlimited run's."""
        assert main(["synth", "--width", "32", "--height", "32", "--bands", "1",
                     "--separation", "8", "--out", str(tmp_path / "small")]) == 0
        assert main(["train", "--raster", str(tmp_path / "small" / "raster.json"),
                     "--mask", str(tmp_path / "small" / "mask.json"),
                     "--out", str(tmp_path / "m.ccf.json"), "--trees", "1", "--no-eval"]) == 0
        side = 3000
        tile = np.random.default_rng(24).normal(size=(60, 60, 1)).astype(np.float32)
        values = np.tile(tile, (side // 60, side // 60, 1))
        write_raster(MultispectralRaster(values, adopt=True), tmp_path / "big")
        write_mask((values[..., 0] > 0).astype(np.uint8), tmp_path / "truth")
        del values
        common = ["--model", tmp_path / "m.ccf.json", "--raster", tmp_path / "big.json"]

        def run(out, above_base, threads):
            out.mkdir()
            for argv in (["predict", *common, "--out-mask", out / "pred",
                          "--out-prob", out / "prob"],
                         ["cross", *common, "--mask", tmp_path / "truth.json",
                          "--out", out / "cross.report.json"]):
                done = run_ccfmap(argv, above_base, threads)
                assert done.returncode == 0, (argv[0], threads, done.stderr)
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        want = run(tmp_path / "unlimited", None, "1")
        for threads in ("1", "2"):
            assert run(tmp_path / f"limited{threads}", side * side * 5 * 3 // 4, threads) == want
