"""End-to-end tests for the ccfmap command line."""

import base64
import json
import tracemalloc

import numpy as np
import pytest

from ccfmap import cli, forest
from ccfmap.cli import main
from ccfmap.model_io import load_model
from ccfmap.raster_io import (
    MultispectralRaster,
    read_mask,
    read_raster,
    read_report,
    write_mask,
    write_raster,
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
        assert rc == 2
        assert _error_lines(capsys.readouterr().err) == [
            f"ccfmap: error: seed must be a 64-bit non-negative integer, got {2**64}"
        ]

    def test_train_bad_trees(self):
        rc = main(
            [
                "train", "--raster", "r.json", "--mask", "m.json",
                "--out", "o.json", "--trees", "0",
            ]
        )
        assert rc == 1


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


class TestBadThreadCount:
    @pytest.mark.parametrize("command", ["predict", "cross"])
    def test_rejected_like_train(self, command, scene_dir, model_dir, tmp_path,
                                 capsys, monkeypatch):
        monkeypatch.setenv("CCF_THREADS", "abc")

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(forest, "ProcessPoolExecutor", no_pool)
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
