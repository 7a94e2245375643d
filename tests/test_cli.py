"""End-to-end command-line flows on tiny datasets."""

import argparse
import ast
import inspect
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from otmil import cli, data, metrics
from otmil.cli import main, parse_k_values

GEN_FLAGS = ["--bags", "12", "--test-bags", "6", "--bag-size", "12",
             "--ratio", "0.25", "--dim", "5"]
FAST = ["--epochs", "3", "--batch-size", "32", "--lr", "0.01"]
FAST_TRAIN = [*FAST, "--mu", "0.25", "--warmup-T", "2"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "d"
    run(["gen", "normal", *GEN_FLAGS, "--seed", "1", "--out", out])
    return out


def summary_provenance(argv, out):
    """Run ``otmil ARGV --out OUT`` in a child with only
    OPENBLAS_NUM_THREADS=1 set of the BLAS thread variables (they are read
    at BLAS load), and return its summary.json's provenance block."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    subprocess.run([sys.executable, "-m", "otmil.cli", *map(str, argv),
                    "--out", str(out)], env=env, check=True)
    return json.loads((out / "summary.json").read_text())["provenance"]


PROVENANCE_WITH_ONE_THREAD = {"numpy": numpy.__version__,
                              "OPENBLAS_NUM_THREADS": "1",
                              "OMP_NUM_THREADS": None,
                              "MKL_NUM_THREADS": None}


@pytest.fixture
def idx(tmp_path):
    """60 2x2 images, six of each digit, every pixel of digit k at
    25k + 1: the image and label file paths."""
    labels = numpy.arange(60) % 10
    images = numpy.repeat(25 * labels + 1, 4).astype(numpy.uint8)
    idx = [tmp_path / "images.idx", tmp_path / "labels.idx"]
    idx[0].write_bytes(struct.pack(">IIII", 0x803, 60, 2, 2)
                       + images.tobytes())
    idx[1].write_bytes(struct.pack(">II", 0x801, 60)
                       + labels.astype(numpy.uint8).tobytes())
    return idx


class TestGen:
    def test_normal_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen", "normal", *GEN_FLAGS, "--seed", "7",
                    "--out", out]) == 0
        assert (out / "train.ndjson").exists()
        assert (out / "test.ndjson").exists()
        assert (out / "config.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["positive_ratio"] == 0.25
        assert manifest["seed"] == 7
        assert manifest["splits"]["train.ndjson"]["bags"] == 12

    def test_hard_writes_four_datasets(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen", "hard", *GEN_FLAGS, "--out", out]) == 0
        names = {p.name for p in out.glob("*.ndjson")}
        assert names == {"train.ndjson", "test_normal.ndjson",
                         "test_pos0.ndjson", "test_pos8.ndjson"}

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen", "normal", *GEN_FLAGS, "--seed", "3", "--out", a])
        run(["gen", "normal", *GEN_FLAGS, "--seed", "3", "--out", b])
        assert (a / "train.ndjson").read_bytes() == \
               (b / "train.ndjson").read_bytes()

    def test_invalid_ratio_fails_with_marker(self, tmp_path):
        out = tmp_path / "d"
        code = run(["gen", "normal", "--ratio", "1.5", "--out", out])
        assert code != 0
        assert (out / ".failed").exists()

    def test_zero_dim_fails_with_reason(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen", "normal", "--dim", "0", "--out", out]) == 2
        assert "feature_dim must be >= 1" in (out / ".failed").read_text()

    @pytest.mark.parametrize("flags,field", [
        (["normal", "--separation", "nan"], "cluster_separation"),
        (["normal", "--separation", "inf"], "cluster_separation"),
        (["hard", "--second-separation", "nan"], "second_separation")])
    def test_non_finite_separation_names_the_field(self, tmp_path, flags,
                                                   field):
        out = tmp_path / "d"
        assert run(["gen", *flags, *GEN_FLAGS, "--out", out]) == 2
        assert f"{field} must be finite" in (out / ".failed").read_text()
        assert not list(out.glob("*.ndjson"))

    @pytest.mark.parametrize("scheme", ["normal", "hard"])
    def test_one_test_bag_fails_with_reason(self, tmp_path, scheme):
        out = tmp_path / "d"
        assert run(["gen", scheme, *GEN_FLAGS, "--test-bags", "1",
                    "--out", out]) == 2
        assert "test_bags must be >= 2" in (out / ".failed").read_text()
        assert not list(out.glob("*.ndjson"))

    @pytest.mark.parametrize("argv", [
        ["gen", "normal", *GEN_FLAGS, "--ratio", "0.001"],
        # the setting fails before the images load: none exist here
        ["gen-idx", "no-images", "no-labels", "--bag-size", "4",
         "--ratio", "0.2"]])
    def test_empty_positive_content_names_both_fields(self, tmp_path, argv):
        out = tmp_path / "d"
        assert run([*argv, "--out", out]) == 2
        assert ("empty positive content: positive_ratio * bag_size must be "
                ">= 1, got") in (out / ".failed").read_text()

    @pytest.mark.parametrize("scheme,digits", [("normal", {9}),
                                               ("hard", {0, 8})])
    def test_from_idx_writes_train_alone(self, tmp_path, idx, scheme,
                                         digits):
        out = tmp_path / "d"
        assert run(["gen-idx", *idx, "--scheme", scheme,
                    "--bags", "12", "--bag-size", "4", "--ratio", "0.25",
                    "--out", out]) == 0
        assert {p.name for p in out.iterdir()} == {
            "train.ndjson", "manifest.json", "config.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["splits"]) == ["train.ndjson"]
        ds = data.load_ndjson(out / "train.ndjson")
        digit = numpy.rint(ds.features[:, 0] * 255 - 1) / 25
        positive = ds.instance_labels == 1
        assert positive.any() and (~positive).any()
        assert set(digit[positive].tolist()) <= digits
        assert not set(digit[~positive].tolist()) & digits

    def test_from_idx_deals_the_bags_asked_for(self, tmp_path, idx):
        # the six 9s and 54 other digits fill six positive/negative pairs
        for bags in (2, 4):
            out = tmp_path / f"d{bags}"
            assert run(["gen-idx", *idx, "--bags", bags,
                        "--bag-size", "4", "--ratio", "0.25",
                        "--out", out]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["splits"]["train.ndjson"]["bags"] == bags
            ds = data.load_ndjson(out / "train.ndjson")
            assert ds.bag_labels.tolist() == [1, 0] * (bags // 2)
        out = tmp_path / "d14"
        assert run(["gen-idx", *idx, "--bags", "14",
                    "--bag-size", "4", "--ratio", "0.25", "--out", out]) == 2
        assert ("pool too small for 14 bags: it fills at most 12"
                in (out / ".failed").read_text())
        assert not (out / "train.ndjson").exists()


class TestTrain:
    def test_outputs_and_summary(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        assert run(["train", "--data", dataset_dir, *FAST_TRAIN,
                    "--out", out]) == 0
        for name in ("checkpoint.json", "metrics.csv", "summary.json",
                     "config.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "instance_auc" in summary["final"]
        assert summary["final"]["mu_t"] == 0.25

    def test_epoch_zero_mu_is_half(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        run(["train", "--data", dataset_dir, *FAST_TRAIN, "--out", out])
        first = (out / "metrics.csv").read_text().splitlines()[1]
        assert first.split(",")[1] == "0.5"

    def test_no_constrain_flags_degeneration(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        assert run(["train", "--data", dataset_dir, *FAST_TRAIN,
                    "--epochs", "8", "--no-constrain", "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "degenerate" in summary
        assert summary["config"]["constrain"] is False

    def test_missing_data_fails(self, tmp_path):
        out = tmp_path / "t"
        assert run(["train", "--data", tmp_path / "nope", "--out", out]) != 0
        assert (out / ".failed").exists()

    def test_parses_only_the_split_it_reads(self, tmp_path):
        # train reads test.ndjson of a hard corpus's four splits
        d, t, b = tmp_path / "d", tmp_path / "t", tmp_path / "b"
        run(["gen", "hard", *GEN_FLAGS, "--out", d])
        bad = d / "test_pos8.ndjson"
        bad.write_text("{not json\n")
        assert run(["train", "--data", d, *FAST_TRAIN, "--out", t]) == 0
        assert run(["baseline", "max", "--data", d, "--epochs", "1",
                    "--out", b]) == 2
        assert str(bad) in (b / ".failed").read_text()

    def test_zero_hidden_names_the_field(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        assert run(["train", "--data", dataset_dir, *FAST_TRAIN,
                    "--hidden", "0", "--out", out]) != 0
        assert "hidden must be >= 1" in (out / ".failed").read_text()

    @pytest.mark.parametrize("flag,value,field", [
        ("--lambda", "nan", "sharpness"), ("--lambda", "inf", "sharpness"),
        ("--lr", "inf", "learning_rate")])
    def test_non_finite_setting_names_the_field(self, dataset_dir, tmp_path,
                                                flag, value, field):
        out = tmp_path / "t"
        assert run(["train", "--data", dataset_dir, *FAST_TRAIN,
                    flag, value, "--out", out]) == 2
        assert f"{field} must be finite" in (out / ".failed").read_text()
        assert not (out / "metrics.csv").exists()

    def test_summary_records_numpy_and_blas_threads(self, dataset_dir,
                                                    tmp_path):
        provenance = summary_provenance(
            ["train", "--data", dataset_dir, *FAST_TRAIN], tmp_path / "t")
        assert provenance == PROVENANCE_WITH_ONE_THREAD


class TestEval:
    def test_scores_checkpoint(self, tmp_path):
        d, t, e = tmp_path / "d", tmp_path / "t", tmp_path / "e"
        run(["gen", "normal", *GEN_FLAGS, "--out", d])
        run(["train", "--data", d, *FAST_TRAIN, "--out", t])
        assert run(["eval", "--checkpoint", t / "checkpoint.json",
                    "--data", d / "test.ndjson", "--out", e]) == 0
        result = json.loads((e / "eval.json").read_text())
        assert set(result) == {"instance_auc", "bag_auc", "n_bags"}
        lines = (e / "bag_scores.csv").read_text().splitlines()
        assert lines[0] == "bag_id,label,score"
        assert len(lines) == result["n_bags"] + 1


    def test_eval_matches_training_metrics(self, tmp_path):
        # eval and the trainer score a checkpoint through one code path
        d, t, e = tmp_path / "d", tmp_path / "t", tmp_path / "e"
        run(["gen", "normal", *GEN_FLAGS, "--out", d])
        run(["train", "--data", d, *FAST_TRAIN, "--eval", d / "test.ndjson",
             "--out", t])
        assert run(["eval", "--checkpoint", t / "checkpoint.json",
                    "--data", d / "test.ndjson", "--out", e]) == 0
        result = json.loads((e / "eval.json").read_text())
        final = json.loads((t / "summary.json").read_text())["final"]
        assert result["instance_auc"] == final["instance_auc"]
        assert result["bag_auc"] == final["bag_auc"]

    @pytest.mark.parametrize("defect, message", [
        ("truncated", "checkpoint: malformed JSON (Expecting"),
        ("header", "layer w_hidden: shape"),
        ("no arch", "checkpoint: missing field arch"),
        ("non-finite", "layer w_out: non-finite"),
        ("not utf-8", "checkpoint: line ")])
    def test_checkpoint_error_names_the_file(self, dataset_dir, tmp_path,
                                             capsys, defect, message):
        t, e = tmp_path / "t", tmp_path / "e"
        run(["train", "--data", dataset_dir, *FAST_TRAIN, "--out", t])
        checkpoint = t / "checkpoint.json"
        text = checkpoint.read_text()
        blob = json.loads(text)
        if defect == "truncated":
            text = text[:len(text) // 2]
        elif defect == "not utf-8":
            text = text.replace('"w_out"', '"\udcffw_out"')
        else:
            if defect == "header":
                blob["hidden"] += 1
            elif defect == "no arch":
                del blob["arch"]
            else:
                blob["layers"]["w_out"]["data"][0] = "VALUE"
            text = json.dumps(blob).replace('"VALUE"', "1e999")
        checkpoint.write_text(text, encoding="utf-8", errors="surrogateescape")
        capsys.readouterr()
        assert run(["eval", "--checkpoint", checkpoint,
                    "--data", dataset_dir / "test.ndjson", "--out", e]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {checkpoint}: {message}")


def test_text_files_are_utf8_in_any_locale(tmp_path):
    # every text file the library opens names its encoding: otherwise it
    # would read and write in the locale's, and here fail with a warning
    script = """
import sys
from otmil.cli import main
from otmil.data import load_benchmark_csv
out = sys.argv[1]
for argv in (["gen", "normal", "--bags", "12", "--test-bags", "6",
              "--bag-size", "12", "--ratio", "0.25", "--out", out + "/d"],
             ["train", "--data", out + "/d", "--epochs", "2",
              "--out", out + "/t"],
             ["eval", "--checkpoint", out + "/t/checkpoint.json",
              "--data", out + "/d/test.ndjson", "--out", out + "/e"]):
    assert main(argv) == 0, argv
with open(out + "/b.csv", "w", encoding="utf-8") as fh:
    fh.write("bag_id,bag_label,f0\\nb\\u00e9,1,0.5\\n")
assert load_benchmark_csv(out + "/b.csv").bag_ids == ("b\\u00e9",)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSweep:
    def test_mu_grid_rows(self, tmp_path):
        d, s = tmp_path / "d", tmp_path / "s"
        run(["gen", "normal", *GEN_FLAGS, "--out", d])
        assert run(["sweep", "--data", d, *FAST, "--grid-T", "2",
                    "--grid-mu", "0.2", "0.3", "--out", s]) == 0
        lines = (s / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mu,warmup,instance_auc,bag_auc"
        assert len(lines) == 3
        summary = json.loads((s / "summary.json").read_text())
        assert summary["best"]["mu"] in (0.2, 0.3)
        assert len(summary["rows"]) == 2

    def test_holdout_grid_scores_each_model_once(self, tmp_path,
                                                 monkeypatch):
        # one instance AUC and one bag AUC per grid point, none per epoch
        d, s = tmp_path / "d", tmp_path / "s"
        run(["gen", "normal", *GEN_FLAGS, "--out", d])
        log = tmp_path / "roc_auc_calls"
        real = metrics.roc_auc

        def spy(*args, **kwargs):
            with open(log, "a") as fh:  # the models train in worker processes
                fh.write("1\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "roc_auc", spy)
        grid = ["0.2", "0.25", "0.3"]
        assert run(["sweep", "--data", d, *FAST, "--grid-T", "2",
                    "--grid-mu", *grid, "--out", s]) == 0
        calls = log.read_text().splitlines()
        assert len(calls) == 2 * len(grid)

    def test_kfold_mode(self, tmp_path):
        d, s = tmp_path / "d", tmp_path / "s"
        run(["gen", "normal", *GEN_FLAGS, "--out", d])
        assert run(["sweep", "--data", d / "train.ndjson", *FAST,
                    "--grid-mu", "0.25", "--grid-T", "2",
                    "--kfold", "3", "--out", s]) == 0
        lines = (s / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mu,warmup,mean_bag_accuracy"
        assert len(lines) == 2

    def test_holdout_grid_is_mu_by_warmup(self, dataset_dir, tmp_path):
        # one row per (mu, T) cell, mu in the outer loop, each scoring as
        # the train run of that mu and warmup on the same split
        s = tmp_path / "s"
        # T = 0 holds mu from epoch 0
        assert run(["sweep", "--data", dataset_dir, *FAST,
                    "--grid-mu", "0.2", "0.3", "--grid-T", "0", "2", "3",
                    "--out", s]) == 0
        rows = json.loads((s / "summary.json").read_text())["rows"]
        cells = [(0.2, 0), (0.2, 2), (0.2, 3), (0.3, 0), (0.3, 2), (0.3, 3)]
        assert [(row["mu"], row["warmup"]) for row in rows] == cells
        assert len((s / "sweep.csv").read_text().splitlines()) == 7
        for row, (mu, warmup) in zip(rows, cells):
            t = tmp_path / f"t-{mu}-{warmup}"
            run(["train", "--data", dataset_dir, *FAST, "--mu", mu,
                 "--warmup-T", warmup, "--out", t])
            final = json.loads((t / "summary.json").read_text())["final"]
            assert (row["instance_auc"], row["bag_auc"]) == \
                   (final["instance_auc"], final["bag_auc"])

    def test_kfold_with_eval_fails_before_training(self, dataset_dir,
                                                   tmp_path, monkeypatch):
        def trained(*args, **kwargs):
            pytest.fail("trained a --kfold sweep given --eval")

        monkeypatch.setattr(cli, "benchmark_cv", trained)
        s = tmp_path / "s"
        assert run(["sweep", "--data", dataset_dir, *FAST, "--kfold", "3",
                    "--eval", "/no/such.ndjson", "--out", s]) == 2
        reason = (s / ".failed").read_text()
        assert "--kfold" in reason and "--eval" in reason
        assert not (s / "sweep.csv").exists()

    @pytest.mark.parametrize("grid", ["--grid-mu", "--grid-T"])
    def test_empty_grid_is_a_usage_error(self, dataset_dir, tmp_path, capsys,
                                         grid):
        with pytest.raises(SystemExit) as exit_:
            run(["sweep", "--data", dataset_dir, grid,
                 "--out", tmp_path / "s"])
        assert exit_.value.code == 2
        assert "expected at least one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "1", "-3"])
    def test_fewer_than_two_folds_is_a_usage_error(self, tmp_path, capsys,
                                                   k):
        # --data names no file: the count is refused before any load
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as exit_:
            run(["sweep", "--data", tmp_path / "absent.ndjson",
                 "--kfold", k, "--out", out])
        assert exit_.value.code == 2
        assert (f"argument --kfold: needs at least 2 folds, got {k}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("mode", [[], ["--kfold", "3"]])
    def test_summary_records_numpy_and_blas_threads(self, dataset_dir,
                                                    tmp_path, mode):
        provenance = summary_provenance(
            ["sweep", "--data", dataset_dir / "train.ndjson", *FAST,
             "--grid-mu", "0.2", "0.3", "--grid-T", "2", *mode],
            tmp_path / "s")
        assert provenance == PROVENANCE_WITH_ONE_THREAD


class TestAblation:
    def test_four_rows(self, tmp_path):
        d, a = tmp_path / "d", tmp_path / "a"
        run(["gen", "normal", *GEN_FLAGS, "--out", d])
        assert run(["ablation", "--data", d, *FAST_TRAIN, "--out", a]) == 0
        lines = (a / "ablation.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("name,soft_labels,constrain,adaptive")
        assert lines[1].startswith("hard-naive,False,False,False")
        assert lines[4].startswith("soft-constrained-adaptive,True,True,True")

    def test_config_echoes_no_switch(self, dataset_dir, tmp_path):
        a = tmp_path / "a"
        assert run(["ablation", "--data", dataset_dir, *FAST_TRAIN,
                    "--epochs", "1", "--out", a]) == 0
        echoed = json.loads((a / "config.json").read_text())
        assert not {"hard_labels", "no_constrain", "no_adaptive_mu"} & \
            set(echoed)

    def test_summary_records_numpy_and_blas_threads(self, dataset_dir,
                                                    tmp_path):
        provenance = summary_provenance(
            ["ablation", "--data", dataset_dir, *FAST_TRAIN], tmp_path / "a")
        assert provenance == PROVENANCE_WITH_ONE_THREAD


class TestBaseline:
    def test_reports_per_split_auc(self, tmp_path):
        d, b = tmp_path / "d", tmp_path / "b"
        run(["gen", "hard", *GEN_FLAGS, "--out", d])
        assert run(["baseline", "attention", "--data", d,
                    "--epochs", "5", "--out", b]) == 0
        report = json.loads((b / "baseline.json").read_text())
        assert report["kind"] == "attention"
        assert "test_pos0" in report["splits"]
        assert "test_pos8" in report["splits"]
        assert "instance_auc" in report["splits"]["test_pos0"]

    def test_zero_attention_hidden_names_the_field(self, tmp_path):
        d, b = tmp_path / "d", tmp_path / "b"
        run(["gen", "normal", *GEN_FLAGS, "--out", d])
        assert run(["baseline", "attention", "--data", d,
                    "--attn-hidden", "0", "--out", b]) != 0
        assert "attention_hidden must be >= 1" in (b / ".failed").read_text()

    @pytest.mark.parametrize("data,extra", [
        # a --test file named like the training split
        ("d", ["other/train.ndjson"]),
        # a --test file named like a split of the --data directory
        ("d", ["other/test.ndjson"]),
        # two --test files with one name
        ("d/train.ndjson", ["other/test.ndjson", "third/test.ndjson"])])
    def test_clashing_split_names_fail(self, tmp_path, data, extra):
        b = tmp_path / "b"
        for name in ("d", "other", "third"):
            run(["gen", "normal", *GEN_FLAGS, "--out", tmp_path / name])
        extra = [tmp_path / path for path in extra]
        flags = [arg for path in extra for arg in ("--test", path)]
        assert run(["baseline", "max", "--data", tmp_path / data,
                    *flags, "--epochs", "1", "--out", b]) == 2
        clash = extra[-1].stem
        assert f"split named '{clash}'" in (b / ".failed").read_text()
        assert not (b / "baseline.json").exists()


class TestFeatureWidths:
    """A split or a checkpoint of another feature width fails before any
    training or scoring, naming the file and both widths."""

    @pytest.fixture
    def narrow(self, tmp_path):
        """A split of width 3, against dataset_dir's 5."""
        out = tmp_path / "narrow"
        run(["gen", "normal", *GEN_FLAGS, "--dim", "3", "--out", out])
        return (out / "test.ndjson").rename(out / "narrow.ndjson")

    @pytest.fixture
    def no_training(self, monkeypatch):
        def trained(*args, **kwargs):
            pytest.fail("trained before the splits were checked")

        for name in ("self_train", "pool_baseline_train"):
            monkeypatch.setattr(cli, name, trained)

    @pytest.mark.parametrize("argv", [
        ["train", *FAST_TRAIN, "--eval"],
        ["baseline", "attention", "--epochs", "1", "--test"]])
    def test_eval_split(self, dataset_dir, narrow, no_training, tmp_path,
                        argv):
        out = tmp_path / "o"
        assert run([*argv, narrow, "--data", dataset_dir, "--out", out]) == 2
        assert (f"{narrow}: 3 features per instance, but the training data "
                "has 5") in (out / ".failed").read_text()

    def test_split_of_the_data_directory(self, dataset_dir, narrow,
                                         no_training, tmp_path):
        # train reads the directory's test split alone, baseline every one
        for argv, name in (
                (["train", *FAST_TRAIN], "test.ndjson"),
                (["baseline", "max", "--epochs", "1"],
                 "test_narrow.ndjson")):
            d, out = tmp_path / argv[0], tmp_path / f"{argv[0]}-out"
            shutil.copytree(dataset_dir, d)
            split = d / name
            shutil.copy(narrow, split)
            assert run([*argv, "--data", d, "--out", out]) == 2
            assert (f"{split}: 3 features per instance, but the training "
                    "data has 5") in (out / ".failed").read_text()

    def test_checkpoint(self, dataset_dir, narrow, tmp_path):
        t, e = tmp_path / "t", tmp_path / "e"
        run(["train", "--data", dataset_dir, *FAST_TRAIN, "--epochs", "1",
             "--out", t])
        checkpoint = t / "checkpoint.json"
        assert run(["eval", "--checkpoint", checkpoint, "--data", narrow,
                    "--out", e]) == 2
        assert (f"{narrow}: 3 features per instance, but checkpoint "
                f"{checkpoint} has 5") in (e / ".failed").read_text()
        assert not (e / "bag_scores.csv").exists()


class TestEntropy:
    def test_row_count(self, tmp_path):
        out = tmp_path / "e"
        assert run(["entropy", "--K", "1..4", "--p-steps", "9",
                    "--out", out]) == 0
        lines = (out / "entropy.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 9

    def test_csv_layout(self, tmp_path):
        # the one table writer's layout: CRLF rows, floats by repr
        out = tmp_path / "e"
        assert run(["entropy", "--K", "1,2", "--p-steps", "3",
                    "--out", out]) == 0
        lines = (out / "entropy.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"K,p,h_instance,h_bag,difference"
        assert lines[-1] == b"" and len(lines) == 1 + 2 * 3 + 1
        assert not any(b"\n" in line for line in lines)
        point = metrics.entropy_curve([2], [0.75])[0]
        assert lines[6].decode() == ",".join(
            [str(point.K), *map(repr, (point.p, point.h_instance,
                                       point.h_bag, point.difference))])

    def test_k_spec_forms(self):
        assert parse_k_values("64") == [64]
        assert parse_k_values("2,4,8") == [2, 4, 8]
        assert parse_k_values("1..5") == [1, 2, 3, 4, 5]
        for bad in ("0..3", "a", "2,,4", "1..x", "", "5..2"):
            with pytest.raises(ValueError, match=re.escape(
                    f"bad bag-size list: {bad!r}")):
                parse_k_values(bad)

    def test_bad_p_steps(self, tmp_path):
        out = tmp_path / "e"
        assert run(["entropy", "--p-steps", "0", "--out", out]) != 0
        assert (out / ".failed").exists()


class TestConfigEcho:
    def test_every_command_echoes(self, tmp_path):
        out = tmp_path / "e"
        run(["entropy", "--K", "2", "--p-steps", "3", "--out", out])
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["command"] == "entropy"
        assert echoed["p_steps"] == 3
        assert "seed" not in echoed


class TestFlags:
    """sweep's grid sets mu and T per cell and ablation's rows set the
    switches, so those subcommands reject the flags; train takes them.
    No subcommand takes --no-adaptive-mu: --warmup-T 0 holds mu. Nor
    --arch: the instance classifier is the MLP. eval and entropy draw
    nothing at random, so they take no --seed, and the IDX path is
    gen-idx, not gen --from-idx. gen and baseline take their mode as a
    word, and only gen hard reads the second concept's flags and only
    baseline attention reads --attn-hidden."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--mu", "0.2"], ["sweep", "--warmup-T", "2"],
        ["ablation", "--no-constrain"], ["ablation", "--hard-labels"],
        ["ablation", "--no-adaptive-mu"], ["train", "--no-adaptive-mu"],
        ["train", "--arch", "linear"],
        ["eval", "--seed", "1", "--checkpoint", "c"],
        ["entropy", "--seed", "1"], ["gen", "normal", "--from-idx", "I", "L"],
        ["gen", "normal", "--concept-mix", "0.9"],
        ["gen", "normal", "--second-separation", "9"],
        ["baseline", "max", "--attn-hidden", "4"],
        ["baseline", "mean", "--attn-hidden", "4"],
        ["gen", "--scheme", "hard"], ["baseline", "--kind", "max"]])
    def test_flag_nothing_reads_is_a_usage_error(self, tmp_path, capsys,
                                                 argv):
        with pytest.raises(SystemExit) as exit_:
            run([*argv, "--data", tmp_path, "--out", tmp_path / "o"])
        assert exit_.value.code == 2
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_train_takes_them_all(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        assert run(["train", "--data", dataset_dir, *FAST, "--mu", "0.3",
                    "--warmup-T", "4", "--no-constrain", "--hard-labels",
                    "--out", out]) == 0
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["schedule"] == {"mu_final": 0.3, "warmup_epochs": 4}
        assert (config["constrain"], config["soft_labels"]) == (False, False)
        assert "adaptive" not in config


class ReadRecorder(argparse.Namespace):
    """A namespace that, once ``reads`` is set, adds to it the name of each
    parsed value read from it. ``reads`` is a slot, so ``vars`` leaves it
    out."""

    __slots__ = ("reads",)

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        try:
            reads = object.__getattribute__(self, "reads")
        except AttributeError:  # still parsing
            return value
        if name in object.__getattribute__(self, "__dict__"):
            reads.add(name)
        return value


def subcommands(parser) -> dict:
    """``parser``'s subcommands, or modes, by name: {} if it has none."""
    return next((action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), {})


def command_lines(parser, words=()):
    """(words, parser) for ``parser`` and for every subcommand and mode
    under it, as in ("gen",), ("gen", "normal")."""
    yield words, parser
    for name, sub in subcommands(parser).items():
        yield from command_lines(sub, (*words, name))


# one argv per subcommand and mode, {data}, {checkpoint}, {images} and
# {labels} filled in by TestEveryFlagIsRead.paths
READ_CASES = {
    "gen": ["gen", "normal", *GEN_FLAGS],
    "gen-hard": ["gen", "hard", *GEN_FLAGS],
    "gen-idx": ["gen-idx", "{images}", "{labels}", "--bags", "4",
                "--bag-size", "4", "--ratio", "0.25"],
    "train": ["train", "--data", "{data}", *FAST_TRAIN],
    "eval": ["eval", "--checkpoint", "{checkpoint}",
             "--data", "{data}/test.ndjson"],
    "sweep": ["sweep", "--data", "{data}", *FAST, "--grid-mu", "0.25",
              "--grid-T", "2"],
    "sweep-kfold": ["sweep", "--data", "{data}", *FAST, "--grid-mu", "0.25",
                    "--grid-T", "2", "--kfold", "2"],
    "ablation": ["ablation", "--data", "{data}", *FAST_TRAIN],
    **{f"baseline-{kind}": ["baseline", kind, "--data", "{data}",
                            "--epochs", "2"] for kind in ("max", "mean")},
    "baseline-attention": ["baseline", "attention", "--data", "{data}",
                           "--epochs", "2", "--attn-hidden", "4"],
    "entropy": ["entropy", "--K", "2", "--p-steps", "3"],
}


class TestEveryFlagIsRead:
    """Every subcommand reads every value it parses: one parsed and never
    read is a flag that does nothing, yet config.json echoes it."""

    def test_every_subcommand_has_a_case(self):
        runnable = {words for words, parser in command_lines(
            cli.build_parser()) if not subcommands(parser)}
        assert {words for words in runnable for argv in READ_CASES.values()
                if tuple(argv[:len(words)]) == words} == runnable

    @pytest.fixture
    def paths(self, dataset_dir, idx, tmp_path):
        trained = tmp_path / "t"
        assert run(["train", "--data", dataset_dir, *FAST_TRAIN,
                    "--out", trained]) == 0
        return {"data": dataset_dir, "images": idx[0], "labels": idx[1],
                "checkpoint": trained / "checkpoint.json"}

    @pytest.mark.parametrize("mode", READ_CASES)
    def test_every_parsed_value_is_read(self, paths, tmp_path, mode):
        out = tmp_path / "o"
        out.mkdir()
        argv = [arg.format(**paths) for arg in READ_CASES[mode]]
        args = cli.build_parser().parse_args([*argv, "--out", str(out)],
                                             namespace=ReadRecorder())
        args.reads = set()
        args.func(args, out)
        assert set(vars(args)) - args.reads - {"command", "func", "out"} \
            == set()


class TestHelp:
    @pytest.mark.parametrize("words", [
        words for words, _ in command_lines(cli.build_parser())],
        ids=lambda words: " ".join(["otmil", *words]))
    def test_every_command_line_renders_help(self, capsys, words):
        """A stray % in a help string raises only when help prints."""
        with pytest.raises(SystemExit) as exit_:
            run([*words, "--help"])
        assert exit_.value.code == 0
        usage = " ".join(["usage: otmil", *words])
        assert capsys.readouterr().out.startswith(usage)


class TestReadme:
    def test_cli_examples_parse(self):
        """Every ``otmil`` command of README.md's CLI block, its ``\\``
        continuations joined, parses: a README example that passes a flag
        no subcommand takes fails here. Nothing runs."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("## CLI\n", 1)[1]
        block = block.split("```sh\n", 1)[1]
        lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
        parser = cli.build_parser()
        commands = set()
        for line in lines:
            if line.startswith("otmil "):
                try:
                    commands.add(parser.parse_args(
                        shlex.split(line)[1:]).command)
                except SystemExit:
                    pytest.fail(f"README.md: {line!r} does not parse")
        assert commands == {"gen", "gen-idx", "train", "eval", "sweep",
                            "ablation", "baseline", "entropy"}


class TestImports:
    def test_no_private_name_from_another_module(self):
        from otmil import cli
        tree = ast.parse(inspect.getsource(cli))
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []
