"""End-to-end command-line flows on tiny datasets."""

import ast
import inspect
import json
import os
import subprocess
import sys

import numpy
import pytest

from otmil import metrics
from otmil.cli import main, parse_k_values

GEN_FLAGS = ["--bags", "12", "--test-bags", "6", "--bag-size", "12",
             "--ratio", "0.25", "--dim", "5"]
FAST_TRAIN = ["--epochs", "3", "--mu", "0.25", "--warmup-T", "2",
              "--batch-size", "32", "--lr", "0.01"]


def run(argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_normal_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen", *GEN_FLAGS, "--seed", "7", "--out", out]) == 0
        assert (out / "train.ndjson").exists()
        assert (out / "test.ndjson").exists()
        assert (out / "config.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["positive_ratio"] == 0.25
        assert manifest["seed"] == 7
        assert manifest["splits"]["train.ndjson"]["bags"] == 12

    def test_hard_writes_four_datasets(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen", "--scheme", "hard", *GEN_FLAGS, "--out", out]) == 0
        names = {p.name for p in out.glob("*.ndjson")}
        assert names == {"train.ndjson", "test_normal.ndjson",
                         "test_pos0.ndjson", "test_pos8.ndjson"}

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen", *GEN_FLAGS, "--seed", "3", "--out", a])
        run(["gen", *GEN_FLAGS, "--seed", "3", "--out", b])
        assert (a / "train.ndjson").read_bytes() == \
               (b / "train.ndjson").read_bytes()

    def test_invalid_ratio_fails_with_marker(self, tmp_path):
        out = tmp_path / "d"
        code = run(["gen", "--ratio", "1.5", "--out", out])
        assert code != 0
        assert (out / ".failed").exists()

    def test_zero_dim_fails_with_reason(self, tmp_path):
        out = tmp_path / "d"
        assert run(["gen", "--dim", "0", "--out", out]) == 2
        assert "feature_dim must be >= 1" in (out / ".failed").read_text()

    @pytest.mark.parametrize("scheme", ["normal", "hard"])
    def test_one_test_bag_fails_with_reason(self, tmp_path, scheme):
        out = tmp_path / "d"
        assert run(["gen", "--scheme", scheme, *GEN_FLAGS, "--test-bags", "1",
                    "--out", out]) == 2
        assert "test_bags must be >= 2" in (out / ".failed").read_text()
        assert not list(out.glob("*.ndjson"))


class TestTrain:
    @pytest.fixture
    def dataset_dir(self, tmp_path):
        out = tmp_path / "d"
        run(["gen", *GEN_FLAGS, "--seed", "1", "--out", out])
        return out

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

    def test_zero_hidden_names_the_field(self, dataset_dir, tmp_path):
        out = tmp_path / "t"
        assert run(["train", "--data", dataset_dir, *FAST_TRAIN,
                    "--hidden", "0", "--out", out]) != 0
        assert "hidden must be >= 1" in (out / ".failed").read_text()

    def test_summary_records_numpy_and_blas_threads(self, dataset_dir,
                                                    tmp_path):
        # thread counts are read at BLAS load, so set them in a child
        out = tmp_path / "t"
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        subprocess.run([sys.executable, "-m", "otmil.cli", "train", "--data",
                        str(dataset_dir), *FAST_TRAIN, "--out", str(out)],
                       env=env, check=True)
        provenance = json.loads((out / "summary.json").read_text())[
            "provenance"]
        assert provenance == {"numpy": numpy.__version__,
                              "OPENBLAS_NUM_THREADS": "1",
                              "OMP_NUM_THREADS": None,
                              "MKL_NUM_THREADS": None}


class TestEval:
    def test_scores_checkpoint(self, tmp_path):
        d, t, e = tmp_path / "d", tmp_path / "t", tmp_path / "e"
        run(["gen", *GEN_FLAGS, "--out", d])
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
        run(["gen", *GEN_FLAGS, "--out", d])
        run(["train", "--data", d, *FAST_TRAIN, "--eval", d / "test.ndjson",
             "--out", t])
        assert run(["eval", "--checkpoint", t / "checkpoint.json",
                    "--data", d / "test.ndjson", "--out", e]) == 0
        result = json.loads((e / "eval.json").read_text())
        final = json.loads((t / "summary.json").read_text())["final"]
        assert result["instance_auc"] == final["instance_auc"]
        assert result["bag_auc"] == final["bag_auc"]


class TestSweep:
    def test_mu_grid_rows(self, tmp_path):
        d, s = tmp_path / "d", tmp_path / "s"
        run(["gen", *GEN_FLAGS, "--out", d])
        assert run(["sweep", "--data", d, *FAST_TRAIN,
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
        run(["gen", *GEN_FLAGS, "--out", d])
        calls = []
        real = metrics.roc_auc

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "roc_auc", spy)
        grid = ["0.2", "0.25", "0.3"]
        assert run(["sweep", "--data", d, *FAST_TRAIN, "--grid-mu", *grid,
                    "--out", s]) == 0
        assert len(calls) == 2 * len(grid)

    def test_kfold_mode(self, tmp_path):
        d, s = tmp_path / "d", tmp_path / "s"
        run(["gen", *GEN_FLAGS, "--out", d])
        assert run(["sweep", "--data", d / "train.ndjson", *FAST_TRAIN,
                    "--grid-mu", "0.25", "--grid-T", "2",
                    "--kfold", "3", "--out", s]) == 0
        lines = (s / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mu,warmup,mean_bag_accuracy"
        assert len(lines) == 2


class TestAblation:
    def test_four_rows(self, tmp_path):
        d, a = tmp_path / "d", tmp_path / "a"
        run(["gen", *GEN_FLAGS, "--out", d])
        assert run(["ablation", "--data", d, *FAST_TRAIN, "--out", a]) == 0
        lines = (a / "ablation.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("name,soft_labels,constrain,adaptive")
        assert lines[1].startswith("hard-naive,False,False,False")
        assert lines[4].startswith("soft-constrained-adaptive,True,True,True")


class TestBaseline:
    def test_reports_per_split_auc(self, tmp_path):
        d, b = tmp_path / "d", tmp_path / "b"
        run(["gen", "--scheme", "hard", *GEN_FLAGS, "--out", d])
        assert run(["baseline", "--kind", "attention", "--data", d,
                    "--epochs", "5", "--out", b]) == 0
        report = json.loads((b / "baseline.json").read_text())
        assert report["kind"] == "attention"
        assert "test_pos0" in report["splits"]
        assert "test_pos8" in report["splits"]
        assert "instance_auc" in report["splits"]["test_pos0"]

    def test_zero_attention_hidden_names_the_field(self, tmp_path):
        d, b = tmp_path / "d", tmp_path / "b"
        run(["gen", *GEN_FLAGS, "--out", d])
        assert run(["baseline", "--kind", "attention", "--data", d,
                    "--attn-hidden", "0", "--out", b]) != 0
        assert "attention_hidden must be >= 1" in (b / ".failed").read_text()


class TestEntropy:
    def test_row_count(self, tmp_path):
        out = tmp_path / "e"
        assert run(["entropy", "--K", "1..4", "--p-steps", "9",
                    "--out", out]) == 0
        lines = (out / "entropy.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * 9

    def test_k_spec_forms(self):
        assert parse_k_values("64") == [64]
        assert parse_k_values("2,4,8") == [2, 4, 8]
        assert parse_k_values("1..5") == [1, 2, 3, 4, 5]
        with pytest.raises(ValueError):
            parse_k_values("0..3")

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
        assert echoed["seed"] == 0


class TestImports:
    def test_no_private_name_from_another_module(self):
        from otmil import cli
        tree = ast.parse(inspect.getsource(cli))
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []
