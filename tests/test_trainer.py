"""Self-training loop: batching, cadence, records, ablations, CV."""

import dataclasses

import numpy as np
import pytest

from otmil import trainer
from otmil.data import (Bag, Dataset, GenConfig, Instance,
                        generate_normal_bags, kfold_split, stack_dataset)
from otmil.labeling import MuSchedule, SinkhornConfig
from otmil.model import SgdConfig
from otmil.numkit import Rng
from otmil.trainer import (CSV_HEADER, TrainConfig, _corpus, bag_accuracy,
                           benchmark_cv, mixed_batches, run_ablation_suite,
                           self_train, write_run_csv, write_run_summary)


def small_dataset(seed=2, n_bags=16, bag_size=15, ratio=0.2, dim=6):
    return generate_normal_bags(GenConfig(
        n_bags=n_bags, bag_size=bag_size, positive_ratio=ratio,
        feature_dim=dim, cluster_separation=5.0, seed=seed))


def small_config(epochs=6, seed=0, **kw):
    return TrainConfig(
        sgd=SgdConfig(learning_rate=0.01, batch_size=32, epochs=epochs,
                      seed=seed),
        sinkhorn=SinkhornConfig(),
        schedule=MuSchedule(mu_final=0.2, warmup_epochs=3),
        seed=seed, **kw)


def corpus(ds):
    """(x, targets, n_pos): the leading arguments of mixed_batches."""
    x, targets, bag_index, _ = _corpus(stack_dataset(ds))
    return x, targets, bag_index.size


class TestMixedBatches:
    def test_partition_covers_each_instance_once(self):
        ds = small_dataset()
        n_pos = sum(len(b.instances) for b in ds.positive_bags())
        q = np.tile([0.5, 0.5], (n_pos, 1))
        total = 0
        sizes = []
        for x, t in mixed_batches(*corpus(ds), q, 32, Rng(0)):
            assert x.shape[0] == t.shape[0]
            total += x.shape[0]
            sizes.append(x.shape[0])
        assert total == ds.n_instances
        # only the tail batch may be short
        assert all(s == 32 for s in sizes[:-1])

    def test_negative_targets_one_hot(self):
        ds = small_dataset()
        n_pos = sum(len(b.instances) for b in ds.positive_bags())
        # mark pseudo rows with a sentinel mass to tell the two groups apart
        q = np.tile([0.25, 0.75], (n_pos, 1))
        for x, t in mixed_batches(*corpus(ds), q, 64, Rng(1)):
            pseudo = np.isclose(t[:, 0], 0.25)
            negatives = ~pseudo
            assert np.all(t[negatives] == [0.0, 1.0])

    def test_composition_tracks_corpus_ratio(self):
        ds = small_dataset(n_bags=20, bag_size=30)
        n_pos = sum(len(b.instances) for b in ds.positive_bags())
        frac = n_pos / ds.n_instances
        q = np.tile([0.9, 0.1], (n_pos, 1))
        counts = []
        for x, t in mixed_batches(*corpus(ds), q, 50, Rng(2)):
            counts.append(np.isclose(t[:, 0], 0.9).mean())
        # average over the epoch matches; single batches fluctuate
        assert abs(np.mean(counts) - frac) < 0.15

    def test_q_shape_guard(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="cover"):
            list(mixed_batches(*corpus(ds), np.zeros((3, 2)), 8, Rng(0)))

    def test_batches_match_concatenated_bags(self):
        # reference: the corpus as concatenated bag by bag before stacking
        ds = small_dataset()
        pos = [b.feature_matrix() for b in ds.positive_bags()]
        neg = [b.feature_matrix() for b in ds.negative_bags()]
        x = np.concatenate(pos + neg)
        n_pos = sum(len(f) for f in pos)
        p = Rng(5).uniform(0.0, 1.0, n_pos)
        q = np.stack([p, 1.0 - p], axis=1)
        t = np.concatenate([q, np.tile([0.0, 1.0], (len(x) - n_pos, 1))])
        perm = Rng(3).permutation(len(x))
        batches = list(mixed_batches(*corpus(ds), q, 16, Rng(3)))
        assert len(batches) == -(-len(x) // 16)
        for i, (xb, tb) in enumerate(batches):
            idx = perm[16 * i:16 * (i + 1)]
            assert np.array_equal(xb, x[idx])
            assert np.array_equal(tb, t[idx])


class TestSelfTrain:
    def test_requires_both_classes(self):
        ds = small_dataset()
        pos_only = Dataset(ds.positive_bags(), ds.feature_dim)
        neg_only = Dataset(ds.negative_bags(), ds.feature_dim)
        with pytest.raises(ValueError, match="no negative"):
            self_train(pos_only, small_config())
        with pytest.raises(ValueError, match="no positive"):
            self_train(neg_only, small_config())

    def test_one_row_per_epoch_with_schedule(self):
        ds = small_dataset()
        params, rec = self_train(ds, small_config(epochs=5))
        assert [r.epoch for r in rec.rows] == [0, 1, 2, 3, 4]
        assert rec.rows[0].mu_t == 0.5
        assert rec.rows[3].mu_t == 0.2
        assert rec.rows[4].mu_t == 0.2

    def test_constant_mu_when_not_adaptive(self):
        ds = small_dataset()
        _, rec = self_train(ds, small_config(epochs=3, adaptive=False))
        assert all(r.mu_t == 0.2 for r in rec.rows)

    def test_summary_fields(self):
        ds = small_dataset()
        _, rec = self_train(ds, small_config(epochs=4))
        s = rec.summary
        assert s["epochs"] == 4
        assert 0.0 <= s["positive_pseudo_fraction"] <= 1.0
        assert isinstance(s["degenerate"], bool)
        assert s["config"]["schedule"]["mu_final"] == 0.2
        assert "final" in s and "instance_auc" in s["final"]

    def test_unknown_instance_labels_leave_metrics_none(self):
        bags = []
        rng = Rng(3)
        for i in range(6):
            label = int(i < 3)
            feats = rng.standard_normal((8, 4)) + (2.0 * label)
            bags.append(Bag(f"b{i}", label,
                            [Instance(f, None) for f in feats]))
        ds = Dataset(bags, 4)
        _, rec = self_train(ds, small_config(epochs=2))
        assert rec.rows[-1].pseudo_precision is None
        assert rec.rows[-1].pseudo_accuracy is None
        assert rec.rows[-1].instance_auc is None
        assert rec.rows[-1].bag_auc is not None

    def test_reassign_cadence_freezes_q_metrics(self):
        ds = small_dataset()
        cfg = small_config(epochs=6, reassign_every=3, adaptive=False)
        _, rec = self_train(ds, cfg)
        # pseudo metrics only move on reassignment epochs 0 and 3
        assert rec.rows[0].pseudo_accuracy == rec.rows[1].pseudo_accuracy
        assert rec.rows[1].pseudo_accuracy == rec.rows[2].pseudo_accuracy
        assert rec.rows[3].pseudo_accuracy == rec.rows[4].pseudo_accuracy

    def test_hard_labels_are_binary(self):
        ds = small_dataset()
        cfg = small_config(epochs=2, soft_labels=False)
        params, rec = self_train(ds, cfg)
        # the recorded positive fraction comes from a 0/1 matrix
        assert 0.0 <= rec.summary["positive_pseudo_fraction"] <= 1.0

    def test_eval_dataset_used_for_auc(self):
        train = small_dataset(seed=1)
        test = small_dataset(seed=99)
        _, rec_a = self_train(train, small_config(epochs=3), test)
        _, rec_b = self_train(train, small_config(epochs=3))
        assert rec_a.rows[-1].instance_auc != rec_b.rows[-1].instance_auc


class TestDeterminism:
    def test_bit_identical_csv(self, tmp_path):
        ds = small_dataset()
        cfg = small_config(epochs=4, seed=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        _, rec1 = self_train(ds, cfg)
        _, rec2 = self_train(ds, cfg)
        write_run_csv(rec1, p1)
        write_run_csv(rec2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_trajectory(self):
        ds = small_dataset()
        _, rec1 = self_train(ds, small_config(epochs=3, seed=0))
        _, rec2 = self_train(ds, small_config(epochs=3, seed=8))
        assert rec1.rows[-1].loss != rec2.rows[-1].loss


class TestRunCsv:
    def test_header_and_none_cells(self, tmp_path):
        ds = small_dataset()
        _, rec = self_train(ds, small_config(epochs=2))
        path = tmp_path / "run.csv"
        write_run_csv(rec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"

    def test_summary_json_round_trip(self, tmp_path):
        import json
        ds = small_dataset()
        _, rec = self_train(ds, small_config(epochs=2))
        path = tmp_path / "s.json"
        write_run_summary(rec, path)
        blob = json.loads(path.read_text())
        assert blob["seed"] == rec.summary["seed"]


class TestAblationSuite:
    def test_four_rows_with_expected_flags(self):
        ds = small_dataset()
        table = run_ablation_suite(ds, small_config(epochs=2))
        assert len(table) == 4
        flags = [(r["soft_labels"], r["constrain"], r["adaptive"])
                 for r in table]
        assert flags == [(False, False, False), (True, False, False),
                         (True, True, False), (True, True, True)]
        assert all("instance_auc" in r for r in table)

    def test_identical_seed_identical_tables(self):
        ds = small_dataset()
        t1 = run_ablation_suite(ds, small_config(epochs=2))
        t2 = run_ablation_suite(ds, small_config(epochs=2))
        for a, b in zip(t1, t2):
            assert a["instance_auc"] == b["instance_auc"]
            assert a["bag_auc"] == b["bag_auc"]


class TestBenchmarkCv:
    def test_grid_shape_and_best(self):
        ds = small_dataset(n_bags=12, bag_size=10)
        cfg = small_config(epochs=2)
        out = benchmark_cv(ds, cfg, mu_grid=[0.2, 0.3], warmup_grid=[1, 2],
                           k=3)
        assert len(out["grid"]) == 4
        best = out["best"]
        assert best["mean_bag_accuracy"] == max(
            c["mean_bag_accuracy"] for c in out["grid"])
        for cell in out["grid"]:
            assert len(cell["fold_accuracies"]) == 3

    @staticmethod
    def _record_training_sets(monkeypatch):
        """Stub self_train so a CV run only records its training sets."""
        params, _ = self_train(small_dataset(n_bags=12, bag_size=5),
                               small_config(epochs=1))
        seen = []

        def fake_self_train(train_ds, cfg):
            seen.append(train_ds)
            return params, None

        monkeypatch.setattr(trainer, "self_train", fake_self_train)
        return seen

    def test_folds_hold_only_the_given_datasets_bags(self, monkeypatch):
        seen = self._record_training_sets(monkeypatch)
        cfg = small_config(epochs=1)
        src = small_dataset(n_bags=12, bag_size=5)
        first = Dataset(src.bags[:10], src.feature_dim)
        benchmark_cv(first, cfg, [0.2], [1], k=2)
        stale_id = id(first)
        del first
        # successive datasets over all 12 bags, until one reuses the id
        alive = []
        for _ in range(10_000):
            alive.append(Dataset(src.bags, src.feature_dim))
            if id(alive[-1]) == stale_id:
                break
        seen.clear()
        benchmark_cv(alive[-1], cfg, [0.2], [1], k=2)
        # with k=2 every bag is in exactly one of the two training sets
        assert (sorted(id(b) for ds in seen for b in ds.bags)
                == sorted(id(b) for b in alive[-1].bags))

    def test_folds_built_once_per_call(self, monkeypatch):
        self._record_training_sets(monkeypatch)
        calls = []

        def spy(dataset, k, seed):
            calls.append((k, seed))
            return kfold_split(dataset, k, seed)

        monkeypatch.setattr(trainer, "kfold_split_cached", spy)
        ds = small_dataset(n_bags=12, bag_size=5)
        cfg = small_config(epochs=1, seed=4)
        benchmark_cv(ds, cfg, [0.2, 0.3], [1, 2], k=3)
        assert calls == [(3, 4)]
        benchmark_cv(ds, cfg, [0.2, 0.3], [1, 2], k=3)
        assert calls == [(3, 4), (3, 4)]

    def test_bag_accuracy_bounds(self):
        ds = small_dataset()
        params, _ = self_train(ds, small_config(epochs=2))
        acc = bag_accuracy(params, ds, "max")
        assert 0.0 <= acc <= 1.0
