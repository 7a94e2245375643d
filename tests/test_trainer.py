"""Self-training loop: batching, cadence, records, ablations, CV."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmil import metrics, trainer
from otmil.cli import _write_json
from otmil.data import (GenConfig, bags_from_arrays, generate_normal_bags,
                        kfold_split)
from otmil.labeling import MuSchedule, harden
from otmil.model import SgdConfig, forward, init_classifier
from otmil.numkit import Rng, fan_out
from otmil.trainer import (CSV_HEADER, TrainConfig, _assign, _corpus,
                           bag_accuracy, benchmark_cv, mixed_batches,
                           run_ablation_suite, self_train, train,
                           write_run_csv)

from test_data import make_dataset
from test_model import assert_same_bits
from test_numkit import needs_two_cpus


def small_dataset(seed=2, n_bags=16, bag_size=15, ratio=0.2, dim=6):
    return generate_normal_bags(GenConfig(
        n_bags=n_bags, bag_size=bag_size, positive_ratio=ratio,
        feature_dim=dim, cluster_separation=5.0, seed=seed))


def small_config(epochs=6, seed=0, **kw):
    return TrainConfig(
        sgd=SgdConfig(learning_rate=0.01, batch_size=32, epochs=epochs,
                      seed=seed),
        schedule=MuSchedule(mu_final=0.2, warmup_epochs=3),
        seed=seed, **kw)


def corpus(ds):
    """(x, targets, n_pos): the leading arguments of mixed_batches."""
    x, targets, pos_offsets = _corpus(ds)
    return x, targets, int(pos_offsets[-1])


def ref_mixed_batches(x, targets, n_pos, q_values, batch_size, rng):
    """Reference copy of ``mixed_batches`` gathering with fancy indexing."""
    targets[:n_pos] = q_values
    perm = rng.permutation(x.shape[0])
    for start in range(0, perm.size, batch_size):
        idx = perm[start:start + batch_size]
        yield x[idx], targets[idx]


class TestTrainConfig:
    def test_sgd_seed_must_equal_seed(self):
        # self_train draws its init and shuffle streams from seed alone
        with pytest.raises(ValueError, match=r"sgd.seed \(5\).*seed \(0\)"):
            TrainConfig(sgd=SgdConfig(seed=5))
        assert TrainConfig(sgd=SgdConfig(seed=5), seed=5).seed == 5

    def test_hidden_must_be_positive(self):
        with pytest.raises(ValueError, match="hidden"):
            TrainConfig(hidden=0)
        assert TrainConfig(hidden=1).hidden == 1

    @pytest.mark.parametrize("bad", [0.0, -5.0, np.nan, np.inf])
    def test_sharpness_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="sharpness"):
            TrainConfig(sharpness=bad)
        assert TrainConfig(sharpness=1e-3).sharpness == 1e-3


class TestAssign:
    @staticmethod
    def _inputs(ds):
        x, _, pos_offsets = _corpus(ds)
        params = init_classifier(ds.feature_dim, arch="mlp", hidden=8,
                                 rng=Rng(4))
        return params, x[:pos_offsets[-1]], pos_offsets

    def test_corpus_offsets_are_the_positive_bags(self):
        ds = small_dataset()
        _, _, pos_offsets = _corpus(ds)
        sizes = np.diff(ds.offsets)[ds.bag_labels == 1]
        assert np.array_equal(np.diff(pos_offsets), sizes)
        assert pos_offsets[0] == 0

    def test_naive_arm_uses_predictions(self):
        ds = small_dataset()
        params, pos_x, pos_offsets = self._inputs(ds)
        probs = forward(params, pos_x)
        q, converged = _assign(params, small_config(constrain=False), pos_x,
                               pos_offsets, 0.2)
        assert converged
        assert_same_bits(q, probs)
        q, _ = _assign(params, small_config(constrain=False,
                                            soft_labels=False),
                       pos_x, pos_offsets, 0.2)
        assert_same_bits(q, harden(probs))

    def test_constrained_arm_pins_one_row_per_bag(self):
        ds = small_dataset()
        params, pos_x, pos_offsets = self._inputs(ds)
        q, _ = _assign(params, small_config(), pos_x, pos_offsets, 0.2)
        for start, end in zip(pos_offsets[:-1], pos_offsets[1:]):
            assert np.any(np.all(q[start:end] == [1.0, 0.0], axis=1))


class TestCorpus:
    def test_positive_first_dataset_is_not_copied(self):
        ds = small_dataset()
        assert np.shares_memory(_corpus(ds)[0], ds.features)

    def test_peak_memory_of_training(self, traced_peak):
        # the corpus is the dataset's own rows: no (N, d) copy per run
        ds = generate_normal_bags(GenConfig(n_bags=40, bag_size=100,
                                            feature_dim=64, seed=1))
        cfg = small_config(epochs=2, hidden=8)
        train(ds, cfg)  # warm-up: first-call allocations are not the run's
        assert traced_peak(train, ds, cfg) <= 0.5 * ds.features.nbytes

    def test_interleaved_bags_train_as_their_positive_first_order(self):
        rng = Rng(9)
        mask = np.arange(600) < 60
        pool = rng.standard_normal((600, 6))
        pool[mask, 0] += 5.0
        ds = bags_from_arrays(pool, mask, GenConfig(
            bag_size=15, positive_ratio=0.2, feature_dim=6, seed=3))
        lead = ds.subset(np.concatenate([np.flatnonzero(ds.bag_labels == 1),
                                         np.flatnonzero(ds.bag_labels == 0)]))
        got, want = _corpus(ds), _corpus(lead)
        assert not np.shares_memory(got[0], ds.features)
        for a, b in zip(got, want):
            assert_same_bits(a, b)
        cfg = small_config(epochs=3)
        a, b = train(ds, cfg), train(lead, cfg)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestMixedBatches:
    def test_partition_covers_each_instance_once(self):
        ds = small_dataset()
        n_pos = int(np.diff(ds.offsets)[ds.bag_labels == 1].sum())
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
        n_pos = int(np.diff(ds.offsets)[ds.bag_labels == 1].sum())
        # mark pseudo rows with a sentinel mass to tell the two groups apart
        q = np.tile([0.25, 0.75], (n_pos, 1))
        for x, t in mixed_batches(*corpus(ds), q, 64, Rng(1)):
            pseudo = np.isclose(t[:, 0], 0.25)
            negatives = ~pseudo
            assert np.all(t[negatives] == [0.0, 1.0])

    def test_composition_tracks_corpus_ratio(self):
        ds = small_dataset(n_bags=20, bag_size=30)
        n_pos = int(np.diff(ds.offsets)[ds.bag_labels == 1].sum())
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
        pos = [b.feature_matrix() for b in ds.bags if b.label == 1]
        neg = [b.feature_matrix() for b in ds.bags if b.label == 0]
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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 150), st.integers(1, 6), st.integers(0, 150),
           st.integers(1, 70), st.integers(0, 2 ** 32 - 1))
    def test_batches_match_reference_bit_for_bit(self, n, d, n_pos,
                                                 batch_size, seed):
        n_pos = min(n_pos, n)
        rng = Rng(seed)
        x = rng.standard_normal((n, d))
        targets = np.zeros((n, 2))
        targets[n_pos:, 1] = 1.0
        p = rng.uniform(0.0, 1.0, n_pos)
        q = np.stack([p, 1.0 - p], axis=1)
        ref_targets = targets.copy()
        got = list(mixed_batches(x, targets, n_pos, q, batch_size,
                                 Rng(seed, stream=1)))
        want = list(ref_mixed_batches(x, ref_targets, n_pos, q, batch_size,
                                      Rng(seed, stream=1)))
        assert len(got) == len(want)
        for (xb, tb), (ref_xb, ref_tb) in zip(got, want):
            assert_same_bits(xb, ref_xb)
            assert_same_bits(tb, ref_tb)
            assert not np.shares_memory(xb, x)
            assert not np.shares_memory(tb, targets)
        assert_same_bits(targets, ref_targets)


class TestSelfTrain:
    def test_requires_both_classes(self):
        ds = small_dataset()
        pos_only = ds.subset(np.flatnonzero(ds.bag_labels == 1))
        neg_only = ds.subset(np.flatnonzero(ds.bag_labels == 0))
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
            bags.append((f"b{i}", label, feats, None))
        ds = make_dataset(bags)
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

    def test_training_loop_ends_at_self_trains_params(self):
        ds = small_dataset()
        cfg = small_config(epochs=3)
        params, _ = self_train(ds, cfg)
        loop_params = train(ds, cfg)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            assert_same_bits(getattr(loop_params, name),
                             getattr(params, name))

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
        ds = small_dataset()
        _, rec = self_train(ds, small_config(epochs=2))
        path = tmp_path / "s.json"
        _write_json(path, rec.summary)
        blob = json.loads(path.read_text())
        assert blob == rec.summary


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

    def test_trains_without_scoring_the_training_set(self, monkeypatch):
        # instance labels are known, so an epoch report would take AUCs
        ds = small_dataset(n_bags=12, bag_size=10)
        cfg = small_config(epochs=2)
        want = benchmark_cv(ds, cfg, [0.2, 0.3], [1], k=3)

        def forbidden(*args, **kwargs):
            raise AssertionError("benchmark_cv scored a training run")

        for module, name in ((metrics, "roc_auc"), (trainer, "roc_auc"),
                             (trainer, "self_train")):
            monkeypatch.setattr(module, name, forbidden)
        got = benchmark_cv(ds, cfg, [0.2, 0.3], [1], k=3)
        assert ([c["fold_accuracies"] for c in got["grid"]]
                == [c["fold_accuracies"] for c in want["grid"]])

    @staticmethod
    def _record_training_sets(monkeypatch, log):
        """Stub the training loop so a CV run only records its training
        sets: each one's bag ids go to the file ``log`` as one JSON line,
        since the loop may run in a worker process. Returns a function
        that reads them back as objects with a ``bag_ids`` field."""
        params, _ = self_train(small_dataset(n_bags=12, bag_size=5),
                               small_config(epochs=1))

        def fake_train_epochs(train_ds, cfg):
            with open(log, "a") as fh:
                fh.write(json.dumps(list(train_ds.bag_ids)) + "\n")
            yield None, None, None, None, params

        def seen():
            return [SimpleNamespace(bag_ids=json.loads(line))
                    for line in log.read_text().splitlines()]

        monkeypatch.setattr(trainer, "_train_epochs", fake_train_epochs)
        return seen

    def test_folds_hold_only_the_given_datasets_bags(self, monkeypatch,
                                                     tmp_path):
        log = tmp_path / "training_sets.ndjson"
        read_seen = self._record_training_sets(monkeypatch, log)
        cfg = small_config(epochs=1)
        src = small_dataset(n_bags=12, bag_size=5)
        first = src.subset(range(10))
        benchmark_cv(first, cfg, [0.2], [1], k=2)
        stale_id = id(first)
        del first
        # successive datasets over all 12 bags, until one reuses the id
        alive = []
        for _ in range(10_000):
            alive.append(src.subset(range(12)))
            if id(alive[-1]) == stale_id:
                break
        log.unlink()
        benchmark_cv(alive[-1], cfg, [0.2], [1], k=2)
        seen = read_seen()
        # with k=2 every bag is in exactly one of the two training sets
        assert (sorted(i for ds in seen for i in ds.bag_ids)
                == sorted(alive[-1].bag_ids))

    def test_folds_built_once_per_call(self, monkeypatch, tmp_path):
        self._record_training_sets(monkeypatch, tmp_path / "training_sets")
        log = tmp_path / "kfold_calls.ndjson"

        def spy(dataset, k, seed):
            with open(log, "a") as fh:  # a worker's call would show here too
                fh.write(json.dumps([k, seed]) + "\n")
            return kfold_split(dataset, k, seed)

        def read_calls():
            return [tuple(json.loads(line))
                    for line in log.read_text().splitlines()]

        monkeypatch.setattr(trainer, "kfold_split_cached", spy)
        ds = small_dataset(n_bags=12, bag_size=5)
        cfg = small_config(epochs=1, seed=4)
        benchmark_cv(ds, cfg, [0.2, 0.3], [1, 2], k=3)
        calls = read_calls()
        assert calls == [(3, 4)]
        benchmark_cv(ds, cfg, [0.2, 0.3], [1, 2], k=3)
        calls = read_calls()
        assert calls == [(3, 4), (3, 4)]

    def test_bag_accuracy_bounds(self):
        ds = small_dataset()
        params, _ = self_train(ds, small_config(epochs=2))
        acc = bag_accuracy(params, ds, "max")
        assert 0.0 <= acc <= 1.0


def fan_out_list(job, n_jobs):
    """``numkit.fan_out``'s results, collected in job order."""
    results = []
    fan_out(lambda i: [job(i)], n_jobs, results.append)
    return results


class TestFanOut:
    """The ablation rows, the k-fold folds and the holdout grid run as
    ``numkit.fan_out`` jobs: in forked workers where there are two or
    more usable CPUs, with the outputs of one in-process loop."""

    def test_ablation_matches_an_in_process_loop(self, tmp_path):
        ds, test = small_dataset(), small_dataset(seed=3)
        cfg = small_config(epochs=3)
        table = run_ablation_suite(ds, cfg, test)
        assert [row["name"] for row in table] == [
            name for name, _ in trainer.ABLATION_ROWS]
        for row, (_, flags) in zip(table, trainer.ABLATION_ROWS):
            _, want = self_train(ds, dataclasses.replace(cfg, **flags), test)
            write_run_csv(row["record"], tmp_path / "got.csv")
            write_run_csv(want, tmp_path / "want.csv")
            assert ((tmp_path / "got.csv").read_bytes()
                    == (tmp_path / "want.csv").read_bytes())
            assert row["record"].summary == want.summary

    def test_cv_matches_an_in_process_loop(self):
        ds = small_dataset(n_bags=15, bag_size=8)
        cfg = small_config(epochs=2, seed=5)
        mu_grid, warmup_grid = [0.2, 0.3], [1, 3]
        got = benchmark_cv(ds, cfg, mu_grid, warmup_grid, k=3)
        want = [[] for _ in mu_grid for _ in warmup_grid]
        for train_ds, test_ds in kfold_split(ds, 3, cfg.seed):
            cell_cfgs = [dataclasses.replace(cfg, schedule=MuSchedule(
                mu_final=mu, warmup_epochs=warmup))
                for mu in mu_grid for warmup in warmup_grid]
            for accuracies, cell_cfg in zip(want, cell_cfgs):
                accuracies.append(bag_accuracy(
                    train(train_ds, cell_cfg), test_ds, "max"))
        assert [c["fold_accuracies"] for c in got["grid"]] == want

    @needs_two_cpus
    def test_jobs_run_in_two_or_more_child_processes(self, monkeypatch):
        real = trainer.self_train

        def stamped(*args):
            params, record = real(*args)
            record.summary["pid"] = os.getpid()
            return params, record

        monkeypatch.setattr(trainer, "self_train", stamped)
        table = run_ablation_suite(small_dataset(), small_config(epochs=1))
        pids = {row["record"].summary["pid"] for row in table}
        assert len(pids) >= 2
        assert os.getpid() not in pids

    def test_one_usable_cpu_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert fan_out_list(lambda i: (i, os.getpid()), 3) == [
            (0, os.getpid()), (1, os.getpid()), (2, os.getpid())]

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        real = trainer.self_train

        def failing(dataset, cfg, eval_dataset=None):
            if cfg.constrain and not cfg.adaptive:
                raise ValueError("soft-constrained row failed")
            return real(dataset, cfg, eval_dataset)

        monkeypatch.setattr(trainer, "self_train", failing)
        with pytest.raises(ValueError, match="soft-constrained row failed"):
            run_ablation_suite(small_dataset(), small_config(epochs=1))
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_call(self):
        assert fan_out_list(lambda i: i * i, 5) == [0, 1, 4, 9, 16]
        assert multiprocessing.active_children() == []

    @needs_two_cpus
    def test_worker_that_dies_is_an_error(self):
        def job(i):
            if i == 1:
                os._exit(3)
            return i

        with pytest.raises(RuntimeError, match="exited with code 3"):
            fan_out_list(job, 2)
        assert multiprocessing.active_children() == []

    @needs_two_cpus
    def test_unpicklable_worker_error_keeps_its_type_and_message(self):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def job(i):
            raise LocalError(f"job {i} failed")

        with pytest.raises(RuntimeError, match="LocalError: job 0 failed"):
            fan_out_list(job, 2)
        assert multiprocessing.active_children() == []

    @needs_two_cpus
    def test_peak_memory_of_cv_in_the_caller(self, traced_peak):
        # the workers slice the folds: the caller holds no fold's rows
        ds = generate_normal_bags(GenConfig(n_bags=60, bag_size=100,
                                            feature_dim=64, seed=1))
        cfg = small_config(epochs=1, hidden=8)
        args = ([0.2], [1], 2)
        benchmark_cv(small_dataset(), cfg, *args)  # warm-up: lazy imports
        assert (traced_peak(benchmark_cv, ds, cfg, *args)
                < 0.5 * ds.features.nbytes)

    def test_workers_forked_after_blas_threads_start(self):
        # OpenBLAS's thread pool is running when the workers fork; they
        # must neither hang nor compute other bits than a plain loop
        script = """
import dataclasses, io
import numpy as np
from otmil.data import GenConfig, generate_normal_bags
from otmil.labeling import MuSchedule
from otmil.model import SgdConfig
from otmil.trainer import (ABLATION_ROWS, TrainConfig, run_ablation_suite,
                           self_train)
a = np.random.default_rng(0).random((600, 600))
assert np.isfinite(a @ a).all()
ds = generate_normal_bags(GenConfig(n_bags=12, bag_size=10, feature_dim=5,
                                    positive_ratio=0.2, seed=2))
cfg = TrainConfig(sgd=SgdConfig(learning_rate=0.01, batch_size=32, epochs=2),
                  schedule=MuSchedule(mu_final=0.2, warmup_epochs=1))
got = [row["record"] for row in run_ablation_suite(ds, cfg)]
want = [self_train(ds, dataclasses.replace(cfg, **flags))[1]
        for _, flags in ABLATION_ROWS]
assert got == want, (got, want)
print("same")
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["same"]
