"""Bag containers, synthetic generators, file formats, fold splitting."""

import json
import os
import struct
import subprocess
import sys
import tempfile
import threading
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otmil
from otmil import data
from otmil.data import (Dataset, GenConfig, bags_from_arrays,
                        generate_hard_bags, generate_normal_bags, kfold_split,
                        load_benchmark_csv, load_idx_mnist, load_ndjson,
                        round_half_up, save_ndjson)
from otmil.numkit import Rng

from test_numkit import needs_two_cpus


def make_dataset(bags, name=""):
    """A Dataset from (bag_id, label, rows, instance labels) tuples; an
    instance label of None is unknown, and None for the whole list means
    every label of the bag is unknown."""
    feats = [np.asarray(rows, dtype=np.float64) for _, _, rows, _ in bags]
    labels = [-1 if lab is None else lab
              for f, (_, _, _, labs) in zip(feats, bags)
              for lab in (labs if labs is not None else [None] * len(f))]
    offsets = np.cumsum([0] + [len(f) for f in feats])
    return Dataset(np.concatenate(feats), offsets, [b[0] for b in bags],
                   [b[1] for b in bags], labels, name)


def positive_bags(ds):
    return [b for b in ds.bags if b.label == 1]


class TestContainers:
    def test_bag_label_consistency_enforced(self):
        good = make_dataset([("b", 1, np.zeros((2, 2)), [1, 0])])
        assert good.bags[0].label == 1
        with pytest.raises(ValueError, match="'b': label inconsistent"):
            make_dataset([("a", 0, np.zeros((1, 2)), [0]),
                          ("b", 0, np.zeros((1, 2)), [1])])
        with pytest.raises(ValueError, match="inconsistent"):
            make_dataset([("b", 1, np.zeros((1, 2)), [0])])

    def test_unknown_instance_labels_allowed(self):
        ds = make_dataset([("b", 1, np.zeros((2, 2)), [None, 0]),
                           ("c", 0, np.zeros((1, 2)), [None])])
        assert [b.label for b in ds.bags] == [1, 0]
        assert [i.label for i in ds.bags[0].instances] == [None, 0]
        assert ds.instance_labels.tolist() == [-1, 0, -1]

    def test_dataset_dim_check(self):
        for feats in (np.zeros(3), np.zeros((3, 0)), np.zeros((3, 1, 1))):
            with pytest.raises(ValueError, match="dimension"):
                Dataset(feats, [0, 3], ["a"], [0], [0, 0, 0])

    def test_feature_matrix_shape(self):
        ds = make_dataset([("b", 0, [np.arange(3.0), np.arange(3.0) + 1],
                            [0, 0])])
        assert ds.bags[0].feature_matrix().shape == (2, 3)
        assert ds.feature_dim == 3 and ds.n_instances == 2

    @pytest.mark.parametrize("args, match", [
        (([[1.0]], [0, 1], [], [], [0]), "at least one bag"),
        (([[1.0]], [0, 1], ["a"], [2], [0]), "bag_labels"),
        (([[1.0]], [0, 1], ["a"], [0], [0.5]), "instance_labels"),
        (([[1.0]], [0, 1], ["a"], [0], [0, 0]), "lengths"),
        (([[1.0]], [0, 1], ["a", "b"], [0, 0], [0]), "lengths"),
        (([[1.0], [2.0]], [0, 1], ["a"], [0], [0, 0]), "0 to N"),
        (([[1.0], [2.0]], [0, 0, 2], ["a", "b"], [0, 0], [0, 0]),
         "at least one instance"),
    ])
    def test_malformed_arrays_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            Dataset(*args)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_features_name_the_first_bad_bag(self, bad):
        feats = np.zeros((5, 2))
        feats[2, 1] = feats[4, 0] = bad
        with pytest.raises(ValueError, match="bag 'b': non-finite"):
            Dataset(feats, [0, 2, 3, 5], ["a", "b", "c"], [0, 0, 0],
                    [0] * 5)


class TestDatasetArrays:
    def _dataset(self, third_label=1):
        return make_dataset([("a", 1, [[1.0, 2.0], [3.0, 4.0]], [1, 0]),
                             ("b", 0, [[5.0, 6.0]], [0]),
                             ("c", 1, [[7.0, 8.0], [9.0, 0.0]],
                              [third_label, 1])])

    def test_arrays_in_bag_order(self):
        ds = self._dataset()
        assert np.array_equal(ds.features, np.concatenate(
            [b.feature_matrix() for b in ds.bags]))
        assert ds.offsets.tolist() == [0, 2, 3, 5]
        assert ds.offsets.dtype == np.int64
        assert ds.bag_ids == ("a", "b", "c")
        assert ds.bag_labels.tolist() == [1, 0, 1]
        assert ds.instance_labels.tolist() == [1, 0, 0, 1, 1]
        assert [[i.label for i in b.instances] for b in ds.bags] == [
            [1, 0], [0], [1, 1]]

    def test_unknown_instance_label_is_minus_one(self):
        ds = self._dataset(third_label=None)
        assert ds.instance_labels.tolist() == [1, 0, 0, -1, 1]
        assert ds.bags[2].instances[0].label is None
        assert ds.bag_labels.tolist() == [1, 0, 1]

    def test_arrays_and_views_are_read_only(self):
        feats = np.arange(4.0).reshape(2, 2)
        ds = Dataset(feats, [0, 2], ["a"], [0], [0, 0])
        for arr in (ds.features, ds.offsets, ds.bag_labels,
                    ds.instance_labels, ds.bags[0].feature_matrix(),
                    ds.bags[0].instances[1].features):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        feats[0, 0] = -1.0  # the caller's array stays writable
        assert ds.bags is not ds.bags  # views are rebuilt on every read

    def test_subset_slices_every_array(self):
        ds = self._dataset(third_label=None)
        sub = ds.subset([2, 0], name="sub")
        assert sub.name == "sub" and sub.bag_ids == ("c", "a")
        assert sub.offsets.tolist() == [0, 2, 4]
        assert sub.features.tolist() == [[7.0, 8.0], [9.0, 0.0],
                                         [1.0, 2.0], [3.0, 4.0]]
        assert sub.bag_labels.tolist() == [1, 1]
        assert sub.instance_labels.tolist() == [-1, 1, 1, 0]


class TestExports:
    def test_every_exported_name_resolves(self):
        missing = [n for n in otmil.__all__ if not hasattr(otmil, n)]
        assert missing == []


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.4) == 2
        assert round_half_up(10.0) == 10


class TestNormalGenerator:
    def test_counts_and_ratio(self):
        cfg = GenConfig(n_bags=30, bag_size=40, positive_ratio=0.10,
                        feature_dim=6, seed=1)
        ds = generate_normal_bags(cfg)
        assert len(ds.bags) == 30
        assert len(positive_bags(ds)) == 15
        a = round_half_up(0.10 * 40)
        for bag in ds.bags:
            assert sum(i.label for i in bag.instances) == a * bag.label

    def test_positive_cluster_separated(self):
        cfg = GenConfig(n_bags=20, bag_size=50, positive_ratio=0.2,
                        feature_dim=4, cluster_separation=5.0, seed=3)
        ds = generate_normal_bags(cfg)
        pos = np.concatenate([[i.features for i in b.instances
                               if i.label == 1]
                              for b in positive_bags(ds)])
        neg = np.concatenate([[i.features for i in b.instances
                               if i.label == 0]
                              for b in ds.bags])
        assert pos[:, 0].mean() > 4.0
        assert abs(neg[:, 0].mean()) < 0.5

    def test_feature_dim_below_one_rejected(self):
        with pytest.raises(ValueError, match="feature_dim"):
            GenConfig(feature_dim=0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, 2.0, np.nan])
    def test_concept_mix_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="concept_mix"):
            GenConfig(concept_mix=bad)
        for edge in (0.0, 1.0):
            assert GenConfig(concept_mix=edge).concept_mix == edge

    @pytest.mark.parametrize("field", ["cluster_separation",
                                       "second_separation"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_separation_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GenConfig(**{field: bad})

    def test_empty_positive_content_rejected(self):
        cfg = GenConfig(n_bags=4, bag_size=4, positive_ratio=0.1,
                        feature_dim=2)
        with pytest.raises(ValueError, match="empty positive"):
            generate_normal_bags(cfg)

    def test_deterministic(self):
        cfg = GenConfig(n_bags=6, bag_size=10, positive_ratio=0.3,
                        feature_dim=3, seed=9)
        a = generate_normal_bags(cfg)
        b = generate_normal_bags(cfg)
        for x, y in zip(a.bags, b.bags):
            assert x.bag_id == y.bag_id
            assert np.array_equal(x.feature_matrix(), y.feature_matrix())


class TestHardGenerator:
    def test_four_splits(self):
        cfg = GenConfig(scheme="hard", n_bags=10, test_bags=6, bag_size=20,
                        positive_ratio=0.2, feature_dim=4, n_concepts=2,
                        seed=0)
        train, tn, t0, t8 = generate_hard_bags(cfg)
        assert [len(d.bags) for d in (train, tn, t0, t8)] == [10, 6, 6, 6]
        assert {d.name for d in (train, tn, t0, t8)} == {
            "train", "test_normal", "test_pos0", "test_pos8"}

    def test_single_concept_splits_use_their_axis(self):
        cfg = GenConfig(scheme="hard", n_bags=10, test_bags=10, bag_size=50,
                        positive_ratio=0.2, feature_dim=4,
                        cluster_separation=5.0, second_separation=3.5,
                        n_concepts=2, seed=2)
        _, _, t0, t8 = generate_hard_bags(cfg)

        def positive_mean(ds):
            feats = [i.features for b in positive_bags(ds)
                     for i in b.instances if i.label == 1]
            return np.mean(feats, axis=0)

        m0, m8 = positive_mean(t0), positive_mean(t8)
        assert m0[0] > 4.0 and abs(m0[1]) < 0.5
        assert m8[1] > 2.5 and abs(m8[0]) < 0.5

    def test_train_mixes_both_concepts(self):
        cfg = GenConfig(scheme="hard", n_bags=40, test_bags=4, bag_size=50,
                        positive_ratio=0.2, feature_dim=4,
                        cluster_separation=5.0, second_separation=3.5,
                        n_concepts=2, seed=4)
        train, _, _, _ = generate_hard_bags(cfg)
        pos = np.array([i.features for b in positive_bags(train)
                        for i in b.instances if i.label == 1])
        first = pos[:, 0] > 2.5
        frac = first.mean()
        assert 0.4 < frac < 0.6

    @pytest.mark.parametrize("scheme", ["normal", "hard"])
    @pytest.mark.parametrize("test_bags", [0, 1])
    def test_fewer_than_two_test_bags_rejected(self, scheme, test_bags):
        with pytest.raises(ValueError, match="test_bags must be >= 2"):
            GenConfig(scheme=scheme, test_bags=test_bags, n_concepts=2)

    def test_requires_two_concepts(self):
        cfg = GenConfig(scheme="hard", n_bags=4, bag_size=10,
                        positive_ratio=0.2, feature_dim=4, n_concepts=1)
        with pytest.raises(ValueError, match="n_concepts"):
            generate_hard_bags(cfg)


class TestNdjson:
    def test_round_trip(self, tmp_path):
        cfg = GenConfig(n_bags=8, bag_size=6, positive_ratio=0.4,
                        feature_dim=3, seed=5)
        ds = generate_normal_bags(cfg)
        path = tmp_path / "bags.ndjson"
        save_ndjson(ds, path)
        back = load_ndjson(path)
        assert len(back.bags) == len(ds.bags)
        assert back.feature_dim == 3
        for a, b in zip(ds.bags, back.bags):
            assert a.bag_id == b.bag_id and a.label == b.label
            assert np.allclose(a.feature_matrix(), b.feature_matrix())
            assert [i.label for i in a.instances] == \
                   [i.label for i in b.instances]

    def test_line_count_matches_bags(self, tmp_path):
        ds = generate_normal_bags(GenConfig(n_bags=5, bag_size=4,
                                            positive_ratio=0.5,
                                            feature_dim=2, seed=0))
        path = tmp_path / "b.ndjson"
        save_ndjson(ds, path)
        assert len(path.read_text().splitlines()) == 5

    def test_byte_identical_rewrite(self, tmp_path):
        cfg = GenConfig(n_bags=4, bag_size=5, positive_ratio=0.4,
                        feature_dim=2, seed=13)
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save_ndjson(generate_normal_bags(cfg), p1)
        save_ndjson(generate_normal_bags(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        good = json.dumps({"bag_id": "a", "label": 0,
                           "instances": [{"features": [1.0], "label": 0}]})
        path.write_text(good + "\n{broken\n")
        with pytest.raises(ValueError, match="line 2"):
            load_ndjson(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(json.dumps({"bag_id": "a", "label": 0}) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            load_ndjson(path)

    def test_inconsistent_dim_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        rows = [
            {"bag_id": "a", "label": 0,
             "instances": [{"features": [1.0, 2.0], "label": 0}]},
            {"bag_id": "b", "label": 0,
             "instances": [{"features": [1.0], "label": 0}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError):
            load_ndjson(path)

    @pytest.mark.parametrize("bag, inst", [
        (1.7, 1), (0.5, 0), ("1", 1), (True, 1), (None, 0), (2, 0),
        (1, 1.0), (0, "0"), (1, True), (0, -1)])
    def test_malformed_label_names_line(self, tmp_path, bag, inst):
        path = tmp_path / "bad.ndjson"
        rows = [
            {"bag_id": "a", "label": 0,
             "instances": [{"features": [1.0], "label": None}]},
            {"bag_id": "b", "label": bag,
             "instances": [{"features": [1.0], "label": inst}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="line 2: label must be 0 or 1"):
            load_ndjson(path)

    def test_inconsistent_bag_label_names_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        rows = [
            {"bag_id": "a", "label": 0,
             "instances": [{"features": [1.0], "label": 0}]},
            {"bag_id": "b", "label": 0,
             "instances": [{"features": [1.0], "label": 1}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="line 2: .*inconsistent"):
            load_ndjson(path)

    def test_empty_features_name_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(json.dumps(
            {"bag_id": "a", "label": 0,
             "instances": [{"features": [], "label": 0}]}) + "\n")
        with pytest.raises(ValueError, match="line 1: .*one feature"):
            load_ndjson(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_non_finite_feature_names_line(self, tmp_path, bad):
        path = tmp_path / "bad.ndjson"
        rows = [
            {"bag_id": "a", "label": 0,
             "instances": [{"features": [1.0, 2.0], "label": 0}]},
            {"bag_id": "b", "label": 0,
             "instances": [{"features": [1.0, 2.0], "label": 0},
                           {"features": [bad, 2.0], "label": 0}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_ndjson(path)

    @pytest.mark.parametrize("bad", ["1.5", True, False, None, [1.0]])
    def test_non_number_feature_names_line(self, tmp_path, bad):
        path = tmp_path / "bad.ndjson"
        rows = [
            {"bag_id": "a", "label": 0,
             "instances": [{"features": [1.0, 2.0], "label": 0}]},
            {"bag_id": "b", "label": 0,
             "instances": [{"features": [1.0, 2.0], "label": 0},
                           {"features": [1.5, bad], "label": 0}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError,
                           match="line 2: feature values must be JSON num"):
            load_ndjson(path)

    def test_out_of_range_integer_feature_names_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(json.dumps(
            {"bag_id": "a", "label": 0,
             "instances": [{"features": [10 ** 400], "label": 0}]}) + "\n")
        with pytest.raises(ValueError, match="line 1: "):
            load_ndjson(path)

    @pytest.mark.parametrize("bad", [None, 5, 1.5, True, ["a"]])
    def test_non_string_bag_id_names_line(self, tmp_path, bad):
        path = tmp_path / "bad.ndjson"
        rows = [
            {"bag_id": "a", "label": 0,
             "instances": [{"features": [1.0], "label": 0}]},
            {"bag_id": bad, "label": 0,
             "instances": [{"features": [1.0], "label": 0}]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError,
                           match="line 2: bag_id must be a string"):
            load_ndjson(path)

    def test_peak_memory_of_one_load(self, tmp_path, traced_peak):
        # 200 bags of 100 rows at d 16: the features once, the growing
        # buffer's spare capacity and one line's objects fit; per-bag
        # blocks joined by a copy hold the features twice
        path = tmp_path / "bags.ndjson"
        save_ndjson(generate_normal_bags(GenConfig(
            n_bags=200, bag_size=100, feature_dim=16, seed=0)), path)
        load_ndjson(path)
        peak = traced_peak(load_ndjson, path)
        assert peak <= 1.6 * 200 * 100 * 16 * 8

    def test_peak_memory_of_one_save(self, tmp_path, traced_peak):
        # the text is written one chunk at a time, and a save of one chunk
        # one line at a time: holding every chunk's text, or the one
        # chunk's lines, at once would hold the whole file
        for n_bags, n_chunks in ((200, 8), (39, 1)):
            ds = generate_normal_bags(GenConfig(n_bags=n_bags, bag_size=100,
                                                feature_dim=16, seed=0))
            assert len(data._chunks(ds.offsets[1:].tolist(),
                                    data._SAVE_CHUNK_ROWS)) == n_chunks
            path = tmp_path / f"bags-{n_bags}.ndjson"
            save_ndjson(ds, path)
            peak = traced_peak(save_ndjson, ds, path)
            assert peak < 0.5 * path.stat().st_size, n_bags

    @pytest.mark.parametrize("failure", [
        "raise", pytest.param("exit", marks=needs_two_cpus)])
    @pytest.mark.parametrize("earlier", ["earlier file\n", None])
    def test_failed_save_leaves_the_path_as_it_was(
            self, tmp_path, monkeypatch, failure, earlier):
        path = tmp_path / "bags.ndjson"
        if earlier is not None:
            path.write_text(earlier)
        ds = generate_normal_bags(GenConfig(n_bags=12, bag_size=5,
                                            positive_ratio=0.4,
                                            feature_dim=2, seed=1))
        monkeypatch.setattr(data, "_SAVE_CHUNK_ROWS", 10)
        chunks = data._chunks(ds.offsets[1:].tolist(), 10)
        assert len(chunks) >= 3
        bad_bag = ds.bag_ids[chunks[-1][0]]  # in the last chunk
        caller, real_dumps = os.getpid(), json.dumps

        def dumps(obj, *args, **kwargs):
            if isinstance(obj, dict) and obj.get("bag_id") == bad_bag:
                if failure == "exit" and os.getpid() != caller:
                    os._exit(3)
                raise RuntimeError("encoder failed")
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(data.json, "dumps", dumps)
        message = "encoder failed" if failure == "raise" else "code 3"
        with pytest.raises(RuntimeError, match=message):
            save_ndjson(ds, path)
        if earlier is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["bags.ndjson"]
            assert path.read_text() == earlier

    def test_save_over_a_symlink_keeps_the_link_and_the_mode(self, tmp_path):
        ds = generate_normal_bags(GenConfig(n_bags=12, bag_size=5,
                                            positive_ratio=0.4,
                                            feature_dim=2, seed=1))
        target, link = tmp_path / "target.ndjson", tmp_path / "bags.ndjson"
        target.write_text("earlier file\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        save_ndjson(ds, link)
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == ["bags.ndjson",
                                                "target.ndjson"]
        assert_same_bags(load_ndjson(target), ds)


def ragged_bags(n_bags, dim, seed):
    """A dataset of 1-7 row bags with known and unknown instance labels."""
    rng = Rng(seed)
    bags = []
    for i in range(n_bags):
        size = int(rng.integers(1, 8))
        labels = [None if u < 0.3 else int(u > 0.8)
                  for u in rng.uniform(size=size)]
        label = int(1 in labels) if None not in labels else i % 2
        bags.append((f"bag-{i}", label, rng.standard_normal((size, dim)),
                     labels))
    return make_dataset(bags, name="bags")


def file_chunks(path):
    """The (first, stop) line ranges load_ndjson cuts ``path`` into."""
    with open(path) as fh:
        ends = list(accumulate(map(len, fh)))
    return data._chunks(ends, data._LOAD_CHUNK_CHARS)


def bag_record(bag_id, features, label=0, inst=0):
    return {"bag_id": bag_id, "label": label,
            "instances": [{"features": features, "label": inst}]}


# TestNdjson's bad files, as (feature dimension, lines, the message after
# "line N: ", with N the last line's number)
BAD_FILES = [
    (1, [bag_record("a", [1.0]), "{broken"], "malformed JSON"),
    (1, [{"bag_id": "a", "label": 0}], "missing or bad field"),
    (2, [bag_record("a", [1.0, 2.0]), bag_record("b", [1.0])],
     "inconsistent feature dimension"),
    *[(1, [bag_record("a", [1.0], inst=None),
           bag_record("b", [1.0], bag, inst)], "label must be 0 or 1")
      for bag, inst in [(1.7, 1), (0.5, 0), ("1", 1), (True, 1), (None, 0),
                        (2, 0), (1, 1.0), (0, "0"), (1, True), (0, -1)]],
    (1, [bag_record("a", [1.0]), bag_record("b", [1.0], inst=1)],
     "bag 'b': label inconsistent"),
    (1, [bag_record("a", [])], "a bag needs at least one instance"),
    *[(2, [bag_record("a", [1.0, 2.0]),
           {"bag_id": "b", "label": 0,
            "instances": [{"features": [1.0, 2.0], "label": 0},
                          {"features": [bad, 2.0], "label": 0}]}],
       "non-finite") for bad in [float("nan"), float("inf"), -float("inf")]],
    *[(2, [bag_record("a", [1.0, 2.0]),
           {"bag_id": "b", "label": 0,
            "instances": [{"features": [1.0, 2.0], "label": 0},
                          {"features": [1.5, bad], "label": 0}]}],
       "feature values must be JSON num")
      for bad in ["1.5", True, False, None, [1.0]]],
    (1, [bag_record("a", [10 ** 400])], ""),
    *[(1, [bag_record("a", [1.0]), bag_record(bad, [1.0])],
       "bag_id must be a string") for bad in [None, 5, 1.5, True, ["a"]]],
]


class TestChunkedNdjson:
    """Files are saved and loaded in chunks of whole bags or lines, in
    forked workers where there are two or more usable CPUs; the bytes, the
    arrays and the errors are those of one pass."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        """Chunk floors that cut small files into many chunks."""
        monkeypatch.setattr(data, "_SAVE_CHUNK_ROWS", 8)
        monkeypatch.setattr(data, "_LOAD_CHUNK_CHARS", 200)

    def test_chunks_are_whole_runs_of_about_equal_size(self):
        ends = list(accumulate([4] * 10))
        assert data._chunks(ends, 10) == [(0, 3), (3, 5), (5, 8), (8, 10)]
        assert data._chunks(ends, 1000) == [(0, 10)]
        # a run ends with the item that reaches its share, so a large item
        # takes in the shares it covers and no run is empty
        ends = list(accumulate([5, 1, 1, 30, 1, 1, 1, 1]))
        assert data._chunks(ends, 10) == [(0, 4), (4, 8)]
        assert data._chunks([], 10) == []
        many = data._chunks(list(range(1, 101)), 1)
        assert len(many) == data._MAX_CHUNKS
        assert [a for a, _ in many[1:]] == [b for _, b in many[:-1]]

    def test_one_cpu_two_cpus_and_one_chunk_agree(self, tmp_path,
                                                   monkeypatch):
        ds = ragged_bags(60, 3, seed=4)
        got = {}
        with monkeypatch.context() as m:  # one chunk, as one pass
            m.setattr(data, "_SAVE_CHUNK_ROWS", 10 ** 9)
            m.setattr(data, "_LOAD_CHUNK_CHARS", 10 ** 12)
            got["one-chunk"] = self._round_trip(ds, tmp_path / "one-chunk")
        monkeypatch.setattr(data, "_SAVE_CHUNK_ROWS", 8)
        monkeypatch.setattr(data, "_LOAD_CHUNK_CHARS", 1000)
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0},
                      raising=False)
            m.setattr(os, "cpu_count", lambda: 1)
            got["one-cpu"] = self._round_trip(ds, tmp_path / "one-cpu")
        got["all-cpus"] = self._round_trip(ds, tmp_path / "all-cpus")
        assert len(data._chunks(ds.offsets[1:].tolist(), 8)) >= 3
        assert len(file_chunks(tmp_path / "all-cpus" / "bags.ndjson")) >= 3
        want_text, want = got.pop("one-chunk")
        assert_same_bags(want, ds)
        for text, back in got.values():
            assert text == want_text
            for field in ("features", "offsets", "bag_labels",
                          "instance_labels"):
                assert (getattr(back, field).tobytes()
                        == getattr(want, field).tobytes())
            assert back.bag_ids == want.bag_ids == ds.bag_ids
            assert back.name == want.name == "bags"

    @staticmethod
    def _round_trip(ds, directory):
        directory.mkdir()
        path = directory / "bags.ndjson"
        save_ndjson(ds, path)
        return path.read_bytes(), load_ndjson(path)

    @pytest.mark.parametrize("dim, lines, message", BAD_FILES)
    def test_error_in_the_last_chunk_names_its_line(
            self, tmp_path, small_chunks, dim, lines, message):
        good = [json.dumps(bag_record(f"p{k:02d}", [0.5] * dim))
                for k in range(30)]
        lines = good + [line if isinstance(line, str) else json.dumps(line)
                        for line in lines]
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n")
        chunks = file_chunks(path)
        assert len(chunks) >= 2 and chunks[-1][0] < len(lines)
        with pytest.raises(ValueError,
                           match=f"^line {len(lines)}: {message}"):
            load_ndjson(path)

    def test_bad_file_is_parsed_once(self, tmp_path, monkeypatch,
                                     small_chunks):
        # one usable CPU, so that every _parse_lines call is seen here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        calls, real = [], data._parse_lines

        def counted(path, first, stop):
            calls.append((first, stop))
            return real(path, first, stop)

        monkeypatch.setattr(data, "_parse_lines", counted)
        lines = [json.dumps(bag_record(f"p{k:02d}", [0.5]))
                 for k in range(30)] + ["{broken"]
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n")
        chunks = file_chunks(path)
        assert len(chunks) >= 2
        with pytest.raises(ValueError,
                           match=f"^line {len(lines)}: malformed JSON"):
            load_ndjson(path)
        assert calls == chunks

    @pytest.mark.parametrize("rest", ["first line", "whole chunk"])
    def test_dimension_change_at_a_later_chunk_names_its_line(
            self, tmp_path, small_chunks, rest):
        # equal-length lines, so the chunks do not depend on the change
        two, one = bag_record("b", [1.5, 2.5]), bag_record("b", [1.500025])
        assert len(json.dumps(two)) == len(json.dumps(one))
        lines = [json.dumps(two)] * 40
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n")
        first = file_chunks(path)[1][0]  # 0-based index of its first line
        if rest == "whole chunk":  # no chunk is inconsistent on its own
            lines[first:] = [json.dumps(one)] * (len(lines) - first)
        else:
            lines[first] = json.dumps(one)
        path.write_text("\n".join(lines) + "\n")
        assert file_chunks(path)[1][0] == first
        with pytest.raises(ValueError, match=f"^line {first + 1}: "
                           "inconsistent feature dimension"):
            load_ndjson(path)

    def test_blank_lines_at_chunk_edges(self, tmp_path, small_chunks):
        ds = ragged_bags(20, 2, seed=6)
        path = tmp_path / "bags.ndjson"
        save_ndjson(ds, path)
        bag_lines = path.read_text().splitlines()
        # a blank line after every bag, and a blank run as long as a chunk
        lines = [text for line in bag_lines for text in (line, "  ")]
        lines[10:10] = [" " * 9] * 200
        path.write_text("\n".join(lines) + "\n")
        chunks = file_chunks(path)
        assert any(all(not line.strip() for line in lines[a:b])
                   for a, b in chunks)
        assert any(not lines[a].strip() for a, _ in chunks)
        assert any(not lines[b - 1].strip() for _, b in chunks)
        assert_same_bags(load_ndjson(path), ds)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                        reason="needs /dev/fd")
    def test_loads_a_pipe_in_one_pass(self, tmp_path, small_chunks):
        # a pipe can be read once: it is parsed in one pass even when a
        # regular file of its text would be cut into chunks
        ds = ragged_bags(20, 2, seed=6)
        path = tmp_path / "bags.ndjson"
        save_ndjson(ds, path)
        text = path.read_bytes()
        assert len(file_chunks(path)) >= 2
        read_end, write_end = os.pipe()

        def write():
            with open(write_end, "wb") as fh:
                fh.write(text)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            back = load_ndjson(f"/dev/fd/{read_end}")
        finally:
            writer.join()
            os.close(read_end)
        assert_same_bags(back, ds)

    @needs_two_cpus
    def test_save_and_load_run_in_two_or_more_child_processes(
            self, tmp_path, monkeypatch):
        # 8,000 rows of 16 features, the size of a hard-suite test split,
        # at the default chunk floors
        pid_file = tmp_path / "pids"

        def stamped(fn):
            def record_pid(*args):
                with open(pid_file, "a") as fh:
                    fh.write(f"{fn.__name__} {os.getpid()}\n")
                return fn(*args)
            return record_pid

        monkeypatch.setattr(data, "_ndjson_lines",
                            stamped(data._ndjson_lines))
        monkeypatch.setattr(data, "_parse_lines", stamped(data._parse_lines))
        ds = generate_normal_bags(GenConfig(n_bags=80, bag_size=100,
                                            feature_dim=16, seed=0))
        path = tmp_path / "bags.ndjson"
        save_ndjson(ds, path)
        assert_same_bags(load_ndjson(path), ds)
        pids = {"_ndjson_lines": set(), "_parse_lines": set()}
        for line in pid_file.read_text().splitlines():
            name, pid = line.split()
            pids[name].add(int(pid))
        for name, seen in pids.items():
            assert len(seen) >= 2, name
            assert os.getpid() not in seen, name

    def test_small_files_do_not_import_multiprocessing(self, tmp_path):
        script = """
import sys
from otmil.data import (GenConfig, generate_normal_bags, load_ndjson,
                        save_ndjson)
ds = generate_normal_bags(GenConfig(n_bags=10, bag_size=5, feature_dim=3,
                                    positive_ratio=0.4))
save_ndjson(ds, sys.argv[1])
assert load_ndjson(sys.argv[1]).features.tobytes() == ds.features.tobytes()
print("multiprocessing" in sys.modules)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "bags.ndjson")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


class TestBenchmarkCsv:
    def _write(self, path, rows, dim=2):
        header = "bag_id,bag_label," + ",".join(f"f{i}" for i in range(dim))
        path.write_text("\n".join([header] + rows) + "\n")

    def test_loads_grouped_bags(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write(path, ["m1,1,0.1,0.2", "m1,1,0.3,0.4", "m2,0,0.5,0.6"])
        ds = load_benchmark_csv(path)
        assert len(ds.bags) == 2
        assert ds.bags[0].label == 1 and len(ds.bags[0].instances) == 2
        assert ds.instance_labels.tolist() == [-1, -1, -1]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,label,f0\nx,0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_benchmark_csv(path)

    def test_label_flip_within_bag(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write(path, ["m1,1,0.1,0.2", "m1,0,0.3,0.4"])
        with pytest.raises(ValueError, match="changes"):
            load_benchmark_csv(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write(path, ["m1,1,0.1,0.2", "m1,1,0.3"])
        with pytest.raises(ValueError, match="line 3"):
            load_benchmark_csv(path)

    @pytest.mark.parametrize("row", ["m2,0,nan,0.2", "m2,0,0.1,inf",
                                     "m2,0,-inf,0.2", "m2,0,1e999,0.2"])
    def test_non_finite_feature_names_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        self._write(path, ["m1,1,0.1,0.2", row])
        with pytest.raises(ValueError, match="line 3: non-finite"):
            load_benchmark_csv(path)

    @pytest.mark.parametrize("row", ["m2,x,0.1,0.2", "m2,2,0.1,0.2",
                                     "m2,0,0.1,abc"])
    def test_bad_label_or_feature_names_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        self._write(path, ["m1,1,0.1,0.2", row])
        with pytest.raises(ValueError, match="line 3: "):
            load_benchmark_csv(path)


# finite values a text format must carry exactly: signed zeros, the
# smallest and largest subnormals, and magnitudes at the top of the range
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               -2.225073858507201e-308, 1e308, -1e308,
               1.7976931348623157e308, -1.7976931348623157e308]
features_values = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def ragged_datasets(draw, ids=st.text(min_size=1, max_size=8)):
    """Datasets of 1-6 bags of 1-5 instances (size-1 bags included), any
    mix of known and unknown instance labels, and edge-case features."""
    dim = draw(st.integers(1, 4))
    bag_ids = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    bags = []
    for bag_id in bag_ids:
        size = draw(st.integers(1, 5))
        labels = draw(st.lists(st.sampled_from([None, 0, 1]),
                               min_size=size, max_size=size))
        if None in labels:
            label = draw(st.sampled_from([0, 1]))
        else:
            label = int(1 in labels)
        feats = draw(st.lists(features_values, min_size=size * dim,
                              max_size=size * dim))
        rows = np.array(feats, dtype=np.float64).reshape(size, dim)
        bags.append((bag_id, label, rows, labels))
    return make_dataset(bags)


def assert_same_bags(got, want, instance_labels=True):
    """Equal bag ids and labels, and features equal bit for bit."""
    assert got.feature_dim == want.feature_dim
    assert [b.bag_id for b in got.bags] == [b.bag_id for b in want.bags]
    assert [b.label for b in got.bags] == [b.label for b in want.bags]
    assert np.array_equal(got.offsets, want.offsets)
    assert got.features.tobytes() == want.features.tobytes()
    if instance_labels:
        assert np.array_equal(got.instance_labels, want.instance_labels)


def write_benchmark_csv(dataset, path):
    """The bag_id,bag_label,f0.. layout, one instance per row, floats in
    their shortest exact repr."""
    header = ["bag_id", "bag_label"] + [f"f{i}" for i in
                                        range(dataset.feature_dim)]
    lines = [",".join(header)]
    for bag in dataset.bags:
        for inst in bag.instances:
            lines.append(",".join([bag.bag_id, str(bag.label)]
                                  + [repr(float(v)) for v in inst.features]))
    Path(path).write_text("\n".join(lines) + "\n")


class TestRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(ragged_datasets())
    def test_ndjson(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.ndjson", Path(tmp) / "b.ndjson"
            save_ndjson(ds, first)
            back = load_ndjson(first)
            assert_same_bags(back, ds)
            save_ndjson(back, second)
            assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(ragged_datasets(ids=st.text(
        alphabet="abcdefxyzABC0123456789_-.", min_size=1, max_size=8)))
    def test_benchmark_csv(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bags.csv"
            write_benchmark_csv(ds, path)
            back = load_benchmark_csv(path)
        assert_same_bags(back, ds, instance_labels=False)
        assert all(i.label is None for b in back.bags for i in b.instances)


def write_idx_pair(tmp_path, images, labels, tag=""):
    img_path = tmp_path / f"imgs{tag}.idx"
    lbl_path = tmp_path / f"lbls{tag}.idx"
    n, rows, cols = images.shape
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


class TestIdx:
    def test_round_trip_and_scaling(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 4, 4)).astype(np.uint8)
        labels = rng.integers(0, 10, size=10).astype(np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, labels)
        feats, got = load_idx_mnist(ip, lp)
        # images come back flattened to feature vectors
        assert feats.shape == (10, 16)
        assert feats.max() <= 1.0 and feats.min() >= 0.0
        assert np.allclose(feats * 255.0, images.reshape(10, 16))
        assert np.array_equal(got, labels)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.idx"
        p.write_bytes(struct.pack(">IIII", 0xdeadbeef, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(ValueError, match="not IDX"):
            load_idx_mnist(p, p)

    def test_truncated_images(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
        labels = rng.integers(0, 10, size=4).astype(np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, labels)
        ip.write_bytes(ip.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_idx_mnist(ip, lp)

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(4, 2, 2)).astype(np.uint8)
        ip, _ = write_idx_pair(tmp_path, images,
                               rng.integers(0, 10, size=4).astype(np.uint8),
                               tag="a")
        _, lp = write_idx_pair(tmp_path, images[:3],
                               rng.integers(0, 10, size=3).astype(np.uint8),
                               tag="b")
        with pytest.raises(ValueError, match="mismatch"):
            load_idx_mnist(ip, lp)


class TestBagsFromArrays:
    def test_paired_dealing_counts(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(400, 3))
        mask = np.zeros(400, dtype=bool)
        mask[:80] = True
        cfg = GenConfig(n_bags=10, bag_size=20, positive_ratio=0.2,
                        feature_dim=3, seed=0)
        ds = bags_from_arrays(feats, mask, cfg, Rng(0), name="arr")
        assert ds.bag_labels.tolist() == [1, 0] * 8
        assert [b.bag_id for b in ds.bags[:4]] == [
            "pos-0000", "neg-0000", "pos-0001", "neg-0001"]
        a = round_half_up(0.2 * 20)
        for bag in ds.bags:
            assert sum(i.label for i in bag.instances) == a * bag.label

    def test_without_replacement(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(200, 2))
        mask = np.zeros(200, dtype=bool)
        mask[:40] = True
        cfg = GenConfig(n_bags=6, bag_size=10, positive_ratio=0.2,
                        feature_dim=2, seed=1)
        ds = bags_from_arrays(feats, mask, cfg, Rng(1), name="arr")
        seen = np.concatenate([b.feature_matrix() for b in ds.bags])
        uniq = np.unique(seen, axis=0)
        assert len(uniq) == len(seen)

    def test_pool_too_small(self):
        feats = np.zeros((5, 2))
        mask = np.array([True, False, False, False, False])
        cfg = GenConfig(n_bags=4, bag_size=4, positive_ratio=0.5,
                        feature_dim=2)
        with pytest.raises(ValueError, match="pool too small"):
            bags_from_arrays(feats, mask, cfg, Rng(0), name="arr")


class TestKfold:
    def _dataset(self, n_pos=6, n_neg=9):
        return make_dataset(
            [(f"p{i}", 1, np.full((1, 2), i), None) for i in range(n_pos)]
            + [(f"n{i}", 0, np.full((1, 2), -i), None) for i in range(n_neg)])

    def test_partition_covers_everything_once(self):
        ds = self._dataset()
        folds = kfold_split(ds, 3, seed=0)
        seen = []
        for _, test in folds:
            seen += [b.bag_id for b in test.bags]
        assert sorted(seen) == sorted(b.bag_id for b in ds.bags)

    def test_stratified(self):
        ds = self._dataset(n_pos=6, n_neg=9)
        for train, test in kfold_split(ds, 3, seed=1):
            assert len([b for b in test.bags if b.label == 1]) == 2
            assert len([b for b in test.bags if b.label == 0]) == 3

    def test_train_test_disjoint(self):
        ds = self._dataset()
        for train, test in kfold_split(ds, 5, seed=2):
            train_ids = {b.bag_id for b in train.bags}
            test_ids = {b.bag_id for b in test.bags}
            assert not train_ids & test_ids
            assert len(train_ids | test_ids) == len(ds.bags)

    def test_folds_carry_each_bags_rows(self):
        ds = self._dataset()
        rows = {b.bag_id: b.feature_matrix().tolist() for b in ds.bags}
        for train, test in kfold_split(ds, 3, seed=0):
            for split in (train, test):
                assert all(b.feature_matrix().tolist() == rows[b.bag_id]
                           for b in split.bags)

    def test_folds_read_by_index_equal_iteration(self):
        ds = self._dataset()
        folds = kfold_split(ds, 3, seed=5)
        assert len(folds) == 3
        ids = [[[b.bag_id for b in split.bags] for split in pair]
               for pair in folds]
        assert [[[b.bag_id for b in split.bags] for split in folds[i]]
                for i in (0, 1, 2)] == ids
        assert folds[-1][1].name == folds[2][1].name == f"{ds.name}-fold2-test"
        with pytest.raises(IndexError):
            folds[3]

    def test_k_validation(self):
        ds = self._dataset(n_pos=2, n_neg=2)
        with pytest.raises(ValueError, match="at least 2"):
            kfold_split(ds, 1)
        with pytest.raises(ValueError, match="exceeds"):
            kfold_split(ds, 9)

    def test_deterministic_per_seed(self):
        ds = self._dataset()
        a = kfold_split(ds, 3, seed=4)
        b = kfold_split(ds, 3, seed=4)
        for (_, ta), (_, tb) in zip(a, b):
            assert [x.bag_id for x in ta.bags] == [x.bag_id for x in tb.bags]
