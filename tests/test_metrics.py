"""Rank metrics, bag inference, pseudo-label reports, entropy curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmil.metrics import (_average_ranks, bag_predict, dataset_aucs,
                           dataset_scores, entropy_curve, pseudo_label_metrics,
                           roc_auc, segment_bag_scores)
from otmil.model import forward, init_classifier
from otmil.numkit import Rng

from test_data import make_dataset


def auc_by_pair_counting(scores, labels):
    """O(n^2) oracle; ties count half a pair."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_matches_pair_counting_ensemble(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(5, 60))
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(0.0, 1.0, n), 1)
            ours = roc_auc(scores, labels).auc
            assert np.isclose(ours, auc_by_pair_counting(scores, labels),
                              atol=1e-12)

    def test_perfect_and_inverted(self):
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels).auc == 1.0
        assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels).auc == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc(np.ones(6), np.array([0, 1, 0, 1, 0, 1])).auc == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_bad_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            roc_auc(np.array([0.1, 0.9]), np.array([1, 2]))


def average_ranks_by_loop(scores):
    """Reference: the tie-block scan _average_ranks replaced."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0, np.inf,
                                     np.nan]) | st.floats(),
                    min_size=1, max_size=80))
    def test_equals_tie_block_loop(self, values):
        scores = np.array(values, dtype=np.float64)
        assert np.array_equal(_average_ranks(scores),
                              average_ranks_by_loop(scores))


class TestSegmentBagScores:
    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_matches_bag_predict_on_ragged_bags(self, arch):
        rng = Rng(4)
        params = init_classifier(5, arch=arch, hidden=7, rng=rng)
        sizes = [1, 3, 1, 8, 2, 13, 1]
        ds = make_dataset([(f"b{i}", i % 2, rng.standard_normal((k, 5)), None)
                           for i, k in enumerate(sizes)])
        scores = segment_bag_scores(forward(params, ds.features)[:, 0],
                                    ds.offsets)
        assert scores.shape == (len(sizes),)
        np.testing.assert_allclose(
            scores, [bag_predict(params, b) for b in ds.bags],
            rtol=0.0, atol=1e-12)

    def test_empty_bag(self):
        with pytest.raises(ValueError, match="empty"):
            segment_bag_scores(np.zeros(3), np.array([0, 1, 1, 3]))

    @pytest.mark.parametrize("offsets", [
        [0, 5, 8], [2, 5, 10], [0, 5, 11], [[0, 5, 10]], []])
    def test_offsets_must_run_over_every_score(self, offsets):
        # [0, 5, 8] used to pool rows 8-9 into the last bag and [2, 5, 10]
        # to drop rows 0-1
        with pytest.raises(ValueError, match="offsets"):
            segment_bag_scores(np.arange(10.0), np.array(offsets))


class TestDatasetScores:
    def _dataset(self, bag_labels, instance_labels):
        rng = Rng(6)
        return make_dataset([(f"b{i}", label, rng.standard_normal((3, 4)),
                              labs) for i, (label, labs) in
                             enumerate(zip(bag_labels, instance_labels))])

    def test_one_forward_then_segment(self):
        params = init_classifier(4, arch="mlp", hidden=5, rng=Rng(1))
        ds = self._dataset([1, 0, 1], [[0, 1, 0], [0, 0, 0], None])
        instance, bags = dataset_scores(params, ds)
        want = forward(params, ds.features)[:, 0]
        assert instance.tobytes() == want.tobytes()
        assert (bags.tobytes()
                == segment_bag_scores(want, ds.offsets).tobytes())

    def test_aucs_match_roc_auc(self):
        ds = self._dataset([1, 0, 1], [[0, 1, 0], [0, 0, 0], [1, 1, 0]])
        instance, bags = np.linspace(0.0, 1.0, 9), np.array([0.7, 0.2, 0.4])
        assert dataset_aucs(ds, instance, bags) == (
            roc_auc(instance, ds.instance_labels).auc,
            roc_auc(bags, ds.bag_labels).auc)

    def test_undefined_auc_is_none(self):
        # one unknown instance label, then bags of one class only
        ds = self._dataset([1, 0], [[0, 1, None], [0, 0, 0]])
        assert dataset_aucs(ds, np.zeros(6), np.array([0.9, 0.1]))[0] is None
        ds = self._dataset([0, 0], [[0, 0, 0], [0, 0, 0]])
        assert dataset_aucs(ds, np.zeros(6), np.zeros(2)) == (None, None)


class TestBagPredict:
    def _bag(self, feats):
        return make_dataset([("b0", 1, feats, None)]).bags[0]

    def test_max_over_instances(self):
        params = init_classifier(3, arch="linear", rng=Rng(0))
        feats = Rng(1).standard_normal((5, 3))
        bag = self._bag(feats)
        per_inst = forward(params, feats)[:, 0]
        assert np.isclose(bag_predict(params, bag), per_inst.max())

    def test_empty_bag(self):
        params = init_classifier(3, arch="linear", rng=Rng(0))

        class Hollow:
            instances = []

        with pytest.raises(ValueError, match="empty"):
            bag_predict(params, Hollow())


class TestPseudoLabelMetrics:
    def test_hand_case(self):
        q = np.array([[0.9, 0.1], [0.6, 0.4], [0.2, 0.8], [0.3, 0.7]])
        truth = np.array([1, 0, 0, 1])
        rep = pseudo_label_metrics(q, truth)
        # predicted positive: rows 0,1 -> one correct
        assert np.flatnonzero(q[:, 0] > q[:, 1]).tolist() == [0, 1]
        assert rep.precision == 0.5
        assert rep.accuracy == 0.5

    def test_no_positives_flagged(self):
        q = np.array([[0.1, 0.9], [0.2, 0.8]])
        rep = pseudo_label_metrics(q, np.array([0, 1]))
        assert int(np.sum(q[:, 0] > q[:, 1])) == 0  # no denominator
        assert rep.precision == 1.0
        assert rep.accuracy == 0.5


class TestEntropyCurve:
    def test_k1_equality(self):
        for pt in entropy_curve([1], [0.1, 0.5, 0.9]):
            assert pt.difference == 0.0
            assert pt.h_instance == pt.h_bag

    def test_frozen_value_k2_half(self):
        pt = entropy_curve([2], [0.5])[0]
        assert np.isclose(pt.h_instance, 2.0)
        assert np.isclose(pt.h_bag, 0.8112781244591328)
        assert np.isclose(pt.difference, 1.188721875540867)

    def test_strict_gap_for_k_above_one(self):
        points = entropy_curve([2, 3, 10], [0.01, 0.25, 0.75, 0.99])
        assert all(pt.difference > 0 for pt in points)

    def test_difference_increases_with_k(self):
        for p in (0.05, 0.5, 0.95):
            diffs = [pt.difference
                     for pt in entropy_curve([1, 2, 4, 8, 16], [p])]
            assert all(a < b for a, b in zip(diffs, diffs[1:]))

    def test_degenerate_p_zero_entropy(self):
        for p in (0.0, 1.0):
            pt = entropy_curve([4], [p])[0]
            assert pt.h_instance == 0.0
            assert pt.h_bag == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            entropy_curve([0], [0.5])
        with pytest.raises(ValueError):
            entropy_curve([2], [1.5])
