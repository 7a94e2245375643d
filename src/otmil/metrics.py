"""Evaluation metrics: tied-rank ROC AUC, bag-level inference, pseudo-label
quality, and the instance-vs-bag label entropy analytics. All scoring
goes through ``dataset_scores`` (one ``forward``, then a segment max)
and ``dataset_aucs``, which also takes a pooling baseline's scores.
``write_table_csv`` writes every result table."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .labeling import positive_rows
from .model import ClassifierParams, forward
from .numkit import bag_sizes


@dataclass
class RocResult:
    """Area under the ROC curve."""

    auc: float


def roc_auc(scores, labels) -> RocResult:
    """Rank-based AUC; tied scores contribute half weight.

    Equals the probability that a uniformly drawn positive outranks a
    uniformly drawn negative, so it is invariant under any strictly
    increasing transform of the scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError("scores and labels must be equal-length vectors")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != len(labels):
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return RocResult(auc=auc)


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    # 1-based ranks; ties share the average rank (i + j) / 2 + 1 of their
    # block, i and j its first and last positions in sorted order
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def bag_predict(params: ClassifierParams, bag) -> float:
    """Bag-level positive probability: the max over its instances.

    Scores one bag with its own forward pass; ``segment_bag_scores`` scores
    every bag of a dataset from one.
    """
    if len(bag.instances) == 0:
        raise ValueError("empty bag")
    feats = np.stack([inst.features for inst in bag.instances])
    return float(forward(params, feats)[:, 0].max())


def segment_bag_scores(instance_scores: np.ndarray,
                       offsets: np.ndarray) -> np.ndarray:
    """Per-bag max of instance scores in bag order.

    Bag i owns ``instance_scores[offsets[i]:offsets[i + 1]]``, as in
    ``data.Dataset`` (checked by ``numkit.bag_sizes``). Each max is the
    value ``bag_predict`` picks from the same scores.
    """
    bag_sizes(offsets, len(instance_scores))
    return np.maximum.reduceat(instance_scores, offsets[:-1])


def dataset_scores(params: ClassifierParams, dataset
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(instance scores, bag scores) of a ``data.Dataset``, both in bag
    order: one forward pass, then each bag's max of its rows."""
    scores = forward(params, dataset.features)[:, 0]
    return scores, segment_bag_scores(scores, dataset.offsets)


def dataset_aucs(dataset, instance_scores, bag_scores
                 ) -> tuple[float | None, float | None]:
    """(instance AUC, bag AUC) against a dataset's labels; either is None
    when a label is unknown (-1) or only one class is present."""
    return tuple(None if y.min() < 0 or not 0 < y.sum() < y.size
                 else roc_auc(scores, y).auc for scores, y in
                 ((instance_scores, dataset.instance_labels),
                  (bag_scores, dataset.bag_labels)))


@dataclass
class PseudoLabelReport:
    """How well hardened pseudo labels match known instance labels.

    When nothing is predicted positive (the degenerate fixed point),
    precision has no denominator and is reported as 1.0 by convention.
    """

    precision: float
    accuracy: float


def pseudo_label_metrics(q_values: np.ndarray, true_labels) -> PseudoLabelReport:
    """Precision/accuracy of row-argmax pseudo labels (column 0 = positive)."""
    true_labels = np.asarray(true_labels)
    if len(true_labels) != len(q_values):
        raise ValueError("pseudo labels and true labels differ in length")
    pred_pos = positive_rows(q_values)
    true_pos = true_labels == 1
    n_pred = int(pred_pos.sum())
    tp = int(np.sum(pred_pos & true_pos))
    precision = tp / n_pred if n_pred > 0 else 1.0
    accuracy = float(np.mean(pred_pos == true_pos))
    return PseudoLabelReport(precision=precision, accuracy=accuracy)


@dataclass
class EntropyPoint:
    """Entropy bookkeeping for one (bag size, instance probability) pair."""

    K: int
    p: float
    h_instance: float
    h_bag: float
    difference: float


def _h2(p: float) -> float:
    """Binary entropy in bits, with 0*log0 = 0 at the endpoints."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def entropy_curve(k_values, p_values) -> list[EntropyPoint]:
    """Entropy carried by K instance labels vs their single bag label.

    p is the probability that one instance takes the majority class; the
    bag takes that class only when all K instances do, so the bag label is
    a coarse-graining of the instance labels. Per point: h_instance =
    K*h2(p), h_bag = h2(p**K), both in bits. The difference is the
    information lost by supervising at bag level; it is zero at K=1 and at
    p in {0,1}, strictly positive otherwise, and grows with K.
    """
    points = []
    for k in k_values:
        if k < 1:
            raise ValueError("bag size must be >= 1")
        for p in p_values:
            if not 0.0 <= p <= 1.0:
                raise ValueError("p must lie in [0, 1]")
            h_inst = k * _h2(p)
            h_bag = _h2(p ** k)
            points.append(EntropyPoint(K=int(k), p=float(p), h_instance=h_inst,
                                       h_bag=h_bag, difference=h_inst - h_bag))
    return points


def write_table_csv(path, header, rows) -> None:
    """A CSV table: the ``header`` row, then each row's cells in its
    order, with CRLF line ends. None is a blank cell and a float keeps
    full precision via repr; any other value is written as ``str`` does."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else repr(v)
                             if isinstance(v, float) else v for v in row])

