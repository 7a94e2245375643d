"""Alternating self-training loop for weakly supervised instance labels.

One epoch has two phases. First the current classifier scores every
instance inside the positive bags and those scores are converted into
pseudo labels, by the transport assignment (optionally followed by the
per-bag local constraint) or by the naive per-row rule when ablated.
Second the classifier takes plain SGD steps over shuffled mixed batches:
negative-bag instances carry their true one-hot negative target, positive
bag instances carry their pseudo-label row.

The positive-mass target mu_t can warm up from 0.5 toward its final value
so early epochs stay exploratory while the classifier is still random.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .data import kfold_split, stack_dataset
from .labeling import (MuSchedule, PredictionMatrix, SinkhornConfig,
                       adaptive_mu, apply_local_constraint, naive_assign,
                       sinkhorn_assign)
# bag_predict is not called here; perfbench/spans.py wraps trainer.bag_predict
from .metrics import (bag_predict, pseudo_label_metrics, roc_auc,
                      segment_bag_scores)
from .model import (ClassifierParams, SgdConfig, backward, forward,
                    init_classifier, sgd_step)
from .numkit import Rng

# rng stream ids, fixed so that runs are reproducible per seed
_INIT_STREAM = 1
_SHUFFLE_STREAM = 2


@dataclass
class TrainConfig:
    """Everything one self-training run depends on."""

    sgd: SgdConfig = field(default_factory=SgdConfig)
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    schedule: MuSchedule = field(default_factory=MuSchedule)
    arch: str = "mlp"
    hidden: int = 128
    reassign_every: int = 1
    soft_labels: bool = True
    constrain: bool = True
    adaptive: bool = True
    constraint_on_predictions: bool = False
    bag_inference: str = "max"
    seed: int = 0

    def __post_init__(self):
        if self.reassign_every < 1:
            raise ValueError("reassign_every must be >= 1")
        if self.bag_inference not in ("max", "mean"):
            raise ValueError("bag_inference must be 'max' or 'mean'")
        if self.arch not in ("linear", "mlp"):
            raise ValueError("arch must be 'linear' or 'mlp'")


@dataclass
class EpochRow:
    epoch: int
    mu_t: float
    loss: float
    pseudo_precision: float | None
    pseudo_accuracy: float | None
    instance_auc: float | None
    bag_auc: float | None
    converged: bool


@dataclass
class RunRecord:
    """Per-epoch metric rows plus a JSON-ready run summary."""

    rows: list[EpochRow] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


CSV_HEADER = ("epoch,mu_t,loss,pseudo_precision,pseudo_accuracy,"
              "instance_auc,bag_auc,converged")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_csv(record: RunRecord, path) -> None:
    """One row per epoch; floats keep full precision via repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in record.rows:
            writer.writerow([_cell(v) for v in
                             (r.epoch, r.mu_t, r.loss, r.pseudo_precision,
                              r.pseudo_accuracy, r.instance_auc, r.bag_auc,
                              r.converged)])


def write_run_summary(record: RunRecord, path) -> None:
    with open(path, "w") as fh:
        json.dump(record.summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _corpus(stacked):
    """Training arrays in corpus order, built once per run.

    Corpus order is positive-bag instances (dataset bag order, instance
    order within each bag) followed by negative-bag instances. Returns
    (x, targets, bag_index, true_pos): the (N, d) features; the (N, 2)
    targets, whose negative rows hold [0, 1] and whose first
    ``len(bag_index)`` rows ``mixed_batches`` fills with pseudo labels;
    the positive bag of each pseudo-label row; and the true labels of
    those rows, or None when any instance label is unknown.
    """
    sizes = np.diff(stacked.offsets)
    positive = stacked.bag_labels == 1
    if not positive.any():
        raise ValueError("no positive bags")
    if positive.all():
        raise ValueError("no negative bags")
    row_positive = np.repeat(positive, sizes)
    pos_rows = np.flatnonzero(row_positive)
    x = stacked.features[np.concatenate(
        [pos_rows, np.flatnonzero(~row_positive)])]
    targets = np.zeros((x.shape[0], 2))
    targets[pos_rows.size:, 1] = 1.0
    bag_index = np.repeat(np.arange(int(positive.sum())), sizes[positive])
    true_pos = (None if stacked.instance_labels is None
                else stacked.instance_labels[pos_rows])
    return x, targets, bag_index, true_pos


def mixed_batches(x: np.ndarray, targets: np.ndarray, n_pos: int,
                  q_values: np.ndarray, batch_size: int, rng: Rng):
    """Yield (features, targets) batches covering every instance once.

    ``x`` (N, d) and ``targets`` (N, 2) are in corpus order: the first
    ``n_pos`` rows are positive-bag instances, the rest negative-bag
    instances whose target rows already hold [0, 1] (positive class
    first). Each call writes ``q_values`` into the first ``n_pos`` target
    rows in place, then shuffles the row indices and slices, so each epoch
    is a random partition whose batch composition tracks the corpus ratio.
    """
    q_values = np.asarray(q_values, dtype=np.float64)
    if q_values.shape != (n_pos, 2) or targets.shape != (x.shape[0], 2):
        raise ValueError("pseudo labels do not cover the positive-bag instances")
    targets[:n_pos] = q_values
    perm = rng.permutation(x.shape[0])
    for start in range(0, perm.size, batch_size):
        idx = perm[start:start + batch_size]
        yield x[idx], targets[idx]


def _assign(params, cfg: TrainConfig, pos_x, bag_index, mu_t, n_pos_bags):
    """One pseudo-label assignment pass; returns (q_values, converged)."""
    probs = forward(params, pos_x)
    pred = PredictionMatrix(probs, bag_index)
    converged = True
    if cfg.constrain:
        result = sinkhorn_assign(pred, mu_t, cfg.sinkhorn)
        converged = result.converged
        labels = apply_local_constraint(
            result.labels,
            by=pred if cfg.constraint_on_predictions else None,
            expected_bags=n_pos_bags)
    else:
        labels = naive_assign(pred)
    if not cfg.soft_labels:
        labels = labels.hardened()
    return labels.values, converged


def _auc_or_none(scores, labels):
    """AUC of scores against 0/1 labels; None when the labels are unknown
    (None) or hold one class only."""
    if labels is None or not 0 < labels.sum() < labels.size:
        return None
    return roc_auc(scores, labels).auc


def _eval_metrics(params, stacked, mode):
    """(instance_auc, bag_auc, bag_scores) on a stacked evaluation set.

    One forward pass scores every instance; each bag's score is the max
    (or mean) of its rows. Either AUC is None when its labels make it
    undefined.
    """
    scores = forward(params, stacked.features)[:, 0]
    bag_scores = segment_bag_scores(scores, stacked.offsets, mode)
    return (_auc_or_none(scores, stacked.instance_labels),
            _auc_or_none(bag_scores, stacked.bag_labels), bag_scores)


def self_train(dataset, cfg: TrainConfig, eval_dataset=None
               ) -> tuple[ClassifierParams, RunRecord]:
    """Run the alternating loop; deterministic for a given config and seed.

    Metrics in the returned record refer to eval_dataset when given, else
    to the training set. Pseudo-label precision/accuracy always refer to
    the training positive bags and are None unless every training instance
    label is known.
    """
    # the training arrays double as the evaluation set when none is given;
    # otherwise they are released here, x holding their corpus-order copy
    eval_set = stack_dataset(dataset)
    x, targets, bag_index, true_pos = _corpus(eval_set)
    if eval_dataset is not None:
        eval_set = stack_dataset(eval_dataset)
    n_pos = bag_index.size
    pos_x = x[:n_pos]
    n_pos_bags = int(bag_index[-1]) + 1

    init_rng = Rng(cfg.seed, stream=_INIT_STREAM)
    shuffle_rng = Rng(cfg.seed, stream=_SHUFFLE_STREAM)
    params = init_classifier(dataset.feature_dim, arch=cfg.arch,
                             hidden=cfg.hidden, rng=init_rng)

    record = RunRecord()
    q_values = None
    converged = True
    for epoch in range(cfg.sgd.epochs):
        mu_t = (adaptive_mu(epoch, cfg.schedule) if cfg.adaptive
                else cfg.schedule.mu_final)
        if q_values is None or epoch % cfg.reassign_every == 0:
            q_values, converged = _assign(params, cfg, pos_x, bag_index,
                                          mu_t, n_pos_bags)
        loss_sum = 0.0
        n_seen = 0
        for xb, tb in mixed_batches(x, targets, n_pos, q_values,
                                    cfg.sgd.batch_size, shuffle_rng):
            loss, grads = backward(params, xb, tb)
            sgd_step(params, grads, cfg.sgd.learning_rate)
            loss_sum += loss * xb.shape[0]
            n_seen += xb.shape[0]
        pseudo_p = pseudo_a = None
        if true_pos is not None:
            rep = pseudo_label_metrics(q_values, true_pos)
            pseudo_p, pseudo_a = rep.precision, rep.accuracy
        inst_auc, bag_auc, _ = _eval_metrics(params, eval_set,
                                             cfg.bag_inference)
        record.rows.append(EpochRow(epoch, mu_t, loss_sum / n_seen,
                                    pseudo_p, pseudo_a, inst_auc, bag_auc,
                                    converged))

    final = record.rows[-1]
    first = record.rows[0]
    positive_fraction = float(np.mean(np.argmax(q_values, axis=1) == 0))
    record.summary = {
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "epochs": cfg.sgd.epochs,
        "final": dataclasses.asdict(final),
        "positive_pseudo_fraction": positive_fraction,
        "degenerate": positive_fraction < 0.01,
        "pseudo_accuracy_gain": (final.pseudo_accuracy - first.pseudo_accuracy
                                 if final.pseudo_accuracy is not None else None),
        "pseudo_precision_gain": (final.pseudo_precision - first.pseudo_precision
                                  if final.pseudo_precision is not None else None),
    }
    return params, record


ABLATION_ROWS = (
    ("hard-naive", {"soft_labels": False, "constrain": False, "adaptive": False}),
    ("soft-naive", {"soft_labels": True, "constrain": False, "adaptive": False}),
    ("soft-constrained", {"soft_labels": True, "constrain": True,
                          "adaptive": False}),
    ("soft-constrained-adaptive", {"soft_labels": True, "constrain": True,
                                   "adaptive": True}),
)


def run_ablation_suite(dataset, base_cfg: TrainConfig, eval_dataset=None
                       ) -> list[dict]:
    """Train the four switch combinations and tabulate their results.

    Rows go from everything off (hard naive labels) to the full method,
    all at the same seed so differences come from the switches alone.
    """
    table = []
    for name, flags in ABLATION_ROWS:
        cfg = dataclasses.replace(base_cfg, **flags)
        _, record = self_train(dataset, cfg, eval_dataset)
        final = record.rows[-1]
        table.append({
            "name": name,
            **flags,
            "instance_auc": final.instance_auc,
            "bag_auc": final.bag_auc,
            "positive_pseudo_fraction": record.summary["positive_pseudo_fraction"],
            "record": record,
        })
    return table


def bag_accuracy(params: ClassifierParams, dataset, mode: str) -> float:
    """Fraction of bags whose thresholded score matches the bag label.

    The dataset is stacked once and every bag is scored from one forward
    pass, its score the max (or mean) of its instances' scores.
    """
    stacked = stack_dataset(dataset)
    scores = segment_bag_scores(forward(params, stacked.features)[:, 0],
                                stacked.offsets, mode)
    hits = int(np.sum((scores > 0.5) == (stacked.bag_labels == 1)))
    return hits / len(scores)


def benchmark_cv(dataset, base_cfg: TrainConfig, mu_grid, warmup_grid,
                 k: int = 10) -> dict:
    """Grid-search mu and the warmup length by k-fold bag accuracy.

    Each grid cell trains k models (one per fold) and scores held-out
    bags at threshold 0.5. The folds depend only on the dataset, k and
    the seed, so they are built once per call and shared by every cell.
    Returns every cell plus the best one.
    """
    folds = kfold_split_cached(dataset, k, base_cfg.seed)
    cells = []
    for mu in mu_grid:
        for warmup in warmup_grid:
            cfg = dataclasses.replace(
                base_cfg, schedule=MuSchedule(mu_final=mu,
                                              warmup_epochs=warmup))
            fold_accs = []
            for train_ds, test_ds in folds:
                params, _ = self_train(train_ds, cfg)
                fold_accs.append(bag_accuracy(params, test_ds,
                                              cfg.bag_inference))
            cells.append({"mu": mu, "warmup": warmup,
                          "fold_accuracies": fold_accs,
                          "mean_bag_accuracy": float(np.mean(fold_accs))})
    best = max(cells, key=lambda c: c["mean_bag_accuracy"])
    return {"grid": cells, "best": best}


# benchmark_cv looks the folds up under this name only because
# perfbench/spans.py wraps trainer.kfold_split_cached to time them
kfold_split_cached = kfold_split
