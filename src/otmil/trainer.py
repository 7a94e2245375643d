"""Alternating self-training loop for weakly supervised instance labels.

One epoch has two phases. First the current classifier scores every
instance inside the positive bags and those scores are converted into
pseudo labels, by the transport assignment (followed by the per-bag
local constraint), or taken straight from the predictions when ablated.
Second the classifier takes plain SGD steps over shuffled mixed batches:
negative-bag instances carry their true one-hot negative target, positive
bag instances carry their pseudo-label row.

The positive-mass target mu_t can warm up from 0.5 toward its final value
so early epochs stay exploratory while the classifier is still random.

``_train_epochs`` runs that loop and only trains; ``train`` runs it to
its end and ``self_train`` adds the per-epoch report. No later epoch reads
the report's evaluation AUCs, so ``self_train`` scores each epoch's
parameters on a ``numkit.Background`` process while the next epoch
trains, where that pays and may fork, with the bits of inline scoring.
Both sweeps train
one model per cell of one (mu, T) grid: ``benchmark_cv`` scores each only
on its held-out folds, ``holdout_sweep`` once on an evaluation set. The
ablation rows, the k-fold folds and the holdout grid cells are
independent runs; ``numkit.fan_out`` spreads them over forked worker
processes, one per usable CPU, with the same outputs as one loop.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import kfold_split
from .labeling import (MuSchedule, adaptive_mu, apply_local_constraint,
                       harden, positive_rows, sinkhorn_assign)
# bag_predict and roc_auc are not called here; perfbench/spans.py wraps
# trainer.bag_predict and trainer.roc_auc
from .metrics import (bag_predict, dataset_aucs, dataset_scores,
                      pseudo_label_metrics, roc_auc, write_table_csv)
from .model import (ClassifierParams, SgdConfig, backward, forward,
                    init_classifier, sgd_step)
from .numkit import Background, Rng, fan_out

# rng stream ids, fixed so that runs are reproducible per seed
_INIT_STREAM = 1
_SHUFFLE_STREAM = 2

# self_train scores its evaluation set on a forked numkit.Background
# process only past this many row evaluations (epochs x evaluation rows).
# Measured on 2 CPUs with one BLAS thread, forking broke even at about
# 25,000 (the fork and join against about 0.5 us a row evaluation), and
# saved 9-10 ms at 50,000
_EVAL_FORK_ROWS = 50_000


@dataclass
class TrainConfig:
    """Everything one self-training run depends on; ``sharpness`` goes to
    ``labeling.sinkhorn_assign`` and must be finite and positive. Epoch t
    targets ``adaptive_mu(t, schedule)``: a schedule of 0 warmup epochs
    holds mu at ``mu_final`` throughout. The instance classifier is
    ``model``'s MLP, one ReLU hidden layer of width ``hidden``."""

    sgd: SgdConfig = field(default_factory=SgdConfig)
    sharpness: float = 5.0
    schedule: MuSchedule = field(default_factory=MuSchedule)
    hidden: int = 128
    soft_labels: bool = True
    constrain: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.sharpness < np.inf:
            raise ValueError("sharpness must be finite and positive")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.sgd.seed != self.seed:
            raise ValueError(f"sgd.seed ({self.sgd.seed}) must equal seed "
                             f"({self.seed}): training draws from seed alone")


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


def write_run_csv(record: RunRecord, path) -> None:
    """One row per epoch, ``converged`` as 1 or 0; floats keep full
    precision via repr."""
    write_table_csv(path, CSV_HEADER.split(","), (
        (r.epoch, r.mu_t, r.loss, r.pseudo_precision, r.pseudo_accuracy,
         r.instance_auc, r.bag_auc, int(r.converged)) for r in record.rows))


def _corpus(dataset):
    """Training arrays in corpus order, built once per run.

    Corpus order is positive-bag instances (dataset bag order, instance
    order within each bag) followed by negative-bag instances. Returns
    (x, targets, pos_offsets): the (N, d) features; the (N, 2) targets,
    whose negative rows hold [0, 1] and whose first ``pos_offsets[-1]``
    rows ``mixed_batches`` fills with pseudo labels; and the offsets of
    the positive bags within those rows, as in ``data.Dataset``.

    When the positive bags already lead, as in every generated dataset,
    ``x`` is the dataset's own read-only feature matrix; only a dataset
    whose bags interleave is copied into corpus order.
    """
    sizes = np.diff(dataset.offsets)
    positive = dataset.bag_labels == 1
    if not positive.any():
        raise ValueError("no positive bags")
    if positive.all():
        raise ValueError("no negative bags")
    pos_offsets = np.concatenate([[0], np.cumsum(sizes[positive])])
    n_pos = int(pos_offsets[-1])
    row_positive = np.repeat(positive, sizes)
    x = dataset.features
    if not row_positive[:n_pos].all():
        x = x[np.concatenate([np.flatnonzero(row_positive),
                              np.flatnonzero(~row_positive)])]
    targets = np.zeros((x.shape[0], 2))
    targets[n_pos:, 1] = 1.0
    return x, targets, pos_offsets


def mixed_batches(x: np.ndarray, targets: np.ndarray, n_pos: int,
                  q_values: np.ndarray, batch_size: int,
                  rng: np.random.Generator):
    """Yield (features, targets) batches covering every instance once.

    ``x`` (N, d) and ``targets`` (N, 2) are in corpus order: the first
    ``n_pos`` rows are positive-bag instances, the rest negative-bag
    instances whose target rows already hold [0, 1] (positive class
    first). Each call writes ``q_values`` into the first ``n_pos`` target
    rows in place, then shuffles the row indices and slices, so each epoch
    is a random partition whose batch composition tracks the corpus ratio.
    Each batch is gathered on its own (``take`` along axis 0, the values of
    ``x[idx]`` at less call overhead) into fresh arrays that share no
    memory with ``x`` or ``targets``; gathering the whole epoch at once
    would hold a second copy of the corpus.
    """
    q_values = np.asarray(q_values, dtype=np.float64)
    if q_values.shape != (n_pos, 2) or targets.shape != (x.shape[0], 2):
        raise ValueError("pseudo labels do not cover the positive-bag instances")
    targets[:n_pos] = q_values
    perm = rng.permutation(x.shape[0])
    for start in range(0, perm.size, batch_size):
        idx = perm[start:start + batch_size]
        yield x.take(idx, axis=0), targets.take(idx, axis=0)


def _assign(params, cfg: TrainConfig, pos_x, pos_offsets, mu_t):
    """One pseudo-label assignment pass; returns (q_values, converged).
    Unconstrained, the pseudo labels are the predictions themselves."""
    q_values = forward(params, pos_x)
    converged = True
    if cfg.constrain:
        result = sinkhorn_assign(q_values, mu_t, cfg.sharpness)
        converged = result.converged
        q_values = apply_local_constraint(result.labels, pos_offsets)
    if not cfg.soft_labels:
        q_values = harden(q_values)
    return q_values, converged


def _train_epochs(dataset, cfg: TrainConfig):
    """The alternating loop, training only. After each epoch's SGD pass it
    yields (mu_t, mean loss, pseudo labels, converged, params), params
    being the live classifier that the next epoch updates in place."""
    x, targets, pos_offsets = _corpus(dataset)
    n_pos = int(pos_offsets[-1])
    pos_x = x[:n_pos]
    params = init_classifier(dataset.feature_dim, arch="mlp",
                             hidden=cfg.hidden,
                             rng=Rng(cfg.seed, stream=_INIT_STREAM))
    shuffle_rng = Rng(cfg.seed, stream=_SHUFFLE_STREAM)
    for epoch in range(cfg.sgd.epochs):
        mu_t = adaptive_mu(epoch, cfg.schedule)
        q_values, converged = _assign(params, cfg, pos_x, pos_offsets, mu_t)
        loss_sum = 0.0
        n_seen = 0
        for xb, tb in mixed_batches(x, targets, n_pos, q_values,
                                    cfg.sgd.batch_size, shuffle_rng):
            loss, grads = backward(params, xb, tb)
            sgd_step(params, grads, cfg.sgd.learning_rate)
            loss_sum += loss * xb.shape[0]
            n_seen += xb.shape[0]
        yield mu_t, loss_sum / n_seen, q_values, converged, params


def train(dataset, cfg: TrainConfig) -> ClassifierParams:
    """The alternating loop run to its end, with no scoring; the returned
    parameters equal ``self_train``'s for the same dataset and config."""
    for *_, params in _train_epochs(dataset, cfg):
        pass
    return params


def self_train(dataset, cfg: TrainConfig, eval_dataset=None
               ) -> tuple[ClassifierParams, RunRecord]:
    """Run the alternating loop; deterministic for a given config and seed.

    Metrics in the returned record refer to eval_dataset when given, else
    to the training set. Pseudo-label precision/accuracy always refer to
    the training positive bags and are None unless every training instance
    label is known. Each epoch's AUCs are scored on a ``numkit.Background``
    process past ``_EVAL_FORK_ROWS`` row evaluations (see there for when it
    forks), else inline; an error in scoring, such as an evaluation set of
    another width, is raised as inline, at the latest once training ends.
    """
    eval_set = dataset if eval_dataset is None else eval_dataset
    labels = dataset.instance_labels
    # true labels of the pseudo-label rows: positive-bag rows in bag order
    true_pos = None if labels.min() < 0 else labels[
        np.repeat(dataset.bag_labels == 1, np.diff(dataset.offsets))]

    def aucs(params):
        return dataset_aucs(eval_set, *dataset_scores(params, eval_set))

    fork = cfg.sgd.epochs * eval_set.features.shape[0] > _EVAL_FORK_ROWS
    epochs = []
    with Background(aucs, fork) as evaluator:
        for epoch, (mu_t, loss, q_values, converged, params) in enumerate(
                _train_epochs(dataset, cfg)):
            evaluator.submit(params)
            pseudo_p = pseudo_a = None
            if true_pos is not None:
                rep = pseudo_label_metrics(q_values, true_pos)
                pseudo_p, pseudo_a = rep.precision, rep.accuracy
            epochs.append((epoch, mu_t, loss, pseudo_p, pseudo_a, converged))
        scores = evaluator.results()
    record = RunRecord([
        EpochRow(epoch, mu_t, loss, pseudo_p, pseudo_a, inst_auc, bag_auc,
                 converged)
        for (epoch, mu_t, loss, pseudo_p, pseudo_a, converged),
        (inst_auc, bag_auc) in zip(epochs, scores)])

    final = record.rows[-1]
    first = record.rows[0]
    positive_fraction = float(np.mean(positive_rows(q_values)))
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


def ablation_configs(base_cfg: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The ablation suite's rows, (name, config), from everything off (hard
    naive labels) to the full method. The three rows before the last hold
    mu at ``mu_final`` from epoch 0, a warmup of 0 epochs; the last keeps
    ``base_cfg``'s schedule."""
    constant = dataclasses.replace(base_cfg, schedule=MuSchedule(
        mu_final=base_cfg.schedule.mu_final, warmup_epochs=0))
    return [
        ("hard-naive", dataclasses.replace(constant, soft_labels=False,
                                           constrain=False)),
        ("soft-naive", dataclasses.replace(constant, soft_labels=True,
                                           constrain=False)),
        ("soft-constrained", dataclasses.replace(constant, soft_labels=True,
                                                 constrain=True)),
        ("soft-constrained-adaptive", dataclasses.replace(
            base_cfg, soft_labels=True, constrain=True)),
    ]


def run_ablation_suite(dataset, base_cfg: TrainConfig, eval_dataset=None
                       ) -> list[dict]:
    """Train the four rows of ``ablation_configs`` and tabulate them.

    Every row runs at the same seed, so differences come from the switches
    alone. Each row records its "soft_labels" and "constrain" switches and,
    as "adaptive", whether its schedule warms up (more than 0 epochs).
    """
    rows = ablation_configs(base_cfg)

    def row_record(i):
        yield self_train(dataset, rows[i][1], eval_dataset)[1]

    records = []
    fan_out(row_record, len(rows), records.append)
    table = []
    for (name, cfg), record in zip(rows, records):
        final = record.rows[-1]
        table.append({
            "name": name,
            "soft_labels": cfg.soft_labels,
            "constrain": cfg.constrain,
            "adaptive": cfg.schedule.warmup_epochs > 0,
            "instance_auc": final.instance_auc,
            "bag_auc": final.bag_auc,
            "positive_pseudo_fraction": record.summary["positive_pseudo_fraction"],
            "record": record,
        })
    return table


def bag_accuracy(params: ClassifierParams, dataset) -> float:
    """Fraction of bags whose thresholded score matches the bag label.

    Every bag is scored by ``metrics.dataset_scores``.
    """
    _, scores = dataset_scores(params, dataset)
    hits = int(np.sum((scores > 0.5) == (dataset.bag_labels == 1)))
    return hits / len(scores)


def benchmark_cv(dataset, base_cfg: TrainConfig, mu_grid, warmup_grid,
                 k: int = 10) -> dict:
    """Grid-search mu and the warmup length by k-fold bag accuracy.

    Each grid cell trains k models (one per fold) and scores only the
    held-out bags, at threshold 0.5. The folds depend only on the dataset,
    k and the seed, so they are drawn once per call; each fold is a job of
    ``fan_out`` that slices its arrays out and trains every cell on them.
    Returns every cell plus the best one.
    """
    folds = kfold_split_cached(dataset, k, base_cfg.seed)
    cells, cfgs = _grid(base_cfg, mu_grid, warmup_grid)

    def fold_accuracies(i):
        train_ds, test_ds = folds[i]
        yield [bag_accuracy(train(train_ds, cfg), test_ds) for cfg in cfgs]

    results = []
    fan_out(fold_accuracies, len(folds), results.append)
    for cell, accuracies in zip(cells, zip(*results)):
        cell["fold_accuracies"] = list(accuracies)
        cell["mean_bag_accuracy"] = float(np.mean(cell["fold_accuracies"]))
    best = max(cells, key=lambda c: c["mean_bag_accuracy"])
    return {"grid": cells, "best": best}


def holdout_sweep(dataset, base_cfg: TrainConfig, mu_grid, warmup_grid,
                  eval_dataset) -> list[dict]:
    """Train one model per (mu, T) cell of the grid, as ``benchmark_cv``
    does, and score it once on ``eval_dataset``. Returns each cell with its
    "instance_auc" and "bag_auc" (``metrics.dataset_aucs``), in grid order.
    Each model is a job of ``fan_out``."""
    cells, cfgs = _grid(base_cfg, mu_grid, warmup_grid)

    def aucs(i):
        yield dataset_aucs(eval_dataset, *dataset_scores(
            train(dataset, cfgs[i]), eval_dataset))

    results = []
    fan_out(aucs, len(cfgs), results.append)
    return [{**cell, "instance_auc": instance_auc, "bag_auc": bag_auc}
            for cell, (instance_auc, bag_auc) in zip(cells, results)]


def _grid(base_cfg: TrainConfig, mu_grid, warmup_grid):
    """Both sweeps' cells, {"mu", "warmup"} with mu in the outer loop and T
    in the inner, and each cell's config: ``base_cfg`` with that schedule."""
    cells = [{"mu": mu, "warmup": warmup}
             for mu in mu_grid for warmup in warmup_grid]
    return cells, [dataclasses.replace(base_cfg, schedule=MuSchedule(
        mu_final=cell["mu"], warmup_epochs=cell["warmup"])) for cell in cells]


# benchmark_cv looks the folds up under this name only because
# perfbench/spans.py wraps trainer.kfold_split_cached to time them
kfold_split_cached = kfold_split
