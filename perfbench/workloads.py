"""The four benchmark workloads: inputs from a seed, the timed calls, checks.

Each workload has a ``setup`` that builds its datasets through ``otmil.data``
(returning the seconds spent in timed library calls), a ``run`` that makes
the timed training and evaluation calls, a ``rerun`` that repeats a cheap,
comparable part of ``run`` for the determinism check, and a ``check`` that
lists what is wrong with an output. Library calls go through module
attributes (``trainer.self_train``) so that the tracer's wrappers see them.

The benchmark seed makes the inputs (the generated corpora) and nothing
else. The program's own training seed is part of the workload's fixed
configuration, ``TRAIN_SEED``, as in the acceptance suite: with the training
seed varied too, the full method misses the checks' thresholds on some seeds
(hard-train seed 3: min AUC 0.41; ablation seeds 2 and 4: full-method AUC
0.09 and 0.01), which is a finding about the method, recorded in README.md.

Why these four (the layer each one stresses):

* hard-train: the criterion-6 run. Past the mu warmup the transport solve
  needs hundreds of iterations per epoch, so ``labeling`` dominates.
* ablation: the criterion-5/7/9 switch suite. Two rows never call the
  solver; evaluation, backward and batch re-stacking dominate, so a
  solver-only change should show no gain here.
* attention-baseline: the only workload that measures ``baselines``; it
  never touches ``labeling`` or ``trainer``.
* cv-sweep: musk1-shaped CSV, k-fold grid search. Hundreds of tiny runs, so
  per-call overhead (per-bag ``bag_predict``, stacking) dominates.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from otmil import baselines, data, metrics, model, trainer
from otmil.labeling import MuSchedule
from otmil.model import SgdConfig
from otmil.trainer import TrainConfig

HARD_SPLITS = ("train", "test_normal", "test_pos0", "test_pos8")

# Full sizes are what the benchmark measures; tiny sizes keep the smoke
# tests under a few seconds.
SIZES = {
    "full": {
        "hard": dict(n_bags=200, test_bags=80, bag_size=100, feature_dim=16),
        "hard_epochs": 60, "hard_warmup": 30, "hard_rerun_epochs": 3,
        "normal_train": dict(n_bags=200, bag_size=100),
        "normal_test_bags": 80,
        "ablation_epochs": 30, "ablation_warmup": 10,
        "ablation_rerun_epochs": 2,
        "attention_epochs": 200,
        "cv": dict(n_bags=92, bag_size=5, feature_dim=166, positive_ratio=0.2),
        "cv_k": 10, "cv_epochs": 30,
    },
    "tiny": {
        "hard": dict(n_bags=10, test_bags=6, bag_size=10, feature_dim=4),
        "hard_epochs": 4, "hard_warmup": 2, "hard_rerun_epochs": 2,
        "normal_train": dict(n_bags=10, bag_size=10),
        "normal_test_bags": 6,
        "ablation_epochs": 3, "ablation_warmup": 2,
        "ablation_rerun_epochs": 2,
        "attention_epochs": 3,
        "cv": dict(n_bags=20, bag_size=5, feature_dim=8, positive_ratio=0.2),
        "cv_k": 3, "cv_epochs": 2,
    },
}

TRAIN_SEED = 0
CV_MU_GRID = (0.1, 0.2)
CV_WARMUP_GRID = (5, 10)
CV_CHANCE_MARGIN = 0.15


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _round_trip(datasets: dict, workdir: Path) -> dict:
    """Save every dataset as NDJSON and load it back (both timed by caller)."""
    paths = {}
    for name, ds in datasets.items():
        paths[name] = workdir / f"{name}.ndjson"
        data.save_ndjson(ds, paths[name])
    return {name: data.load_ndjson(path) for name, path in paths.items()}


def _run_csv(record, path: Path) -> list[str]:
    trainer.write_run_csv(record, path)
    return path.read_text().splitlines()


def _instance_auc(params, ds) -> float:
    x = np.concatenate([b.feature_matrix() for b in ds.bags])
    y = [inst.label for b in ds.bags for inst in b.instances]
    return metrics.roc_auc(model.forward(params, x)[:, 0], y).auc


# --- hard-train --------------------------------------------------------------

def _setup_hard(seed, workdir, size, splits):
    start = time.perf_counter()
    generated = data.generate_hard_bags(data.GenConfig(
        scheme="hard", n_concepts=2, seed=seed, **size["hard"]))
    loaded = _round_trip({name: ds for name, ds in zip(HARD_SPLITS, generated)
                          if name in splits}, workdir)
    return loaded, time.perf_counter() - start


def _hard_config(size, epochs):
    return TrainConfig(
        sgd=SgdConfig(learning_rate=0.01, batch_size=64, epochs=epochs,
                      seed=TRAIN_SEED),
        schedule=MuSchedule(mu_final=0.1, warmup_epochs=size["hard_warmup"]),
        seed=TRAIN_SEED)


def setup_hard_train(seed, workdir, size):
    return _setup_hard(seed, workdir, size, HARD_SPLITS)


def run_hard_train(inputs, workdir, size):
    params, record = trainer.self_train(
        inputs["train"], _hard_config(size, size["hard_epochs"]),
        eval_dataset=inputs["test_normal"])
    pos0 = _instance_auc(params, inputs["test_pos0"])
    pos8 = _instance_auc(params, inputs["test_pos8"])
    rows = _run_csv(record, workdir / "metrics.csv")
    prefix = rows[:1 + size["hard_rerun_epochs"]]
    return {
        "pos0": pos0, "pos8": pos8,
        "finite": _finite(pos0, pos8, *(r.loss for r in record.rows)),
        "report": f"pos0 AUC {pos0:.4f}, pos8 AUC {pos8:.4f}",
        "digest": _digest(rows, pos0, pos8), "prefix": _digest(prefix),
    }


def rerun_hard_train(inputs, workdir, size):
    _, record = trainer.self_train(
        inputs["train"], _hard_config(size, size["hard_rerun_epochs"]),
        eval_dataset=inputs["test_normal"])
    return {"prefix": _digest(_run_csv(record, workdir / "metrics.csv"))}


def check_hard_train(out) -> list[str]:
    return [f"{key} AUC {out[key]:.4f} < 0.95" for key in ("pos0", "pos8")
            if not out[key] >= 0.95]


# --- ablation ----------------------------------------------------------------

def setup_ablation(seed, workdir, size):
    start = time.perf_counter()
    generated = {
        "train": data.generate_normal_bags(data.GenConfig(
            seed=seed, **size["normal_train"])),
        "test": data.generate_normal_bags(data.GenConfig(
            seed=seed + 1000, n_bags=size["normal_test_bags"],
            bag_size=size["normal_train"]["bag_size"])),
    }
    loaded = _round_trip(generated, workdir)
    return loaded, time.perf_counter() - start


def _ablation_config(size, epochs):
    return TrainConfig(
        sgd=SgdConfig(learning_rate=0.001, batch_size=64, epochs=epochs,
                      seed=TRAIN_SEED),
        schedule=MuSchedule(mu_final=0.1,
                            warmup_epochs=size["ablation_warmup"]),
        seed=TRAIN_SEED)


def _ablation_rows(table, workdir):
    return [_run_csv(row["record"], workdir / f"{row['name']}.csv")
            for row in table]


def run_ablation(inputs, workdir, size):
    table = trainer.run_ablation_suite(
        inputs["train"], _ablation_config(size, size["ablation_epochs"]),
        eval_dataset=inputs["test"])
    rows = {row["name"]: row for row in table}
    full = rows["soft-constrained-adaptive"]["record"].summary
    csvs = _ablation_rows(table, workdir)
    keep = 1 + size["ablation_rerun_epochs"]
    order = [row["instance_auc"] for row in table]
    naive_fraction = rows["soft-naive"]["positive_pseudo_fraction"]
    gains = full["pseudo_accuracy_gain"], full["pseudo_precision_gain"]
    return {
        "order": order,
        "soft_naive_positive_fraction": naive_fraction,
        "accuracy_gain": gains[0], "precision_gain": gains[1],
        "report": "row AUCs " + " < ".join(f"{v:.4f}" for v in order)
                  + f", soft-naive positive fraction {naive_fraction:.4f}, "
                  f"pseudo-label gains {gains[0]:.3f}/{gains[1]:.3f}",
        "finite": _finite(*order, *(r.loss for row in table
                                    for r in row["record"].rows)),
        "digest": _digest(csvs),
        "prefix": _digest([lines[:keep] for lines in csvs]),
    }


def rerun_ablation(inputs, workdir, size):
    table = trainer.run_ablation_suite(
        inputs["train"],
        _ablation_config(size, size["ablation_rerun_epochs"]),
        eval_dataset=inputs["test"])
    return {"prefix": _digest(_ablation_rows(table, workdir))}


def check_ablation(out) -> list[str]:
    problems = []
    order = out["order"]
    if not all(a < b for a, b in zip(order, order[1:])):
        problems.append(f"rows not strictly ordered: {order}")
    if not order[-1] >= 0.95:
        problems.append(f"full-method AUC {order[-1]:.4f} < 0.95")
    if not out["soft_naive_positive_fraction"] < 0.01:
        problems.append("soft-naive positive fraction "
                        f"{out['soft_naive_positive_fraction']:.4f} >= 0.01")
    for key in ("accuracy_gain", "precision_gain"):
        if not out[key] >= 0.2:
            problems.append(f"pseudo-label {key} {out[key]:.3f} < 0.2")
    return problems


# --- attention-baseline ------------------------------------------------------

def setup_attention(seed, workdir, size):
    return _setup_hard(seed, workdir, size,
                       ("train", "test_pos0", "test_pos8"))


def run_attention(inputs, workdir, size):
    params = baselines.pool_baseline_train(
        inputs["train"], "attention",
        SgdConfig(learning_rate=0.01, batch_size=16,
                  epochs=size["attention_epochs"], seed=TRAIN_SEED))
    aucs, scores = {}, []
    for key in ("test_pos0", "test_pos8"):
        ds = inputs[key]
        s = baselines.baseline_instance_scores(params, ds)
        labels = [inst.label for b in ds.bags for inst in b.instances]
        aucs[key] = metrics.roc_auc(s, labels).auc
        scores.append(s.tobytes())
    digest = _digest(*scores, aucs)
    return {
        "pos0": aucs["test_pos0"], "pos8": aucs["test_pos8"],
        "report": f"pos0 AUC {aucs['test_pos0']:.4f}, "
                  f"pos8 AUC {aucs['test_pos8']:.4f}",
        "finite": _finite(*aucs.values()) and all(
            np.isfinite(np.frombuffer(s)).all() for s in scores),
        "digest": digest, "prefix": digest,
    }


def rerun_attention(inputs, workdir, size):
    return {"prefix": run_attention(inputs, workdir, size)["prefix"]}


def check_attention(out) -> list[str]:
    gap = out["pos0"] - out["pos8"]
    return [] if gap >= 0.15 else [f"pos0-pos8 AUC gap {gap:.3f} < 0.15"]


# --- cv-sweep ----------------------------------------------------------------

def write_benchmark_csv(ds, path: Path) -> None:
    """The ``load_benchmark_csv`` layout; instance labels are dropped."""
    lines = ["bag_id,bag_label," + ",".join(f"f{i}"
                                            for i in range(ds.feature_dim))]
    for bag in ds.bags:
        for inst in bag.instances:
            lines.append(f"{bag.bag_id},{bag.label},"
                         + ",".join(repr(float(v)) for v in inst.features))
    path.write_text("\n".join(lines) + "\n")


def setup_cv(seed, workdir, size):
    start = time.perf_counter()
    generated = data.generate_normal_bags(data.GenConfig(seed=seed,
                                                         **size["cv"]))
    elapsed = time.perf_counter() - start
    path = workdir / "cv.csv"
    write_benchmark_csv(generated, path)  # outside the timed span
    start = time.perf_counter()
    loaded = data.load_benchmark_csv(path)
    return {"cv": loaded}, elapsed + time.perf_counter() - start


def _cv(inputs, size, mu_grid, warmup_grid):
    cfg = TrainConfig(sgd=SgdConfig(learning_rate=0.05, batch_size=64,
                                    epochs=size["cv_epochs"],
                                    seed=TRAIN_SEED),
                      seed=TRAIN_SEED)
    return trainer.benchmark_cv(inputs["cv"], cfg, mu_grid=list(mu_grid),
                                warmup_grid=list(warmup_grid), k=size["cv_k"])


def run_cv(inputs, workdir, size):
    result = _cv(inputs, size, CV_MU_GRID, CV_WARMUP_GRID)
    folds = [cell["fold_accuracies"] for cell in result["grid"]]
    labels = [b.label for b in inputs["cv"].bags]
    chance = float(max(np.mean(labels), 1.0 - np.mean(labels)))
    best = result["best"]["mean_bag_accuracy"]
    above = best >= chance + CV_CHANCE_MARGIN
    return {
        "accuracies": [a for f in folds for a in f],
        "finite": _finite(best, *(a for f in folds for a in f)),
        "report": f"best bag accuracy {best:.4f}, chance {chance:.3f}, "
                  f"clearly above chance (+{CV_CHANCE_MARGIN}): "
                  f"{'yes' if above else 'no'}",
        "digest": _digest(folds), "prefix": _digest(folds[0]),
    }


def rerun_cv(inputs, workdir, size):
    result = _cv(inputs, size, CV_MU_GRID[:1], CV_WARMUP_GRID[:1])
    return {"prefix": _digest(result["grid"][0]["fold_accuracies"])}


def check_cv(out) -> list[str]:
    """Fold accuracies must be fractions of held-out bags.

    "Clearly above chance" is reported, not gated: at the generator's
    default separation the best cell reaches 0.83 and 0.915 on data seeds
    0 and 3 but stays at 0.49 and 0.645 on seeds 1 and 2 (README.md).
    """
    bad = [a for a in out["accuracies"] if not 0.0 <= a <= 1.0]
    return [f"fold accuracies outside [0, 1]: {bad}"] if bad else []


WORKLOADS = {
    "hard-train": (setup_hard_train, run_hard_train, rerun_hard_train,
                   check_hard_train),
    "ablation": (setup_ablation, run_ablation, rerun_ablation,
                 check_ablation),
    "attention-baseline": (setup_attention, run_attention, rerun_attention,
                           check_attention),
    "cv-sweep": (setup_cv, run_cv, rerun_cv, check_cv),
}
