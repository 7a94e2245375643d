"""Release gate: one test per shipping criterion, numbered in order.

Expensive training runs are shared through module-scoped fixtures; the
degeneration, ablation ordering, and pseudo-label convergence checks all
read the same four-row switch suite, and the hard-positive checks share
one long run plus one attention baseline.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from otmil.baselines import baseline_instance_scores, init_pool_params, \
    pool_baseline_train, pool_loss_and_grads
from otmil.data import GenConfig, generate_hard_bags, generate_normal_bags, \
    load_benchmark_csv
from otmil.labeling import MuSchedule, adaptive_mu, sinkhorn_assign
from otmil.metrics import entropy_curve, roc_auc
from otmil.model import SgdConfig, backward, forward, init_classifier
from otmil.numkit import Rng
from otmil.trainer import TrainConfig, benchmark_cv, run_ablation_suite, \
    self_train, write_run_csv

from test_baselines import analytic_pool_vector, fd_pool_gradient
from test_labeling import lp_optimum
from test_model import analytic_vector, fd_gradient

MUSK1_PATH = Path(os.environ.get(
    "OTMIL_MUSK1", Path(__file__).resolve().parents[1] / "data" / "musk1.csv"))


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def instance_auc(params, dataset) -> float:
    return roc_auc(forward(params, dataset.features)[:, 0],
                   dataset.instance_labels).auc


@pytest.fixture(scope="module")
def standard_suite():
    """Four-switch suite on the 10%-ratio blob corpus, fixed seed."""
    train = generate_normal_bags(GenConfig(seed=0))
    test = generate_normal_bags(GenConfig(n_bags=80, seed=1000))
    cfg = TrainConfig(sgd=SgdConfig(learning_rate=0.001, batch_size=64,
                                    epochs=30, seed=0),
                      schedule=MuSchedule(mu_final=0.10, warmup_epochs=10),
                      seed=0)
    start = time.perf_counter()
    table = run_ablation_suite(train, cfg, eval_dataset=test)
    elapsed = time.perf_counter() - start
    return {"rows": {row["name"]: row for row in table},
            "order": [row["instance_auc"] for row in table],
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def hard_suite():
    """Two-concept corpus: long full-method run plus attention baseline."""
    cfg = GenConfig(scheme="hard", n_concepts=2, seed=0)
    train, _, test_pos0, test_pos8 = generate_hard_bags(cfg)
    start = time.perf_counter()
    params, _ = self_train(train, TrainConfig(
        sgd=SgdConfig(learning_rate=0.01, batch_size=64, epochs=150, seed=0),
        schedule=MuSchedule(mu_final=0.10, warmup_epochs=30), seed=0))
    attn = pool_baseline_train(train, "attention",
                               SgdConfig(learning_rate=0.01, batch_size=16,
                                         epochs=100, seed=0))
    elapsed = time.perf_counter() - start
    aucs = {}
    for name, split in (("pos0", test_pos0), ("pos8", test_pos8)):
        aucs[name] = instance_auc(params, split)
        scores = baseline_instance_scores(attn, split)
        aucs["attn_" + name] = roc_auc(scores, split.instance_labels).auc
    return {"aucs": aucs, "elapsed": elapsed}


def test_criterion_01_sinkhorn_property_ensemble():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(4, 1001))
        # the solver rejects mu*n < 1, so small n pins mu above 1/n
        mu = max(float(rng.uniform(0.05, 0.5)), 1.05 / n)
        pos = rng.uniform(1e-3, 1 - 1e-3, n)
        res = sinkhorn_assign(np.stack([pos, 1 - pos], axis=1), mu)
        q = res.labels
        assert abs(q[:, 0].sum() - mu * n) <= 1e-4 * n
        assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-6
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9)
    elapsed = time.perf_counter() - start
    report(1, "root-find marginals and descent", elapsed < 30.0,
           f"100 cases in {elapsed:.1f}s")


def test_criterion_02_matches_exact_small_optimum():
    rng = np.random.default_rng(202)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(3, 7))
        mu = float(rng.uniform(max(0.08, 1.05 / n), 0.45))
        pos = rng.uniform(0.05, 0.95, n)
        res = sinkhorn_assign(np.stack([pos, 1 - pos], axis=1), mu,
                              sharpness=100.0)
        exact = lp_optimum(pos, mu)
        worst = max(worst, abs(res.objective - exact) / exact)
    elapsed = time.perf_counter() - start
    report(2, "near exact transport optimum",
           worst < 0.01 and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def relative_error(analytic, numeric):
    # central differences carry ~1e-10 absolute noise at eps=1e-6, so
    # components smaller than 1e-6 cannot support a 1e-4 relative bound;
    # floor the denominator at that resolution
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-6)))


def test_criterion_03_gradient_fidelity():
    worst = 0.0
    for seed in range(20):
        rng = Rng(seed, stream=3)
        arch = "mlp" if seed % 2 else "linear"
        params = init_classifier(5, arch=arch, hidden=6, rng=rng)
        x = rng.standard_normal((7, 5))
        raw = rng.uniform(0.05, 0.95, 7)
        targets = np.stack([raw, 1 - raw], axis=1)
        _, grads = backward(params, x, targets)
        numeric = fd_gradient(params, x, targets)
        worst = max(worst, relative_error(analytic_vector(params, grads),
                                          numeric))
    for seed in range(20):
        rng = Rng(seed, stream=5)
        kind = ("max", "mean", "attention")[seed % 3]
        params = init_pool_params(kind, 4, attention_hidden=5, rng=rng)
        bags = [rng.standard_normal((int(rng.integers(1, 6)), 4))
                for _ in range(3)]
        raw = rng.uniform(0.1, 0.9, 3)
        targets = np.stack([raw, 1 - raw], axis=1)
        _, grads = pool_loss_and_grads(params, bags, targets)
        numeric = fd_pool_gradient(params, bags, targets)
        worst = max(worst, relative_error(analytic_pool_vector(kind, grads),
                                          numeric))
    report(3, "analytic gradients match finite differences", worst < 1e-4,
           f"worst rel err {worst:.2e}")


def test_criterion_04_bag_entropy_strictly_below_instance_entropy():
    ps = [i / 100 for i in range(1, 100)]
    start = time.perf_counter()
    points = entropy_curve(range(2, 65), ps)
    strict = all(pt.difference > 0 for pt in points)
    equal_k1 = all(pt.difference == 0.0 for pt in entropy_curve([1], ps))
    by_p = {}
    for pt in points:
        by_p.setdefault(pt.p, []).append(pt.difference)
    growing = all(all(b > a for a, b in zip(d, d[1:])) for d in by_p.values())
    elapsed = time.perf_counter() - start
    report(4, "bag label carries less entropy",
           strict and equal_k1 and growing and elapsed < 1.0,
           f"{len(points)} grid points in {elapsed:.2f}s")


def test_criterion_05_degeneration_and_recovery(standard_suite):
    uncon = standard_suite["rows"]["soft-naive"]
    full = standard_suite["rows"]["soft-constrained-adaptive"]
    ok = (uncon["positive_pseudo_fraction"] < 0.01
          and uncon["instance_auc"] <= 0.6
          and full["instance_auc"] >= 0.95
          and standard_suite["elapsed"] < 180.0)
    report(5, "unconstrained collapse vs full method", ok,
           f"uncon posfrac {uncon['positive_pseudo_fraction']:.3f} "
           f"auc {uncon['instance_auc']:.3f}, full auc "
           f"{full['instance_auc']:.4f}, {standard_suite['elapsed']:.0f}s")


def test_criterion_06_hard_positive_generalization(hard_suite):
    a = hard_suite["aucs"]
    gap = abs(a["attn_pos0"] - a["attn_pos8"])
    ok = (a["pos0"] >= 0.95 and a["pos8"] >= 0.95 and gap >= 0.15
          and hard_suite["elapsed"] < 300.0)
    report(6, "both concepts learned, attention gap reproduced", ok,
           f"full {a['pos0']:.4f}/{a['pos8']:.4f}, attention "
           f"{a['attn_pos0']:.3f}/{a['attn_pos8']:.3f} gap {gap:.2f}, "
           f"{hard_suite['elapsed']:.0f}s")


def test_criterion_07_switch_ordering(standard_suite):
    order = standard_suite["order"]
    ok = all(a < b for a, b in zip(order, order[1:]))
    report(7, "four-switch suite strictly ordered", ok,
           " < ".join(f"{v:.4f}" for v in order))


def test_criterion_08_warmup_endpoints_exact():
    ok = True
    for mu, warmup in ((0.1, 10), (0.25, 3), (0.5, 1)):
        sched = MuSchedule(mu_final=mu, warmup_epochs=warmup)
        ok &= adaptive_mu(0, sched) == 0.5
        ok &= adaptive_mu(warmup, sched) == mu
        ok &= adaptive_mu(warmup + 7, sched) == mu
    report(8, "warmup schedule endpoints exact", ok)


def test_criterion_09_pseudo_label_convergence(standard_suite):
    summary = standard_suite["rows"]["soft-constrained-adaptive"][
        "record"].summary
    acc_gain = summary["pseudo_accuracy_gain"]
    prec_gain = summary["pseudo_precision_gain"]
    report(9, "pseudo labels sharpen over training",
           acc_gain >= 0.2 and prec_gain >= 0.2,
           f"accuracy +{acc_gain:.3f}, precision +{prec_gain:.3f}")


def test_criterion_10_benchmark_cross_validation():
    if not MUSK1_PATH.exists():
        pytest.skip(f"benchmark CSV not present at {MUSK1_PATH}")
    dataset = load_benchmark_csv(MUSK1_PATH)
    cfg = TrainConfig(sgd=SgdConfig(learning_rate=0.001, batch_size=64,
                                    epochs=30, seed=0), seed=0)
    start = time.perf_counter()
    result = benchmark_cv(dataset, cfg, mu_grid=[0.1, 0.15, 0.2, 0.25],
                          warmup_grid=[5, 10, 20, 40], k=10)
    elapsed = time.perf_counter() - start
    best = result["best"]["mean_bag_accuracy"]
    report(10, "cross-validated bag accuracy", best >= 0.85 and elapsed < 300,
           f"best {best:.3f} in {elapsed:.0f}s")


def test_criterion_11_bit_identical_reruns(tmp_path):
    train = generate_normal_bags(GenConfig(n_bags=30, bag_size=20, seed=4))
    cfg = TrainConfig(sgd=SgdConfig(epochs=5, seed=0),
                      schedule=MuSchedule(mu_final=0.2, warmup_epochs=3),
                      seed=0)
    paths = []
    for tag in ("a", "b"):
        _, record = self_train(train, cfg)
        path = tmp_path / f"metrics_{tag}.csv"
        write_run_csv(record, path)
        paths.append(path)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    report(11, "identical seeds give identical metrics", ok)
