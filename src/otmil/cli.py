"""Command-line front end.

Subcommands: gen (synthetic datasets), train (self-training run), eval
(score a checkpoint), sweep (mu / warmup grid), ablation (switch suite),
baseline (pooling arms), entropy (bag-vs-instance entropy table).

Every invocation echoes its flags to OUT/config.json before doing any
work; a failure leaves OUT/.failed describing the error and exits
nonzero, so partial outputs are always flagged.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from .baselines import baseline_scores, pool_baseline_train
from .labeling import MuSchedule
from .metrics import (dataset_aucs, dataset_scores, entropy_curve,
                      write_entropy_csv)
from .model import SgdConfig, load_checkpoint, save_checkpoint
from .trainer import (TrainConfig, benchmark_cv, holdout_sweep,
                      run_ablation_suite, self_train, write_run_csv)


def _write_json(path: Path, blob, default=None) -> None:
    """Every JSON output: one-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True, default=default)
        fh.write("\n")


def _echo_config(out_dir: Path, args: argparse.Namespace) -> None:
    blob = {k: v for k, v in vars(args).items() if k != "func"}
    blob["out"] = str(blob["out"])
    _write_json(out_dir / "config.json", blob, default=str)


def _load_dataset(path) -> datamod.Dataset:
    path = Path(path)
    if path.suffix == ".csv":
        return datamod.load_benchmark_csv(path)
    return datamod.load_ndjson(path)


def _load_splits(path) -> tuple[datamod.Dataset, dict]:
    """A dataset file, or a directory holding train.ndjson + test splits."""
    path = Path(path)
    if path.is_dir():
        train_path = path / "train.ndjson"
        if not train_path.exists():
            raise FileNotFoundError(f"no train.ndjson under {path}")
        tests = {p.stem: datamod.load_ndjson(p)
                 for p in sorted(path.glob("test*.ndjson"))}
        return datamod.load_ndjson(train_path), tests
    return _load_dataset(path), {}


def _pick_eval(args, tests: dict):
    if getattr(args, "eval", None):
        return _load_dataset(args.eval)
    for name in ("test", "test_normal"):
        if name in tests:
            return tests[name]
    return None


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        sgd=SgdConfig(learning_rate=args.lr, batch_size=args.batch_size,
                      epochs=args.epochs, seed=args.seed),
        sharpness=args.sharpness,
        schedule=MuSchedule(mu_final=args.mu, warmup_epochs=args.warmup_t),
        arch=args.arch,
        hidden=args.hidden,
        reassign_every=args.reassign_every,
        soft_labels=not args.hard_labels,
        constrain=not args.no_constrain,
        adaptive=not args.no_adaptive_mu,
        bag_inference=args.bag_inference,
        seed=args.seed)


def _write_table_csv(path: Path, header: list[str], rows: list[dict]) -> None:
    """The header's columns of each row; None is blank, floats use repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if row[k] is None else
                             (repr(row[k]) if isinstance(row[k], float)
                              else row[k]) for k in header])


def cmd_gen(args, out_dir: Path) -> None:
    if args.from_idx:
        feats, labels = datamod.load_idx_mnist(*args.from_idx)
        if args.scheme == "hard":
            mask = (labels == 0) | (labels == 8)
        else:
            mask = labels == 9
        cfg = datamod.GenConfig(scheme="normal", n_bags=args.bags,
                                bag_size=args.bag_size,
                                positive_ratio=args.ratio,
                                feature_dim=feats.shape[1], seed=args.seed)
        ds = datamod.bags_from_arrays(feats, mask, cfg, name="train")
        datamod.save_ndjson(ds, out_dir / "train.ndjson")
        splits = {"train.ndjson": ds}
    else:
        cfg = datamod.GenConfig(
            scheme=args.scheme, n_bags=args.bags, test_bags=args.test_bags,
            bag_size=args.bag_size, positive_ratio=args.ratio,
            feature_dim=args.dim, cluster_separation=args.separation,
            second_separation=args.second_separation,
            concept_mix=args.concept_mix,
            n_concepts=2 if args.scheme == "hard" else 1, seed=args.seed)
        if args.scheme == "hard":
            names = ("train.ndjson", "test_normal.ndjson",
                     "test_pos0.ndjson", "test_pos8.ndjson")
            splits = dict(zip(names, datamod.generate_hard_bags(cfg)))
        else:
            train = datamod.generate_normal_bags(cfg)
            test = datamod.generate_normal_bags(
                dataclasses.replace(cfg, n_bags=cfg.test_bags,
                                    seed=cfg.seed + 1))
            splits = {"train.ndjson": train, "test.ndjson": test}
        for name, ds in splits.items():
            datamod.save_ndjson(ds, out_dir / name)
    manifest = {
        "scheme": args.scheme,
        "seed": args.seed,
        "positive_ratio": args.ratio,
        "bag_size": args.bag_size,
        "splits": {name: {"bags": len(ds.bag_ids),
                          "positive_bags": int(ds.bag_labels.sum()),
                          "instances": ds.n_instances}
                   for name, ds in splits.items()},
    }
    _write_json(out_dir / "manifest.json", manifest)


def _provenance() -> dict:
    """What a run's bits depend on beyond its config: the numpy build and
    the BLAS thread counts (a matmul's rounding can follow its thread
    split), each variable None when unset."""
    return {"numpy": np.__version__,
            **{var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def cmd_train(args, out_dir: Path) -> None:
    train_ds, tests = _load_splits(args.data)
    eval_ds = _pick_eval(args, tests)
    params, record = self_train(train_ds, _train_config(args), eval_ds)
    save_checkpoint(params, out_dir / "checkpoint.json")
    write_run_csv(record, out_dir / "metrics.csv")
    _write_json(out_dir / "summary.json",
                {**record.summary, "provenance": _provenance()})


def cmd_eval(args, out_dir: Path) -> None:
    params = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(args.data)
    instance_scores, bag_scores = dataset_scores(params, dataset,
                                                 args.bag_inference)
    instance_auc, bag_auc = dataset_aucs(dataset, instance_scores, bag_scores)
    with open(out_dir / "bag_scores.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bag_id", "label", "score"])
        for bag_id, label, score in zip(dataset.bag_ids,
                                        dataset.bag_labels.tolist(),
                                        bag_scores.tolist()):
            writer.writerow([bag_id, label, repr(score)])
    _write_json(out_dir / "eval.json",
                {"instance_auc": instance_auc, "bag_auc": bag_auc,
                 "n_bags": len(dataset.bag_ids)})


def cmd_sweep(args, out_dir: Path) -> None:
    if not args.grid_mu:
        raise ValueError("empty mu grid")
    train_ds, tests = _load_splits(args.data)
    base = _train_config(args)
    if args.kfold:
        if not args.grid_t:
            raise ValueError("empty warmup grid")
        result = benchmark_cv(train_ds, base, args.grid_mu, args.grid_t,
                              k=args.kfold)
        rows = [{"mu": c["mu"], "warmup": c["warmup"],
                 "mean_bag_accuracy": c["mean_bag_accuracy"]}
                for c in result["grid"]]
        best = {k: result["best"][k]
                for k in ("mu", "warmup", "mean_bag_accuracy")}
        header = ["mu", "warmup", "mean_bag_accuracy"]
    else:
        eval_ds = _pick_eval(args, tests) or train_ds
        rows, best = [], None
        for mu, (instance_auc, bag_auc) in zip(args.grid_mu, holdout_sweep(
                train_ds, base, args.grid_mu, eval_ds)):
            row = {"mu": mu, "warmup": args.warmup_t,
                   "instance_auc": instance_auc, "bag_auc": bag_auc}
            rows.append(row)
            key = row["instance_auc"] if row["instance_auc"] is not None \
                else row["bag_auc"]
            if best is None or (key is not None and key > best[0]):
                best = (key, row)
        best = best[1]
        header = ["mu", "warmup", "instance_auc", "bag_auc"]
    _write_table_csv(out_dir / "sweep.csv", header, rows)
    _write_json(out_dir / "summary.json",
                {"rows": rows, "best": best, "seed": args.seed,
                 "provenance": _provenance()})


def cmd_ablation(args, out_dir: Path) -> None:
    train_ds, tests = _load_splits(args.data)
    eval_ds = _pick_eval(args, tests)
    table = run_ablation_suite(train_ds, _train_config(args), eval_ds)
    header = ["name", "soft_labels", "constrain", "adaptive",
              "instance_auc", "bag_auc", "positive_pseudo_fraction"]
    _write_table_csv(out_dir / "ablation.csv", header, table)
    summary = [{k: row[k] for k in header} for row in table]
    _write_json(out_dir / "summary.json", {"rows": summary, "seed": args.seed,
                                           "provenance": _provenance()})


def cmd_baseline(args, out_dir: Path) -> None:
    train_ds, tests = _load_splits(args.data)
    splits = {"train": train_ds, **tests}
    for extra in args.test or []:
        name = Path(extra).stem
        if name in splits:
            raise ValueError(f"--test {extra}: a split named {name!r} "
                             "is already reported")
        splits[name] = _load_dataset(extra)
    sgd = SgdConfig(learning_rate=args.lr, batch_size=args.batch_size,
                    epochs=args.epochs, seed=args.seed)
    params = pool_baseline_train(train_ds, args.kind, sgd,
                                 attention_hidden=args.attn_hidden)
    report = {"kind": args.kind, "seed": args.seed, "splits": {}}
    for name, ds in splits.items():
        instance_auc, bag_auc = dataset_aucs(ds, *baseline_scores(params, ds))
        report["splits"][name] = {"instance_auc": instance_auc,
                                  "bag_auc": bag_auc}
    _write_json(out_dir / "baseline.json", report)


def parse_k_values(text: str) -> list[int]:
    """Accept '64', '2,4,8', or '1..64' (inclusive range)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    elif "," in text:
        values = [int(part) for part in text.split(",")]
    else:
        values = [int(text)]
    if not values or any(v < 1 for v in values):
        raise ValueError(f"bad bag-size list: {text!r}")
    return values


def cmd_entropy(args, out_dir: Path) -> None:
    if args.p_steps < 1:
        raise ValueError("p-steps must be >= 1")
    k_values = parse_k_values(args.K)
    p_values = [i / (args.p_steps + 1) for i in range(1, args.p_steps + 1)]
    points = entropy_curve(k_values, p_values)
    write_entropy_csv(points, out_dir / "entropy.csv")


def _add_common(sub, cmd_name):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=Path, default=Path(f"out-{cmd_name}"))


def _add_train_flags(sub):
    sub.add_argument("--data", required=True,
                     help="dataset file or directory from gen")
    sub.add_argument("--eval", help="held-out dataset for metrics")
    sub.add_argument("--mu", type=float, default=0.10,
                     help="final positive-mass fraction")
    sub.add_argument("--warmup-T", dest="warmup_t", type=int, default=10)
    sub.add_argument("--lambda", dest="sharpness", type=float, default=5.0,
                     help="assignment sharpness (entropy regularizer inverse)")
    sub.add_argument("--lr", type=float, default=0.001)
    sub.add_argument("--batch-size", type=int, default=64)
    sub.add_argument("--epochs", type=int, default=50)
    sub.add_argument("--reassign-every", type=int, default=1)
    sub.add_argument("--arch", choices=("linear", "mlp"), default="mlp")
    sub.add_argument("--hidden", type=int, default=128)
    sub.add_argument("--bag-inference", choices=("max", "mean"),
                     default="max")
    sub.add_argument("--no-constrain", action="store_true",
                     help="skip transport, pseudo labels straight from P")
    sub.add_argument("--hard-labels", action="store_true",
                     help="binarize pseudo labels by row argmax")
    sub.add_argument("--no-adaptive-mu", action="store_true",
                     help="hold mu at its final value from epoch 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otmil",
        description="weakly supervised instance labeling via optimal "
                    "transport self-training")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write synthetic bag datasets")
    gen.add_argument("--scheme", choices=("normal", "hard"), default="normal")
    gen.add_argument("--bags", type=int, default=200)
    gen.add_argument("--test-bags", type=int, default=80)
    gen.add_argument("--bag-size", type=int, default=100)
    gen.add_argument("--ratio", type=float, default=0.10)
    gen.add_argument("--dim", type=int, default=16)
    gen.add_argument("--separation", type=float, default=5.0)
    gen.add_argument("--second-separation", type=float, default=3.5)
    gen.add_argument("--concept-mix", type=float, default=0.5)
    gen.add_argument("--from-idx", nargs=2, metavar=("IMAGES", "LABELS"),
                     help="build bags from an IDX image/label file pair")
    _add_common(gen, "gen")
    gen.set_defaults(func=cmd_gen)

    train = subs.add_parser("train", help="run the self-training loop")
    _add_train_flags(train)
    _add_common(train, "train")
    train.set_defaults(func=cmd_train)

    ev = subs.add_parser("eval", help="score a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--bag-inference", choices=("max", "mean"), default="max")
    _add_common(ev, "eval")
    ev.set_defaults(func=cmd_eval)

    sweep = subs.add_parser("sweep", help="grid over mu (and warmup with "
                                          "--kfold cross-validation)")
    _add_train_flags(sweep)
    sweep.add_argument("--grid-mu", type=float, nargs="+",
                       default=[0.10, 0.15, 0.20, 0.25])
    sweep.add_argument("--grid-T", dest="grid_t", type=int, nargs="+",
                       default=[5, 10, 20, 40])
    sweep.add_argument("--kfold", type=int,
                       help="cross-validate bag accuracy instead of one split")
    _add_common(sweep, "sweep")
    sweep.set_defaults(func=cmd_sweep)

    abl = subs.add_parser("ablation", help="run the four-switch suite")
    _add_train_flags(abl)
    _add_common(abl, "ablation")
    abl.set_defaults(func=cmd_ablation)

    base = subs.add_parser("baseline", help="train a bag-pooling baseline")
    base.add_argument("--kind", choices=("max", "mean", "attention"),
                      required=True)
    base.add_argument("--data", required=True)
    base.add_argument("--test", action="append",
                      help="extra evaluation split (repeatable)")
    base.add_argument("--lr", type=float, default=0.01)
    base.add_argument("--batch-size", type=int, default=16)
    base.add_argument("--epochs", type=int, default=100)
    base.add_argument("--attn-hidden", type=int, default=64)
    _add_common(base, "baseline")
    base.set_defaults(func=cmd_baseline)

    ent = subs.add_parser("entropy", help="bag vs instance entropy table")
    ent.add_argument("--K", default="1..64",
                     help="bag sizes: '64', '2,4,8', or '1..64'")
    ent.add_argument("--p-steps", dest="p_steps", type=int, default=99,
                     help="p grid size: i/(steps+1) for i=1..steps")
    _add_common(ent, "entropy")
    ent.set_defaults(func=cmd_entropy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(out_dir, args)
    try:
        args.func(args, out_dir)
    except Exception as exc:  # surface the reason, flag partial outputs
        (out_dir / ".failed").write_text(f"{type(exc).__name__}: {exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = out_dir / ".failed"
    if failed.exists():
        failed.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
