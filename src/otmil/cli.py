"""Command-line front end.

Subcommands: gen normal|hard (synthetic datasets), gen-idx (bags dealt
from an IDX image/label pair), train (self-training run), eval (score a
checkpoint), sweep (mu / warmup grid), ablation (switch suite), baseline
max|mean|attention (pooling arms), entropy (bag-vs-instance entropy
table). Each subcommand, and each mode of gen and baseline, takes only the
flags it reads: only gen hard takes --second-separation and --concept-mix,
and only baseline attention takes --attn-hidden.

Every invocation echoes its flags to OUT/config.json before doing any
work; a failure leaves OUT/.failed describing the error and exits
nonzero, so partial outputs are always flagged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from .baselines import baseline_scores, pool_baseline_train
from .labeling import MuSchedule
from .metrics import (EntropyPoint, dataset_aucs, dataset_scores,
                      entropy_curve, write_table_csv)
from .model import SgdConfig, load_checkpoint, save_checkpoint
from .trainer import (TrainConfig, benchmark_cv, holdout_sweep,
                      run_ablation_suite, self_train, write_run_csv)


def _write_json(path: Path, blob, default=None) -> None:
    """Every JSON output: one-space indent, sorted keys, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1, sort_keys=True, default=default)
        fh.write("\n")


def _echo_config(out_dir: Path, args: argparse.Namespace) -> None:
    blob = {k: v for k, v in vars(args).items() if k != "func"}
    blob["out"] = str(blob["out"])
    _write_json(out_dir / "config.json", blob, default=str)


def _load_dataset(path) -> datamod.Dataset:
    """The CSV or NDJSON dataset at ``path``; a load error names the file."""
    path = Path(path)
    try:
        return (datamod.load_benchmark_csv if path.suffix == ".csv"
                else datamod.load_ndjson)(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_eval(path, width: int, what: str = "the training data"
               ) -> datamod.Dataset:
    """The dataset at ``path``, whose feature width must be ``width``, that
    of ``what``: a mismatch fails before any training or scoring."""
    ds = _load_dataset(path)
    if ds.feature_dim != width:
        raise ValueError(f"{path}: {ds.feature_dim} features per instance, "
                         f"but {what} has {width}")
    return ds


def _load_splits(path) -> tuple[datamod.Dataset, dict]:
    """A file's data, or a directory's train.ndjson and test*.ndjson paths."""
    path = Path(path)
    if path.is_dir():
        train_path = path / "train.ndjson"
        if not train_path.exists():
            raise FileNotFoundError(f"no train.ndjson under {path}")
        return _load_dataset(train_path), {
            p.stem: p for p in sorted(path.glob("test*.ndjson"))}
    return _load_dataset(path), {}


def _pick_eval(args, train_ds, tests: dict):
    """The one evaluation split of train, sweep and ablation, loaded:
    --eval, else the directory's test or test_normal split, else None."""
    for path in (args.eval, tests.get("test"), tests.get("test_normal")):
        if path:
            return _load_eval(path, train_ds.feature_dim)
    return None


def _train_config(args) -> TrainConfig:
    """The flags' config. sweep lacks --mu and --warmup-T (its grid sets
    them) and ablation the switches (its rows set them): defaults stand."""
    settings = {}
    if "mu" in args:
        settings["schedule"] = MuSchedule(args.mu, args.warmup_t)
    if "hard_labels" in args:
        settings.update(soft_labels=not args.hard_labels,
                        constrain=not args.no_constrain)
    return TrainConfig(
        sgd=SgdConfig(learning_rate=args.lr, batch_size=args.batch_size,
                      epochs=args.epochs, seed=args.seed),
        sharpness=args.sharpness, hidden=args.hidden,
        seed=args.seed, **settings)


def _write_manifest(args, out_dir: Path, splits: dict) -> None:
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


def cmd_gen(args, out_dir: Path) -> None:
    """gen normal lacks the second concept's flags: defaults stand."""
    settings = {}
    if "concept_mix" in args:
        settings.update(second_separation=args.second_separation,
                        concept_mix=args.concept_mix)
    cfg = datamod.GenConfig(
        scheme=args.scheme, n_bags=args.bags, test_bags=args.test_bags,
        bag_size=args.bag_size, positive_ratio=args.ratio,
        feature_dim=args.dim, cluster_separation=args.separation,
        n_concepts=2 if args.scheme == "hard" else 1, seed=args.seed,
        **settings)
    if args.scheme == "hard":
        names = ("train.ndjson", "test_normal.ndjson",
                 "test_pos0.ndjson", "test_pos8.ndjson")
        splits = dict(zip(names, datamod.generate_hard_bags(cfg)))
    else:
        train = datamod.generate_normal_bags(cfg)
        test = datamod.generate_normal_bags(
            dataclasses.replace(cfg, n_bags=cfg.test_bags, seed=cfg.seed + 1))
        splits = {"train.ndjson": train, "test.ndjson": test}
    for name, ds in splits.items():
        datamod.save_ndjson(ds, out_dir / name)
    _write_manifest(args, out_dir, splits)


def cmd_gen_idx(args, out_dir: Path) -> None:
    # checked before the images load; the dealer reads no feature_dim
    cfg = datamod.GenConfig(scheme="normal", n_bags=args.bags,
                            bag_size=args.bag_size, positive_ratio=args.ratio,
                            seed=args.seed)
    feats, labels = datamod.load_idx_mnist(args.images, args.labels)
    mask = np.isin(labels, (0, 8) if args.scheme == "hard" else 9)
    ds = datamod.bags_from_arrays(feats, mask, cfg)
    datamod.save_ndjson(ds, out_dir / "train.ndjson")
    _write_manifest(args, out_dir, {"train.ndjson": ds})


def _provenance() -> dict:
    """What a run's bits depend on beyond its config: the numpy build and
    the BLAS thread counts (a matmul's rounding can follow its thread
    split), each variable None when unset."""
    return {"numpy": np.__version__,
            **{var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def cmd_train(args, out_dir: Path) -> None:
    train_ds, tests = _load_splits(args.data)
    eval_ds = _pick_eval(args, train_ds, tests)
    params, record = self_train(train_ds, _train_config(args), eval_ds)
    save_checkpoint(params, out_dir / "checkpoint.json")
    write_run_csv(record, out_dir / "metrics.csv")
    _write_json(out_dir / "summary.json",
                {**record.summary, "provenance": _provenance()})


def cmd_eval(args, out_dir: Path) -> None:
    try:
        params = load_checkpoint(args.checkpoint)
    except ValueError as exc:  # as _load_dataset does, name the file
        raise ValueError(f"{args.checkpoint}: {exc}") from exc
    dataset = _load_eval(args.data, params.feature_dim,
                         f"checkpoint {args.checkpoint}")
    instance_scores, bag_scores = dataset_scores(params, dataset)
    instance_auc, bag_auc = dataset_aucs(dataset, instance_scores, bag_scores)
    write_table_csv(out_dir / "bag_scores.csv", ["bag_id", "label", "score"],
                    zip(dataset.bag_ids, dataset.bag_labels.tolist(),
                        bag_scores.tolist()))
    _write_json(out_dir / "eval.json",
                {"instance_auc": instance_auc, "bag_auc": bag_auc,
                 "n_bags": len(dataset.bag_ids)})


def cmd_sweep(args, out_dir: Path) -> None:
    if args.kfold and args.eval:
        raise ValueError("--kfold scores held-out folds of --data, so it "
                         "takes no --eval")
    train_ds, tests = _load_splits(args.data)
    base = _train_config(args)
    if args.kfold:
        result = benchmark_cv(train_ds, base, args.grid_mu, args.grid_t,
                              k=args.kfold)
        header = ["mu", "warmup", "mean_bag_accuracy"]
        rows = [{k: c[k] for k in header} for c in result["grid"]]
        best = {k: result["best"][k] for k in header}
    else:
        eval_ds = _pick_eval(args, train_ds, tests) or train_ds
        header = ["mu", "warmup", "instance_auc", "bag_auc"]
        rows = holdout_sweep(train_ds, base, args.grid_mu, args.grid_t,
                             eval_ds)
        # the first row of the top instance AUC, or bag AUC on a split
        # without instance labels (which of the two is None is per split)
        auc = "bag_auc" if rows[0]["instance_auc"] is None else "instance_auc"
        best = max(rows, key=lambda row: row[auc] or 0.0)
    write_table_csv(out_dir / "sweep.csv", header,
                    ([row[k] for k in header] for row in rows))
    _write_json(out_dir / "summary.json",
                {"rows": rows, "best": best, "seed": args.seed,
                 "provenance": _provenance()})


def cmd_ablation(args, out_dir: Path) -> None:
    train_ds, tests = _load_splits(args.data)
    eval_ds = _pick_eval(args, train_ds, tests)
    table = run_ablation_suite(train_ds, _train_config(args), eval_ds)
    header = ["name", "soft_labels", "constrain", "adaptive",
              "instance_auc", "bag_auc", "positive_pseudo_fraction"]
    write_table_csv(out_dir / "ablation.csv", header,
                    ([row[k] for k in header] for row in table))
    summary = [{k: row[k] for k in header} for row in table]
    _write_json(out_dir / "summary.json", {"rows": summary, "seed": args.seed,
                                           "provenance": _provenance()})


def cmd_baseline(args, out_dir: Path) -> None:
    train_ds, tests = _load_splits(args.data)
    splits = {"train": train_ds, **{name: _load_eval(p, train_ds.feature_dim)
                                    for name, p in tests.items()}}
    for extra in args.test or []:
        name = Path(extra).stem
        if name in splits:
            raise ValueError(f"--test {extra}: a split named {name!r} "
                             "is already reported")
        splits[name] = _load_eval(extra, train_ds.feature_dim)
    sgd = SgdConfig(learning_rate=args.lr, batch_size=args.batch_size,
                    epochs=args.epochs, seed=args.seed)
    # only baseline attention takes --attn-hidden
    settings = ({"attention_hidden": args.attn_hidden}
                if "attn_hidden" in args else {})
    params = pool_baseline_train(train_ds, args.kind, sgd, **settings)
    report = {"kind": args.kind, "seed": args.seed, "splits": {}}
    for name, ds in splits.items():
        instance_auc, bag_auc = dataset_aucs(ds, *baseline_scores(params, ds))
        report["splits"][name] = {"instance_auc": instance_auc,
                                  "bag_auc": bag_auc}
    _write_json(out_dir / "baseline.json", report)


def parse_k_values(text: str) -> list[int]:
    """Accept '64', '2,4,8', or '1..64' (inclusive range); anything else,
    or a size below 1, is a ValueError quoting ``text``."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError:
        values = []
    if not values or any(v < 1 for v in values):
        raise ValueError(f"bad bag-size list: {text!r}")
    return values


def cmd_entropy(args, out_dir: Path) -> None:
    if args.p_steps < 1:
        raise ValueError("p-steps must be >= 1")
    k_values = parse_k_values(args.K)
    p_values = [i / (args.p_steps + 1) for i in range(1, args.p_steps + 1)]
    points = entropy_curve(k_values, p_values)
    write_table_csv(out_dir / "entropy.csv",
                    [field.name for field in dataclasses.fields(EntropyPoint)],
                    map(dataclasses.astuple, points))


def _add_common(sub, cmd_name, seed: bool = True):
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=Path, default=Path(f"out-{cmd_name}"))


def _add_bag_flags(sub):
    """The flags of both generators: how bags of instances are dealt."""
    sub.add_argument("--bags", type=int, default=200)
    sub.add_argument("--bag-size", type=int, default=100)
    sub.add_argument("--ratio", type=float, default=0.10)


def _fold_count(text: str) -> int:
    """--kfold's type: fewer than 2 folds is a usage error, raised before
    any data loads."""
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError(f"needs at least 2 folds, got {k}")
    return k


def _add_train_flags(sub, schedule: bool = True, switches: bool = True):
    sub.add_argument("--data", required=True,
                     help="dataset file or directory from gen")
    sub.add_argument("--eval", help="held-out dataset for metrics")
    if schedule:
        sub.add_argument("--mu", type=float, default=0.10,
                         help="final positive-mass fraction")
        sub.add_argument("--warmup-T", dest="warmup_t", type=int, default=10,
                         help="epochs to anneal mu from 0.5; 0 holds --mu "
                              "from epoch 0")
    sub.add_argument("--lambda", dest="sharpness", type=float, default=5.0,
                     help="assignment sharpness (entropy regularizer inverse)")
    sub.add_argument("--lr", type=float, default=0.001)
    sub.add_argument("--batch-size", type=int, default=64)
    sub.add_argument("--epochs", type=int, default=50)
    sub.add_argument("--hidden", type=int, default=128)
    if switches:
        sub.add_argument("--no-constrain", action="store_true",
                         help="skip transport, pseudo labels straight from P")
        sub.add_argument("--hard-labels", action="store_true",
                         help="binarize pseudo labels by row argmax")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otmil",
        description="weakly supervised instance labeling via optimal "
                    "transport self-training")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write synthetic bag datasets")
    schemes = gen.add_subparsers(dest="scheme", required=True)
    for scheme, help_ in (("normal", "one concept: train + test"),
                          ("hard", "two concepts: train + test_normal + "
                                   "test_pos0 + test_pos8")):
        mode = schemes.add_parser(scheme, help=help_)
        _add_bag_flags(mode)
        mode.add_argument("--test-bags", type=int, default=80)
        mode.add_argument("--dim", type=int, default=16)
        mode.add_argument("--separation", type=float, default=5.0)
        if scheme == "hard":
            mode.add_argument("--second-separation", type=float, default=3.5)
            mode.add_argument("--concept-mix", type=float, default=0.5)
        _add_common(mode, "gen")
        mode.set_defaults(func=cmd_gen)

    idx = subs.add_parser("gen-idx", help="deal bags from an IDX "
                                          "image/label file pair")
    idx.add_argument("images", help="IDX image file")
    idx.add_argument("labels", help="IDX label file")
    idx.add_argument("--scheme", choices=("normal", "hard"), default="normal",
                     help="positive digit 9, or digits 0 and 8")
    _add_bag_flags(idx)
    _add_common(idx, "gen-idx")
    idx.set_defaults(func=cmd_gen_idx)

    train = subs.add_parser("train", help="run the self-training loop")
    _add_train_flags(train)
    _add_common(train, "train")
    train.set_defaults(func=cmd_train)

    ev = subs.add_parser("eval", help="score a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    _add_common(ev, "eval", seed=False)
    ev.set_defaults(func=cmd_eval)

    sweep = subs.add_parser("sweep", help="grid over mu x warmup, on one "
                                          "split or by --kfold")
    _add_train_flags(sweep, schedule=False)
    sweep.add_argument("--grid-mu", type=float, nargs="+",
                       default=[0.10, 0.15, 0.20, 0.25])
    sweep.add_argument("--grid-T", dest="grid_t", type=int, nargs="+",
                       default=[5, 10, 20, 40])
    sweep.add_argument("--kfold", type=_fold_count,
                       help="cross-validate bag accuracy instead of one split")
    _add_common(sweep, "sweep")
    sweep.set_defaults(func=cmd_sweep)

    abl = subs.add_parser("ablation", help="run the four-switch suite")
    _add_train_flags(abl, switches=False)
    _add_common(abl, "ablation")
    abl.set_defaults(func=cmd_ablation)

    base = subs.add_parser("baseline", help="train a bag-pooling baseline")
    kinds = base.add_subparsers(dest="kind", required=True)
    for kind in ("max", "mean", "attention"):
        mode = kinds.add_parser(kind, help=f"{kind} pooling")
        mode.add_argument("--data", required=True)
        mode.add_argument("--test", action="append",
                          help="extra evaluation split (repeatable)")
        mode.add_argument("--lr", type=float, default=0.01)
        mode.add_argument("--batch-size", type=int, default=16)
        mode.add_argument("--epochs", type=int, default=100)
        if kind == "attention":
            mode.add_argument("--attn-hidden", type=int, default=64)
        _add_common(mode, "baseline")
        mode.set_defaults(func=cmd_baseline)

    ent = subs.add_parser("entropy", help="bag vs instance entropy table")
    ent.add_argument("--K", default="1..64",
                     help="bag sizes: '64', '2,4,8', or '1..64'")
    ent.add_argument("--p-steps", dest="p_steps", type=int, default=99,
                     help="p grid size: i/(steps+1) for i=1..steps")
    _add_common(ent, "entropy", seed=False)
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
