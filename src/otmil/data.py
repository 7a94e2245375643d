"""Bag-structured datasets: synthetic Gaussian-blob generators, NDJSON and
CSV ingestion, IDX image files, stratified k-fold splitting, and stacking
a dataset into feature, offset and label arrays.

A bag is positive iff it contains at least one positive instance; every
loader and generator enforces that rule whenever instance labels are known.
Synthetic features are Gaussian clusters: negatives around the origin,
positives offset along one axis per concept, so desk-scale runs need no
image data while keeping the same bag construction logic.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numkit import Rng, sample_gaussian


@dataclass
class Instance:
    """One feature vector; label is 1 (positive), 0 (negative), or None."""

    features: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 1:
            raise ValueError("instance features must be a vector")
        if self.label is not None and self.label not in (0, 1):
            raise ValueError("instance label must be 0, 1, or None")


@dataclass
class Bag:
    """A labelled set of instances."""

    bag_id: str
    label: int
    instances: list[Instance]

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError("bag label must be 0 or 1")
        if not self.instances:
            raise ValueError("bag must contain at least one instance")
        labels = [inst.label for inst in self.instances]
        if all(lab is not None for lab in labels):
            has_pos = any(lab == 1 for lab in labels)
            if bool(self.label) != has_pos:
                raise ValueError(
                    f"bag {self.bag_id!r}: label inconsistent with instance labels")

    def feature_matrix(self) -> np.ndarray:
        return np.stack([inst.features for inst in self.instances])


@dataclass
class Dataset:
    """Immutable-by-convention collection of bags with one feature dim."""

    bags: list[Bag]
    feature_dim: int
    name: str = ""

    def __post_init__(self):
        if not self.bags:
            raise ValueError("dataset must contain at least one bag")
        for bag in self.bags:
            for inst in bag.instances:
                if inst.features.shape != (self.feature_dim,):
                    raise ValueError(
                        f"bag {bag.bag_id!r}: inconsistent feature dimension")

    @property
    def n_instances(self) -> int:
        return sum(len(b.instances) for b in self.bags)

    def positive_bags(self) -> list[Bag]:
        return [b for b in self.bags if b.label == 1]

    def negative_bags(self) -> list[Bag]:
        return [b for b in self.bags if b.label == 0]


class StackedBags(NamedTuple):
    """A dataset's arrays, bags in dataset order.

    Bag i owns rows ``offsets[i]:offsets[i + 1]`` of ``features``.
    """

    features: np.ndarray  # (N, d) float64
    offsets: np.ndarray  # (n_bags + 1,) int64, from 0 to N
    bag_labels: np.ndarray  # (n_bags,) int64
    instance_labels: np.ndarray | None  # (N,) int64; None if any is unknown


def stack_dataset(dataset: Dataset) -> StackedBags:
    """Copy a dataset's features and labels into arrays, in bag order.

    Nothing is cached on the dataset: a caller that needs the arrays more
    than once keeps the result.
    """
    instances = [inst for bag in dataset.bags for inst in bag.instances]
    offsets = np.zeros(len(dataset.bags) + 1, dtype=np.int64)
    np.cumsum([len(bag.instances) for bag in dataset.bags], out=offsets[1:])
    labels = [inst.label for inst in instances]
    return StackedBags(
        features=np.stack([inst.features for inst in instances]),
        offsets=offsets,
        bag_labels=np.array([bag.label for bag in dataset.bags],
                            dtype=np.int64),
        instance_labels=(None if None in labels
                         else np.array(labels, dtype=np.int64)))


@dataclass
class GenConfig:
    """Synthetic data settings.

    Concept geometry: negatives N(0, I); first-concept positives are offset
    by cluster_separation along axis 0; second-concept positives (hard
    scheme only) by second_separation along axis 1, making them separable
    from negatives but not a free consequence of learning the first
    concept. concept_mix is the chance an individual positive instance in a
    mixed bag draws the first concept.
    """

    scheme: str = "normal"
    n_bags: int = 200
    test_bags: int = 80
    bag_size: int = 100
    positive_ratio: float = 0.10
    feature_dim: int = 16
    cluster_separation: float = 5.0
    second_separation: float = 3.5
    concept_mix: float = 0.5
    n_concepts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in ("normal", "hard"):
            raise ValueError(f"unknown scheme: {self.scheme!r}")
        if not 0.0 < self.positive_ratio < 1.0:
            raise ValueError("positive_ratio must lie in (0, 1)")
        if self.bag_size < 1:
            raise ValueError("bag_size must be >= 1")
        if self.n_bags < 2:
            raise ValueError("need at least 2 bags")


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _concept_means(cfg: GenConfig) -> list[np.ndarray]:
    means = []
    first = np.zeros(cfg.feature_dim)
    first[0] = cfg.cluster_separation
    means.append(first)
    second = np.zeros(cfg.feature_dim)
    second[1 % cfg.feature_dim] = cfg.second_separation
    means.append(second)
    return means


def _positive_counts(cfg: GenConfig) -> int:
    if cfg.positive_ratio * cfg.bag_size < 1.0:
        raise ValueError("empty positive content")
    return round_half_up(cfg.positive_ratio * cfg.bag_size)


def _make_bags(cfg: GenConfig, rng: Rng, n_bags: int, prefix: str,
               concepts: str) -> list[Bag]:
    """Deal positive/negative bag pairs; concepts picks the positive mix."""
    a = _positive_counts(cfg)
    neg_mean = np.zeros(cfg.feature_dim)
    means = _concept_means(cfg)
    n_pos_bags = (n_bags + 1) // 2
    bags = []
    for i in range(n_bags):
        positive = i < n_pos_bags
        instances = []
        if positive:
            for _ in range(a):
                if concepts == "first":
                    mean = means[0]
                elif concepts == "second":
                    mean = means[1]
                else:  # mixed: independent per-instance concept choice
                    pick_first = rng.uniform(0.0, 1.0) < cfg.concept_mix
                    mean = means[0] if pick_first else means[1]
                instances.append(Instance(sample_gaussian(rng, mean, 1.0), label=1))
            for _ in range(cfg.bag_size - a):
                instances.append(Instance(sample_gaussian(rng, neg_mean, 1.0), label=0))
        else:
            for _ in range(cfg.bag_size):
                instances.append(Instance(sample_gaussian(rng, neg_mean, 1.0), label=0))
        kind = "pos" if positive else "neg"
        idx = i if positive else i - n_pos_bags
        bags.append(Bag(f"{prefix}{kind}-{idx:03d}", int(positive), instances))
    return bags


def generate_normal_bags(cfg: GenConfig, rng: Rng | None = None) -> Dataset:
    """Single-concept bags: each positive bag holds round(ratio*size)
    positives from one cluster; negative bags hold none."""
    if cfg.scheme != "normal":
        raise ValueError("config scheme must be 'normal'")
    rng = rng or Rng(cfg.seed)
    bags = _make_bags(cfg, rng, cfg.n_bags, "", "first")
    return Dataset(bags, cfg.feature_dim, name="normal")


def generate_hard_bags(cfg: GenConfig, rng: Rng | None = None
                       ) -> tuple[Dataset, Dataset, Dataset, Dataset]:
    """Two-concept suite: mixed training bags plus three test splits.

    Returns (train, test_normal, test_pos0, test_pos8): training and
    test_normal positive bags mix both concepts per instance; test_pos0
    positives are all first-concept, test_pos8 all second-concept.
    Negative bags are identically distributed in every split.
    """
    if cfg.scheme != "hard":
        raise ValueError("config scheme must be 'hard'")
    if cfg.n_concepts != 2:
        raise ValueError("hard scheme requires n_concepts = 2")
    rng = rng or Rng(cfg.seed)
    train = Dataset(_make_bags(cfg, rng, cfg.n_bags, "", "mixed"),
                    cfg.feature_dim, name="train")
    test_normal = Dataset(_make_bags(cfg, rng, cfg.test_bags, "tn-", "mixed"),
                          cfg.feature_dim, name="test_normal")
    test_pos0 = Dataset(_make_bags(cfg, rng, cfg.test_bags, "t0-", "first"),
                        cfg.feature_dim, name="test_pos0")
    test_pos8 = Dataset(_make_bags(cfg, rng, cfg.test_bags, "t8-", "second"),
                        cfg.feature_dim, name="test_pos8")
    return train, test_normal, test_pos0, test_pos8


def save_ndjson(dataset: Dataset, path) -> None:
    """One bag per line: {"bag_id", "label", "instances": [...]}."""
    with open(path, "w") as fh:
        for bag in dataset.bags:
            rec = {
                "bag_id": bag.bag_id,
                "label": bag.label,
                "instances": [
                    {"features": [float(v) for v in inst.features],
                     "label": inst.label}
                    for inst in bag.instances
                ],
            }
            fh.write(json.dumps(rec) + "\n")


def load_ndjson(path) -> Dataset:
    """Parse and validate an NDJSON bag file; errors carry line numbers."""
    bags = []
    feature_dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: malformed JSON ({exc.msg})")
            try:
                instances = [Instance(np.array(i["features"], dtype=np.float64),
                                      i.get("label"))
                             for i in rec["instances"]]
                bag = Bag(str(rec["bag_id"]), int(rec["label"]), instances)
            except (KeyError, TypeError) as exc:
                raise ValueError(f"line {lineno}: missing or bad field ({exc})")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}")
            for inst in bag.instances:
                if feature_dim is None:
                    feature_dim = len(inst.features)
                elif len(inst.features) != feature_dim:
                    raise ValueError(
                        f"line {lineno}: inconsistent feature dimension")
            if not np.isfinite(bag.feature_matrix()).all():
                raise ValueError(f"line {lineno}: non-finite feature value")
            bags.append(bag)
    if not bags:
        raise ValueError("no bags in file")
    name = str(path).rsplit("/", 1)[-1]
    name = name[:-7] if name.endswith(".ndjson") else name
    return Dataset(bags, feature_dim, name=name)


def load_benchmark_csv(path) -> Dataset:
    """Pre-extracted feature benchmark: header bag_id,bag_label,f0,...

    One instance per row; all rows of a bag must agree on the bag label.
    Instance labels are unknown in this format.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["bag_id", "bag_label"]:
            raise ValueError("header must start with bag_id,bag_label")
        dim = len(header) - 2
        expected = [f"f{i}" for i in range(dim)]
        if dim < 1 or header[2:] != expected:
            raise ValueError("feature columns must be named f0..f{d-1}")
        order = []
        rows: dict[str, list[Instance]] = {}
        labels: dict[str, int] = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != dim + 2:
                raise ValueError(f"line {lineno}: wrong column count")
            bag_id = parts[0]
            try:
                lab = int(parts[1])
                feats = np.array([float(v) for v in parts[2:]])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}")
            if lab not in (0, 1):
                raise ValueError(f"line {lineno}: bag label must be 0 or 1")
            if not np.isfinite(feats).all():
                raise ValueError(f"line {lineno}: non-finite feature value")
            if bag_id not in rows:
                rows[bag_id] = []
                labels[bag_id] = lab
                order.append(bag_id)
            elif labels[bag_id] != lab:
                raise ValueError(f"line {lineno}: bag label changes within bag")
            rows[bag_id].append(Instance(feats, None))
    bags = [Bag(bid, labels[bid], rows[bid]) for bid in order]
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return Dataset(bags, dim, name=name)


IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def load_idx_mnist(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Big-endian IDX image/label pair -> (features in [0,1], digit vector)."""
    with open(images_path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16:
            raise ValueError("not IDX")
        magic, n, rows, cols = struct.unpack(">iiii", head)
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError("not IDX")
        raw = fh.read(n * rows * cols)
        if len(raw) != n * rows * cols:
            raise ValueError("truncated IDX image file")
        feats = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
        feats = feats.reshape(n, rows * cols) / 255.0
    with open(labels_path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise ValueError("not IDX")
        magic, n_lab = struct.unpack(">ii", head)
        if magic != IDX_LABELS_MAGIC:
            raise ValueError("not IDX")
        raw = fh.read(n_lab)
        if len(raw) != n_lab:
            raise ValueError("truncated IDX label file")
        digits = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if len(digits) != len(feats):
        raise ValueError("image/label count mismatch")
    return feats, digits


def bags_from_arrays(features: np.ndarray, positive_mask: np.ndarray,
                     cfg: GenConfig, rng: Rng | None = None,
                     name: str = "pool") -> Dataset:
    """Deal bags from a fixed instance pool without replacement.

    Each round takes one positive bag (a positives + size-a negatives) and
    one negative bag (size negatives), until either pool cannot fill the
    next bag. Leftover instances are discarded.
    """
    rng = rng or Rng(cfg.seed)
    a = _positive_counts(cfg)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    pos_idx = np.flatnonzero(positive_mask)
    neg_idx = np.flatnonzero(~positive_mask)
    pos_idx = pos_idx[rng.permutation(len(pos_idx))]
    neg_idx = neg_idx[rng.permutation(len(neg_idx))]
    p = n = 0
    bags = []
    round_no = 0
    neg_per_round = (cfg.bag_size - a) + cfg.bag_size
    while p + a <= len(pos_idx) and n + neg_per_round <= len(neg_idx):
        members = list(pos_idx[p:p + a]) + list(neg_idx[n:n + cfg.bag_size - a])
        p += a
        n += cfg.bag_size - a
        bags.append(Bag(f"pos-{round_no:04d}", 1,
                        [Instance(features[j], int(positive_mask[j]))
                         for j in members]))
        members = list(neg_idx[n:n + cfg.bag_size])
        n += cfg.bag_size
        bags.append(Bag(f"neg-{round_no:04d}", 0,
                        [Instance(features[j], 0) for j in members]))
        round_no += 1
    if not bags:
        raise ValueError("instance pool too small for a single bag pair")
    return Dataset(bags, features.shape[1], name=name)


def kfold_split(dataset: Dataset, k: int, seed: int = 0
                ) -> list[tuple[Dataset, Dataset]]:
    """Label-stratified k-fold partition of bags, deterministic per seed."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > len(dataset.bags):
        raise ValueError("k exceeds bag count")
    rng = Rng(seed, stream=7)
    pos = [i for i, b in enumerate(dataset.bags) if b.label == 1]
    neg = [i for i, b in enumerate(dataset.bags) if b.label == 0]
    pos = [pos[j] for j in rng.permutation(len(pos))]
    neg = [neg[j] for j in rng.permutation(len(neg))]
    folds = [sorted(pos[i::k] + neg[i::k]) for i in range(k)]
    out = []
    for i, test_idx in enumerate(folds):
        test_set = set(test_idx)
        train_bags = [b for j, b in enumerate(dataset.bags) if j not in test_set]
        test_bags = [dataset.bags[j] for j in test_idx]
        out.append((Dataset(train_bags, dataset.feature_dim,
                            name=f"{dataset.name}-fold{i}-train"),
                    Dataset(test_bags, dataset.feature_dim,
                            name=f"{dataset.name}-fold{i}-test")))
    return out
