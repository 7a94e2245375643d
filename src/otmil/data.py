"""Bag-structured datasets: synthetic Gaussian-blob generators, NDJSON and
CSV ingestion, IDX image files, and stratified k-fold splitting.

NDJSON datasets of more than a few thousand rows, and regular NDJSON files
of more than a few MiB, are encoded and parsed in chunks of whole bags or
whole lines, spread over forked workers by ``numkit.fan_out``; anything
smaller is one chunk, run in this process one line at a time. The files,
the loaded arrays and the errors are those of one in-process pass.

A ``Dataset`` is a handful of arrays: every instance's features in bag
order, the bag offsets, and the bag and instance labels. Bag i owns rows
``offsets[i]:offsets[i + 1]``; training, evaluation and the pooling
baselines read those arrays directly.

A bag is positive iff it contains at least one positive instance; every
dataset enforces that rule on the bags whose instance labels are all
known. Synthetic features are Gaussian clusters: negatives around the
origin, positives offset along one axis per concept, so desk-scale runs
need no image data while keeping the same bag construction logic.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import stat
import struct
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import NamedTuple

import numpy as np

from .numkit import Rng, fan_out, sample_gaussian


class Instance(NamedTuple):
    """Read-only view of one instance: 1 (positive), 0, or None (unknown)."""

    features: np.ndarray
    label: int | None


class Bag(NamedTuple):
    """Read-only view of one bag; ``features`` are its rows of the dataset."""

    bag_id: str
    label: int
    instances: tuple[Instance, ...]
    features: np.ndarray

    def feature_matrix(self) -> np.ndarray:
        return self.features


@dataclass(eq=False)
class Dataset:
    """Bags as arrays; bag i owns rows ``offsets[i]:offsets[i + 1]``.

    ``features`` is (N, d) float64 with d >= 1, every value finite;
    ``offsets`` (B + 1,) int64 runs from 0 to N with no empty bag;
    ``bag_labels`` (B,) int64 holds 0 or 1 and ``instance_labels`` (N,)
    int64 holds 0, 1 or -1 (unknown). A bag whose instance labels are all
    known is positive iff one is. The arrays are read-only views of the
    inputs.
    """

    features: np.ndarray
    offsets: np.ndarray
    bag_ids: tuple[str, ...]
    bag_labels: np.ndarray
    instance_labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.bag_ids = tuple(self.bag_ids)
        if not self.bag_ids:
            raise ValueError("dataset must contain at least one bag")
        for label_set, what in (((0, 1), "bag_labels"),
                                ((-1, 0, 1), "instance_labels")):
            if not np.isin(getattr(self, what), label_set).all():
                raise ValueError(f"{what} must be in {label_set}")
        for what in ("features", "offsets", "bag_labels", "instance_labels"):
            dtype = np.float64 if what == "features" else np.int64
            arr = np.asarray(getattr(self, what), dtype=dtype).view()
            arr.flags.writeable = False  # a read-only view of the input
            setattr(self, what, arr)
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError("features must be an (N, d) matrix with feature "
                             "dimension d >= 1")
        if (self.offsets.shape != (len(self.bag_ids) + 1,)
                or self.bag_labels.shape != (len(self.bag_ids),)
                or self.instance_labels.shape != (self.n_instances,)):
            raise ValueError("array lengths disagree")
        if self.offsets[0] != 0 or self.offsets[-1] != self.n_instances:
            raise ValueError("offsets must run from 0 to N")
        if np.any(np.diff(self.offsets) < 1):
            raise ValueError("bag must contain at least one instance")
        x = self.features
        # the min or the max is NaN or infinite iff an entry is; no (N, d)
        # mask unless one is
        if not (np.isfinite(x.min()) and np.isfinite(x.max())):
            row = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
            bag = np.searchsorted(self.offsets, row, side="right") - 1
            raise ValueError(f"bag {self.bag_ids[bag]!r}: non-finite "
                             "feature value")
        starts = self.offsets[:-1]
        known = np.minimum.reduceat(self.instance_labels, starts) >= 0
        has_pos = np.maximum.reduceat(self.instance_labels, starts) == 1
        bad = np.flatnonzero(known & (has_pos != (self.bag_labels == 1)))
        if bad.size:
            raise ValueError(f"bag {self.bag_ids[bad[0]]!r}: label "
                             "inconsistent with instance labels")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def bags(self) -> list[Bag]:
        """``Bag``/``Instance`` views of the arrays, built on every read."""
        labels = [None if v < 0 else v for v in self.instance_labels.tolist()]
        bounds = self.offsets.tolist()
        x = self.features
        return [Bag(bag_id, label, tuple(map(Instance, x[a:b], labels[a:b])),
                    x[a:b])
                for bag_id, label, a, b in zip(self.bag_ids,
                                               self.bag_labels.tolist(),
                                               bounds, bounds[1:])]

    def subset(self, bag_index, name: str = "") -> Dataset:
        """The given bags, in the given order, as a new dataset."""
        bag_index = np.asarray(bag_index, dtype=np.int64)
        sizes = np.diff(self.offsets)[bag_index]
        offsets = np.zeros(bag_index.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        rows = (np.repeat(self.offsets[bag_index] - offsets[:-1], sizes)
                + np.arange(offsets[-1]))
        return Dataset(self.features[rows], offsets,
                       [self.bag_ids[j] for j in bag_index],
                       self.bag_labels[bag_index], self.instance_labels[rows],
                       name=name)


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
        if not 0.0 <= self.concept_mix <= 1.0:
            raise ValueError("concept_mix must lie in [0, 1]")
        if self.bag_size < 1:
            raise ValueError("bag_size must be >= 1")
        if self.n_bags < 2:
            raise ValueError("need at least 2 bags")
        if self.test_bags < 2:  # a test split needs a bag of each label
            raise ValueError("test_bags must be >= 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        for name in ("cluster_separation", "second_separation"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _concept_means(cfg: GenConfig) -> np.ndarray:
    """Row 0: the first concept's mean (axis 0); row 1: the second's."""
    means = np.zeros((2, cfg.feature_dim))
    means[0, 0] = cfg.cluster_separation
    means[1, 1 % cfg.feature_dim] = cfg.second_separation
    return means


def _positive_counts(cfg: GenConfig) -> int:
    if cfg.positive_ratio * cfg.bag_size < 1.0:
        raise ValueError("empty positive content")
    return round_half_up(cfg.positive_ratio * cfg.bag_size)


def _make_bags(cfg: GenConfig, rng: np.random.Generator, n_bags: int,
               prefix: str, concepts: str, name: str) -> Dataset:
    """Deal positive/negative bag pairs; concepts picks the positive mix.

    Positive bags come first. Draws run instance by instance in bag order
    (a mixed bag draws each positive's concept just before its features),
    so a block of rows sharing one mean is drawn in one call.
    """
    a = _positive_counts(cfg)
    size, dim = cfg.bag_size, cfg.feature_dim
    means = _concept_means(cfg)
    mean = means[0] if concepts == "first" else means[1]
    n_pos_bags = (n_bags + 1) // 2
    x = np.empty((n_bags * size, dim))
    for i in range(n_bags):
        rows = x[i * size:(i + 1) * size]
        n_pos = a if i < n_pos_bags else 0
        if concepts == "mixed":  # independent per-instance concept
            for j in range(n_pos):
                pick_first = rng.uniform(0.0, 1.0) < cfg.concept_mix
                rows[j] = sample_gaussian(
                    rng, means[0] if pick_first else means[1], 1.0)
        else:
            rows[:n_pos] = sample_gaussian(rng, np.tile(mean, (n_pos, 1)), 1.0)
        rows[n_pos:] = sample_gaussian(rng, np.zeros((size - n_pos, dim)), 1.0)
    labels = np.zeros((n_bags, size), dtype=np.int64)
    labels[:n_pos_bags, :a] = 1
    ids = [f"{prefix}pos-{i:03d}" for i in range(n_pos_bags)]
    ids += [f"{prefix}neg-{i:03d}" for i in range(n_bags - n_pos_bags)]
    return Dataset(x, np.arange(0, n_bags * size + 1, size), ids,
                   np.arange(n_bags) < n_pos_bags, labels.ravel(), name=name)


def generate_normal_bags(cfg: GenConfig,
                         rng: np.random.Generator | None = None) -> Dataset:
    """Single-concept bags: each positive bag holds round(ratio*size)
    positives from one cluster; negative bags hold none."""
    if cfg.scheme != "normal":
        raise ValueError("config scheme must be 'normal'")
    rng = rng or Rng(cfg.seed)
    return _make_bags(cfg, rng, cfg.n_bags, "", "first", "normal")


def generate_hard_bags(cfg: GenConfig, rng: np.random.Generator | None = None
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
    return (_make_bags(cfg, rng, cfg.n_bags, "", "mixed", "train"),
            _make_bags(cfg, rng, cfg.test_bags, "tn-", "mixed", "test_normal"),
            _make_bags(cfg, rng, cfg.test_bags, "t0-", "first", "test_pos0"),
            _make_bags(cfg, rng, cfg.test_bags, "t8-", "second", "test_pos8"))


# NDJSON is read and written in chunks: runs of whole bags (save) or whole
# lines (load), each a job of numkit.fan_out. Data below two chunks'
# floor is one chunk, saved or parsed line by line in this process,
# without importing multiprocessing. Past that, more chunks mean
# less for the caller to hold at once, but each load job reads the file
# from its start to reach its lines, so there are at most _MAX_CHUNKS.
_SAVE_CHUNK_ROWS = 2000
_LOAD_CHUNK_CHARS = 1 << 20
_MAX_CHUNKS = 8


def _chunks(ends: list, floor: int) -> list[tuple[int, int]]:
    """Cut items, whose running size totals are ``ends``, into at most
    _MAX_CHUNKS runs of whole items of about equal size, each of about
    ``floor`` or more unless there is one run: (first, stop) index ranges,
    none empty."""
    total = ends[-1] if ends else 0
    n = min(_MAX_CHUNKS, max(1, total // floor))
    cuts = sorted({0, len(ends)} | {bisect_left(ends, total * c / n) + 1
                                    for c in range(1, n)})
    return list(zip(cuts, cuts[1:]))


def save_ndjson(dataset: Dataset, path) -> None:
    """One bag per line: {"bag_id", "label", "instances": [...]}.

    Runs of bags are encoded as jobs of ``numkit.fan_out``; a dataset below
    two runs' floor is one job, run in this process one line at a time. The
    lines go, in file order, to a temporary file next to the file ``path``
    names (through any symlinks), which then replaces it with the earlier
    file's mode: a save that fails leaves any earlier file there as it was.
    The new file belongs to the saving user, and hard links to the old one
    keep the old content.
    """
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}.tmp"
    chunks = _chunks(dataset.offsets[1:].tolist(), _SAVE_CHUNK_ROWS)
    try:
        with open(partial, "w") as fh:
            fan_out(lambda i: _ndjson_lines(dataset, *chunks[i]),
                    len(chunks), fh.write)
        with suppress(FileNotFoundError):  # no earlier file
            shutil.copymode(target, partial)
        os.replace(partial, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(partial)
        raise


def _ndjson_lines(dataset: Dataset, first: int, stop: int):
    """Yield bags ``first:stop`` of ``dataset`` as NDJSON lines."""
    lo = dataset.offsets[first]
    labels = [None if v < 0 else v for v in
              dataset.instance_labels[lo:dataset.offsets[stop]].tolist()]
    bounds = (dataset.offsets[first:stop + 1] - lo).tolist()
    for bag_id, label, a, b in zip(dataset.bag_ids[first:stop],
                                   dataset.bag_labels[first:stop].tolist(),
                                   bounds, bounds[1:]):
        rows = dataset.features[lo + a:lo + b].tolist()
        rec = {
            "bag_id": bag_id,
            "label": label,
            "instances": [{"features": f, "label": lab}
                          for f, lab in zip(rows, labels[a:b])],
        }
        yield json.dumps(rec) + "\n"


def _json_label(value, unknown_ok: bool) -> int:
    """A JSON 0 or 1 (or null, as -1, when unknown_ok); else ValueError."""
    if value is None and unknown_ok:
        return -1
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"label must be 0 or 1{' or null' * unknown_ok}, "
                         f"not {json.dumps(value)}")
    return value


def _json_features(rows) -> np.ndarray:
    """A bag's feature rows as float64 if every value is a JSON number;
    else ValueError (bools, strings and nulls are not numbers)."""
    if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
        bad = next(v for v in chain.from_iterable(rows)
                   if type(v) not in (float, int))
        raise ValueError("feature values must be JSON numbers, not "
                         f"{json.dumps(bad)}")
    return np.array(rows, dtype=np.float64)


def load_ndjson(path) -> Dataset:
    """Parse and validate an NDJSON bag file; errors carry line numbers.

    Feature values must be JSON numbers and bag ids JSON strings. A
    regular file of two or more runs' floor is counted line by line and
    cut into runs of about equal text; anything else, a pipe say, is one
    run, read once. Each run is parsed as a job of ``numkit.fan_out``, and
    its bags are appended, in file order, to one growing buffer that the
    dataset then views, so loading holds the features once, plus one run's
    bags. A bad file raises the first error in file order: a run stops at
    its first bad line, after the bags before it.
    """
    chunks = [(0, None)]
    info = os.stat(path)
    if stat.S_ISREG(info.st_mode) and info.st_size >= 2 * _LOAD_CHUNK_CHARS:
        with open(path) as fh:
            chunks = _chunks(list(accumulate(map(len, fh))),
                             _LOAD_CHUNK_CHARS)
    bags = _Bags()
    fan_out(lambda i: _parse_lines(path, *chunks[i]), len(chunks),
            bags.append)
    if not bags.ids:
        raise ValueError("no bags in file")
    name = str(path).rsplit("/", 1)[-1]
    name = name[:-7] if name.endswith(".ndjson") else name
    # the buffer keeps its spare capacity (at most 1/16): trimming it
    # would be the very copy this layout avoids
    return Dataset(np.frombuffer(bags.feats).reshape(-1, bags.feature_dim),
                   bags.offsets, bags.ids, bags.bag_labels,
                   np.frombuffer(bags.labels, dtype=np.int64), name=name)


class _Bags:
    """Parsed bags, appended in file order: their rows in one growing
    buffer, their instance labels in another."""

    def __init__(self):
        self.feats, self.labels = array("d"), array("q")
        self.offsets, self.ids, self.bag_labels = [0], [], []
        self.feature_dim = None

    def append(self, parsed) -> None:
        """Append one of ``_parse_lines``' bags, which follows these in the
        file; its feature dimension must be the first bag's."""
        lineno, bag_id, label, block, inst_labels = parsed
        if self.feature_dim not in (None, block.shape[1]):
            raise ValueError(f"line {lineno}: inconsistent feature dimension")
        self.feature_dim = block.shape[1]
        self.feats.frombytes(memoryview(block).cast("B"))
        self.labels.extend(inst_labels)
        self.offsets.append(len(self.labels))
        self.ids.append(bag_id)
        self.bag_labels.append(label)


def _parse_lines(path, first: int, stop: int | None):
    """Yield (line number, bag_id, label, rows, instance labels) for each
    bag on lines ``first + 1`` to ``stop`` (1-based; ``stop`` None for the
    end of the file), raising at the first bad line."""
    with open(path) as fh:
        for lineno, line in islice(enumerate(fh, start=1), first, stop):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: malformed JSON ({exc.msg})")
            try:
                instances = rec["instances"]
                block = _json_features([inst["features"]
                                        for inst in instances])
                inst_labels = [_json_label(inst.get("label"), True)
                               for inst in instances]
                label = _json_label(rec["label"], False)
                bag_id = rec["bag_id"]
                if type(bag_id) is not str:
                    raise ValueError("bag_id must be a string, not "
                                     f"{json.dumps(bag_id)}")
            except (KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"line {lineno}: missing or bad field ({exc})")
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"line {lineno}: {exc}")
            if block.size == 0:
                raise ValueError(f"line {lineno}: a bag needs at least one "
                                 "instance and one feature")
            if not np.isfinite(block).all():
                raise ValueError(f"line {lineno}: non-finite feature value")
            # Dataset checks this too, but cannot name the line
            if -1 not in inst_labels and label != int(1 in inst_labels):
                raise ValueError(f"line {lineno}: bag {bag_id!r}: label "
                                 "inconsistent with instance labels")
            yield lineno, bag_id, label, block, inst_labels


def load_benchmark_csv(path) -> Dataset:
    """Pre-extracted feature benchmark: header bag_id,bag_label,f0,...

    One instance per row, bags contiguous or not: a bag's rows keep their
    file order. All rows of a bag must agree on the bag label. Instance
    labels are unknown in this format.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["bag_id", "bag_label"]:
            raise ValueError("header must start with bag_id,bag_label")
        dim = len(header) - 2
        if dim < 1 or header[2:] != [f"f{i}" for i in range(dim)]:
            raise ValueError("feature columns must be named f0..f{d-1}")
        rows, row_bags = [], []
        bags: dict[str, int] = {}  # bag id -> index, in first-seen order
        labels: list[int] = []
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
            if bag_id not in bags:
                bags[bag_id] = len(bags)
                labels.append(lab)
            elif labels[bags[bag_id]] != lab:
                raise ValueError(f"line {lineno}: bag label changes within bag")
            rows.append(feats)
            row_bags.append(bags[bag_id])
    if not rows:
        raise ValueError("no bags in file")
    order = np.argsort(row_bags, kind="stable")
    offsets = np.zeros(len(bags) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_bags), out=offsets[1:])
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return Dataset(np.stack([rows[j] for j in order]), offsets, list(bags),
                   labels, np.full(len(rows), -1), name=name)


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
                     cfg: GenConfig, rng: np.random.Generator | None = None,
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
    neg_per_round = (cfg.bag_size - a) + cfg.bag_size
    rounds = min(len(pos_idx) // a, len(neg_idx) // neg_per_round)
    if rounds == 0:
        raise ValueError("instance pool too small for a single bag pair")
    # each round's rows: the positive bag (a positives, then its negatives),
    # then the negative bag
    order = np.concatenate(
        [pos_idx[:rounds * a].reshape(rounds, a),
         neg_idx[:rounds * neg_per_round].reshape(rounds, neg_per_round)],
        axis=1).ravel()
    ids = [f"{kind}-{r:04d}" for r in range(rounds) for kind in ("pos", "neg")]
    return Dataset(np.asarray(features, dtype=np.float64)[order],
                   np.arange(0, order.size + 1, cfg.bag_size), ids,
                   np.tile([1, 0], rounds), positive_mask[order], name=name)


class _Folds(Sequence):
    """The k (train, test) pairs of a k-fold split. Pair i is sliced out of
    the dataset each time it is read, by index or by iteration, so a caller
    that keeps no pair holds one fold's copy of the rows at a time."""

    def __init__(self, dataset: Dataset, fold: np.ndarray, k: int):
        self._dataset, self._fold, self._k = dataset, fold, k

    def __len__(self) -> int:
        return self._k

    def __getitem__(self, i: int) -> tuple[Dataset, Dataset]:
        i = range(self._k)[i]  # i < 0 counts from the end, i >= k raises
        name = self._dataset.name
        return (self._dataset.subset(np.flatnonzero(self._fold != i),
                                     f"{name}-fold{i}-train"),
                self._dataset.subset(np.flatnonzero(self._fold == i),
                                     f"{name}-fold{i}-test"))


def kfold_split(dataset: Dataset, k: int, seed: int = 0
                ) -> Sequence[tuple[Dataset, Dataset]]:
    """Label-stratified k-fold partition of bags, deterministic per seed.

    The folds are drawn at once; each (train, test) pair is sliced out of
    the dataset when it is read (see ``_Folds``), so fold i can be read
    on its own, without slicing the folds before it.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > len(dataset.bag_ids):
        raise ValueError("k exceeds bag count")
    rng = Rng(seed, stream=7)
    fold = np.empty(len(dataset.bag_ids), dtype=np.int64)
    for label in (1, 0):  # this draw order fixes each seed's folds
        bags = np.flatnonzero(dataset.bag_labels == label)
        fold[bags[rng.permutation(bags.size)]] = np.arange(bags.size) % k
    return _Folds(dataset, fold, k)
