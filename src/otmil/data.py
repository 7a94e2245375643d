"""Bag-structured datasets: synthetic Gaussian-blob generators, NDJSON and
CSV ingestion, IDX image files, and stratified k-fold splitting.

NDJSON datasets of more than a few thousand rows are saved in chunks of
whole bags, each encoded to lines by a ``numkit.fan_out`` job in a forked
worker; a smaller one is one chunk, encoded in this process one line at a
time. Either way the file is that of one in-process pass. An NDJSON file
is loaded in one pass over its lines, in this process.

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
import struct
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .numkit import Rng, bag_sizes, fan_out, sample_gaussian, utf8_lines


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
    known is positive iff one is. Bag ids are unique strings. The arrays
    are read-only views of the inputs.
    """

    features: np.ndarray
    offsets: np.ndarray
    bag_ids: tuple[str, ...]
    bag_labels: np.ndarray
    instance_labels: np.ndarray

    def __post_init__(self):
        self.bag_ids = tuple(self.bag_ids)
        if not self.bag_ids:
            raise ValueError("dataset must contain at least one bag")
        bad = [i for i in self.bag_ids if not isinstance(i, str)]
        if bad:  # save_ndjson would write a file that load_ndjson rejects
            raise ValueError(f"bag id {bad[0]!r} must be a string, not "
                             f"{type(bad[0]).__name__}")
        repeated = [i for i, n in Counter(self.bag_ids).items() if n > 1]
        if repeated:
            raise ValueError(f"bag id {repeated[0]!r} is repeated")
        for label_set, what in (((0, 1), "bag_labels"),
                                ((-1, 0, 1), "instance_labels")):
            if not np.isin(getattr(self, what), label_set).all():
                raise ValueError(f"{what} must be in {label_set}")
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError("features must be an (N, d) matrix with feature "
                             "dimension d >= 1")
        # before the int64 cast below, which would truncate float offsets
        bag_sizes(self.offsets, self.n_instances)
        for what in ("features", "offsets", "bag_labels", "instance_labels"):
            dtype = np.float64 if what == "features" else np.int64
            arr = np.asarray(getattr(self, what), dtype=dtype).view()
            arr.flags.writeable = False  # a read-only view of the input
            setattr(self, what, arr)
        if (self.offsets.shape != (len(self.bag_ids) + 1,)
                or self.bag_labels.shape != (len(self.bag_ids),)
                or self.instance_labels.shape != (self.n_instances,)):
            raise ValueError("array lengths disagree")
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

    def subset(self, bag_index) -> Dataset:
        """The given bags, in the given order, as a new dataset."""
        bag_index = np.asarray(bag_index, dtype=np.int64)
        sizes = np.diff(self.offsets)[bag_index]
        offsets = np.zeros(bag_index.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        rows = (np.repeat(self.offsets[bag_index] - offsets[:-1], sizes)
                + np.arange(offsets[-1]))
        return Dataset(self.features[rows], offsets,
                       [self.bag_ids[j] for j in bag_index],
                       self.bag_labels[bag_index], self.instance_labels[rows])


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
        if self.positive_ratio * self.bag_size < 1.0:
            raise ValueError(
                "empty positive content: positive_ratio * bag_size must be "
                f">= 1, got {self.positive_ratio!r} * {self.bag_size}")
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
    return round_half_up(cfg.positive_ratio * cfg.bag_size)


def _make_bags(cfg: GenConfig, rng: np.random.Generator, n_bags: int,
               prefix: str, concepts: str) -> Dataset:
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
                   np.arange(n_bags) < n_pos_bags, labels.ravel())


def generate_normal_bags(cfg: GenConfig) -> Dataset:
    """Single-concept bags: each positive bag holds round(ratio*size)
    positives from one cluster; negative bags hold none. The draws come
    from ``Rng(cfg.seed)``."""
    if cfg.scheme != "normal":
        raise ValueError("config scheme must be 'normal'")
    return _make_bags(cfg, Rng(cfg.seed), cfg.n_bags, "", "first")


def generate_hard_bags(cfg: GenConfig
                       ) -> tuple[Dataset, Dataset, Dataset, Dataset]:
    """Two-concept suite: mixed training bags plus three test splits.

    Returns (train, test_normal, test_pos0, test_pos8): training and
    test_normal positive bags mix both concepts per instance; test_pos0
    positives are all first-concept, test_pos8 all second-concept.
    Negative bags are identically distributed in every split. The splits
    draw in that order from one ``Rng(cfg.seed)``.
    """
    if cfg.scheme != "hard":
        raise ValueError("config scheme must be 'hard'")
    if cfg.n_concepts != 2:
        raise ValueError("hard scheme requires n_concepts = 2")
    rng = Rng(cfg.seed)
    return (_make_bags(cfg, rng, cfg.n_bags, "", "mixed"),
            _make_bags(cfg, rng, cfg.test_bags, "tn-", "mixed"),
            _make_bags(cfg, rng, cfg.test_bags, "t0-", "first"),
            _make_bags(cfg, rng, cfg.test_bags, "t8-", "second"))


# NDJSON is saved in chunks of whole bags, each a job of numkit.fan_out. A
# dataset below two chunks' floor is one chunk, saved line by line in this
# process, without importing multiprocessing; past that, more chunks mean
# less text for the caller to hold at once.
_SAVE_CHUNK_ROWS = 2000


def _chunks(ends: list, floor: int) -> list[tuple[int, int]]:
    """Cut items, whose running size totals are ``ends``, into runs of
    whole items of about equal size, each of about ``floor`` or more unless
    there is one run: (first, stop) index ranges, none empty."""
    total = ends[-1] if ends else 0
    n = max(1, total // floor)
    cuts = sorted({0, len(ends)} | {bisect_left(ends, total * c / n) + 1
                                    for c in range(1, n)})
    return list(zip(cuts, cuts[1:]))


def save_ndjson(dataset: Dataset, path) -> None:
    """One bag per line: {"bag_id", "label", "instances": [...]}.

    Runs of bags are encoded to lines as jobs of ``numkit.fan_out``; a
    dataset below two runs' floor is one run, encoded in this process one
    line at a time. The lines go, in file order, to a temporary file next
    to the file ``path`` names (through any symlinks), which then replaces
    it with the earlier file's mode: a save that fails leaves any earlier
    file there as it was. The new file belongs to the saving user, and hard
    links to the old one keep the old content.
    """
    target = os.path.realpath(path)
    partial = f"{target}.{os.getpid()}.tmp"
    chunks = _chunks(dataset.offsets[1:].tolist(), _SAVE_CHUNK_ROWS)
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            if len(chunks) == 1:
                fh.writelines(_ndjson_lines(dataset, *chunks[0]))
            else:  # the chain drops each run's lines before the next's
                fh.writelines(chain.from_iterable(fan_out(
                    lambda i: list(_ndjson_lines(dataset, *chunks[i])),
                    len(chunks))))
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
    """Parse and validate an NDJSON bag file, in one pass in this process;
    errors carry line numbers.

    Feature values must be JSON numbers and bag ids JSON strings, and every
    bag has the first bag's feature dimension. Each bag's rows are appended
    to one growing buffer that the dataset then views, so loading holds the
    features once, plus one line's objects. A bad file raises its first
    error in file order; a bag id on two lines is an error that names both.
    """
    feats, labels = array("d"), array("q")
    offsets, ids, bag_labels, dim = [0], {}, [], None
    for lineno, bag_id, label, block, inst_labels in _parse_lines(path):
        if dim not in (None, block.shape[1]):
            raise ValueError(f"line {lineno}: inconsistent feature dimension")
        if bag_id in ids:
            raise ValueError(f"line {lineno}: bag id {bag_id!r} repeats "
                             f"line {ids[bag_id]}")
        dim = block.shape[1]
        feats.frombytes(memoryview(block).cast("B"))
        labels.extend(inst_labels)
        offsets.append(len(labels))
        ids[bag_id] = lineno
        bag_labels.append(label)
    if not ids:
        raise ValueError("no bags in file")
    # the buffer keeps its spare capacity (at most 1/16): trimming it
    # would be the very copy this layout avoids
    return Dataset(np.frombuffer(feats).reshape(-1, dim), offsets,
                   tuple(ids), bag_labels,
                   np.frombuffer(labels, dtype=np.int64))


def _parse_lines(path):
    """Yield (line number, bag_id, label, rows, instance labels) for each
    bag of the file at ``path`` in file order, raising at the first line
    that is bad on its own."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in utf8_lines(fh):
            text = line.strip()
            if not text:
                continue
            try:
                rec = json.loads(text)
            except json.JSONDecodeError as exc:
                column = exc.colno + len(line) - len(line.lstrip())
                raise ValueError(f"line {lineno}: malformed JSON ({exc.msg} "
                                 f"at column {column})")
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
    labels are unknown in this format. The file is UTF-8 text, and may
    start with a byte-order mark, as spreadsheets' "CSV UTF-8" exports do.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        lines = utf8_lines(fh)
        header = next(lines, (1, ""))[1].strip().split(",")
        if header[:2] != ["bag_id", "bag_label"]:
            raise ValueError("line 1: header must start with "
                             "bag_id,bag_label")
        dim = len(header) - 2
        if dim < 1 or header[2:] != [f"f{i}" for i in range(dim)]:
            raise ValueError("line 1: feature columns must be named "
                             "f0..f{d-1}")
        rows, row_bags = [], []
        bags: dict[str, int] = {}  # bag id -> index, in first-seen order
        labels: list[int] = []
        for lineno, line in lines:
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
    return Dataset(np.stack([rows[j] for j in order]), offsets, list(bags),
                   labels, np.full(len(rows), -1))


IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def load_idx_mnist(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Big-endian IDX image/label pair -> (features in [0,1], digit vector).
    Every format error is a ValueError naming the file: a header count
    below 1 also names the field, and a count mismatch names both files
    and both counts. Scaling in place holds one float64 copy of the pixels
    beside their bytes."""
    (n, rows, cols), raw = _read_idx(images_path, IDX_IMAGES_MAGIC, "image",
                                     ("images", "rows", "columns"))
    feats = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    feats = feats.astype(np.float64)
    feats /= 255.0
    _, raw = _read_idx(labels_path, IDX_LABELS_MAGIC, "label", ("labels",))
    digits = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if len(digits) != len(feats):
        raise ValueError(f"image/label count mismatch: {images_path} holds "
                         f"{len(feats)} images, {labels_path} "
                         f"{len(digits)} labels")
    return feats, digits


def _read_idx(path, magic: int, kind: str, fields: tuple[str, ...]
              ) -> tuple[tuple[int, ...], bytes]:
    """The header counts and the payload bytes of the IDX ``kind`` file at
    ``path``: its magic must be ``magic``, each of its counts, one per
    name in ``fields``, at least 1, and its payload as long as their
    product."""
    size = 4 * (1 + len(fields))
    with open(path, "rb") as fh:
        head = fh.read(size)
        if len(head) < size or struct.unpack(">i", head[:4])[0] != magic:
            raise ValueError(f"{path}: not IDX {kind} file")
        counts = struct.unpack(f">{len(fields)}i", head[4:])
        for field, value in zip(fields, counts):
            if value < 1:
                raise ValueError(f"{path}: IDX header field {field} must be "
                                 f">= 1, got {value}")
        n_bytes = math.prod(counts)
        raw = fh.read(n_bytes)
        if len(raw) != n_bytes:
            raise ValueError(f"{path}: truncated IDX {kind} file")
    return counts, raw


def bags_from_arrays(features: np.ndarray, positive_mask: np.ndarray,
                     cfg: GenConfig) -> Dataset:
    """Deal ``cfg.n_bags`` bags from a fixed instance pool without
    replacement.

    Positive bags (a positives + size-a negatives) and negative bags (size
    negatives) alternate, positive first, so (n_bags + 1) // 2 bags are
    positive, as in ``generate_normal_bags``. A pool that cannot fill that
    many bags is a ValueError naming how many it can fill. Leftover
    instances are discarded. Both pools are shuffled by ``Rng(cfg.seed)``.
    """
    rng = Rng(cfg.seed)
    a = _positive_counts(cfg)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    pos_idx = np.flatnonzero(positive_mask)
    neg_idx = np.flatnonzero(~positive_mask)
    pos_idx = pos_idx[rng.permutation(len(pos_idx))]
    neg_idx = neg_idx[rng.permutation(len(neg_idx))]
    positive = np.arange(cfg.n_bags) % 2 == 0  # pos, neg, pos, ... bags
    pos_rows = np.where(positive, a, 0)
    # the bags fill in order, while both pools last
    fits = int(np.sum((np.cumsum(pos_rows) <= len(pos_idx))
                      & (np.cumsum(cfg.bag_size - pos_rows) <= len(neg_idx))))
    if fits < cfg.n_bags:
        raise ValueError(f"instance pool too small for {cfg.n_bags} bags: "
                         f"it fills at most {fits}")
    # each bag draws its positives, then its negatives, from the front of
    # each shuffled pool
    from_pos = (np.arange(cfg.bag_size) < pos_rows[:, None]).ravel()
    n_from_pos = int(pos_rows.sum())
    order = np.empty(from_pos.size, dtype=np.int64)
    order[from_pos] = pos_idx[:n_from_pos]
    order[~from_pos] = neg_idx[:from_pos.size - n_from_pos]
    ids = [f"{'pos' if p else 'neg'}-{i // 2:04d}"
           for i, p in enumerate(positive)]
    return Dataset(np.asarray(features, dtype=np.float64)[order],
                   np.arange(0, order.size + 1, cfg.bag_size), ids,
                   positive, positive_mask[order])


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
        return (self._dataset.subset(np.flatnonzero(self._fold != i)),
                self._dataset.subset(np.flatnonzero(self._fold == i)))


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
