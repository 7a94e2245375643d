"""Bag-level pooling baselines: max, mean, and (ungated) attention.

These classifiers never see instance labels. ``pool_bags`` pools every
bag of a corpus (features in bag order plus bag offsets, the
``data.Dataset`` layout) in one pass, by a segment max, a segment mean,
or an attention-weighted segment sum, into one feature vector per bag. A
linear head maps those vectors to two-class probabilities trained with
cross entropy against the bag labels.

Instance scores are derived afterwards: the attention arm exposes its
per-instance attention weights (min-max normalized over the whole
corpus), the max and mean arms score each instance by running it through
the head alone. ``baseline_scores`` is the baseline counterpart of
``metrics.dataset_scores``: it returns the (instance, bag) scores that
``metrics.dataset_aucs`` turns into AUCs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (ClassifierParams, Gradients, SgdConfig, backward,
                    forward, init_classifier, sgd_step)
from .numkit import Rng

POOL_KINDS = ("max", "mean", "attention")


@dataclass
class AttentionParams:
    """Two-layer scoring net: weight = softmax_k(w . tanh(V f_k))."""

    v: np.ndarray  # (L, feature_dim) projection
    w: np.ndarray  # (L,) scorer

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.v.ndim != 2 or self.w.shape != (self.v.shape[0],):
            raise ValueError("attention shapes disagree")


@dataclass
class PoolParams:
    """Trained baseline: pooling kind, linear head, optional attention."""

    kind: str
    head: ClassifierParams
    attention: AttentionParams | None = None

    def __post_init__(self):
        if self.kind not in POOL_KINDS:
            raise ValueError(f"unknown pooling kind: {self.kind!r}")
        if (self.kind == "attention") != (self.attention is not None):
            raise ValueError("attention parameters required iff kind is attention")


@dataclass
class PoolGradients:
    head: Gradients
    v: np.ndarray | None = None
    w: np.ndarray | None = None


def pool_bags(params: PoolParams, x: np.ndarray, offsets: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Pool every bag of a corpus: ((B, d) pooled, (N,) weights).

    Bag i owns rows ``x[offsets[i]:offsets[i + 1]]``, as in
    ``data.Dataset``. Max and mean are segment reductions (mean sums
    each bag left to right) and return no weights. Attention weights are a
    softmax of the scores w . tanh(V f) within each bag, so they are
    positive and sum to one over every bag of any size; each pooled vector
    is its bag's weighted sum.
    """
    pooled, weights, _ = _pool(params, x, offsets)
    return pooled, weights


def _pool(params: PoolParams, x: np.ndarray, offsets: np.ndarray):
    """``pool_bags`` plus the attention arm's (N, L) hidden layer
    tanh(x V^T), which its gradient reuses and then overwrites (None for
    max and mean)."""
    x = np.asarray(x, dtype=np.float64)
    offsets = np.asarray(offsets)
    sizes = np.diff(offsets)
    if (x.ndim != 2 or sizes.size == 0 or np.any(sizes < 1)
            or offsets[0] != 0 or offsets[-1] != x.shape[0]):
        raise ValueError("bags must be nonempty row blocks covering an "
                         "(N, d) matrix")
    starts = offsets[:-1]
    if params.kind == "max":
        return np.maximum.reduceat(x, starts, axis=0), None, None
    if params.kind == "mean":
        return np.add.reduceat(x, starts, axis=0) / sizes[:, None], None, None
    hidden = x @ params.attention.v.T
    np.tanh(hidden, out=hidden)
    scores = hidden @ params.attention.w
    e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, starts), sizes))
    weights = e / np.repeat(np.add.reduceat(e, starts), sizes)
    pooled = np.add.reduceat(weights[:, None] * x, starts, axis=0)
    return pooled, weights, hidden


def pool_loss_and_grads(params: PoolParams, bag_feats: list[np.ndarray],
                        targets: np.ndarray) -> tuple[float, PoolGradients]:
    """Mean bag-level cross entropy and gradients for every trainable array.

    targets is (n_bags, 2), positive class first. The bags are stacked
    once and pooled as ``pool_bags`` pools them; the head's loss and
    gradients come from ``model.backward`` on the pooled vectors. Max and
    mean pooling have no parameters below the head; the attention arm also
    backpropagates through its per-bag softmax into w and V, in one
    vectorised pass over the stacked rows. That pass holds one (N, L)
    buffer, the hidden layer H, which becomes 1 - H^2 in place once
    d(loss)/dw = H^T delta has been taken; with delta = d(loss)/d(scores),
    d(loss)/dV = w * ((1 - H^2)^T (delta * X)), scaling each row l by w_l.
    Neither the bags, the targets nor the parameters are modified.
    """
    targets = np.asarray(targets, dtype=np.float64)
    n = len(bag_feats)
    if targets.shape != (n, 2):
        raise ValueError("targets must be (n_bags, 2)")
    x = np.concatenate(bag_feats, dtype=np.float64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(f) for f in bag_feats], out=offsets[1:])
    pooled, weights, hidden = _pool(params, x, offsets)
    loss, head_grads = backward(params.head, pooled, targets)
    grads = PoolGradients(head_grads)
    if weights is None:
        return loss, grads
    sizes = np.diff(offsets)
    # d(mean CE)/d(pooled) through the linear head's softmax
    d_pooled = (forward(params.head, pooled) - targets) / n @ params.head.w_out
    d_weights = np.einsum("ij,ij->i", x, np.repeat(d_pooled, sizes, axis=0))
    # softmax Jacobian-vector product within each bag
    d_scores = weights * (d_weights - np.repeat(
        np.add.reduceat(weights * d_weights, offsets[:-1]), sizes))
    grads.w = hidden.T @ d_scores
    # hidden may be overwritten only now that grads.w has been taken
    np.square(hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    # w scales the (L, d) result, not an (N, L) product, so that hidden is
    # the step's only (N, L) buffer
    grads.v = hidden.T @ (d_scores[:, None] * x)
    grads.v *= params.attention.w[:, None]
    return loss, grads


def init_pool_params(kind: str, feature_dim: int, attention_hidden: int = 64,
                     rng: np.random.Generator | None = None) -> PoolParams:
    """Fresh baseline parameters; attention arrays drawn U(+-1/sqrt(fan_in))."""
    rng = rng or Rng(0)
    head = init_classifier(feature_dim, arch="linear", rng=rng)
    attn = None
    if kind == "attention":
        if attention_hidden < 1:
            raise ValueError("attention_hidden must be >= 1")
        bound_v = 1.0 / np.sqrt(feature_dim)
        bound_w = 1.0 / np.sqrt(attention_hidden)
        attn = AttentionParams(
            v=rng.uniform(-bound_v, bound_v, (attention_hidden, feature_dim)),
            w=rng.uniform(-bound_w, bound_w, attention_hidden))
    return PoolParams(kind, head, attn)


def pool_baseline_train(dataset, kind: str, sgd: SgdConfig,
                        attention_hidden: int = 64) -> PoolParams:
    """Train a pooling baseline on bag labels only.

    Bags are shuffled each epoch and consumed in batches of
    sgd.batch_size bags; every array updates by plain SGD.
    """
    if kind not in POOL_KINDS:
        raise ValueError(f"unknown pooling kind: {kind!r}")
    if not 0 < dataset.bag_labels.sum() < dataset.bag_labels.size:
        raise ValueError("dataset must contain both bag classes")
    init_rng = Rng(sgd.seed, stream=11)
    shuffle_rng = Rng(sgd.seed, stream=12)
    params = init_pool_params(kind, dataset.feature_dim, attention_hidden,
                              init_rng)
    offsets = dataset.offsets
    # one view per bag into the dataset's features
    feats = [dataset.features[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    # one-hot bag targets, positive class first
    positive = dataset.bag_labels == 1
    targets = np.stack([positive, ~positive], axis=1).astype(np.float64)
    for _ in range(sgd.epochs):
        order = shuffle_rng.permutation(len(feats))
        for start in range(0, len(order), sgd.batch_size):
            idx = order[start:start + sgd.batch_size]
            _, grads = pool_loss_and_grads(params, [feats[i] for i in idx],
                                           targets[idx])
            sgd_step(params.head, grads.head, sgd.learning_rate)
            if params.attention is not None:
                grads.v *= sgd.learning_rate
                params.attention.v -= grads.v
                grads.w *= sgd.learning_rate
                params.attention.w -= grads.w
    return params


def attention_instance_scores(attn: np.ndarray) -> np.ndarray:
    """Min-max normalize corpus attention weights into [0, 1].

    Rank order is preserved, so rank-based metrics are unaffected. A
    constant vector (no spread at all) maps to 0.5 everywhere.
    """
    raw = np.asarray(attn, dtype=np.float64)
    if raw.size == 0:
        raise ValueError("empty attention vector")
    lo, hi = raw.min(), raw.max()
    if hi - lo == 0.0:
        return np.full(raw.shape, 0.5)
    return (raw - lo) / (hi - lo)


def baseline_scores(params: PoolParams, dataset
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(instance scores, bag scores) of a dataset, one pooling pass.

    Attention instance scores are the normalized attention weights of that
    pass; max and mean score each instance by the head alone. Bag scores
    are the head's positive-class probability of each pooled vector.
    """
    pooled, weights = pool_bags(params, dataset.features, dataset.offsets)
    if params.kind == "attention":
        instance = attention_instance_scores(weights)
    else:
        instance = forward(params.head, dataset.features)[:, 0]
    return instance, forward(params.head, pooled)[:, 0]


def baseline_instance_scores(params: PoolParams, dataset) -> np.ndarray:
    """Per-instance positive scores, corpus order = dataset bag order."""
    return baseline_scores(params, dataset)[0]
