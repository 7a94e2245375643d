"""Bag-level pooling baselines: max, mean, and (ungated) attention.

These classifiers never see instance labels. ``pool_bags`` pools every
bag of a corpus (features in bag order plus bag offsets, the
``data.Dataset`` layout) in one pass, by a segment max, a segment mean,
or an attention-weighted segment sum, into one feature vector per bag. A
linear head maps those vectors to two-class probabilities trained with
cross entropy against the bag labels. The attention arm takes each
batch's gradient as the size-weighted mean of two halves of its bags; in
long runs a ``numkit.Pair`` peer computes the second half on a second
CPU, with the same bits (``pool_baseline_train``).

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
                    forward, init_classifier)
from .numkit import Pair, Rng, bag_sizes

POOL_KINDS = ("max", "mean", "attention")

# pool_baseline_train forks its attention peer (numkit.Pair) only past this
# many row steps (epochs x training rows). Measured on 2 CPUs with one BLAS
# thread, d 16, batches of 8 to 16 bags: forking broke even at 40,000 to
# 50,000, and at 100,000 it saved 12-20% on three shapes of bags and lost 4%
# on a fourth, where the fork and join (about 5 ms) outweigh the halves
_PAIR_FORK_ROWS = 100_000


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
    if x.ndim != 2:
        raise ValueError(f"bag features must be an (N, d) matrix, got shape "
                         f"{x.shape}")
    sizes = bag_sizes(offsets, x.shape[0])
    starts = np.asarray(offsets)[:-1]
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
    gradients come from ``model.backward`` on the pooled vectors, in the
    head's one pass. Max and mean pooling have no parameters below the
    head; the attention arm also backpropagates the head's
    d(loss)/d(logits) through its per-bag softmax into w and V, in one
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
    # d(mean CE)/d(pooled) through the linear head's logits
    d_pooled = head_grads.logits @ params.head.w_out
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
    sgd.batch_size bags; every array updates by plain SGD on the batch's
    gradient (``_batch_gradient``). The attention arm trains on a
    ``numkit.Pair`` that forks a peer past ``_PAIR_FORK_ROWS`` row steps
    (epochs x rows), where the peer computes the second half of every
    batch; the parameters are the same to the bit either way.
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

    def train(pair):
        # the peer runs this too, on its copies of params and shuffle_rng
        for _ in range(sgd.epochs):
            order = shuffle_rng.permutation(len(feats))
            for start in range(0, len(order), sgd.batch_size):
                idx = order[start:start + sgd.batch_size]
                grad = _batch_gradient(params, [feats[i] for i in idx],
                                       targets[idx], pair)
                grad *= sgd.learning_rate
                at = 0
                for arr in _arrays(params):
                    arr -= grad[at:at + arr.size].reshape(arr.shape)
                    at += arr.size
        return params

    fork = (kind == "attention"
            and sgd.epochs * dataset.n_instances > _PAIR_FORK_ROWS)
    return Pair(fork).run(train)


def _arrays(params: PoolParams) -> list[np.ndarray]:
    """The trainable arrays, in the order of a flat gradient."""
    arrays = [params.head.w_out, params.head.b_out]
    if params.attention is not None:
        arrays += [params.attention.v, params.attention.w]
    return arrays


def _flat_gradient(params: PoolParams, bag_feats: list[np.ndarray],
                   targets: np.ndarray) -> np.ndarray:
    """``pool_loss_and_grads``'s gradient as one vector, the arrays in
    ``_arrays`` order."""
    _, grads = pool_loss_and_grads(params, bag_feats, targets)
    parts = [grads.head.w_out, grads.head.b_out]
    if grads.v is not None:
        parts += [grads.v, grads.w]
    return np.concatenate([part.ravel() for part in parts])


def _batch_gradient(params: PoolParams, bag_feats: list[np.ndarray],
                    targets: np.ndarray, pair: Pair) -> np.ndarray:
    """The batch's mean gradient as one vector (``_flat_gradient``).

    Max and mean take it in one pass, as does a batch of one bag. The
    attention arm takes it in two halves, on ``pair``: the first
    ceil(n / 2) of the batch's n bags and the rest, combined as their
    size-weighted mean (n1 g1 + n2 g2) / n. The halves cost as much as the
    whole in one process, and a forked peer can take the second; the sum
    re-associates the batch's reductions, so the result differs from the
    whole batch's in its low-order bits.
    """
    n = len(bag_feats)
    if params.kind != "attention" or n == 1:
        return _flat_gradient(params, bag_feats, targets)
    cut = (n + 1) // 2
    first, second = pair.map(
        lambda part: _flat_gradient(params, bag_feats[part], targets[part]),
        slice(0, cut), slice(cut, n))
    return (cut * first + (n - cut) * second) / n


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
