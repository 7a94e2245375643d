"""Pooling baselines: attention math, gradients, training sanity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmil.baselines import (POOL_KINDS, AttentionParams, PoolGradients,
                             PoolParams, attention_instance_scores,
                             baseline_instance_scores, baseline_scores,
                             init_pool_params, pool_bags, pool_baseline_train,
                             pool_loss_and_grads)
from otmil.data import GenConfig, generate_normal_bags
from otmil.metrics import roc_auc
from otmil.model import (Gradients, SgdConfig, backward, forward,
                         init_classifier)
from otmil.numkit import Rng

from test_data import make_dataset
from test_model import assert_same_bits, soft_cross_entropy
from test_numkit import softmax


def pool_params_to_vector(params: PoolParams) -> np.ndarray:
    parts = [params.head.w_out.ravel(), params.head.b_out.ravel()]
    if params.attention is not None:
        parts += [params.attention.v.ravel(), params.attention.w.ravel()]
    return np.concatenate(parts)


def vector_to_pool_params(params: PoolParams, vec: np.ndarray) -> PoolParams:
    """Write a flat vector back into the parameter arrays, in place."""
    vec = np.asarray(vec, dtype=np.float64)
    arrays = [params.head.w_out, params.head.b_out]
    if params.attention is not None:
        arrays += [params.attention.v, params.attention.w]
    offset = 0
    for arr in arrays:
        arr.flat[:] = vec[offset:offset + arr.size]
        offset += arr.size
    if offset != vec.size:
        raise ValueError("vector length does not match parameter count")
    return params


# --- reference: the per-bag pooling the stacked pass replaced ---------------

def ref_attention_pool(params: AttentionParams, bag_features: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    feats = np.asarray(bag_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ValueError("bag features must be a nonempty (K, d) matrix")
    scores = np.tanh(feats @ params.v.T) @ params.w
    weights = softmax(scores)
    return weights @ feats, weights


def ref_pool_bag(params: PoolParams, bag_features: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    feats = np.asarray(bag_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ValueError("bag features must be a nonempty (K, d) matrix")
    if params.kind == "max":
        return feats.max(axis=0), None
    if params.kind == "mean":
        return feats.mean(axis=0), None
    return ref_attention_pool(params.attention, feats)


def ref_pool_loss_and_grads(params: PoolParams, bag_feats, targets):
    targets = np.asarray(targets, dtype=np.float64)
    n = len(bag_feats)
    head = params.head
    g_w_out = np.zeros_like(head.w_out)
    g_b_out = np.zeros_like(head.b_out)
    g_v = np.zeros_like(params.attention.v) if params.attention else None
    g_w = np.zeros_like(params.attention.w) if params.attention else None
    total = 0.0
    for b, feats in enumerate(bag_feats):
        feats = np.asarray(feats, dtype=np.float64)
        if params.kind == "attention":
            t_mat = np.tanh(feats @ params.attention.v.T)  # (K, L)
            scores = t_mat @ params.attention.w
            weights = softmax(scores)
            pooled = weights @ feats
        else:
            pooled, _ = ref_pool_bag(params, feats)
            weights = None
        probs = forward(head, pooled[None])[0]
        total += soft_cross_entropy(probs, targets[b])
        dlogits = (probs - targets[b]) / n
        g_w_out += np.outer(dlogits, pooled)
        g_b_out += dlogits
        if params.kind == "attention":
            d_pooled = head.w_out.T @ dlogits
            d_weights = feats @ d_pooled
            # softmax Jacobian-vector product
            d_scores = weights * (d_weights - weights @ d_weights)
            g_w += t_mat.T @ d_scores
            d_pre = np.outer(d_scores, params.attention.w) * (1.0 - t_mat ** 2)
            g_v += d_pre.T @ feats
    grads = PoolGradients(Gradients(None, None, g_w_out, g_b_out), v=g_v, w=g_w)
    return total / n, grads


def ref_instance_scores(params: PoolParams, dataset) -> np.ndarray:
    if params.kind == "attention":
        chunks = [ref_attention_pool(params.attention, b.feature_matrix())[1]
                  for b in dataset.bags]
        return attention_instance_scores(np.concatenate(chunks))
    stacked = np.concatenate([b.feature_matrix() for b in dataset.bags])
    return forward(params.head, stacked)[:, 0]


def ref_bag_scores(params: PoolParams, dataset) -> np.ndarray:
    pooled = [ref_pool_bag(params, b.feature_matrix())[0]
              for b in dataset.bags]
    return np.array([float(forward(params.head, p[None])[0, 0])
                     for p in pooled])


def single_bag(params: AttentionParams) -> PoolParams:
    """Attention baseline around ``params`` with a fresh linear head."""
    head = init_classifier(params.v.shape[1], arch="linear", rng=Rng(0))
    return PoolParams("attention", head, params)


def fd_pool_gradient(params, bags, targets, eps=1e-6):
    vec = pool_params_to_vector(params)
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        bumped = vec.copy()
        bumped[i] += eps
        vector_to_pool_params(params, bumped)
        up, _ = pool_loss_and_grads(params, bags, targets)
        bumped[i] -= 2 * eps
        vector_to_pool_params(params, bumped)
        down, _ = pool_loss_and_grads(params, bags, targets)
        grad[i] = (up - down) / (2 * eps)
    vector_to_pool_params(params, vec)
    return grad


def analytic_pool_vector(kind, grads):
    parts = [grads.head.w_out.ravel(), grads.head.b_out.ravel()]
    if kind == "attention":
        parts += [grads.v.ravel(), grads.w.ravel()]
    return np.concatenate(parts)


class TestAttentionPool:
    def test_hand_computed_chain(self):
        # K=2 bag on 2-dim features with hand-set weights
        params = AttentionParams(v=np.array([[1.0, 0.0], [0.0, 1.0]]),
                                 w=np.array([1.0, -1.0]))
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        scores = np.array([np.tanh(1.0) - np.tanh(0.0),
                           np.tanh(0.0) - np.tanh(1.0)])
        expected = np.exp(scores) / np.exp(scores).sum()
        (bag_feature,), attn = pool_bags(single_bag(params), feats, [0, 2])
        assert np.allclose(attn, expected, atol=1e-12)
        assert np.allclose(bag_feature, attn @ feats, atol=1e-12)

    def test_singleton_bag(self):
        rng = Rng(0)
        params = AttentionParams(v=rng.standard_normal((4, 3)),
                                 w=rng.standard_normal(4))
        f = rng.standard_normal((1, 3))
        (bag_feature,), attn = pool_bags(single_bag(params), f, [0, 1])
        assert np.allclose(attn, [1.0])
        assert np.allclose(bag_feature, f[0])

    def test_identical_instances_uniform(self):
        rng = Rng(1)
        params = AttentionParams(v=rng.standard_normal((4, 3)),
                                 w=rng.standard_normal(4))
        f = np.tile(rng.standard_normal(3), (5, 1))
        _, attn = pool_bags(single_bag(params), f, [0, 5])
        assert np.allclose(attn, 0.2)

    def test_permutation_equivariance(self):
        rng = Rng(2)
        params = AttentionParams(v=rng.standard_normal((6, 4)),
                                 w=rng.standard_normal(6))
        f = rng.standard_normal((8, 4))
        perm = rng.permutation(8)
        bag_a, attn_a = pool_bags(single_bag(params), f, [0, 8])
        bag_b, attn_b = pool_bags(single_bag(params), f[perm], [0, 8])
        assert np.allclose(attn_a[perm], attn_b)
        assert np.allclose(bag_a, bag_b)

    def test_empty_bag_rejected(self):
        params = AttentionParams(v=np.zeros((2, 3)), w=np.zeros(2))
        with pytest.raises(ValueError, match="nonempty"):
            pool_bags(single_bag(params), np.zeros((0, 3)), [0, 0])


class TestPooling:
    def test_max_ignores_duplicates(self):
        params = init_pool_params("max", 3, rng=Rng(0))
        f = Rng(1).standard_normal((4, 3))
        doubled = np.concatenate([f, f[1:2]])
        a, _ = pool_bags(params, f, [0, 4])
        b, _ = pool_bags(params, doubled, [0, 5])
        assert np.array_equal(a, b)

    def test_mean_on_identical_instances_is_instance_forward(self):
        params = init_pool_params("mean", 3, rng=Rng(0))
        inst = Rng(2).standard_normal(3)
        bag = np.tile(inst, (6, 1))
        (pooled,), _ = pool_bags(params, bag, [0, 6])
        assert np.allclose(pooled, inst)
        assert np.allclose(forward(params.head, pooled[None]),
                           forward(params.head, inst[None]))


    def test_attention_hidden_must_be_positive(self):
        with pytest.raises(ValueError, match="attention_hidden"):
            init_pool_params("attention", 3, attention_hidden=0, rng=Rng(0))

    def test_empty_bag_rejected_every_kind(self):
        x = Rng(3).standard_normal((4, 3))
        for kind in POOL_KINDS:
            params = init_pool_params(kind, 3, attention_hidden=2, rng=Rng(0))
            with pytest.raises(ValueError, match="nonempty"):
                pool_bags(params, x, [0, 2, 2, 4])
            with pytest.raises(ValueError, match="covering"):
                pool_bags(params, x, [0, 2, 3])


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


ragged_cases = given(st.sampled_from(POOL_KINDS),
                     st.lists(st.integers(1, 6), min_size=1, max_size=6),
                     st.integers(0, 2 ** 32 - 1))


def ragged_case(kind, sizes, seed, dim=3):
    """Fresh parameters of ``kind`` and one (k, dim) bag per size."""
    rng = Rng(seed, stream=3)
    params = init_pool_params(kind, dim, attention_hidden=4, rng=rng)
    return params, [rng.standard_normal((k, dim)) for k in sizes], rng


class TestStackedMatchesPerBag:
    """The one-pass pooling against the per-bag reference above, on ragged
    bags that include size-1 bags."""

    @settings(max_examples=200, deadline=None)
    @ragged_cases
    def test_pool_bags(self, kind, sizes, seed):
        params, bags, _ = ragged_case(kind, sizes, seed)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        pooled, weights = pool_bags(params, np.concatenate(bags), offsets)
        assert pooled.shape == (len(bags), bags[0].shape[1])
        assert (weights is None) == (kind != "attention")
        for i, bag in enumerate(bags):
            ref_pooled, ref_weights = ref_pool_bag(params, bag)
            close(pooled[i], ref_pooled)
            if weights is not None:
                close(weights[offsets[i]:offsets[i + 1]], ref_weights)

    @settings(max_examples=200, deadline=None)
    @ragged_cases
    def test_loss_and_grads(self, kind, sizes, seed):
        params, bags, rng = ragged_case(kind, sizes, seed)
        raw = rng.uniform(0.1, 0.9, len(bags))
        targets = np.stack([raw, 1 - raw], axis=1)
        loss, grads = pool_loss_and_grads(params, bags, targets)
        ref_loss, ref = ref_pool_loss_and_grads(params, bags, targets)
        close(loss, ref_loss)
        assert grads.head.w_hidden is None and grads.head.b_hidden is None
        close(grads.head.w_out, ref.head.w_out)
        close(grads.head.b_out, ref.head.b_out)
        for got, want in ((grads.v, ref.v), (grads.w, ref.w)):
            assert (got is None) == (want is None)
            if want is not None:
                close(got, want)

    @settings(max_examples=200, deadline=None)
    @ragged_cases
    def test_bag_and_instance_scores(self, kind, sizes, seed):
        params, bags, _ = ragged_case(kind, sizes, seed)
        ds = make_dataset([(f"b{i}", i % 2, bag, None)
                           for i, bag in enumerate(bags)])
        close(baseline_scores(params, ds)[1], ref_bag_scores(params, ds))
        close(baseline_instance_scores(params, ds),
              ref_instance_scores(params, ds))


# --- reference: the attention step with out-of-place (N, L) temporaries ----

def oop_attention_pool(params: PoolParams, x, offsets):
    """The attention arm of ``baselines._pool``, one new array per step."""
    starts, sizes = offsets[:-1], np.diff(offsets)
    hidden = np.tanh(x @ params.attention.v.T)
    scores = hidden @ params.attention.w
    e = np.exp(scores - np.repeat(np.maximum.reduceat(scores, starts), sizes))
    weights = e / np.repeat(np.add.reduceat(e, starts), sizes)
    pooled = np.add.reduceat(weights[:, None] * x, starts, axis=0)
    return pooled, weights, hidden


def oop_attention_scores_grad(params: PoolParams, bag_feats, targets):
    """The attention step up to d(loss)/d(scores), one new array per step:
    (loss, head gradients, stacked rows, hidden layer, d_scores)."""
    n = len(bag_feats)
    x = np.concatenate(bag_feats, dtype=np.float64)
    offsets = np.concatenate([[0], np.cumsum([len(f) for f in bag_feats])])
    pooled, weights, hidden = oop_attention_pool(params, x, offsets)
    loss, head_grads = backward(params.head, pooled, targets)
    sizes = np.diff(offsets)
    d_pooled = (forward(params.head, pooled) - targets) / n @ params.head.w_out
    d_weights = np.einsum("ij,ij->i", x, np.repeat(d_pooled, sizes, axis=0))
    d_scores = weights * (d_weights - np.repeat(
        np.add.reduceat(weights * d_weights, offsets[:-1]), sizes))
    return loss, head_grads, x, hidden, d_scores


def oop_attention_loss_and_grads(params: PoolParams, bag_feats, targets):
    """``pool_loss_and_grads`` on the attention arm, one new array per step."""
    loss, head_grads, x, hidden, d_scores = oop_attention_scores_grad(
        params, bag_feats, targets)
    g_v = params.attention.w[:, None] * (
        (1.0 - hidden ** 2).T @ (d_scores[:, None] * x))
    return loss, PoolGradients(head_grads, v=g_v, w=hidden.T @ d_scores)


def outer_product_v_grad(params: PoolParams, bag_feats, targets):
    """dL/dV as ((d_scores w^T) * (1 - h^2))^T x: the sum that
    ``pool_loss_and_grads`` takes, associated otherwise."""
    _, _, x, hidden, d_scores = oop_attention_scores_grad(
        params, bag_feats, targets)
    return (np.outer(d_scores, params.attention.w) * (1 - hidden ** 2)).T @ x


@st.composite
def attention_batches(draw):
    """(params, bags, targets): 1 to 8 ragged bags of 1 to 6 rows (a size-1
    bag's d_scores is exactly zero), L from 1 to 70, and features scaled so
    that tanh is linear-ish, bending or saturated (1 - h^2 exactly 0)."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    dim = draw(st.integers(1, 5))
    hidden = draw(st.integers(1, 70))
    scale = draw(st.sampled_from([0.1, 1.0, 100.0]))
    hard = draw(st.booleans())
    rng = Rng(draw(st.integers(0, 2 ** 32 - 1)), stream=5)
    params = init_pool_params("attention", dim, hidden, rng)
    bags = [scale * rng.standard_normal((k, dim)) for k in sizes]
    q = rng.uniform(0.0, 1.0, len(sizes))
    if hard:
        q = np.round(q)
    return params, bags, np.stack([q, 1.0 - q], axis=1)


class TestAttentionStepMatchesOutOfPlace:
    """The attention step's in-place buffers against the out-of-place
    expressions above: every output bit for bit, and no input written."""

    @settings(max_examples=200, deadline=None)
    @given(attention_batches())
    def test_pool_and_loss_and_grads(self, case):
        params, bags, targets = case
        bags_before = [b.copy() for b in bags]
        targets_before = targets.copy()
        arrays = (params.attention.v, params.attention.w, params.head.w_out,
                  params.head.b_out)
        arrays_before = [a.copy() for a in arrays]
        x = np.concatenate(bags)
        offsets = np.concatenate([[0], np.cumsum([len(b) for b in bags])])
        pooled, weights = pool_bags(params, x, offsets)
        ref_pooled, ref_weights, _ = oop_attention_pool(params, x, offsets)
        assert_same_bits(pooled, ref_pooled)
        assert_same_bits(weights, ref_weights)
        loss, grads = pool_loss_and_grads(params, bags, targets)
        ref_loss, ref = oop_attention_loss_and_grads(params, bags, targets)
        assert_same_bits(loss, ref_loss)
        for got, want in ((grads.head.w_out, ref.head.w_out),
                          (grads.head.b_out, ref.head.b_out),
                          (grads.v, ref.v), (grads.w, ref.w)):
            assert_same_bits(got, want)
        for bag, before in zip(bags, bags_before):
            assert_same_bits(bag, before)
        assert_same_bits(targets, targets_before)
        for arr, before in zip(arrays, arrays_before):
            assert_same_bits(arr, before)

    @settings(max_examples=200, deadline=None)
    @given(attention_batches())
    def test_v_grad_matches_outer_product_form(self, case):
        # the two forms differ only by reassociation, so only rounding moves
        params, bags, targets = case
        _, grads = pool_loss_and_grads(params, bags, targets)
        want = outer_product_v_grad(params, bags, targets)
        np.testing.assert_allclose(grads.v, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_peak_memory_of_one_step(self, traced_peak):
        # 16 bags of 100 rows at d 16 and L 64: the step may hold one (N, L)
        # buffer and four (N, d) ones; a second (N, L) buffer exceeds this
        n_bags, rows, dim, hidden = 16, 100, 16, 64
        rng = Rng(0)
        params = init_pool_params("attention", dim, hidden, rng)
        bags = [rng.standard_normal((rows, dim)) for _ in range(n_bags)]
        targets = np.tile([1.0, 0.0], (n_bags, 1))
        pool_loss_and_grads(params, bags, targets)
        peak = traced_peak(pool_loss_and_grads, params, bags, targets)
        n = n_bags * rows
        assert peak <= (n * hidden + 4 * n * dim) * 8 + 64 * 1024


class TestNormalization:
    def test_endpoints(self):
        assert np.allclose(attention_instance_scores([0.1, 0.9]), [0.0, 1.0])

    def test_affine_middle(self):
        assert np.allclose(attention_instance_scores([0.2, 0.5, 0.8]),
                           [0.0, 0.5, 1.0])

    def test_constant_maps_to_half(self):
        assert np.allclose(attention_instance_scores([0.3, 0.3, 0.3]), 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            attention_instance_scores([])


class TestGradients:
    def test_fd_all_kinds_ensemble(self):
        for seed in range(8):
            rng = Rng(seed, stream=5)
            kind = ("max", "mean", "attention")[seed % 3]
            params = init_pool_params(kind, 4, attention_hidden=5, rng=rng)
            bags = [rng.standard_normal((int(rng.integers(1, 6)), 4))
                    for _ in range(3)]
            raw = rng.uniform(0.1, 0.9, 3)
            targets = np.stack([raw, 1 - raw], axis=1)
            _, grads = pool_loss_and_grads(params, bags, targets)
            analytic = analytic_pool_vector(kind, grads)
            numeric = fd_pool_gradient(params, bags, targets)
            rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
            assert rel.max() < 1e-4, f"{kind} seed {seed}: {rel.max():.2e}"


class TestTraining:
    def _dataset(self, seed=5):
        return generate_normal_bags(GenConfig(
            n_bags=60, bag_size=20, positive_ratio=0.3, feature_dim=8,
            cluster_separation=5.0, seed=seed))

    def test_separable_blobs_high_auc_all_kinds(self):
        ds = self._dataset()
        labels = np.array([b.label for b in ds.bags])
        for kind in ("max", "mean", "attention"):
            params = pool_baseline_train(
                ds, kind, SgdConfig(learning_rate=0.05, batch_size=16,
                                    epochs=60, seed=1))
            auc = roc_auc(baseline_scores(params, ds)[1], labels).auc
            assert auc >= 0.99, f"{kind} bag AUC {auc:.3f}"

    def test_single_class_rejected(self):
        ds = self._dataset()
        only_neg = ds.subset(np.flatnonzero(ds.bag_labels == 0))
        with pytest.raises(ValueError, match="both"):
            pool_baseline_train(only_neg, "max", SgdConfig())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            pool_baseline_train(self._dataset(), "median", SgdConfig())

    def test_deterministic(self):
        ds = self._dataset()
        sgd = SgdConfig(learning_rate=0.05, batch_size=16, epochs=5, seed=3)
        a = pool_baseline_train(ds, "attention", sgd)
        b = pool_baseline_train(ds, "attention", sgd)
        assert np.array_equal(pool_params_to_vector(a),
                              pool_params_to_vector(b))

    def test_instance_scores_cover_corpus(self):
        ds = self._dataset()
        sgd = SgdConfig(epochs=2, seed=0)
        for kind in ("max", "attention"):
            params = pool_baseline_train(ds, kind, sgd)
            scores = baseline_instance_scores(params, ds)
            assert scores.shape == (ds.n_instances,)
            assert np.all((scores >= 0) & (scores <= 1))
