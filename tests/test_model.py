"""Classifier: forward, loss, analytic gradients, SGD, checkpoints."""

import json

import numpy as np
import pytest

from otmil.model import (ClassifierParams, SgdConfig, backward, forward,
                         init_classifier, load_checkpoint, save_checkpoint,
                         sgd_step, soft_cross_entropy)
from otmil.numkit import Rng, softmax


def clone_params(params: ClassifierParams) -> ClassifierParams:
    """Independent deep copy (SGD mutates arrays in place)."""
    cp = lambda a: None if a is None else a.copy()
    return ClassifierParams(params.arch, params.feature_dim, params.hidden,
                            cp(params.w_hidden), cp(params.b_hidden),
                            cp(params.w_out), cp(params.b_out))


def params_to_vector(params: ClassifierParams) -> np.ndarray:
    """Flatten all parameter arrays into one vector (fixed layer order)."""
    parts = [a.ravel() for a in _arrays(params)]
    return np.concatenate(parts)


def vector_to_params(params: ClassifierParams, vec: np.ndarray) -> ClassifierParams:
    """Write a flat vector back into the parameter arrays, in place."""
    vec = np.asarray(vec, dtype=np.float64)
    offset = 0
    for arr in _arrays(params):
        arr.flat[:] = vec[offset:offset + arr.size]
        offset += arr.size
    if offset != vec.size:
        raise ValueError("vector length does not match parameter count")
    return params


def _arrays(params: ClassifierParams) -> list[np.ndarray]:
    if params.arch == "mlp":
        return [params.w_hidden, params.b_hidden, params.w_out, params.b_out]
    return [params.w_out, params.b_out]


def fd_gradient(params, x, targets, eps=1e-6):
    """Central finite differences over the flattened parameter vector."""
    vec = params_to_vector(params)
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        bumped = vec.copy()
        bumped[i] += eps
        vector_to_params(params, bumped)
        up, _ = backward(params, x, targets)
        bumped[i] -= 2 * eps
        vector_to_params(params, bumped)
        down, _ = backward(params, x, targets)
        grad[i] = (up - down) / (2 * eps)
    vector_to_params(params, vec)
    return grad


def analytic_vector(params, grads):
    if params.arch == "mlp":
        parts = [grads.w_hidden, grads.b_hidden, grads.w_out, grads.b_out]
    else:
        parts = [grads.w_out, grads.b_out]
    return np.concatenate([g.ravel() for g in parts])


class TestForward:
    def test_rows_are_distributions(self):
        rng = Rng(0)
        for arch in ("linear", "mlp"):
            params = init_classifier(6, arch=arch, hidden=9, rng=rng)
            probs = forward(params, rng.standard_normal((20, 6)))
            assert probs.shape == (20, 2)
            assert np.all(probs > 0)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_single_vector_input(self):
        params = init_classifier(4, arch="linear", rng=Rng(1))
        out = forward(params, np.zeros(4))
        assert out.shape == (2,)

    def test_dimension_mismatch(self):
        params = init_classifier(4, arch="linear", rng=Rng(1))
        with pytest.raises(ValueError, match="dimension"):
            forward(params, np.zeros((3, 5)))

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    def test_equals_out_of_place_expression(self, arch):
        rng = Rng(6)
        params = init_classifier(6, arch=arch, hidden=9, rng=rng)
        x = rng.standard_normal((25, 6))
        x_before, params_before = x.copy(), clone_params(params)

        def expression(x):
            if arch == "mlp":
                x = np.maximum(x @ params.w_hidden.T + params.b_hidden, 0)
            return softmax(x @ params.w_out.T + params.b_out, axis=-1)

        assert np.array_equal(forward(params, x), expression(x))
        assert np.array_equal(forward(params, x[3]), expression(x[3:4])[0])
        assert np.array_equal(x, x_before)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            assert np.array_equal(getattr(params, name),
                                  getattr(params_before, name))


class TestInit:
    def test_bounds_scale_with_fan_in(self):
        params = init_classifier(100, arch="mlp", hidden=64, rng=Rng(5))
        assert np.abs(params.w_hidden).max() <= 1 / np.sqrt(100)
        assert np.abs(params.w_out).max() <= 1 / np.sqrt(64)

    def test_linear_has_no_hidden_arrays(self):
        params = init_classifier(5, arch="linear", rng=Rng(0))
        assert params.w_hidden is None and params.b_hidden is None
        assert params.w_out.shape == (2, 5)

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            init_classifier(5, arch="conv", rng=Rng(0))


class TestSoftCrossEntropy:
    def test_hand_value(self):
        pred = np.array([0.8, 0.2])
        target = np.array([1.0, 0.0])
        assert np.isclose(soft_cross_entropy(pred, target), -np.log(0.8))

    def test_soft_target_hand_value(self):
        pred = np.array([0.5, 0.5])
        target = np.array([0.3, 0.7])
        assert np.isclose(soft_cross_entropy(pred, target), np.log(2))

    def test_clamp_keeps_finite(self):
        pred = np.array([1.0, 0.0])
        target = np.array([0.0, 1.0])
        val = soft_cross_entropy(pred, target)
        assert np.isfinite(val)


class TestGradients:
    def test_matches_finite_differences_both_archs(self):
        # 20 seeded cases split over the two architectures
        for seed in range(20):
            rng = Rng(seed, stream=3)
            arch = "mlp" if seed % 2 else "linear"
            params = init_classifier(5, arch=arch, hidden=6, rng=rng)
            x = rng.standard_normal((7, 5))
            raw = rng.uniform(0.05, 0.95, 7)
            targets = np.stack([raw, 1 - raw], axis=1)
            _, grads = backward(params, x, targets)
            analytic = analytic_vector(params, grads)
            numeric = fd_gradient(params, x, targets)
            rel = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
            assert rel.max() < 1e-4, f"seed {seed} rel err {rel.max():.2e}"

    def test_loss_value_returned(self):
        rng = Rng(9)
        params = init_classifier(3, arch="linear", rng=rng)
        x = rng.standard_normal((4, 3))
        targets = np.tile([0.5, 0.5], (4, 1))
        loss, _ = backward(params, x, targets)
        probs = forward(params, x)
        expected = np.mean([soft_cross_entropy(p, t)
                            for p, t in zip(probs, targets)])
        assert np.isclose(loss, expected)

    def test_bad_target_shape(self):
        params = init_classifier(3, arch="linear", rng=Rng(0))
        with pytest.raises(ValueError, match="targets"):
            backward(params, np.zeros((2, 3)), np.zeros((2, 3)))


class TestSgd:
    def test_one_epoch_decreases_separable_loss(self):
        rng = Rng(4)
        x = np.concatenate([rng.standard_normal((30, 2)) + [3, 0],
                            rng.standard_normal((30, 2)) - [3, 0]])
        targets = np.zeros((60, 2))
        targets[:30, 0] = 1.0
        targets[30:, 1] = 1.0
        params = init_classifier(2, arch="linear", rng=rng)
        before, grads = backward(params, x, targets)
        sgd_step(params, grads, 0.5)
        after, _ = backward(params, x, targets)
        assert after < before

    def test_updates_in_place(self):
        params = init_classifier(3, arch="linear", rng=Rng(0))
        w_id = id(params.w_out)
        _, grads = backward(params, np.ones((2, 3)),
                            np.tile([1.0, 0.0], (2, 1)))
        sgd_step(params, grads, 0.1)
        assert id(params.w_out) == w_id


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        for arch in ("linear", "mlp"):
            params = init_classifier(7, arch=arch, hidden=5, rng=Rng(2))
            path = tmp_path / f"{arch}.json"
            save_checkpoint(params, path)
            loaded = load_checkpoint(path)
            assert loaded.arch == arch
            assert np.array_equal(params_to_vector(loaded),
                                  params_to_vector(params))

    @pytest.mark.parametrize("arch,field,value", [
        ("mlp", "feature_dim", 5), ("mlp", "hidden", 9),
        ("linear", "feature_dim", 5), ("linear", "arch", "mlp"),
        ("mlp", "arch", "linear")])
    def test_header_layer_mismatch_rejected(self, tmp_path, arch, field,
                                            value):
        params = init_classifier(4, arch=arch, hidden=8, rng=Rng(2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        blob = json.loads(path.read_text())
        blob[field] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="layer .*: shape"):
            load_checkpoint(path)

    def test_data_length_mismatch_rejected(self, tmp_path):
        params = init_classifier(4, arch="linear", rng=Rng(2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        blob = json.loads(path.read_text())
        blob["layers"]["b_out"]["data"].append(0.0)
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="b_out"):
            load_checkpoint(path)

    def test_clone_is_independent(self):
        params = init_classifier(3, arch="linear", rng=Rng(0))
        twin = clone_params(params)
        twin.w_out += 1.0
        assert not np.array_equal(twin.w_out, params.w_out)
