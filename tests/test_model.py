"""Classifier: forward, loss, analytic gradients, SGD, checkpoints."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmil.model import (_BLOCK_ROWS, PROB_CLAMP, ClassifierParams,
                         Gradients, SgdConfig, _softmax2, backward, forward,
                         init_classifier, load_checkpoint, save_checkpoint,
                         sgd_step)
from otmil.numkit import Rng

from test_numkit import softmax


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

    def test_dimension_mismatch(self):
        params = init_classifier(4, arch="linear", rng=Rng(1))
        with pytest.raises(ValueError, match="dimension"):
            forward(params, np.zeros((3, 5)))

    @pytest.mark.parametrize("arch", ["linear", "mlp"])
    @pytest.mark.parametrize("shape", [(3, 5, 4), ()])
    def test_rejects_input_that_is_not_one_or_two_dimensional(self, arch,
                                                             shape):
        # a (3, 5, 4) batch used to come back with rows summing to 1.08,
        # 0.92, 2.07, ...
        params = init_classifier(4, arch=arch, hidden=3, rng=Rng(1))
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            forward(params, np.zeros(shape))

    def test_rejects_a_single_vector(self):
        params = init_classifier(4, arch="linear", rng=Rng(1))
        with pytest.raises(ValueError, match=re.escape("shape (4,)")):
            forward(params, np.zeros(4))

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
        assert np.array_equal(x, x_before)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            assert np.array_equal(getattr(params, name),
                                  getattr(params_before, name))


def soft_cross_entropy(pred, target) -> float:
    """Reference loss of one row: -sum(target * log pred), with the
    prediction floored at ``PROB_CLAMP``."""
    p = np.clip(np.asarray(pred, dtype=np.float64), PROB_CLAMP, None)
    return float(-np.sum(np.asarray(target) * np.log(p)))


def ref_forward(params, features):
    """Reference copy of ``forward`` with out-of-place intermediates."""
    x = np.asarray(features, dtype=np.float64)
    if params.arch == "mlp":
        x = np.maximum(x @ params.w_hidden.T + params.b_hidden, 0.0)
    return softmax(x @ params.w_out.T + params.b_out, axis=-1)


def ref_backward(params, features, targets):
    """Reference copy of ``backward`` with out-of-place intermediates."""
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    if params.arch == "mlp":
        pre = x @ params.w_hidden.T + params.b_hidden
        h = np.maximum(pre, 0.0)
    else:
        h = x
    logits = h @ params.w_out.T + params.b_out
    probs = softmax(logits, axis=-1)
    loss = float(-np.mean(np.sum(t * np.log(np.clip(probs, PROB_CLAMP, None)),
                                 axis=1)))
    dlogits = (probs - t) / n
    g_w_out = dlogits.T @ h
    g_b_out = dlogits.sum(axis=0)
    if params.arch == "mlp":
        dh = dlogits @ params.w_out
        dpre = dh * (pre > 0.0)
        g_w_hidden = dpre.T @ x
        g_b_hidden = dpre.sum(axis=0)
    else:
        g_w_hidden = g_b_hidden = None
    return loss, Gradients(g_w_hidden, g_b_hidden, g_w_out, g_b_out)


def assert_same_bits(got, want):
    """Equal values, shapes and dtypes, down to the sign of every zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@st.composite
def training_batches(draw):
    """(params, features, targets) for both archs and batches of 1 to 70
    rows; features are scaled so that the largest |logit| is about 1, 30
    or 700 (saturated), targets are soft rows q, 1 - q or one-hot."""
    arch = draw(st.sampled_from(["linear", "mlp"]))
    n = draw(st.integers(1, 70))
    d = draw(st.integers(1, 8))
    reach = draw(st.sampled_from([1.0, 30.0, 700.0]))
    hard = draw(st.booleans())
    rng = Rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = init_classifier(d, arch=arch, hidden=draw(st.integers(1, 12)),
                             rng=rng)
    x = rng.standard_normal((n, d))
    h = np.maximum(x @ params.w_hidden.T, 0.0) if arch == "mlp" else x
    x *= reach / max(np.abs(h @ params.w_out.T).max(), 1e-12)
    q = rng.uniform(0.0, 1.0, n)
    if hard:
        q = np.round(q)
    return params, x, np.stack([q, 1.0 - q], axis=1)


class TestMatchesOutOfPlaceReference:
    """The in-place ``forward``/``backward`` against the reference copies
    above: every output bit for bit, and no input written."""

    @settings(max_examples=300, deadline=None)
    @given(training_batches())
    def test_backward_and_forward(self, case):
        params, x, t = case
        x_before, t_before = x.copy(), t.copy()
        params_before = clone_params(params)
        loss, grads = backward(params, x, t)
        ref_loss, ref = ref_backward(params, x, t)
        assert_same_bits(loss, ref_loss)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            got, want = getattr(grads, name), getattr(ref, name)
            assert (got is None) == (want is None)
            if want is not None:
                assert_same_bits(got, want)
        assert_same_bits(forward(params, x), ref_forward(params, x))
        assert_same_bits(x, x_before)
        assert_same_bits(t, t_before)
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            if getattr(params, name) is not None:
                assert_same_bits(getattr(params, name),
                                 getattr(params_before, name))

    # two logits more than the largest float apart shift to -inf, whose exp
    # is an exact 0; that overflow is the path under test, in both copies
    @pytest.mark.filterwarnings(
        "ignore:overflow encountered in subtract:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-1e308, 1e308)] * 2),
                    min_size=1, max_size=20))
    def test_two_column_softmax(self, rows):
        logits = np.array(rows, dtype=np.float64)
        want = softmax(logits, axis=-1)
        got = _softmax2(logits)
        assert got is logits
        assert_same_bits(got, want)


C = _BLOCK_ROWS
BLOCK_CASES = [(n, hidden, d)
               for n in (2 * C - 1, 2 * C, 2 * C + 1, 3 * C - 1, 3 * C,
                         10_000, 10_001)
               for hidden in (1, 16, 128, 300) for d in (1, 16, 166)]


def block_mismatches(cases) -> list[list[int]]:
    """The (n, hidden, d) cases in which the MLP's ``forward`` differs from
    ``ref_forward`` in any bit, or writes to its features or parameters."""
    bad = []
    for n, hidden, d in cases:
        rng = Rng(n + hidden + d)
        params = init_classifier(d, arch="mlp", hidden=hidden, rng=rng)
        x = rng.standard_normal((n, d))
        x_before, params_before = x.copy(), clone_params(params)
        same = forward(params, x).tobytes() == ref_forward(params, x).tobytes()
        untouched = x.tobytes() == x_before.tobytes() and all(
            a.tobytes() == b.tobytes() for a, b in
            zip(_arrays(params), _arrays(params_before)))
        if not (same and untouched):
            bad.append([n, hidden, d])
    return bad


class TestBlockedForward:
    """``forward`` runs the MLP over blocks of C to 2C - 1 rows; every
    block boundary must give the bits of one whole-array pass."""

    def test_default_width_matches_whole_array_pass(self):
        assert block_mismatches(
            [case for case in BLOCK_CASES if case[1] == 128]) == []

    def test_every_width_matches_whole_array_pass_on_one_blas_thread(self):
        # With several threads, OpenBLAS's whole-array product itself
        # changes bits with its thread partition at some shapes: at n 3,073,
        # hidden 1, d 166 and at n 10,000, hidden 300, the unblocked forward
        # differs between one and two threads. So the full grid runs in a
        # child interpreter with one BLAS thread, where only the blocking
        # can move a bit.
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                       [str(here), str(here.parent / "src")]))
        script = ("import json, sys; from test_model import BLOCK_CASES, "
                  "block_mismatches; print(json.dumps(block_mismatches("
                  "BLOCK_CASES)))")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []

    def test_peak_memory_of_one_forward(self, traced_peak):
        # 10,000 rows at d 16 and hidden 128: a pass may hold one block's
        # hidden layer (under 2C rows) and the (N, 2) result; one
        # (N, hidden) buffer exceeds this
        n, dim, hidden = 10_000, 16, 128
        rng = Rng(0)
        params = init_classifier(dim, arch="mlp", hidden=hidden, rng=rng)
        x = rng.standard_normal((n, dim))
        forward(params, x)
        peak = traced_peak(forward, params, x)
        assert peak <= (2 * C * hidden + 2 * n) * 8 + 64 * 1024


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


class TestSgdConfig:
    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
    def test_learning_rate_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="learning_rate"):
            SgdConfig(learning_rate=bad)


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

    @pytest.mark.parametrize("arch,dim,hidden", [
        ("linear", 5, 128), ("mlp", 5, 3), ("mlp", 166, 128)])
    def test_matches_out_of_place_update(self, arch, dim, hidden):
        # scaling the gradient in place gives the bits of arr - lr * g
        rng = Rng(7)
        params = init_classifier(dim, arch=arch, hidden=hidden, rng=rng)
        x = rng.standard_normal((64, dim))
        q = rng.uniform(0.0, 1.0, 64)
        _, grads = backward(params, x, np.stack([q, 1.0 - q], axis=1))
        lr = 0.37
        names = ["w_out", "b_out"]
        if arch == "mlp":
            names += ["w_hidden", "b_hidden"]
        want = {name: getattr(params, name) - lr * getattr(grads, name)
                for name in names}
        sgd_step(params, grads, lr)
        for name in names:
            assert_same_bits(getattr(params, name), want[name])


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

    @staticmethod
    def _saved_blob(tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_classifier(4, arch="mlp", hidden=3, rng=Rng(2)),
                        path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("field,message", [
        ("arch", "missing field arch$"), ("layers", "missing field layers$"),
        ("layers.w_out.shape", "missing field layers.w_out.shape$"),
        ("layers.w_out", "layer w_out: shape None")])
    def test_missing_field_named(self, tmp_path, field, message):
        path, blob = self._saved_blob(tmp_path)
        *parents, key = field.split(".")
        entry = blob
        for name in parents:
            entry = entry[name]
        del entry[key]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_fractional_hidden_rejected(self, tmp_path):
        path, blob = self._saved_blob(tmp_path)
        blob["hidden"] = 4.7
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="field hidden .* not 4.7"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value,message", [
        (True, "data must hold JSON numbers, not true"),
        (10 ** 400, "data: int too large")])
    def test_bad_layer_value_named(self, tmp_path, value, message):
        path, blob = self._saved_blob(tmp_path)
        blob["layers"]["b_hidden"]["data"][1] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=f"layers.b_hidden.{message}"):
            load_checkpoint(path)

    def test_unknown_layer_rejected(self, tmp_path):
        path, blob = self._saved_blob(tmp_path)
        blob["layers"]["w_extra"] = blob["layers"]["b_out"]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="unknown layer w_extra"):
            load_checkpoint(path)

    def test_clone_is_independent(self):
        params = init_classifier(3, arch="linear", rng=Rng(0))
        twin = clone_params(params)
        twin.w_out += 1.0
        assert not np.array_equal(twin.w_out, params.w_out)
