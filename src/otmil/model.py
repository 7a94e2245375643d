"""Instance classifier: linear or one-hidden-layer ReLU net with hand-derived
gradients, plain SGD, and a diffable JSON checkpoint format."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numkit import Rng, utf8_lines

PROB_CLAMP = 1e-12  # floor inside log() of the cross-entropy
# Rows per ``forward`` block of the MLP. Blocks must give the bits of one
# whole-array pass (tests/test_model.py): OpenBLAS changes the bits of the
# (n, hidden) @ (hidden, 2) product with n below about 600 rows, and at some
# hidden widths above 192 those of x @ W.T in the rows of a block's last
# 12-row tile. So no block is shorter than this, and all but the last are a
# whole number of tiles.
_BLOCK_ROWS = 1536


@dataclass
class ClassifierParams:
    """Classifier weights; the output layer is always 2-way (positive first).

    arch "linear": logits = x @ w_out.T + b_out.
    arch "mlp": one ReLU hidden layer of width ``hidden`` feeds the output.
    Hidden arrays are None for the linear arch.
    """

    arch: str
    feature_dim: int
    hidden: int
    w_hidden: np.ndarray | None
    b_hidden: np.ndarray | None
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        if self.arch == "linear":
            shapes = {"w_hidden": None, "b_hidden": None,
                      "w_out": (2, self.feature_dim), "b_out": (2,)}
        elif self.arch == "mlp":
            shapes = {"w_hidden": (self.hidden, self.feature_dim),
                      "b_hidden": (self.hidden,),
                      "w_out": (2, self.hidden), "b_out": (2,)}
        else:
            raise ValueError(f"unknown arch: {self.arch!r}")
        for name, expected in shapes.items():
            arr = getattr(self, name)
            shape = None if arr is None else arr.shape
            if shape != expected:
                raise ValueError(
                    f"layer {name}: shape {shape}, expected {expected} for "
                    f"arch {self.arch!r}, feature_dim {self.feature_dim}, "
                    f"hidden {self.hidden}")
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError(f"layer {name}: non-finite classifier "
                                 "parameters")


@dataclass
class Gradients:
    """Same shapes as the parameter arrays they differentiate, plus
    d(loss)/d(logits), the (n, 2) gradient that flows into the output
    layer; ``sgd_step`` ignores it, and a pooling baseline carries it on
    below its head."""

    w_hidden: np.ndarray | None
    b_hidden: np.ndarray | None
    w_out: np.ndarray
    b_out: np.ndarray
    logits: np.ndarray | None = None


@dataclass
class SgdConfig:
    """Plain stochastic gradient descent settings."""

    learning_rate: float = 0.001
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def init_classifier(feature_dim: int, arch: str = "linear", hidden: int = 128,
                    rng: np.random.Generator | None = None
                    ) -> ClassifierParams:
    """Fresh parameters, each layer uniform in +-1/sqrt(fan_in)."""
    rng = rng or Rng(0)

    def layer(n_out, n_in):
        bound = 1.0 / np.sqrt(n_in)
        w = rng.uniform(-bound, bound, (n_out, n_in))
        b = rng.uniform(-bound, bound, (n_out,))
        return w, b

    if arch == "linear":
        w_out, b_out = layer(2, feature_dim)
        return ClassifierParams("linear", feature_dim, 0, None, None, w_out, b_out)
    if arch == "mlp":
        w_hidden, b_hidden = layer(hidden, feature_dim)
        w_out, b_out = layer(2, hidden)
        return ClassifierParams("mlp", feature_dim, hidden,
                                w_hidden, b_hidden, w_out, b_out)
    raise ValueError(f"unknown arch: {arch!r}")


def _softmax2(logits: np.ndarray) -> np.ndarray:
    """Row softmax of an (n, 2) logits buffer, written into that buffer.

    The arithmetic of a shift-stabilized softmax over axis 1 (subtract the
    row max, exponentiate, divide by the row sum; the reference copy is
    ``softmax`` in tests/test_numkit.py), with the two-element reductions
    spelled out as elementwise calls on the columns, so the result is the
    same to the bit at a fraction of the call overhead.
    """
    l0, l1 = logits[:, 0], logits[:, 1]
    m = np.maximum(l0, l1)
    l0 -= m
    l1 -= m
    np.exp(logits, out=logits)
    total = l0 + l1
    l0 /= total
    l1 /= total
    return logits


def forward(params: ClassifierParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities (n, 2) for an (n, d) batch of feature rows.

    The MLP runs over the rows in blocks of ``_BLOCK_ROWS`` to
    ``2 * _BLOCK_ROWS - 1`` (the last block takes the remainder), each
    written into one (n, 2) result, so scoring a whole dataset holds one
    block's hidden layer rather than all n rows of it. Per block, the
    hidden layer takes its bias and ReLU in place, the same arithmetic as
    ``np.maximum(x @ W.T + b, 0)``, and the logits take the output bias
    and become the probabilities in place; the two-column softmax
    (``_softmax2``) gives a shift-stabilized softmax's bits. Neither
    ``features`` nor the parameters are modified.
    """
    x = _batch(params, features)
    n = x.shape[0]
    if params.arch == "linear" or n < 2 * _BLOCK_ROWS:
        return _block_probs(params, x)[1]
    probs = np.empty((n, 2))
    starts = range(0, n - _BLOCK_ROWS + 1, _BLOCK_ROWS)
    for start, stop in zip(starts, [*starts[1:], n]):
        probs[start:stop] = _block_probs(params, x[start:stop])[1]
    return probs


def _batch(params: ClassifierParams, features) -> np.ndarray:
    """``features`` as a float64 (n, d) batch of the parameters' width."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be an (n, d) batch, got shape "
                         f"{x.shape}")
    if x.shape[1] != params.feature_dim:
        raise ValueError("feature dimension mismatch")
    return x


def _block_probs(params: ClassifierParams, x: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``forward`` over the rows of one (n, d) block, in fresh buffers:
    (the output layer's input, the (n, 2) probabilities). The input is the
    ReLU-activated hidden layer of the MLP, ``x`` itself for the linear
    arch."""
    if params.arch == "mlp":
        h = x @ params.w_hidden.T
        h += params.b_hidden
        x = np.maximum(h, 0.0, out=h)
    logits = x @ params.w_out.T
    logits += params.b_out
    return x, _softmax2(logits)


def backward(params: ClassifierParams, features: np.ndarray,
             targets: np.ndarray) -> tuple[float, Gradients]:
    """Mean soft cross-entropy over the batch and its exact gradients.

    The hidden layer and the probabilities come from ``forward``'s block
    pass, as one block, on input ``forward`` accepts. Each intermediate
    lives in one buffer written in place: the probabilities become
    d(loss)/d(logits), returned as ``Gradients.logits``, and the hidden
    gradient is masked by the ReLU's active set, the activated units
    (h > 0 iff its input > 0). Every value has the bits of the
    out-of-place expressions (``np.maximum(x @ W.T + b, 0)``, a
    shift-stabilized softmax, ``-mean(sum(t * log p, axis=1))``,
    ``(p - t) / n``, ``dh * (pre > 0)``). Neither ``features``,
    ``targets`` nor the parameters are modified.
    """
    x = _batch(params, features)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != (x.shape[0], 2):
        raise ValueError("targets must be (batch, 2)")
    n = x.shape[0]

    h, probs = _block_probs(params, x)
    # np.clip(probs, PROB_CLAMP, None) is this np.maximum call
    ll = np.maximum(probs, PROB_CLAMP)
    np.log(ll, out=ll)
    ll *= t
    loss = float(-((ll[:, 0] + ll[:, 1]).sum() / n))

    # d(mean CE)/dlogits for softmax outputs
    dlogits = np.subtract(probs, t, out=probs)
    dlogits /= n
    g_w_out = dlogits.T @ h
    g_b_out = dlogits.sum(axis=0)
    if params.arch == "mlp":
        dpre = dlogits @ params.w_out
        np.multiply(dpre, h > 0.0, out=dpre)
        g_w_hidden = dpre.T @ x
        g_b_hidden = dpre.sum(axis=0)
    else:
        g_w_hidden = g_b_hidden = None
    return loss, Gradients(g_w_hidden, g_b_hidden, g_w_out, g_b_out, dlogits)


def sgd_step(params: ClassifierParams, grads: Gradients, lr: float) -> ClassifierParams:
    """In-place update: every array moves by -lr times its gradient.

    The gradients are consumed: each is scaled by lr in place before it is
    subtracted, which gives the bits of ``arr -= lr * g`` without
    allocating ``lr * g``.
    """
    pairs = [(params.w_out, grads.w_out), (params.b_out, grads.b_out)]
    if params.arch == "mlp":
        pairs += [(params.w_hidden, grads.w_hidden),
                  (params.b_hidden, grads.b_hidden)]
    for arr, g in pairs:
        if g is None or arr.shape != g.shape:
            raise ValueError("gradient shape mismatch")
        g *= lr
        arr -= g
    return params


_LAYERS = ("w_hidden", "b_hidden", "w_out", "b_out")  # checkpoint layer names


def save_checkpoint(params: ClassifierParams, path) -> None:
    """JSON checkpoint: arch descriptor plus full-precision flat arrays."""
    blob = {
        "arch": params.arch,
        "feature_dim": params.feature_dim,
        "hidden": params.hidden,
        "layers": {},
    }
    for name in _LAYERS:
        arr = getattr(params, name)
        if arr is None:
            continue
        blob["layers"][name] = {"shape": list(arr.shape),
                                "data": [float(v) for v in arr.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1)
        fh.write("\n")


def _json_field(blob, key: str, kind: type, where: str = ""):
    """``blob[key]`` if it is there and of JSON type ``kind`` (a bool is not
    an int); else a ValueError that names the field."""
    if not isinstance(blob, dict) or key not in blob:
        raise ValueError(f"checkpoint: missing field {where}{key}")
    value = blob[key]
    if type(value) is not kind:
        raise ValueError(f"checkpoint: field {where}{key} must be a JSON "
                         f"{kind.__name__}, not {json.dumps(value)}")
    return value


def load_checkpoint(path) -> ClassifierParams:
    """Inverse of save_checkpoint. A byte that is not UTF-8, text that is
    not JSON, a missing or mistyped field, a layer value that is not a
    JSON number, or an unknown layer is a ValueError naming it (the byte
    by its line and column, as ``numkit.utf8_lines`` reads it);
    ``ClassifierParams`` then validates every layer's shape, a missing
    layer's included, against the arch, feature_dim and hidden in the
    header."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        try:
            text = "".join(line for _, line in utf8_lines(fh))
        except ValueError as exc:
            raise ValueError(f"checkpoint: {exc}") from None
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint: malformed JSON ({exc})")
    header = {key: _json_field(blob, key, kind) for key, kind in
              (("arch", str), ("feature_dim", int), ("hidden", int))}
    layers = {}
    for name, entry in _json_field(blob, "layers", dict).items():
        if name not in _LAYERS:
            raise ValueError(f"checkpoint: unknown layer {name}")
        where = f"layers.{name}."
        shape = _json_field(entry, "shape", list, where)
        data = _json_field(entry, "data", list, where)
        if not all(type(v) is int and v >= 0 for v in shape):
            raise ValueError(f"checkpoint: field {where}shape must hold "
                             f"sizes, not {json.dumps(shape)}")
        bad = [v for v in data if type(v) not in (float, int)]
        if bad:
            raise ValueError(f"checkpoint: field {where}data must hold JSON "
                             f"numbers, not {json.dumps(bad[0])}")
        try:
            arr = np.array(data, dtype=np.float64)
        except OverflowError as exc:  # an integer past float64's range
            raise ValueError(f"checkpoint: field {where}data: {exc}")
        if arr.size != int(np.prod(shape)):
            raise ValueError(f"layer {name}: {arr.size} values do not fill "
                             f"shape {shape}")
        layers[name] = arr.reshape(shape)
    return ClassifierParams(**header,
                            **{name: layers.get(name) for name in _LAYERS})
