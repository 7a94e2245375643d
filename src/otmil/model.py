"""Instance classifier: linear or one-hidden-layer ReLU net with hand-derived
gradients, plain SGD, and a diffable JSON checkpoint format."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numkit import Rng, softmax

PROB_CLAMP = 1e-12  # floor inside log() of the cross-entropy


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
                raise ValueError("non-finite classifier parameters")


@dataclass
class Gradients:
    """Same shapes as the parameter arrays they differentiate."""

    w_hidden: np.ndarray | None
    b_hidden: np.ndarray | None
    w_out: np.ndarray
    b_out: np.ndarray


@dataclass
class SgdConfig:
    """Plain stochastic gradient descent settings."""

    learning_rate: float = 0.001
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def init_classifier(feature_dim: int, arch: str = "linear", hidden: int = 128,
                    rng: Rng | None = None) -> ClassifierParams:
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


def forward(params: ClassifierParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities for one feature vector (2,) or a batch (n, 2).

    The hidden layer is built in one (n, hidden) buffer: the bias and the
    ReLU are applied in place, the same arithmetic as
    ``np.maximum(x @ W.T + b, 0)``, so a forward pass over a whole dataset
    holds one hidden-sized array. Neither ``features`` nor the parameters
    are modified.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.shape[-1] != params.feature_dim:
        raise ValueError("feature dimension mismatch")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if params.arch == "mlp":
        h = x @ params.w_hidden.T
        h += params.b_hidden
        x = np.maximum(h, 0.0, out=h)
    logits = x @ params.w_out.T + params.b_out
    probs = softmax(logits, axis=-1)
    return probs[0] if single else probs


def soft_cross_entropy(pred, target) -> float:
    """-sum(target * log pred) with the prediction floored away from zero."""
    p = np.clip(np.asarray(pred, dtype=np.float64), PROB_CLAMP, None)
    return float(-np.sum(np.asarray(target) * np.log(p)))


def backward(params: ClassifierParams, features: np.ndarray,
             targets: np.ndarray) -> tuple[float, Gradients]:
    """Mean soft cross-entropy over the batch and its exact gradients."""
    x = np.asarray(features, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[-1] != params.feature_dim:
        raise ValueError("feature dimension mismatch")
    if t.shape != (x.shape[0], 2):
        raise ValueError("targets must be (batch, 2)")
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

    # d(mean CE)/dlogits for softmax outputs
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


def sgd_step(params: ClassifierParams, grads: Gradients, lr: float) -> ClassifierParams:
    """In-place update: every array moves by -lr times its gradient."""
    pairs = [(params.w_out, grads.w_out), (params.b_out, grads.b_out)]
    if params.arch == "mlp":
        pairs += [(params.w_hidden, grads.w_hidden),
                  (params.b_hidden, grads.b_hidden)]
    for arr, g in pairs:
        if g is None or arr.shape != g.shape:
            raise ValueError("gradient shape mismatch")
        arr -= lr * g
    return params


def save_checkpoint(params: ClassifierParams, path) -> None:
    """JSON checkpoint: arch descriptor plus full-precision flat arrays."""
    blob = {
        "arch": params.arch,
        "feature_dim": params.feature_dim,
        "hidden": params.hidden,
        "layers": {},
    }
    names = ["w_hidden", "b_hidden", "w_out", "b_out"]
    for name in names:
        arr = getattr(params, name)
        if arr is None:
            continue
        blob["layers"][name] = {"shape": list(arr.shape),
                                "data": [float(v) for v in arr.ravel()]}
    with open(path, "w") as fh:
        json.dump(blob, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> ClassifierParams:
    """Inverse of save_checkpoint; ``ClassifierParams`` validates every layer's
    shape against the arch, feature_dim and hidden in the header."""
    with open(path) as fh:
        blob = json.load(fh)
    layers = {}
    for name, entry in blob["layers"].items():
        arr = np.array(entry["data"], dtype=np.float64)
        if arr.size != int(np.prod(entry["shape"])):
            raise ValueError(f"layer {name}: {arr.size} values do not fill "
                             f"shape {entry['shape']}")
        layers[name] = arr.reshape(entry["shape"])
    return ClassifierParams(
        arch=blob["arch"],
        feature_dim=int(blob["feature_dim"]),
        hidden=int(blob["hidden"]),
        w_hidden=layers.get("w_hidden"),
        b_hidden=layers.get("b_hidden"),
        w_out=layers["w_out"],
        b_out=layers["b_out"],
    )
