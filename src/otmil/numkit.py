"""Dense float64 numerics shared by every module: seeded RNG and softmax.

Everything here is deliberately small. Matrices are plain ``np.ndarray`` in
row-major float64; the helpers below only add the pieces numpy does not give
us directly: a counter-based RNG with explicit seed/stream identity, a
shift-stabilized softmax, finiteness checks and Gaussian draws.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class Rng:
    """Deterministic counter-based generator (Philox 4x64).

    The (seed, stream) pair fully determines the draw sequence, bit-exactly,
    across runs and platforms. Streams let one experiment seed fan out into
    independent generators (init, shuffling, data) without correlation.
    Instances are single-owner: never share one across threads.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.Generator(
            np.random.Philox(key=[self.seed & _MASK64, self.stream & _MASK64])
        )

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def check_finite(values, what: str = "array") -> np.ndarray:
    """Return ``values`` as float64, raising if any entry is NaN or infinite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {what}")
    return arr


def softmax(values, axis=-1) -> np.ndarray:
    """Shift-stabilized softmax; rows sum to 1 and order is preserved."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0 or arr.shape[axis] == 0:
        raise ValueError("empty reduction")
    shifted = arr - np.max(arr, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sample_gaussian(rng: Rng, mean, std: float) -> np.ndarray:
    """One draw from an isotropic Gaussian centered at ``mean``; std > 0."""
    if std <= 0:
        raise ValueError("std must be positive")
    mean = np.asarray(mean, dtype=np.float64)
    return mean + std * rng.standard_normal(mean.shape)
