"""Dense float64 numerics shared by every module: seeded RNG and checks.

Everything here is deliberately small. Matrices are plain ``np.ndarray`` in
row-major float64; the helpers below only add the pieces numpy does not give
us directly: a counter-based RNG with explicit seed/stream identity,
finiteness checks and Gaussian draws.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def Rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic counter-based generator (Philox 4x64).

    The (seed, stream) pair fully determines the draw sequence, bit-exactly,
    across runs and platforms. Streams let one experiment seed fan out into
    independent generators (init, shuffling, data) without correlation.
    A generator is single-owner: never share one across threads.
    """
    return np.random.Generator(
        np.random.Philox(key=[int(seed) & _MASK64, int(stream) & _MASK64]))


def check_finite(values, what: str = "array") -> np.ndarray:
    """Return ``values`` as float64, raising if any entry is NaN or infinite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {what}")
    return arr


def sample_gaussian(rng: np.random.Generator, mean, std: float) -> np.ndarray:
    """One draw from an isotropic Gaussian centered at ``mean``; std > 0."""
    if std <= 0:
        raise ValueError("std must be positive")
    mean = np.asarray(mean, dtype=np.float64)
    return mean + std * rng.standard_normal(mean.shape)
