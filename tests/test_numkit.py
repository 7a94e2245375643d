"""Deterministic RNG and numeric helpers."""

import numpy as np
import pytest

from otmil.numkit import Rng, check_finite, sample_gaussian, softmax


class TestRng:
    def test_same_seed_same_draws(self):
        a = Rng(42).standard_normal(100)
        b = Rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(42, stream=0).standard_normal(100)
        b = Rng(42, stream=1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_uniform_range(self):
        draws = Rng(0).uniform(-2.0, 5.0, 1000)
        assert draws.min() >= -2.0 and draws.max() < 5.0

    def test_integers_range(self):
        draws = Rng(0).integers(3, 9, 500)
        assert set(np.unique(draws)) <= set(range(3, 9))

    def test_permutation_is_bijection(self):
        perm = Rng(1).permutation(50)
        assert sorted(perm) == list(range(50))


class TestNumerics:
    def test_softmax_frozen_values(self):
        out = softmax(np.array([1.0, 2.0, 3.0]))
        expected = np.array([0.09003057317038046,
                             0.24472847105479767,
                             0.6652409557748219])
        assert np.allclose(out, expected, atol=1e-15)
        assert np.isclose(out.sum(), 1.0)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 5.0, -2.0]])
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_check_finite_rejects(self):
        with pytest.raises(ValueError, match="scores"):
            check_finite(np.array([1.0, np.nan]), "scores")
        with pytest.raises(ValueError, match="scores"):
            check_finite(np.array([np.inf]), "scores")
        check_finite(np.array([0.0, -5.0]), "scores")

    def test_sample_gaussian_moments(self):
        rng = Rng(3)
        mean = np.array([2.0, -1.0])
        draws = np.stack([sample_gaussian(rng, mean, 0.5) for _ in range(4000)])
        assert np.allclose(draws.mean(axis=0), mean, atol=0.05)
        assert np.allclose(draws.std(axis=0), 0.5, atol=0.05)

    def test_sample_gaussian_bad_std(self):
        with pytest.raises(ValueError, match="positive"):
            sample_gaussian(Rng(0), np.zeros(2), 0.0)
