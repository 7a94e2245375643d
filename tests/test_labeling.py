"""Transport assignment: marginals, objective, constraints, schedules."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmil.labeling import (MuSchedule, PredictionMatrix, PseudoLabelMatrix,
                            SinkhornConfig, adaptive_mu, apply_local_constraint,
                            naive_assign, sinkhorn_assign,
                            transport_objective)


def regularized_objective(
    q: np.ndarray, p_clamped: np.ndarray, mu: float, sharpness: float
) -> float:
    """Transport cost plus the scaled divergence from the product reference.

    The reference spreads each row's unit mass as (mu, 1 - mu), so its total
    mass matches any iterate whose rows sum to one. The divergence is the
    generalized form (with linear terms), which stays meaningful on iterates
    that do not yet satisfy the column constraint.
    """
    n = q.shape[0]
    ref = np.tile([mu, 1.0 - mu], (n, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q > 0, q / ref, 1.0)
        kl = np.sum(np.where(q > 0, q * np.log(ratio), 0.0)) - q.sum() + ref.sum()
    return transport_objective(q, p_clamped) + kl / sharpness


def random_pred(rng, n, n_bags=1):
    pos = rng.uniform(1e-4, 1 - 1e-4, n)
    if n_bags == 1:
        bag_index = np.zeros(n, dtype=int)
    else:
        bag_index = np.sort(rng.integers(0, n_bags, n))
    return PredictionMatrix(np.stack([pos, 1 - pos], axis=1), bag_index)


def saturated_pred(rng, n):
    pos = rng.choice([0.0, 1e-9, 1 - 1e-9, 1.0], n)
    return PredictionMatrix(np.stack([pos, 1 - pos], axis=1),
                            np.zeros(n, dtype=int))


# (prediction maker, sharpness) inputs beyond the moderate default ensemble:
# saturated predictions and a sharp assignment, each under default max_iters
HARD_INPUTS = [(saturated_pred, 5.0), (random_pred, 100.0),
               (saturated_pred, 100.0)]


def lp_optimum(pos_probs, mu, floor=1e-8):
    """Exact transport optimum by vertex enumeration.

    With two columns and row sums 1, every vertex of the polytope has at
    most one fractional row; enumerate positive-support subsets and the
    fractional leftover.
    """
    p = np.clip(np.asarray(pos_probs, float), floor, 1 - floor)
    n = len(p)
    target = mu * n
    cost_pos, cost_neg = -np.log(p), -np.log(1 - p)
    best = np.inf
    idx = range(n)
    for k in range(n + 1):
        for ones in combinations(idx, k):
            rem = target - k
            ones = set(ones)
            others = [i for i in idx if i not in ones]
            if abs(rem) < 1e-12:
                best = min(best, sum(cost_pos[i] for i in ones)
                           + sum(cost_neg[i] for i in others))
            elif 0 < rem < 1:
                base = sum(cost_pos[i] for i in ones)
                for frac in others:
                    val = base + rem * cost_pos[frac] + (1 - rem) * cost_neg[frac]
                    val += sum(cost_neg[i] for i in others if i != frac)
                    best = min(best, val)
    return best


class TestSinkhornAssign:
    def test_marginals_ensemble(self):
        rng = np.random.default_rng(11)
        cfg = SinkhornConfig()
        for _ in range(40):
            n = int(rng.integers(4, 400))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            res = sinkhorn_assign(random_pred(rng, n), mu, cfg)
            q = res.labels.values
            assert res.converged
            assert np.all(q >= 0)
            assert np.abs(q.sum(axis=1) - 1).max() <= 1e-9
            assert abs(q[:, 0].sum() - mu * n) <= 1e-4 * n

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(5)
        cfg = SinkhornConfig()
        for _ in range(25):
            n = int(rng.integers(4, 300))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            res = sinkhorn_assign(random_pred(rng, n), mu, cfg,
                                  track_objective=True)
            trace = np.asarray(res.objective_trace)
            assert len(trace) >= 1
            assert np.all(np.diff(trace) <= 1e-9)

    @pytest.mark.parametrize("make_pred,sharpness", HARD_INPUTS)
    def test_marginals_ensemble_hard_inputs(self, make_pred, sharpness):
        rng = np.random.default_rng(11)
        cfg = SinkhornConfig(sharpness=sharpness)
        for _ in range(40):
            n = int(rng.integers(4, 400))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            res = sinkhorn_assign(make_pred(rng, n), mu, cfg)
            q = res.labels.values
            assert res.converged
            assert res.iterations <= 50
            assert np.all(q >= 0)
            assert np.abs(q.sum(axis=1) - 1).max() <= 1e-9
            assert abs(q[:, 0].sum() - mu * n) <= 1e-4 * n

    @pytest.mark.parametrize("make_pred,sharpness", HARD_INPUTS)
    def test_objective_trace_non_increasing_hard_inputs(self, make_pred,
                                                        sharpness):
        rng = np.random.default_rng(5)
        cfg = SinkhornConfig(sharpness=sharpness)
        for _ in range(25):
            n = int(rng.integers(4, 300))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            res = sinkhorn_assign(make_pred(rng, n), mu, cfg,
                                  track_objective=True)
            trace = np.asarray(res.objective_trace)
            assert res.converged
            assert res.iterations <= 50
            assert len(trace) >= 1
            assert np.all(np.diff(trace) <= 1e-9)

    def test_trace_limit_equals_regularized_cost(self):
        # the final scaling objective and the primal cost of the returned
        # plan agree once converged (they bracket the same optimum)
        rng = np.random.default_rng(6)
        cfg = SinkhornConfig()
        for _ in range(10):
            n = int(rng.integers(4, 200))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            pred = random_pred(rng, n)
            res = sinkhorn_assign(pred, mu, cfg, track_objective=True)
            p_cl = np.clip(pred.values, cfg.prob_floor, 1 - cfg.prob_floor)
            primal = regularized_objective(res.labels.values, p_cl, mu,
                                           cfg.sharpness)
            assert abs(-res.objective_trace[-1] - primal) <= 1e-4 * max(
                1.0, abs(primal))

    def test_matches_lp_oracle_small(self):
        rng = np.random.default_rng(3)
        cfg = SinkhornConfig(sharpness=100.0, max_iters=400_000)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            mu = max(rng.uniform(0.1, 0.5), 1.1 / n)
            pred = random_pred(rng, n)
            res = sinkhorn_assign(pred, mu, cfg)
            exact = lp_optimum(pred.values[:, 0], mu)
            assert res.objective <= exact * 1.01 + 1e-9
            assert res.objective >= exact * 0.99 - 1e-9

    def test_sharper_lambda_approaches_lp_from_above(self):
        # entropy smoothing costs extra; more sharpness shrinks the excess
        rng = np.random.default_rng(9)
        pred = random_pred(rng, 6)
        mu = 1.0 / 3.0
        exact = lp_optimum(pred.values[:, 0], mu)
        gaps = []
        for lam in (2.0, 10.0, 50.0):
            res = sinkhorn_assign(pred, mu,
                                  SinkhornConfig(sharpness=lam,
                                                 max_iters=500_000))
            gaps.append(res.objective - exact)
        assert gaps[0] > gaps[1] > gaps[2]
        # residual column infeasibility can undercut by O(marginal_tol * n)
        assert gaps[2] > -1e-5

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        pred = random_pred(rng, 50)
        perm = rng.permutation(50)
        res = sinkhorn_assign(pred, 0.3, SinkhornConfig())
        permuted = PredictionMatrix(pred.values[perm], pred.bag_index[perm])
        res_p = sinkhorn_assign(permuted, 0.3, SinkhornConfig())
        assert np.allclose(res.labels.values[perm], res_p.labels.values,
                           atol=1e-9)

    def test_identical_rows_get_identical_labels(self):
        values = np.tile([0.7, 0.3], (12, 1))
        pred = PredictionMatrix(values, np.zeros(12, dtype=int))
        res = sinkhorn_assign(pred, 0.25, SinkhornConfig())
        assert np.allclose(res.labels.values, res.labels.values[0],
                           atol=1e-12)
        assert abs(res.labels.values[0, 0] - 0.25) < 1e-6

    def test_mu_bounds_rejected(self):
        pred = random_pred(np.random.default_rng(0), 10)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError, match="mu"):
                sinkhorn_assign(pred, bad, SinkhornConfig())

    def test_tiny_marginal_rejected(self):
        pred = random_pred(np.random.default_rng(0), 10)
        with pytest.raises(ValueError, match="marginal"):
            sinkhorn_assign(pred, 0.05, SinkhornConfig())

    def test_nonconvergence_warns_and_flags(self):
        pred = random_pred(np.random.default_rng(2), 60)
        cfg = SinkhornConfig(sharpness=100.0, max_iters=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = sinkhorn_assign(pred, 0.3, cfg)
        assert not res.converged
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        # row sums still exact: final renormalization is unconditional
        assert np.abs(res.labels.values.sum(axis=1) - 1).max() <= 1e-9


class TestTransportObjective:
    def test_hand_value(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.8, 0.2], [0.4, 0.6]])
        expected = -np.log(0.8) - np.log(0.6)
        assert abs(transport_objective(q, p) - expected) < 1e-12


class TestNaiveAssign:
    def test_soft_copies_predictions(self):
        pred = random_pred(np.random.default_rng(1), 20)
        labels = naive_assign(pred)
        assert np.allclose(labels.values, pred.values)

    def test_hard_is_row_argmax(self):
        pred = PredictionMatrix(np.array([[0.6, 0.4], [0.2, 0.8]]),
                                np.zeros(2, dtype=int))
        labels = naive_assign(pred, hard=True)
        assert np.array_equal(labels.values, [[1.0, 0.0], [0.0, 1.0]])


class TestLocalConstraint:
    def _labels(self, values, bag_index):
        return PseudoLabelMatrix(np.asarray(values, float),
                                 np.asarray(bag_index))

    def test_pins_top_row_per_bag(self):
        labels = self._labels([[0.2, 0.8], [0.4, 0.6], [0.1, 0.9], [0.3, 0.7]],
                              [0, 0, 1, 1])
        out = apply_local_constraint(labels)
        assert np.array_equal(out.values[1], [1.0, 0.0])
        assert np.array_equal(out.values[3], [1.0, 0.0])
        # untouched rows keep their mass
        assert np.allclose(out.values[0], [0.2, 0.8])

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        pos = rng.uniform(0, 1, 30)
        labels = self._labels(np.stack([pos, 1 - pos], axis=1),
                              np.repeat(np.arange(5), 6))
        once = apply_local_constraint(labels)
        twice = apply_local_constraint(once)
        assert np.array_equal(once.values, twice.values)

    def test_tie_breaks_to_lowest_index(self):
        labels = self._labels([[0.5, 0.5], [0.5, 0.5]], [0, 0])
        out = apply_local_constraint(labels)
        assert np.array_equal(out.values[0], [1.0, 0.0])
        assert np.array_equal(out.values[1], [0.5, 0.5])

    def test_argmax_source_can_be_predictions(self):
        labels = self._labels([[0.9, 0.1], [0.1, 0.9]], [0, 0])
        pred = PredictionMatrix(np.array([[0.2, 0.8], [0.8, 0.2]]),
                                np.array([0, 0]))
        out = apply_local_constraint(labels, by=pred)
        assert np.array_equal(out.values[1], [1.0, 0.0])
        assert np.allclose(out.values[0], [0.9, 0.1])

    def test_missing_bag_detected(self):
        labels = self._labels([[0.5, 0.5]], [0])
        with pytest.raises(ValueError, match="empty bag"):
            apply_local_constraint(labels, expected_bags=2)


def local_constraint_by_loop(labels, by=None, expected_bags=None):
    """Reference: the per-bag scan apply_local_constraint replaced."""
    scores = labels.values[:, 0] if by is None else by.values[:, 0]
    bag_ids = np.unique(labels.bag_index)
    if expected_bags is not None and len(bag_ids) < expected_bags:
        raise ValueError("empty bag in assignment")
    out = labels.values.copy()
    for bag in bag_ids:
        rows = np.flatnonzero(labels.bag_index == bag)
        top = rows[int(np.argmax(scores[rows]))]
        out[top] = (1.0, 0.0)
    return out


# a few repeated values force ties inside bags; any value in [0, 1] may mix in
TIE_HEAVY = (st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])
             | st.floats(0.0, 1.0))


@st.composite
def interleaved_assignments(draw):
    """(bag_index, positive column, argmax column or None, expected_bags),
    with rows of one bag scattered over the matrix."""
    n = draw(st.integers(1, 40))
    n_bags = draw(st.integers(1, 6))
    rows = st.lists(TIE_HEAVY, min_size=n, max_size=n)
    bag_index = draw(st.lists(st.integers(0, n_bags - 1), min_size=n,
                              max_size=n))
    return (np.array(bag_index), np.array(draw(rows)),
            draw(st.none() | rows.map(np.array)),
            draw(st.none() | st.integers(1, n_bags + 1)))


class TestLocalConstraintMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(interleaved_assignments())
    def test_equals_per_bag_loop(self, case):
        bag_index, pos, by_pos, expected_bags = case
        labels = PseudoLabelMatrix(np.stack([pos, 1 - pos], axis=1),
                                   bag_index)
        by = (None if by_pos is None else
              PredictionMatrix(np.stack([by_pos, 1 - by_pos], axis=1),
                               bag_index))
        try:
            reference = local_constraint_by_loop(labels, by, expected_bags)
        except ValueError:
            with pytest.raises(ValueError, match="empty bag"):
                apply_local_constraint(labels, by, expected_bags)
            return
        out = apply_local_constraint(labels, by, expected_bags)
        assert np.array_equal(out.values, reference)
        assert np.array_equal(out.bag_index, bag_index)


class TestMuSchedule:
    def test_epoch_zero_is_half(self):
        for mu in (0.05, 0.2, 0.5):
            sched = MuSchedule(mu_final=mu, warmup_epochs=7)
            assert adaptive_mu(0, sched) == 0.5

    def test_exact_after_warmup(self):
        sched = MuSchedule(mu_final=0.15, warmup_epochs=10)
        for t in (10, 11, 50, 1000):
            assert adaptive_mu(t, sched) == 0.15

    def test_linear_in_between(self):
        sched = MuSchedule(mu_final=0.1, warmup_epochs=4)
        assert np.isclose(adaptive_mu(1, sched), 0.5 - 0.4 / 4)
        assert np.isclose(adaptive_mu(3, sched), 0.5 - 3 * 0.4 / 4)

    def test_monotone_non_increasing(self):
        sched = MuSchedule(mu_final=0.05, warmup_epochs=13)
        values = [adaptive_mu(t, sched) for t in range(30)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            MuSchedule(mu_final=0.0, warmup_epochs=5)
        with pytest.raises(ValueError):
            MuSchedule(mu_final=0.6, warmup_epochs=5)
        with pytest.raises(ValueError):
            MuSchedule(mu_final=0.2, warmup_epochs=0)
        with pytest.raises(ValueError):
            adaptive_mu(-1, MuSchedule(mu_final=0.2, warmup_epochs=5))


class TestMatrixTypes:
    def test_prediction_rows_must_sum_to_one(self):
        bad = np.array([[0.7, 0.7]])
        with pytest.raises(ValueError):
            PredictionMatrix(bad, np.array([0]))

    def test_hardened(self):
        labels = PseudoLabelMatrix(np.array([[0.6, 0.4], [0.45, 0.55]]),
                                   np.array([0, 0]))
        hard = labels.hardened()
        assert np.array_equal(hard.values, [[1.0, 0.0], [0.0, 1.0]])
        # original untouched
        assert np.allclose(labels.values[0], [0.6, 0.4])
