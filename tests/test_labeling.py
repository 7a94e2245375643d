"""Transport assignment: marginals, objective, constraints, schedules."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otmil import labeling
from otmil.labeling import (MAX_STEPS, PROB_FLOOR, MuSchedule, adaptive_mu,
                            apply_local_constraint, harden, positive_rows,
                            sinkhorn_assign, transport_objective)
from otmil.metrics import pseudo_label_metrics


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


def random_pred(rng, n):
    pos = rng.uniform(1e-4, 1 - 1e-4, n)
    return np.stack([pos, 1 - pos], axis=1)


def saturated_pred(rng, n):
    pos = rng.choice([0.0, 1e-9, 1 - 1e-9, 1.0], n)
    return np.stack([pos, 1 - pos], axis=1)


# (prediction maker, sharpness) inputs beyond the moderate default ensemble:
# saturated predictions and a sharp assignment, each within MAX_STEPS
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
        for _ in range(40):
            n = int(rng.integers(4, 400))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            res = sinkhorn_assign(random_pred(rng, n), mu)
            q = res.labels
            assert res.converged
            assert np.all(q >= 0)
            assert np.abs(q.sum(axis=1) - 1).max() <= 1e-9
            assert abs(q[:, 0].sum() - mu * n) <= 1e-4 * n

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(4, 300))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            res = sinkhorn_assign(random_pred(rng, n), mu)
            trace = np.asarray(res.objective_trace)
            assert len(trace) == res.iterations >= 1
            assert np.all(np.diff(trace) <= 1e-9)

    @pytest.mark.parametrize("make_pred,sharpness", HARD_INPUTS)
    def test_marginals_ensemble_hard_inputs(self, make_pred, sharpness):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(4, 400))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            res = sinkhorn_assign(make_pred(rng, n), mu, sharpness)
            q = res.labels
            assert res.converged
            assert res.iterations <= 50
            assert np.all(q >= 0)
            assert np.abs(q.sum(axis=1) - 1).max() <= 1e-9
            assert abs(q[:, 0].sum() - mu * n) <= 1e-4 * n

    @pytest.mark.parametrize("make_pred,sharpness", HARD_INPUTS)
    def test_objective_trace_non_increasing_hard_inputs(self, make_pred,
                                                        sharpness):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(4, 300))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            res = sinkhorn_assign(make_pred(rng, n), mu, sharpness)
            trace = np.asarray(res.objective_trace)
            assert res.converged
            assert res.iterations <= 50
            assert len(trace) >= 1
            assert np.all(np.diff(trace) <= 1e-9)

    def test_trace_limit_equals_regularized_cost(self):
        # the final scaling objective and the primal cost of the returned
        # plan agree once converged (they bracket the same optimum)
        rng = np.random.default_rng(6)
        sharpness = 5.0
        for _ in range(10):
            n = int(rng.integers(4, 200))
            mu = max(rng.uniform(0.05, 0.5), 1.5 / n)
            pred = random_pred(rng, n)
            res = sinkhorn_assign(pred, mu, sharpness)
            p_cl = np.clip(pred, PROB_FLOOR, 1 - PROB_FLOOR)
            primal = regularized_objective(res.labels, p_cl, mu, sharpness)
            assert abs(-res.objective_trace[-1] - primal) <= 1e-4 * max(
                1.0, abs(primal))

    def test_matches_lp_oracle_small(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            mu = max(rng.uniform(0.1, 0.5), 1.1 / n)
            pred = random_pred(rng, n)
            res = sinkhorn_assign(pred, mu, sharpness=100.0)
            exact = lp_optimum(pred[:, 0], mu)
            assert res.objective <= exact * 1.01 + 1e-9
            assert res.objective >= exact * 0.99 - 1e-9

    def test_sharper_lambda_approaches_lp_from_above(self):
        # entropy smoothing costs extra; more sharpness shrinks the excess
        rng = np.random.default_rng(9)
        pred = random_pred(rng, 6)
        mu = 1.0 / 3.0
        exact = lp_optimum(pred[:, 0], mu)
        gaps = []
        for lam in (2.0, 10.0, 50.0):
            res = sinkhorn_assign(pred, mu, sharpness=lam)
            gaps.append(res.objective - exact)
        assert gaps[0] > gaps[1] > gaps[2]
        # residual column infeasibility can undercut by O(MARGINAL_TOL * n)
        assert gaps[2] > -1e-5

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        pred = random_pred(rng, 50)
        perm = rng.permutation(50)
        res = sinkhorn_assign(pred, 0.3)
        res_p = sinkhorn_assign(pred[perm], 0.3)
        assert np.allclose(res.labels[perm], res_p.labels, atol=1e-9)

    def test_identical_rows_get_identical_labels(self):
        values = np.tile([0.7, 0.3], (12, 1))
        res = sinkhorn_assign(values, 0.25)
        assert np.allclose(res.labels, res.labels[0], atol=1e-12)
        assert abs(res.labels[0, 0] - 0.25) < 1e-6

    def test_mu_bounds_rejected(self):
        pred = random_pred(np.random.default_rng(0), 10)
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError, match="mu"):
                sinkhorn_assign(pred, bad)

    def test_tiny_marginal_rejected(self):
        pred = random_pred(np.random.default_rng(0), 10)
        with pytest.raises(ValueError, match="marginal"):
            sinkhorn_assign(pred, 0.05)

    def test_rows_must_sum_to_one(self):
        bad = np.array([[0.7, 0.7], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sum to 1"):
            sinkhorn_assign(bad, 0.5)

    @pytest.mark.parametrize("bad,match", [
        (np.array([[np.nan, 0.5], [0.5, 0.5]]), "non-finite"),
        (np.array([[1.5, -0.5], [0.5, 0.5]]), r"\[0, 1\]"),
        (np.full((4, 3), 1.0 / 3.0), r"\(N, 2\)"),
        (np.full(4, 0.5), r"\(N, 2\)"),
    ])
    def test_bad_predictions_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            sinkhorn_assign(bad, 0.5)

    def test_nonconvergence_warns_and_flags(self, monkeypatch):
        pred = random_pred(np.random.default_rng(2), 60)
        monkeypatch.setattr(labeling, "MAX_STEPS", 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = sinkhorn_assign(pred, 0.3, sharpness=100.0)
        assert not res.converged
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        # row sums still exact: final renormalization is unconditional
        assert np.abs(res.labels.sum(axis=1) - 1).max() <= 1e-9

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_sharpness_must_be_finite_and_positive(self, bad):
        pred = random_pred(np.random.default_rng(0), 10)
        with pytest.raises(ValueError, match="sharpness"):
            sinkhorn_assign(pred, 0.5, bad)

    def test_steps_stay_well_inside_the_cap(self):
        # saturated predictions over a wide sharpness range are the hardest
        # inputs measured; the worst case must leave the cap a wide margin
        rng = np.random.default_rng(0)
        worst = 0
        for _ in range(300):
            n = int(rng.integers(2, 5001))
            mu = max(rng.uniform(0.05, 0.5), 1.05 / n)
            sharpness = 10.0 ** rng.uniform(-2.0, 3.0)
            res = sinkhorn_assign(saturated_pred(rng, n), mu, sharpness)
            assert res.converged
            worst = max(worst, res.iterations)
        assert worst <= MAX_STEPS // 4


class TestTransportObjective:
    def test_hand_value(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.8, 0.2], [0.4, 0.6]])
        expected = -np.log(0.8) - np.log(0.6)
        assert abs(transport_objective(q, p) - expected) < 1e-12


class TestHarden:
    def test_hard_is_row_argmax(self):
        hard = harden(np.array([[0.6, 0.4], [0.2, 0.8]]))
        assert np.array_equal(hard, [[1.0, 0.0], [0.0, 1.0]])

    def test_hardened(self):
        labels = np.array([[0.6, 0.4], [0.45, 0.55]])
        hard = harden(labels)
        assert np.array_equal(hard, [[1.0, 0.0], [0.0, 1.0]])
        # original untouched
        assert np.allclose(labels[0], [0.6, 0.4])

    def test_tie_goes_to_positive_column(self):
        assert np.array_equal(harden(np.array([[0.5, 0.5]])), [[1.0, 0.0]])


def two_column_cases():
    """Finite (N, 2) arrays of 1 to 20,011 rows, with ties, signed zeros
    and rows that do not sum to one, under the names the tests print."""
    rng = np.random.default_rng(8)
    p = rng.uniform(0.0, 1.0, 20_011)
    probs = np.stack([p, 1.0 - p], axis=1)
    ties = np.repeat(rng.uniform(-1.0, 1.0, (50, 1)), 2, axis=1)
    mixed = rng.standard_normal((20_011, 2))
    mixed[::7] = mixed[::7, ::-1]
    mixed[::5, 1] = mixed[::5, 0]
    return {"one row": probs[:1], "one tied row": np.array([[0.5, 0.5]]),
            "ties": ties, "signed zeros": np.array([[0.0, -0.0], [-0.0, 0.0],
                                                    [-0.0, -0.0]]),
            "probabilities": probs, "mixed": mixed}


class TestTwoColumnReductions:
    """The row reductions of (N, 2) labels, taken column by column, keep
    the bits of numpy's axis-1 reductions on finite input."""

    @pytest.mark.parametrize("case", two_column_cases())
    def test_positive_rows_is_argmax_zero(self, case):
        q = two_column_cases()[case]
        want = np.argmax(q, axis=1) == 0
        assert positive_rows(q).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", two_column_cases())
    def test_harden_is_the_argmax_one_hot(self, case):
        q = two_column_cases()[case]
        want = np.zeros_like(q)
        want[np.arange(len(q)), np.argmax(q, axis=1)] = 1.0
        assert harden(q).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", two_column_cases())
    def test_pseudo_label_metrics_of_argmax_labels(self, case):
        q = two_column_cases()[case]
        truth = np.arange(len(q)) % 3 == 0
        pred = np.argmax(q, axis=1) == 0
        n_pred = int(pred.sum())
        rep = pseudo_label_metrics(q, truth.astype(np.int64))
        assert rep.n_predicted_positive == n_pred
        assert rep.precision == (int(np.sum(pred & truth)) / n_pred
                                 if n_pred else 1.0)
        assert rep.accuracy == float(np.mean(pred == truth))

    @pytest.mark.parametrize("case", two_column_cases())
    def test_row_sum_error_is_the_axis_sums(self, case):
        # the sums themselves differ in the sign of a zero: (-0.0, -0.0)
        # sums to 0.0 along axis 1
        q = two_column_cases()[case]
        got = np.abs(q[:, 0] + q[:, 1] - 1.0)
        assert got.tobytes() == np.abs(q.sum(axis=1) - 1.0).tobytes()

    @pytest.mark.parametrize("shift", [-2e-9, -1e-9, 0.0, 1e-9, 2e-9])
    def test_row_sum_check_accepts_what_it_did(self, shift):
        p = np.full((3, 2), 0.5)
        p[1, 1] += shift
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
            with pytest.raises(ValueError, match="sum to 1"):
                labeling._check_probs(p)
        else:
            assert labeling._check_probs(p) is not None


class TestLocalConstraint:
    def test_pins_top_row_per_bag(self):
        labels = np.array([[0.2, 0.8], [0.4, 0.6], [0.1, 0.9], [0.3, 0.7]])
        out = apply_local_constraint(labels, [0, 2, 4])
        assert np.array_equal(out[1], [1.0, 0.0])
        assert np.array_equal(out[3], [1.0, 0.0])
        # untouched rows keep their mass
        assert np.allclose(out[0], [0.2, 0.8])
        # the input is not modified
        assert np.array_equal(labels[1], [0.4, 0.6])

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        pos = rng.uniform(0, 1, 30)
        offsets = np.arange(0, 31, 6)
        once = apply_local_constraint(np.stack([pos, 1 - pos], axis=1),
                                      offsets)
        twice = apply_local_constraint(once, offsets)
        assert np.array_equal(once, twice)

    def test_tie_breaks_to_lowest_index(self):
        out = apply_local_constraint(np.array([[0.5, 0.5], [0.5, 0.5]]),
                                     [0, 2])
        assert np.array_equal(out[0], [1.0, 0.0])
        assert np.array_equal(out[1], [0.5, 0.5])

    def test_missing_bag_detected(self):
        with pytest.raises(ValueError, match="empty bag"):
            apply_local_constraint(np.array([[0.5, 0.5]]), [0, 1, 1])

    @pytest.mark.parametrize("offsets", [[0, 1], [0, 1, 3], [1, 2]])
    def test_offsets_must_cover_rows(self, offsets):
        with pytest.raises(ValueError, match="offsets"):
            apply_local_constraint(np.full((2, 2), 0.5), offsets)


def local_constraint_by_loop(q, offsets):
    """Reference: the per-bag scan apply_local_constraint replaced."""
    out = q.copy()
    for start, end in zip(offsets[:-1], offsets[1:]):
        out[start + int(np.argmax(q[start:end, 0]))] = (1.0, 0.0)
    return out


# a few repeated values force ties inside bags; any value in [0, 1] may mix in
TIE_HEAVY = (st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0])
             | st.floats(0.0, 1.0))


@st.composite
def bagged_assignments(draw):
    """(offsets, positive column): 1 to 6 contiguous bags of 1 to 8 rows."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    pos = draw(st.lists(TIE_HEAVY, min_size=int(offsets[-1]),
                        max_size=int(offsets[-1])))
    return offsets, np.array(pos)


class TestLocalConstraintMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(bagged_assignments())
    def test_equals_per_bag_loop(self, case):
        offsets, pos = case
        q = np.stack([pos, 1 - pos], axis=1)
        out = apply_local_constraint(q, offsets)
        assert np.array_equal(out, local_constraint_by_loop(q, offsets))


class TestMuSchedule:
    def test_epoch_zero_is_half(self):
        for mu in (0.05, 0.2, 0.5):
            sched = MuSchedule(mu_final=mu, warmup_epochs=7)
            assert adaptive_mu(0, sched) == 0.5

    def test_exact_after_warmup(self):
        # a warmup of 0 epochs holds mu_final from epoch 0
        for warmup in (10, 0):
            sched = MuSchedule(mu_final=0.15, warmup_epochs=warmup)
            for t in (warmup, warmup + 1, 50, 1000):
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
        with pytest.raises(ValueError, match="warmup_epochs must be >= 0"):
            MuSchedule(mu_final=0.2, warmup_epochs=-1)
        with pytest.raises(ValueError):
            adaptive_mu(-1, MuSchedule(mu_final=0.2, warmup_epochs=5))
