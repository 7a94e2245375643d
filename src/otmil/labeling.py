"""Constrained pseudo-label assignment for positive-bag instances.

The classifier's class probabilities over all positive-bag instances form a
plain (N, 2) array (rows = instances, columns = [positive, negative]), and
the pseudo labels come back in the same layout. Raw self-training on those
predictions collapses to the all-negative fixed point, so assignment is
posed as entropically regularized optimal transport over the polytope of
soft label matrices whose rows sum to one and whose column sums hit a
prescribed positive/negative split: a fraction ``mu`` of all positive-bag
instances must carry positive mass. With two label columns that problem has
a single free dual variable, so the solver is a safeguarded Newton
root-find of one monotone scalar equation, capped at ``MAX_STEPS`` steps;
labels come out as sigmoids of log-probability margins, evaluated through
tanh so large ``sharpness`` values (the weight on the transport cost over
the entropy term) neither overflow nor underflow.

On top of the global column constraint, a local per-bag constraint pins the
best-scoring instance of every positive bag to a hard positive label; bags
are contiguous row ranges given by offsets, as in ``data.Dataset``. A
warmup schedule anneals ``mu`` from 0.5 down to its final value, and
``harden`` turns soft labels into one-hot rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numkit import check_finite

# probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] before logs
PROB_FLOOR = 1e-8
# converged once the positive column sum is within MARGINAL_TOL * N of target
MARGINAL_TOL = 1e-6
# cap on root-find steps per solve, four times the most that 3,000 random
# solves took (25; 2 to 5,000 rows, mu 0.001 to 0.999, sharpness 0.01 to
# 1e5, uniform, skewed and saturated probabilities); reaching it warns
MAX_STEPS = 100


@dataclass
class MuSchedule:
    """Linear warmup of the target positive fraction: 0.5 at epoch 0 down to
    ``mu_final`` at epoch ``warmup_epochs`` and constant afterwards."""

    mu_final: float = 0.1
    warmup_epochs: int = 10

    def __post_init__(self):
        if not 0 < self.mu_final <= 0.5:
            raise ValueError("mu_final must lie in (0, 0.5]")
        if self.warmup_epochs < 1:
            raise ValueError("warmup_epochs must be >= 1")


def adaptive_mu(t: int, schedule: MuSchedule) -> float:
    """Target positive fraction for epoch ``t`` under the warmup schedule."""
    if t < 0:
        raise ValueError("epoch must be non-negative")
    if t >= schedule.warmup_epochs:
        return schedule.mu_final
    return 0.5 + (schedule.mu_final - 0.5) * t / schedule.warmup_epochs


@dataclass
class SinkhornAssignment:
    """Result of one assignment: the labels plus convergence diagnostics.

    labels is the (N, 2) soft label array, rows in the input's order.
    iterations counts root-find steps; marginal_error is the distance of the
    positive column sum from mu*N. objective is the transport cost
    <Q, -log P> of the returned labels. objective_trace records the dual
    once per step: the convex function of the column offset c,
    (const + sum_i logaddexp(k_i0 + c, k_i1) - c*mu*N) / sharpness
    with k = sharpness * log P, whose derivative is the column residual. A
    step never raises it, so the trace is non-increasing by construction,
    and at convergence -trace[-1] equals the regularized cost of the
    returned labels up to the marginal tolerance: the transport cost plus
    the generalized KL divergence of the labels from the (mu, 1 - mu) row
    reference, divided by sharpness. The regularized cost
    evaluated directly on intermediate iterates is useless as a progress
    measure: iterates still violate the column constraint, and infeasible
    points undercut the constrained optimum, so that number typically rises
    toward the optimum from below.
    """

    labels: np.ndarray
    converged: bool
    iterations: int
    marginal_error: float
    objective: float
    objective_trace: list[float]


def transport_objective(q: np.ndarray, p_clamped: np.ndarray) -> float:
    """Transport cost <Q, -log P> of an assignment against clamped predictions."""
    return float(np.sum(q * -np.log(p_clamped)))


def _check_probs(probs) -> np.ndarray:
    """Class probabilities as a finite (N, 2) float64 array whose entries
    lie in [0, 1] and whose rows sum to 1, each up to 1e-9."""
    p = check_finite(probs, "predictions")
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError("predictions must be an (N, 2) array")
    if np.any(p < -1e-9) or np.any(p > 1 + 1e-9):
        raise ValueError("predictions must lie in [0, 1]")
    if p.size and np.max(np.abs(p.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("prediction rows must sum to 1")
    return p


def sinkhorn_assign(probs, mu: float, sharpness: float = 5.0
                    ) -> SinkhornAssignment:
    """Assign soft pseudo labels by solving for the one column dual variable.

    ``probs`` is the (N, 2) array of class probabilities, positive class
    first, and ``sharpness`` must be finite and positive. Finds the
    minimizer of the entropically regularized transport cost over matrices
    with unit row sums and column sums [mu*N, (1-mu)*N]. With two columns
    the optimum is q_i0 = sigmoid(a_i + c) for the cost margins
    a_i = sharpness * (log p_i0 - log p_i1) and a single offset c, the root
    of the increasing function sum_i sigmoid(a_i + c) - mu*N. That root lies
    in the bracket [logit(mu) - max a, logit(mu) - min a]. Each step takes
    the Newton point (or the bracket midpoint when that leaves the bracket)
    and halves it back toward the current offset until the dual does not
    rise. Convergence is declared when the positive column sum is within
    ``MARGINAL_TOL * N`` of its target; rows sum to one by construction.

    A solve that is not within tolerance after ``MAX_STEPS`` steps returns
    the last iterate with ``converged=False`` and a warning, so a
    surrounding training loop can proceed and reassign later. The dual is
    recorded after every step; see ``SinkhornAssignment`` for what that
    sequence means.
    """
    p = _check_probs(probs)
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly between 0 and 1")
    if not 0.0 < sharpness < np.inf:
        raise ValueError("sharpness must be finite and positive")
    n = p.shape[0]
    if mu * n < 1.0:
        raise ValueError("marginal below one instance")

    p_clamped = np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    log_kernel = sharpness * np.log(p_clamped)  # (n, 2)
    margin = log_kernel[:, 0] - log_kernel[:, 1]
    target = mu * n
    # Constant part of the dual: <col_target, log(mu, 1-mu)> + sum_i k_i1.
    dual_const = (target * np.log(mu) + (n - target) * np.log1p(-mu)
                  + float(log_kernel[:, 1].sum()))

    def dual(c: float) -> float:
        return float(dual_const + np.logaddexp(0.0, margin + c).sum()
                     - c * target) / sharpness

    def half_tanh(c: float) -> np.ndarray:
        # sigmoid(x) = (1 + tanh(x/2)) / 2 without overflow at any margin
        return np.tanh(0.5 * (margin + c))

    logit_mu = np.log(mu) - np.log1p(-mu)
    lo, hi = logit_mu - margin.max(), logit_mu - margin.min()
    c = 0.5 * (lo + hi)
    t = half_tanh(c)
    residual = 0.5 * (n + float(t.sum())) - target
    phi = dual(c)
    trace = []
    converged = False
    for iterations in range(1, MAX_STEPS + 1):
        if residual > 0:
            hi = c
        else:
            lo = c
        slope = 0.25 * float(np.sum(1.0 - t * t))
        step = -residual / slope if slope > 0 else np.inf
        if not lo <= c + step <= hi:
            step = 0.5 * (lo + hi) - c
        trial = dual(c + step)
        while trial > phi:
            step *= 0.5
            trial = dual(c + step)
        c += step
        phi = trial
        t = half_tanh(c)
        residual = 0.5 * (n + float(t.sum())) - target
        trace.append(phi)
        if abs(residual) <= MARGINAL_TOL * n:
            converged = True
            break

    err = abs(residual)
    if not converged:
        warnings.warn(
            f"pseudo-label root-find did not converge after {iterations} steps "
            f"(column error {err:.3e}); using last iterate",
            RuntimeWarning,
        )

    q = np.stack([0.5 * (1.0 + t), 0.5 * (1.0 - t)], axis=1)
    return SinkhornAssignment(
        labels=q,
        converged=converged,
        iterations=iterations,
        marginal_error=err,
        objective=transport_objective(q, p_clamped),
        objective_trace=trace,
    )


def harden(q: np.ndarray) -> np.ndarray:
    """One-hot labels: each row becomes the indicator of its argmax (ties
    go to the positive column)."""
    hard = np.zeros_like(q)
    hard[np.arange(len(q)), np.argmax(q, axis=1)] = 1.0
    return hard


def apply_local_constraint(q: np.ndarray, offsets) -> np.ndarray:
    """Pin the top positive row of every positive bag to a hard [1, 0].

    Bag i owns rows ``offsets[i]:offsets[i + 1]``, as in ``data.Dataset``;
    every bag needs at least one row. The top row is the first row of its
    bag whose positive-column score equals the bag maximum, so ties break
    toward the lowest row index. All other rows pass through unchanged;
    the operation is idempotent and returns a new array.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != len(q):
        raise ValueError("bag offsets must run from 0 to the row count")
    if np.any(sizes < 1):
        raise ValueError("empty bag in assignment")
    scores = q[:, 0]
    starts = offsets[:-1]
    hits = np.flatnonzero(
        scores == np.repeat(np.maximum.reduceat(scores, starts), sizes))
    out = q.copy()
    out[hits[np.searchsorted(hits, starts)]] = (1.0, 0.0)
    return out
