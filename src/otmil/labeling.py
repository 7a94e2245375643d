"""Constrained pseudo-label assignment for positive-bag instances.

The classifier's class probabilities over all positive-bag instances form a
prediction matrix (rows = instances, columns = [positive, negative]). Raw
self-training on those predictions collapses to the all-negative fixed point,
so assignment is posed as entropically regularized optimal transport over the
polytope of soft label matrices whose rows sum to one and whose column sums
hit a prescribed positive/negative split: a fraction ``mu`` of all
positive-bag instances must carry positive mass. With two label columns that
problem has a single free dual variable, so the solver is a safeguarded
Newton root-find of one monotone scalar equation; labels come out as
sigmoids of log-probability margins, evaluated through tanh so large
sharpness values neither overflow nor underflow.

On top of the global column constraint, a local per-bag constraint pins the
best-scoring instance of every positive bag to a hard positive label, and a
warmup schedule anneals ``mu`` from 0.5 down to its final value.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .numkit import check_finite


@dataclass
class PredictionMatrix:
    """Per-instance class probabilities for all positive-bag instances.

    values: (N, 2) float64, rows sum to 1, column 0 is the positive class.
    bag_index: (N,) int, which positive bag each row belongs to.
    """

    values: np.ndarray
    bag_index: np.ndarray

    def __post_init__(self):
        self.values = check_finite(self.values, "prediction matrix")
        self.bag_index = np.asarray(self.bag_index, dtype=np.int64)
        _check_rows(self.values, self.bag_index, tol=1e-9)


@dataclass
class PseudoLabelMatrix:
    """Soft label assignment with the same layout as ``PredictionMatrix``."""

    values: np.ndarray
    bag_index: np.ndarray

    def __post_init__(self):
        self.values = check_finite(self.values, "pseudo label matrix")
        self.bag_index = np.asarray(self.bag_index, dtype=np.int64)
        _check_rows(self.values, self.bag_index, tol=1e-6)

    def hardened(self) -> "PseudoLabelMatrix":
        """One-hot version: each row becomes the indicator of its argmax."""
        hard = np.zeros_like(self.values)
        hard[np.arange(len(self.values)), np.argmax(self.values, axis=1)] = 1.0
        return PseudoLabelMatrix(hard, self.bag_index.copy())


def _check_rows(values: np.ndarray, bag_index: np.ndarray, tol: float) -> None:
    if values.ndim != 2 or values.shape[1] != 2:
        raise ValueError("expected an (N, 2) matrix")
    if bag_index.shape != (values.shape[0],):
        raise ValueError("bag_index length must match row count")
    if np.any(values < -tol) or np.any(values > 1 + tol):
        raise ValueError("entries must lie in [0, 1]")
    if np.max(np.abs(values.sum(axis=1) - 1.0)) > tol:
        raise ValueError("rows must sum to 1")


@dataclass
class SinkhornConfig:
    """Knobs for the transport assignment.

    sharpness: weight on the transport cost relative to the entropy term;
        larger values sharpen the assignment toward the unregularized optimum.
    max_iters: cap on root-find steps.
    marginal_tol: convergence when the positive column sum is within
        ``marginal_tol * N`` of its target.
    prob_floor: probabilities are clamped to [prob_floor, 1 - prob_floor]
        before taking logs.
    """

    sharpness: float = 5.0
    max_iters: int = 1000
    marginal_tol: float = 1e-6
    prob_floor: float = 1e-8

    def __post_init__(self):
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        if self.marginal_tol <= 0:
            raise ValueError("marginal_tol must be positive")
        if not 0 < self.prob_floor < 1e-3:
            raise ValueError("prob_floor must lie in (0, 1e-3)")


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

    iterations counts root-find steps; marginal_error is the distance of the
    positive column sum from mu*N. objective is the transport cost
    <Q, -log P> of the returned labels. objective_trace (when tracked)
    records the dual once per step: the convex function of the column
    offset c, (const + sum_i logaddexp(k_i0 + c, k_i1) - c*mu*N) / sharpness
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

    labels: PseudoLabelMatrix
    converged: bool
    iterations: int
    marginal_error: float
    objective: float
    objective_trace: list = field(default_factory=list)


def transport_objective(q: np.ndarray, p_clamped: np.ndarray) -> float:
    """Transport cost <Q, -log P> of an assignment against clamped predictions."""
    return float(np.sum(q * -np.log(p_clamped)))


def sinkhorn_assign(
    pred: PredictionMatrix,
    mu: float,
    cfg: SinkhornConfig,
    track_objective: bool = False,
) -> SinkhornAssignment:
    """Assign soft pseudo labels by solving for the one column dual variable.

    Finds the minimizer of the entropically regularized transport cost over
    matrices with unit row sums and column sums [mu*N, (1-mu)*N]. With two
    columns the optimum is q_i0 = sigmoid(a_i + c) for the cost margins
    a_i = sharpness * (log p_i0 - log p_i1) and a single offset c, the root
    of the increasing function sum_i sigmoid(a_i + c) - mu*N. That root lies
    in the bracket [logit(mu) - max a, logit(mu) - min a]. Each step takes
    the Newton point (or the bracket midpoint when that leaves the bracket)
    and halves it back toward the current offset until the dual does not
    rise. Convergence is declared when the positive column sum is within
    ``marginal_tol * N`` of its target; rows sum to one by construction.

    Non-convergence returns the last iterate with ``converged=False`` and a
    warning, so a surrounding training loop can proceed and reassign later.
    With ``track_objective`` the dual is recorded after every step; see
    ``SinkhornAssignment`` for what that sequence means.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly between 0 and 1")
    p = pred.values
    n = p.shape[0]
    if mu * n < 1.0:
        raise ValueError("marginal below one instance")

    p_clamped = np.clip(p, cfg.prob_floor, 1.0 - cfg.prob_floor)
    log_kernel = cfg.sharpness * np.log(p_clamped)  # (n, 2)
    margin = log_kernel[:, 0] - log_kernel[:, 1]
    target = mu * n
    # Constant part of the dual: <col_target, log(mu, 1-mu)> + sum_i k_i1.
    dual_const = (target * np.log(mu) + (n - target) * np.log1p(-mu)
                  + float(log_kernel[:, 1].sum()))

    def dual(c: float) -> float:
        return float(dual_const + np.logaddexp(0.0, margin + c).sum()
                     - c * target) / cfg.sharpness

    def half_tanh(c: float) -> np.ndarray:
        # sigmoid(x) = (1 + tanh(x/2)) / 2 without overflow at any margin
        return np.tanh(0.5 * (margin + c))

    logit_mu = np.log(mu) - np.log1p(-mu)
    lo, hi = logit_mu - margin.max(), logit_mu - margin.min()
    c = 0.5 * (lo + hi)
    t = half_tanh(c)
    residual = 0.5 * (n + float(t.sum())) - target
    phi = dual(c)
    trace: list = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
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
        if track_objective:
            trace.append(phi)
        if abs(residual) <= cfg.marginal_tol * n:
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
    labels = PseudoLabelMatrix(q, pred.bag_index.copy())
    return SinkhornAssignment(
        labels=labels,
        converged=converged,
        iterations=iterations,
        marginal_error=err,
        objective=transport_objective(q, p_clamped),
        objective_trace=trace,
    )


def naive_assign(pred: PredictionMatrix) -> PseudoLabelMatrix:
    """Unconstrained pseudo labels: a copy of the predictions themselves.
    Kept as the degeneration-prone reference arm."""
    return PseudoLabelMatrix(pred.values.copy(), pred.bag_index.copy())


def apply_local_constraint(labels: PseudoLabelMatrix,
                           expected_bags: int | None = None
                           ) -> PseudoLabelMatrix:
    """Pin the top positive row of every positive bag to a hard [1, 0].

    The argmax is taken over the assignment's positive column; ties break
    toward the lowest row index. Rows of one bag need not be contiguous: a
    stable sort by bag groups each bag's rows in row order, and the bag's
    top row is the first of its group whose score equals the group maximum.
    All other rows pass through unchanged; the operation is idempotent.
    """
    scores = labels.values[:, 0]
    order = np.argsort(labels.bag_index, kind="stable")
    sorted_bags = labels.bag_index[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_bags[1:] != sorted_bags[:-1]
    starts = np.flatnonzero(first)
    if expected_bags is not None and starts.size < expected_bags:
        raise ValueError("empty bag in assignment")
    grouped = scores[order]
    group_max = np.maximum.reduceat(grouped, starts)
    hits = np.flatnonzero(
        grouped == np.repeat(group_max, np.diff(np.r_[starts, order.size])))
    out = labels.values.copy()
    out[order[hits[np.searchsorted(hits, starts)]]] = (1.0, 0.0)
    return PseudoLabelMatrix(out, labels.bag_index.copy())
