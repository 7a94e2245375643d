"""In-memory spans around the public calls into each otmil module.

The tracer wraps library functions at the names their callers look up
(``otmil.trainer.sinkhorn_assign``, ``otmil.metrics.forward``, ...), so the
library itself is not edited. Each span records its name, start, end and the
index of the enclosing span; the run id lives on the tracer and is written
with the spans when the run ends. ``numkit`` gets no span of its own:
``softmax`` runs about 100k times in a cv-sweep run and is measured through
its callers. ``baselines.forward`` is not wrapped for the same reason (one
call per bag per epoch inside ``pool_loss_and_grads``).

This module imports nothing from otmil at import time, so the self-time
arithmetic can be tested without the library.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans of one run: ``[name, start, end, parent_index]`` in open order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the part covered by child spans.

    Children of one span are merged as intervals (clipped to the parent), so
    overlapping or out-of-order children are not counted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] += (end - start) - covered
    return dict(totals)


def _wrap(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        tracer.counts[name] += 1
        if after is not None:
            after(tracer, result, args)
        return result
    return traced


def _wrap_generator(tracer: Tracer, fn, name: str):
    """Time every ``next()`` of the generator ``fn`` returns, one span each."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            tracer.counts[name] += 1
            yield item
    return traced


def _after_solve(tracer, result, args):
    tracer.counts["labeling.iters_total"] += result.iterations
    tracer.counts["labeling.iters_max"] = max(
        tracer.counts["labeling.iters_max"], result.iterations)
    tracer.counts["labeling.nonconverged"] += int(not result.converged)


def _after_load(tracer, dataset, args):
    tracer.counts["data.instances"] += dataset.n_instances


def _after_loss_grads(tracer, result, args):
    tracer.counts["baselines.bags"] += len(args[1])


def _patch_table():
    """(module, attribute, span name, after-hook, is_generator) per wrap."""
    from otmil import baselines, data, metrics, model, trainer
    return [
        (data, "generate_hard_bags", "data.generate", None, False),
        (data, "generate_normal_bags", "data.generate", None, False),
        (data, "save_ndjson", "data.save", None, False),
        (data, "load_ndjson", "data.load", _after_load, False),
        (data, "load_benchmark_csv", "data.load", _after_load, False),
        (trainer, "kfold_split_cached", "data.kfold", None, False),
        (trainer, "sinkhorn_assign", "labeling.solve", _after_solve, False),
        (trainer, "apply_local_constraint", "labeling.local", None, False),
        (trainer, "forward", "model.forward", None, False),
        (metrics, "forward", "model.forward", None, False),
        (model, "forward", "model.forward", None, False),
        (trainer, "backward", "model.backward", None, False),
        (trainer, "sgd_step", "model.sgd", None, False),
        (trainer, "mixed_batches", "trainer.batch", None, True),
        (trainer, "self_train", "trainer.self_train", None, False),
        (trainer, "bag_predict", "metrics.bag_predict", None, False),
        (trainer, "roc_auc", "metrics.roc_auc", None, False),
        (metrics, "roc_auc", "metrics.roc_auc", None, False),
        (baselines, "pool_loss_and_grads", "baselines.loss_grads",
         _after_loss_grads, False),
        (baselines, "baseline_instance_scores", "baselines.score", None,
         False),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the table's names for ``tracer``; restore the originals after."""
    saved = []
    try:
        for module, attr, name, after, is_gen in _patch_table():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr,
                    _wrap_generator(tracer, original, name) if is_gen
                    else _wrap(tracer, original, name, after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# per_layer metric -> key. A metric ending in "_s" is the total self time of
# the spans named key; any other metric reads the tracer's counter key (the
# wrappers count calls under the span name).
LAYER_METRICS = {
    "data.generate_s": "data.generate",
    "data.save_s": "data.save",
    "data.load_s": "data.load",
    "data.instances": "data.instances",
    "data.kfold_s": "data.kfold",
    "labeling.solve_s": "labeling.solve",
    "labeling.solve_calls": "labeling.solve",
    "labeling.iters_total": "labeling.iters_total",
    "labeling.iters_max": "labeling.iters_max",
    "labeling.nonconverged": "labeling.nonconverged",
    "labeling.local_s": "labeling.local",
    "model.forward_s": "model.forward",
    "model.forward_calls": "model.forward",
    "model.backward_s": "model.backward",
    "model.backward_calls": "model.backward",
    "model.sgd_s": "model.sgd",
    "trainer.batch_s": "trainer.batch",
    "trainer.batches": "trainer.batch",
    "trainer.self_train_calls": "trainer.self_train",
    "trainer.self_s": "trainer.self_train",
    "metrics.bag_predict_s": "metrics.bag_predict",
    "metrics.bag_predict_calls": "metrics.bag_predict",
    "metrics.roc_auc_s": "metrics.roc_auc",
    "metrics.roc_auc_calls": "metrics.roc_auc",
    "baselines.loss_grads_s": "baselines.loss_grads",
    "baselines.loss_grads_calls": "baselines.loss_grads",
    "baselines.bags": "baselines.bags",
    "baselines.score_s": "baselines.score",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value for one traced run; absent layers read 0."""
    selfs = self_times(tracer.spans)
    out = {}
    for metric, key in LAYER_METRICS.items():
        out[metric] = (selfs.get(key, 0.0) if metric.endswith("_s")
                       else tracer.counts.get(key, 0))
    out["trace.spans"] = len(tracer.spans)
    return out
