"""One timed run of one workload, in a fresh interpreter.

Usage (started by run.py, one process at a time)::

    python3 perfbench/child.py '{"workload": "hard-train", "seed": 0,
        "mode": "unit", "trace": false, "size": "full",
        "workdir": "...", "spans_path": null, "run_id": "..."}'

``mode`` is ``unit`` (setup, then the full timed run and its checks) or
``rerun`` (setup, then the workload's short determinism rerun). The last
stdout line is a JSON object with the timings and outputs. Any exception
propagates, so a failing run exits non-zero.

Each run gets its own interpreter because ``otmil.trainer._FOLD_CACHE`` is
keyed by ``id(dataset)`` and would carry folds from one cv-sweep run into
the next, and because ``ru_maxrss`` only ever grows within a process.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_child(spec: dict) -> dict:
    """Set up and run one workload as ``spec`` says; return the JSON payload.

    Importing otmil is the first timed step, so this must be the first
    import of the library in the process for ``setup_s`` to mean anything.
    """
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import otmil  # noqa: F401  (timed: part of setup_s)
    import_s = time.perf_counter() - start

    import spans
    import workloads
    setup, run, rerun, check = workloads.WORKLOADS[spec["workload"]]
    size = workloads.SIZES[spec["size"]]
    workdir = Path(spec["workdir"])
    seed = spec["seed"]

    tracer = spans.Tracer(spec["run_id"]) if spec["trace"] else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    task = run if spec["mode"] == "unit" else rerun
    with spans.instrumented(tracer) if tracer else contextlib.nullcontext():
        with span("setup"):
            inputs, setup_s = setup(seed, workdir, size)
        with span("run"):
            start = time.perf_counter()
            outputs = task(inputs, workdir, size)
            run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payload = {
        "setup_s": import_s + setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "failures": check(outputs) if spec["mode"] == "unit" else [],
        "numpy": sys.modules["numpy"].__version__,
        "blas": blas_info(),
    }
    if spec["mode"] == "unit" and not outputs["finite"]:
        payload["failures"].append("non-finite output")
    if tracer is not None:
        payload["layers"] = spans.layer_metrics(tracer)
        if spec["spans_path"]:
            tracer.write(spec["spans_path"])
    return payload


if __name__ == "__main__":
    print(json.dumps(run_child(json.loads(sys.argv[1]))))
