"""Tests of the benchmark itself: span arithmetic, checks, tiny smoke runs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# --- self time ---------------------------------------------------------------

def test_self_times_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1],   # 0
        ["b", 1.0, 3.0, 0],        # 1
        ["c", 2.0, 6.0, 0],        # 2 overlaps b: together they cover 1..6
        ["d", 3.0, 4.0, 2],        # 3 inside c
        ["e", 9.0, 12.0, 0],       # 4 runs past root: clipped to 9..10
        ["b", 7.0, 8.0, 0],        # 5 same name as 1: summed
    ]
    got = spans.self_times(tree)
    assert got["root"] == pytest.approx(10.0 - 5.0 - 1.0 - 1.0)
    assert got["b"] == pytest.approx(2.0 + 1.0)
    assert got["c"] == pytest.approx(4.0 - 1.0)
    assert got["d"] == pytest.approx(1.0)
    assert got["e"] == pytest.approx(3.0)


def test_generator_wrapper_opens_one_span_per_next():
    tracer = spans.Tracer("t")
    traced = spans._wrap_generator(tracer, lambda n: iter(range(n)), "gen")
    index = tracer.open("parent")
    assert list(traced(3)) == [0, 1, 2]
    tracer.close(index)
    names = [s[0] for s in tracer.spans]
    assert names == ["parent"] + ["gen"] * 4  # the last next() stops it
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert tracer.counts["gen"] == 3


def test_instrumented_restores_library_names():
    from otmil import trainer
    original = trainer.sinkhorn_assign
    with spans.instrumented(spans.Tracer("t")):
        assert trainer.sinkhorn_assign is not original
    assert trainer.sinkhorn_assign is original


# --- correctness checks reject doctored outputs -----------------------------

GOOD = {
    "hard-train": {"pos0": 0.996, "pos8": 0.978},
    "attention-baseline": {"pos0": 0.95, "pos8": 0.34},
    "ablation": {"order": [0.05, 0.08, 0.165, 0.992],
                 "soft_naive_positive_fraction": 0.0,
                 "accuracy_gain": 0.45, "precision_gain": 0.74},
    "cv-sweep": {"accuracies": [0.8, 0.9, 1.0, 0.0]},
}

DOCTORED = [
    ("hard-train", {"pos8": 0.94}),
    ("hard-train", {"pos0": math.nan}),
    ("attention-baseline", {"pos8": 0.85}),
    ("ablation", {"order": [0.05, 0.165, 0.08, 0.992]}),
    ("ablation", {"order": [0.05, 0.08, 0.08, 0.992]}),
    ("ablation", {"order": [0.05, 0.08, 0.165, 0.94]}),
    ("ablation", {"soft_naive_positive_fraction": 0.01}),
    ("ablation", {"accuracy_gain": 0.19}),
    ("ablation", {"precision_gain": 0.1}),
    ("cv-sweep", {"accuracies": [0.8, 1.1]}),
    ("cv-sweep", {"accuracies": [math.nan]}),
]


@pytest.mark.parametrize("name", sorted(GOOD))
def test_check_accepts_good_output(name):
    assert workloads.WORKLOADS[name][3](GOOD[name]) == []


@pytest.mark.parametrize("name,change", DOCTORED)
def test_check_rejects_doctored_output(name, change):
    assert workloads.WORKLOADS[name][3]({**GOOD[name], **change})


def _result(mode, digest="d", prefix="p", failures=(), error=None):
    data = None if error else {"outputs": {"digest": digest, "prefix": prefix},
                               "failures": list(failures)}
    return {"spec": {"mode": mode, "trace": False}, "error": error,
            "data": data}


def test_problems_flag_errors_checks_and_nondeterminism():
    results = [_result("unit"), _result("unit", digest="other"),
               _result("rerun", prefix="other"), _result("rerun"),
               _result("unit", failures=["non-finite output"]),
               _result("unit", error="exit 1: boom")]
    found = run.problems_of(results)
    assert [bool(f) for f in found] == [False, True, True, False, True, True]


# --- smoke runs at tiny size -------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_unit_and_rerun_agree(name, tmp_path):
    spec = {"workload": name, "seed": 0, "trace": False, "size": "tiny",
            "workdir": str(tmp_path), "spans_path": None, "run_id": "t"}
    unit = child.run_child({**spec, "mode": "unit"})
    again = child.run_child({**spec, "mode": "rerun"})
    assert unit["outputs"]["finite"]
    assert unit["run_s"] > 0 and unit["setup_s"] > 0
    assert again["outputs"]["prefix"] == unit["outputs"]["prefix"]


def test_tiny_traced_measure_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    results = run.measure("attention-baseline", 0, 0.0, trace=True,
                          size="tiny")
    assert [r["error"] for r in results] == [None, None]
    assert not any("differs" in p for f in run.problems_of(results) for p in f)
    layers = run.per_layer(results)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    assert layers["labeling.solve_calls"] == 0
    assert layers["baselines.loss_grads_calls"] > 0
    assert list(tmp_path.glob("spans-*.json"))


def test_declared_end_to_end_metrics_match_the_runner():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert ({m["name"]: m["unit"] for m in declared["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert [w["name"] for w in declared["workloads"]] == list(
        run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hard-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
