"""Benchmark entry point: run one otmil workload and print its metrics.

    python3 perfbench/run.py --workload hard-train --seed 0 --seconds 15 \
        --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every timed run happens in its own interpreter (see child.py for why), one
at a time, with the BLAS thread variables below set to 1 so that numpy
starts no extra threads. Units (setup plus the full workload) are started
until their timed calls add up to ``--seconds``, at least one; a crashed
child stops the run. When fewer than ``MIN_SETUPS`` processes ran, or only
one unit, short determinism reruns fill up: they repeat the setup and a
cheap part of the workload whose output must match the unit's byte for
byte.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` alternates traced and untraced units and reports the
per-layer split of the traced ones plus the tracing overhead (traced
``run_s`` minus untraced ``run_s``). Spans are written to
``.perfbench_out/``. The last stdout line is the JSON result.

A run that raises, produces non-finite output, fails its workload's check
or differs from the first unit of the same seed counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("hard-train", "ablation", "attention-baseline", "cv-sweep")

# Set on this process and inherited by every child, so numpy starts no
# extra threads; no output bit depends on them (README.md, "Environment").
BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}

MIN_SETUPS = 3
CHILD_TIMEOUT_S = 150.0
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def spawn(spec: dict) -> dict:
    """Run child.py with ``spec``; return ``{"spec", "error", "data"}``."""
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"spec": spec, "error": "timed out", "data": None}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"spec": spec, "error": f"exit {proc.returncode}: {tail[0]}",
                "data": None}
    return {"spec": spec, "error": None,
            "data": json.loads(proc.stdout.strip().splitlines()[-1])}


def problems_of(results: list[dict]) -> list[list[str]]:
    """Per result, what makes it a failed run (empty list: it passed).

    Units must all share the first good unit's digest (same code, same
    seed); reruns must match that unit's ``prefix``.
    """
    reference = next((r["data"]["outputs"] for r in results
                      if r["error"] is None and r["spec"]["mode"] == "unit"),
                     None)
    out = []
    for r in results:
        if r["error"] is not None:
            out.append([r["error"]])
            continue
        found = list(r["data"]["failures"])
        outputs = r["data"]["outputs"]
        if reference is None:
            found.append("no unit completed to compare against")
        elif r["spec"]["mode"] == "unit":
            if outputs["digest"] != reference["digest"]:
                found.append("unit output differs from the first unit")
        elif outputs["prefix"] != reference["prefix"]:
            found.append("rerun output differs from the unit's")
        out.append(found)
    return out


def end_to_end(results: list[dict]) -> dict:
    """Medians over good untraced units (setup_s: over every good run)."""
    good = [r["data"] for r in results if r["error"] is None]
    units = [r["data"] for r in results if r["error"] is None
             and r["spec"]["mode"] == "unit" and not r["spec"]["trace"]]
    return {
        "setup_s": statistics.median(d["setup_s"] for d in good),
        "run_s": statistics.median(d["run_s"] for d in units),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in units),
    }


def per_layer(results: list[dict]) -> dict:
    """Medians over good traced units, plus the tracing overhead."""
    units = [r for r in results
             if r["error"] is None and r["spec"]["mode"] == "unit"]
    traced = [r["data"] for r in units if r["spec"]["trace"]]
    plain = [r["data"] for r in units if not r["spec"]["trace"]]
    layers = {name: statistics.median(d["layers"][name] for d in traced)
              for name in traced[0]["layers"]}
    layers["trace.run_s"] = statistics.median(d["run_s"] for d in traced)
    plain_run_s = statistics.median(d["run_s"] for d in plain)
    layers["trace.overhead_s"] = layers["trace.run_s"] - plain_run_s
    return layers


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> list[dict]:
    """Start children until ``seconds`` are measured; see the module doc."""
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}"
    results: list[dict] = []
    start = time.perf_counter()
    longest = 0.0

    def go(mode: str, traced: bool) -> None:
        nonlocal longest
        k = len(results)
        spec = {"workload": workload, "seed": seed, "mode": mode,
                "trace": traced, "size": size,
                "workdir": str(OUT_DIR / f"work-{tag}-{os.getpid()}-{k}"),
                "spans_path": (str(OUT_DIR / f"spans-{tag}-{k}.json")
                               if traced else None),
                "run_id": f"{tag}-{os.getpid()}-{k}"}
        began = time.perf_counter()
        results.append(spawn(spec))
        longest = max(longest, time.perf_counter() - began)

    def room() -> bool:
        """Time for one more child, and no child has crashed."""
        return (time.perf_counter() - start + longest < DEADLINE_S
                and all(r["error"] is None for r in results))

    def more() -> bool:
        measured = sum(r["data"]["run_s"] for r in results
                       if r["error"] is None and r["spec"]["mode"] == "unit")
        return measured < seconds and room()

    def units(traced: bool) -> int:
        return sum(1 for r in results if r["spec"]["mode"] == "unit"
                   and r["spec"]["trace"] == traced)

    if trace:
        # alternate untraced and traced units so both see the same machine
        go("unit", False)
        go("unit", True)
        while more():
            go("unit", units(False) > units(True))
    else:
        go("unit", False)
        while more():
            go("unit", False)
        n_units = len(results)
        for _ in range(max(MIN_SETUPS - n_units, 1 if n_units == 1 else 0)):
            if not room():
                break
            go("rerun", False)
    return results


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(ROOT),
            "thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "otmil" / "__init__.py").is_file():
        print(f"otmil sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREAD_VARS)

    results = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = problems_of(results)
    for r, found in zip(results, problems):
        for p in found:
            print(f"FAILED {r['spec']['run_id']} ({r['spec']['mode']}): {p}",
                  file=sys.stderr)
    good_units = [r for r in results if r["error"] is None
                  and r["spec"]["mode"] == "unit"]
    if ({r["spec"]["trace"] for r in good_units}
            != ({False, True} if args.trace else {False})):
        print("no unit of a needed kind completed; nothing to report",
              file=sys.stderr)
        return 1

    failed = sum(1 for found in problems if found)
    env = environment()
    first = good_units[0]["data"]
    env.update(numpy=first["numpy"], blas=first["blas"])
    if args.trace:
        values = per_layer(results)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in values.items()}
    else:
        values = end_to_end(results)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{failed} failed of {len(results)} attempted")
    for r in good_units:
        print(f"  output {r['spec']['run_id']}: "
              f"{r['data']['outputs']['report']}")
    for name, m in metrics.items():
        print(f"  {args.workload:<20} {name:<28} {m['value']:>14.6g} "
              f"{m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
