"""Run the benchmark over workloads and seeds and print every metric's spread.

    python3 perfbench/sweep.py                      # all workloads, seeds 0-9
    python3 perfbench/sweep.py --workloads cv-sweep --seeds 0 1 2 --trace 1

Runs ``run.py`` once per (workload, seed), one after the other, and prints
per workload and metric: the median, the quartiles (``statistics.quantiles``
with n=4), the interquartile spread as a share of the median next to the
metric's bound from BENCHMARK.json, and failed/attempted counts. Every raw
result is saved to ``.perfbench_out/sweep-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(10)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    raw = {}
    for workload in args.workloads:
        for seed in args.seeds:
            began = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - began
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                raw[f"{workload}/{seed}"] = None
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            raw[f"{workload}/{seed}"] = result
            print(f"{workload} seed {seed}: {wall:.1f}s wall, "
                  f"{result['failed']}/{result['attempted']} failed, "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()
                             if k in bounds), flush=True)

        done = [r for k, r in raw.items()
                if k.startswith(workload + "/") and r is not None]
        if not done:
            continue
        failed = sum(r["failed"] for r in done)
        attempted = sum(r["attempted"] for r in done)
        print(f"== {workload}: {len(done)} runs, {failed} failed of "
              f"{attempted} attempted, wall "
              f"{statistics.median(r['wall_s'] for r in done):.1f}s median")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in done]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            print(f"   {name:<28} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}"
                  + (f" bound {bound:.0%}" if bound is not None else ""))

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
