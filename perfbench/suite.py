"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/suite.py [--seeds 1-10]
    python3 perfbench/suite.py --trace 1 [--seeds 1]

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``.  Untraced,
it prints for each workload and end-to-end metric the median of the runs, the
quartile spread ``(q3 - q1) / median`` and the metric's bound, and for each
time the spread of its unscaled wall-time value (from the run's record under
``_out/``), which shows what the speed scaling of ``run.py`` buys.  Traced, it runs
each seed twice, prints the per-layer metrics with the tracing overhead, and
exits 1 if a count metric differs between the two runs.  Runs are sequential,
one ``run.py`` process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, with its ``unscaled`` wall times when untraced."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: NOT CORRECT\n{proc.stdout}")
    if not trace:
        record = HERE / "_out" / f"{workload}-seed{seed}-trace0.json"
        result["unscaled"] = json.loads(record.read_text())["unscaled"]
    return result


def spread(values: list) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def untraced(spec: dict, workloads: list, seeds: list, seconds: int):
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"  {workload} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, fail_frac {failed / attempted:.4f} "
              f"({failed} of {attempted} problems)")
        for m in spec["end_to_end"]:
            med, spr = spread([r["metrics"][m["name"]]["value"] for r in runs])
            flag = "" if spr <= m["bound"] / 3 else ("  > bound/3" if spr <= m["bound"]
                                                     else "  > BOUND")
            wall = ""
            if m["name"] in runs[0]["unscaled"]:
                wall_med, wall_spr = spread([r["unscaled"][m["name"]] for r in runs])
                wall = f"  (wall time {wall_med:.6g}, spread {wall_spr:6.2%})"
            print(f"  {m['name']:16s} {med:12.6g} {m['unit']:6s} spread {spr:6.2%} "
                  f"bound {m['bound']:.1%}{flag}{wall}", flush=True)


def traced(spec: dict, workloads: list, seeds: list, seconds: int) -> int:
    """Two traced runs per seed; the number of count metrics that differ between them."""
    differ = 0
    for workload in workloads:
        for seed in seeds:
            first, second = (run_once(workload, seed, seconds, 1) for _ in range(2))
            print(f"{workload} seed {seed}:")
            for m in spec["per_layer"]:
                a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
                counted = m["unit"] not in ("s", "1/s", "ratio")
                differ += counted and a != b
                note = "" if not counted else ("  repeats" if a == b else f"  DIFFERS ({b})")
                print(f"  {m['name']:34s} {a:14.6g} {m['unit']}{note}", flush=True)
    return differ


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        return 1 if traced(spec, names, args.seeds, spec["run_seconds"]) else 0
    untraced(spec, names, args.seeds, spec["run_seconds"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
