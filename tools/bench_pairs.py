"""Run the benchmark on a parent commit and on the working tree, pair by pair,
and write the comparison as one JSON file.

The parent side is a ``git archive`` of ``--parent`` and the change side a
copy of the working tree's files (tracked, or untracked and not ignored),
each extracted into its own directory under a new temporary directory,
which is removed when the runs end or one of them fails.  For
pair ``i`` and each workload of ``BENCHMARK.json``, both sides run ``python3
perfbench/run.py --workload W --seed S --seconds T``, with T the
benchmark's ``run_seconds`` and seed ``--first-seed + i``, one after the other:
the parent first on even pairs, the change first on odd ones.  Every run
has ``PYTHONDONTWRITEBYTECODE=1`` and starts from directories with no
``__pycache__``, so each compiles the package's source as a fresh checkout
does.  The last line a run prints is its result; its end-to-end metrics are
kept.  A run that exits non-zero or runs past 600 s ends the tool with a
``bench_pairs:`` message.  ``--pairs`` below 2 (a spread needs two runs per
side) exits 2 with one such line, before any checkout.

Per workload and end-to-end metric of ``BENCHMARK.json`` the output gives
each side's median and quartiles (inclusive method), ``change_wins`` (pairs
in which the change reads better; ties count for neither),
``relative_change_of_median``, ``worse_than_bound`` (the change's median
worse than the parent's by more than the metric's bound), ``median_gain``
(how much better the change's median reads, in the metric's unit),
``parent_iqr`` (the distance between the parent's quartiles), ``claim_met``
and every run.  ``claim_met`` is the claim rule: the change wins at least 9
pairs in 10, and its median gain is larger than the parent's interquartile
range.  A change that claims a gain names its workload and metric in its own
text; every other ``claim_met`` is read as noise.  With ``--parent HEAD``
from a clean tree both sides run the same code (an A/A run), and every
``claim_met: true`` in its output is a false positive of the rule.

Usage::

    python tools/bench_pairs.py --parent COMMIT --out BENCH_<n>.json \\
        [--pairs 10] [--first-seed 1] [--note TEXT]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
METHOD = ("{pairs} pairs per workload, seeds {seeds}, the parent run from a git archive of "
          "the parent commit and the change from a copy of the working tree's files, each in "
          "its own directory, one after the other, parent first on even pairs and change "
          "first on odd ones, pair by pair across the workloads; every run with "
          "PYTHONDONTWRITEBYTECODE=1 from directories without __pycache__; times are the "
          "benchmark's speed-scaled values; median and quartiles (inclusive method) per side; "
          "change_wins counts pairs where the change reads better (ties count for neither); "
          "worse_than_bound compares the change's median with the parent's against the "
          "BENCHMARK.json bound; claim_met, given for every workload and metric, needs at "
          "least 9 wins in 10 and a median gain larger than the parent's interquartile "
          "range")


def spread(runs: list) -> dict:
    """Median and quartiles of ``runs``, by the inclusive method."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def gain(parent: float, change: float, better: str) -> float:
    """How much better ``change`` reads than ``parent``, in the metric's unit."""
    return parent - change if better == "lower" else change - parent


def compare(parent_runs: list, change_runs: list, better: str, bound: float) -> dict:
    """One metric of one workload: runs paired by index."""
    parent, change = spread(parent_runs), spread(change_runs)
    base = parent["median"]
    rel = (change["median"] - base) / base if base else 0.0
    wins = sum(gain(p, c, better) > 0 for p, c in zip(parent_runs, change_runs))
    median_gain = gain(base, change["median"], better)
    parent_iqr = parent["q3"] - parent["q1"]
    return {"parent": parent, "change": change, "change_wins": wins,
            "relative_change_of_median": round(rel, 4),
            "worse_than_bound": median_gain < -bound * abs(base),
            "median_gain": median_gain, "parent_iqr": parent_iqr,
            "claim_met": 10 * wins >= 9 * len(parent_runs) and median_gain > parent_iqr,
            "parent_runs": parent_runs, "change_runs": change_runs}


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload, the comparison of every end-to-end metric.

    ``runs`` holds one record per run: ``{"workload", "seed", "side", "result"}``,
    ``result`` being the last line a benchmark run printed, parsed.  A run is
    paired with the other side's run of the same workload and seed.
    ``end_to_end`` is the list of that name in ``BENCHMARK.json``.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_side = {side: {r["seed"]: r["result"] for r in runs
                          if r["workload"] == workload and r["side"] == side} for side in SIDES}
        seeds = sorted(by_side["parent"].keys() & by_side["change"].keys())
        metrics = {}
        for m in end_to_end:
            values = [[by_side[side][s]["metrics"][m["name"]]["value"] for s in seeds]
                      for side in SIDES]
            metrics[m["name"]] = compare(*values, m["better"], m["bound"])
        out[workload] = {"pairs": len(seeds), "seeds": seeds,
                         "correct_all": all(by_side[side][s]["correct"]
                                            for side in SIDES for s in seeds),
                         "metrics": metrics}
    return out


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkouts(parent: str, workdir: Path) -> dict:
    """The two source trees, in ``workdir``: the parent commit's archive and the
    working tree's files."""
    dirs = {side: workdir / side for side in SIDES}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", parent))) as tar:
        tar.extractall(dirs["parent"])
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        src = ROOT / os.fsdecode(name)
        if name and src.is_file():
            (dirs["change"] / os.fsdecode(name)).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dirs["change"] / os.fsdecode(name))
    return dirs


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its result line, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds)],
                              cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"bench_pairs: {tree.name} {workload} seed {seed} timed out "
                         f"after {exc.timeout:g} s") from None
    if proc.returncode:
        raise SystemExit(f"bench_pairs: {tree.name} {workload} seed {seed} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        print(f"bench_pairs: --pairs must be at least 2, got {args.pairs}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parent = _git("rev-parse", args.parent).decode().strip()
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        dirs = checkouts(parent, Path(workdir))
        for i in range(args.pairs):
            seed = args.first_seed + i
            for workload in workloads:
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = run_once(dirs[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "result": result})
                    print(f"pair {i} {workload} {side}: problems_per_s "
                          f"{result['metrics']['problems_per_s']['value']:.2f}", flush=True)
    summary = summarize(runs, spec["end_to_end"])
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    out = {"change": args.note, "parent_commit": parent,
           "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}",
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "method": METHOD.format(pairs=args.pairs, seeds=seeds), "workloads": summary}
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
