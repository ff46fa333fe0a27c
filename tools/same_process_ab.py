"""Time the package at a parent commit against the working tree's, side by side
in one process, on one benchmark workload, and check that both sides write the
same bytes.

``src/exactdilation`` at ``--parent`` (from ``tools/bench_pairs.py``'s
``checkouts``) and from the working tree are put into one temporary directory
as two packages with two names, ``ab_parent`` and ``ab_change``, and both are
imported into this process.  That works only because the package imports
itself through relative imports alone (``from .linalg import ...``), so each
copy runs its own modules under its own name.

For each seed the problems are one pass of the workload's corpus
(``tools/line_trace.py``'s ``corpus_cases``, from ``perfbench/corpus.py``).
One warm round runs first.  Then, in each round, the two sides alternate
problem by problem (the parent first on even problems of even rounds, and so
on), each ``cli.main`` call is timed, and the round prints each side's total
and B/A: the change's time over the parent's, so below 1 means the change is
faster.  Every call's exit code, report bytes and dump bytes are compared
between the sides.  The first difference ends the run with exit 1 and a
message that names the problem as ``WORKLOAD seed S problem K``, K being its
index in ``corpus_cases(S, [WORKLOAD])``.  Standard error of the calls is
dropped.  After the rounds, one line per corpus stratum gives its B/A and its
share of the parent's time, both summed over every round and seed, so that a
tail metric can be traced to the strata it falls in.  A problem's stratum is
read off its corpus id, ``workload/stratum/i``; cases built by hand, with no
id, form one stratum named by their run's label.

Usage::

    python tools/same_process_ab.py --parent REV --workload W [--seeds 1,2] [--rounds 5]

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, SIDES, checkouts  # noqa: E402
from line_trace import corpus_cases  # noqa: E402

OUTPUTS = ("exit code", "report bytes", "dump bytes")


class Mismatch(Exception):
    """The two sides wrote different outputs for one problem."""


def import_cli(package: Path):
    """The ``cli`` module of the package in directory ``package``, imported afresh
    under the directory's name."""
    name = package.name
    for key in [k for k in sys.modules if k == name or k.startswith(f"{name}.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    sys.path.insert(0, str(package.parent))
    try:
        return importlib.import_module(f"{name}.cli")
    finally:
        sys.path.remove(str(package.parent))


def _read(path: Path):
    return path.read_bytes() if path.is_file() else None


def call(cli, flags, problem: Path, out: Path) -> tuple:
    """One timed ``cli.main`` call: (seconds, (exit code, report bytes, dump bytes))."""
    dump = Path(f"{out}.operators.json")
    out.unlink(missing_ok=True)
    dump.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main([*flags, "--input", str(problem), "--out", str(out)])
    except Exception as exc:  # a crash is an output, compared like an exit code
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, (code, _read(out), _read(dump))


def stratum(label: str, case) -> str:
    """The stratum of a case: the middle part of its corpus id (``workload/stratum/i``),
    or ``label`` for a case built by hand, which has no id."""
    return case[2].split("/")[1] if len(case) > 2 else label


def run_round(clis, cases, workdir: Path, label: str, offset: int) -> list:
    """Every case on both sides, alternating which goes first; each case's seconds,
    parent's then change's.  Raises Mismatch at the first case whose outputs differ."""
    times = []
    gc.collect()
    for k, (flags, *_) in enumerate(cases):
        seen, spent = [None, None], [0.0, 0.0]
        for side in (0, 1) if (k + offset) % 2 == 0 else (1, 0):
            spent[side], seen[side] = call(clis[side], flags, workdir / f"p{k}.json",
                                           workdir / f"p{k}.{SIDES[side]}.report.json")
        for what, a, b in zip(OUTPUTS, *seen):
            if a != b:
                raise Mismatch(f"{label} problem {k}: {what} differ"
                               + (f" ({a!r} against {b!r})" if what == "exit code" else ""))
        times.append(spent)
    return times


def ab(packages, runs, rounds: int, workdir: Path) -> int:
    """Time the ``cli`` of ``packages`` (the parent's directory, then the change's)
    on each ``(label, cases)`` of ``runs``; print every round's B/A, each stratum's
    B/A and share of the parent's time, and the rounds' range and median of B/A.
    Returns 0, or 1 when the outputs of some problem differ."""
    clis = [import_cli(p) for p in packages]
    ratios, strata = [], {}
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
            for label, cases in runs:
                for k, (_, text, *_) in enumerate(cases):
                    (workdir / f"p{k}.json").write_text(text, encoding="utf-8")
                run_round(clis, cases, workdir, label, 1)  # warm
                for r in range(rounds):
                    times = run_round(clis, cases, workdir, label, r)
                    for case, spent in zip(cases, times):
                        name = stratum(label, case)
                        strata[name] = [x + y for x, y in zip(strata.get(name, (0, 0)), spent)]
                    a, b = map(sum, zip(*times))
                    ratios.append(b / a)
                    print(f"{label} round {r + 1}: parent {a:.3f} s, change {b:.3f} s, "
                          f"B/A {b / a:.3f}", flush=True)
    except Mismatch as exc:
        print(f"same_process_ab: {exc}", file=sys.stderr)
        return 1
    parent_total = sum(a for a, _ in strata.values())
    for name, (a, b) in sorted(strata.items()):
        print(f"stratum {name}: B/A {b / a:.3f}, {a / parent_total:.1%} of the parent's time")
    if ratios:
        print(f"B/A {min(ratios):.3f}-{max(ratios):.3f}, median "
              f"{statistics.median(ratios):.3f}, over {len(ratios)} rounds; "
              f"exit codes, reports and dumps identical on every problem")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default=[1, 2],
                        type=lambda text: [int(s) for s in text.split(",")])
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    parent = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    runs = [(f"{args.workload} seed {s}", corpus_cases(s, [args.workload], ids=True))
            for s in args.seeds]
    with tempfile.TemporaryDirectory(prefix="same_process_ab-") as tmp:
        workdir = Path(tmp)
        trees = checkouts(parent, workdir)
        packages = [workdir / f"ab_{side}" for side in SIDES]
        for side, package in zip(SIDES, packages):
            shutil.move(trees[side] / "src" / "exactdilation", package)
        return ab(packages, runs, args.rounds, workdir)


if __name__ == "__main__":
    sys.exit(main())
