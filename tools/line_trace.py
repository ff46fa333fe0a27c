"""List the lines of the package that the test suite, or the benchmark corpus,
never runs.

Runs ``pytest -q tests`` in this process under ``sys.settrace`` and
``threading.settrace``, with ``src`` exported in ``PYTHONPATH`` so that the
suite's subprocesses find the package too; their lines are not traced.  The
executable lines of each module of ``src/exactdilation`` are those of the
``co_lines`` of its code objects.  There is no allowlist: every executable
line that the suite never runs in process is a fault.  Prints each fault,
then a summary, and exits 1 on a fault or on a failing suite; else 0.

With ``--corpus`` it runs, in place of the suite, one seed-1 pass of every
workload of ``BENCHMARK.json`` (the problems of ``perfbench/corpus.py``,
with each workload's flags) through ``cli.main``, and lists the lines that
no workload runs: the branches the benchmark's traffic never takes, error
paths among them.  These are no faults; it exits 0.

Usage: ``python tools/line_trace.py [--corpus]`` (stdlib only, besides pytest
itself).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "exactdilation"


def executable_lines(path: Path) -> set:
    """The line numbers that the code objects compiled from ``path`` hold."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(run, root: Path):
    """``run()`` with every line it runs in a file under ``root`` recorded, on
    every thread; returns run's result and the lines as {file name: set}."""
    prefix, hits = str(root) + os.sep, defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    outer = sys.gettrace(), threading.gettrace()  # a trace of a run that runs this
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, hits


def never_run(paths, hits) -> list:
    """One fault line per executable line of ``paths`` not in ``hits``."""
    out = []
    for path in paths:
        text = path.read_text(encoding="utf-8").splitlines()
        ran = hits.get(str(path), set())
        out += [f"{path.name}:{n}: never run: {text[n - 1].strip()}"
                for n in sorted(executable_lines(path) - ran)]
    return out


def corpus_cases(seed: int = 1, workloads=None) -> list:
    """``(flags, problem text)`` for each problem of one ``seed`` pass of each named
    workload, by default every workload of ``BENCHMARK.json``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    if workloads is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in spec["workloads"]]
    return [(corpus.WORKLOADS[name].flags, problem.text) for name in workloads
            for problem in corpus.corpus(corpus.WORKLOADS[name], seed)]


def run_corpus(cases, workdir: Path) -> list:
    """Each ``(flags, problem text)`` of ``cases`` through ``cli.main``, its problem
    file, report and any dump in ``workdir`` and its standard error dropped; the exit
    codes.  The package is imported here, so that a traced run sees its import."""
    from exactdilation import cli

    codes = []
    with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
        for k, (flags, text) in enumerate(cases):
            path = workdir / f"p{k}.json"
            path.write_text(text, encoding="utf-8")
            codes.append(cli.main([*flags, "--input", str(path),
                                   "--out", str(workdir / f"p{k}.report.json")]))
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="List the package lines that the test suite never runs.")
    parser.add_argument("--corpus", action="store_true",
                        help="trace one seed-1 pass of the benchmark workloads, not the suite")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    paths = sorted(PACKAGE.glob("*.py"))
    total = sum(len(executable_lines(p)) for p in paths)
    if args.corpus:
        cases = corpus_cases()
        with tempfile.TemporaryDirectory() as workdir:
            _, hits = run_traced(lambda: run_corpus(cases, Path(workdir)), PACKAGE)
        unrun = never_run(paths, hits)
        for line in unrun:
            print(line)
        print(f"{len(unrun)} of {total} executable lines never run by {len(cases)} "
              f"problems, one seed-1 pass of every benchmark workload")
        return 0
    import pytest

    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC),
                                                              os.environ.get("PYTHONPATH"))))
    code, hits = run_traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", "tests"]),
                            PACKAGE)
    faults = never_run(paths, hits)
    for fault in faults:
        print(f"FAULT {fault}")
    print(f"{len(faults)} of {total} executable lines never run")
    if code != 0:
        print(f"FAULT the suite exited {int(code)}")
    return 1 if faults or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
