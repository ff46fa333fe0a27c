"""List the lines of the package that the test suite never runs.

Runs ``pytest -q tests`` in this process under ``sys.settrace`` and
``threading.settrace``, with ``src`` exported in ``PYTHONPATH`` so that the
suite's subprocesses find the package too; their lines are not traced.  The
executable lines of each module of ``src/exactdilation`` are those of the
``co_lines`` of its code objects.  There is no allowlist: every executable
line that the suite never runs in process is a fault.  Prints each fault,
then a summary, and exits 1 on a fault or on a failing suite; else 0.

Usage: ``python tools/line_trace.py`` (stdlib only, besides pytest itself).
"""

from __future__ import annotations

import os
import sys
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


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC),
                                                              os.environ.get("PYTHONPATH"))))
    code, hits = run_traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", "tests"]),
                            PACKAGE)
    paths = sorted(PACKAGE.glob("*.py"))
    faults = never_run(paths, hits)
    for fault in faults:
        print(f"FAULT {fault}")
    total = sum(len(executable_lines(p)) for p in paths)
    print(f"{len(faults)} of {total} executable lines never run")
    if code != 0:
        print(f"FAULT the suite exited {int(code)}")
    return 1 if faults or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
