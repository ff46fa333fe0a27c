"""Freeze the expected outputs of every pool problem from the current package.

    python3 perfbench/freeze.py

Runs each problem of every workload's pool twice through ``exactdilation.cli.main``
and writes ``perfbench/expected.json``: for each problem id, [problem digest,
exit code, report digest, dump digest].  It refuses a problem whose two runs
differ, whose exit code is not 0 or 3, or whose report does not pass.  Run it
only on the commit whose outputs are the reference: the benchmark counts
every later difference as a failed problem.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from dataclasses import replace

import corpus
import run


def freeze(cli, workload: corpus.Workload) -> dict:
    problems = corpus.pool(workload)
    workdir = run.WORK / f"freeze-{os.getpid()}"
    try:
        cases = run.make_cases(workload, problems, workdir,
                               {p.id: [p.sha, None, None, None] for p in problems})
        table = {}
        for case in cases:
            outcomes = {run.run_case(cli, case)[1:] for _ in range(2)}
            if len(outcomes) != 1:
                raise run.BenchError(f"{case.problem.id}: two runs differ")
            code, report, dump = outcomes.pop()
            entry = [case.problem.sha, code, corpus.digest(report), corpus.digest(dump)]
            if code not in (0, 3) or not run.verdict_ok(replace(case, expected=entry),
                                                        code, report, dump):
                raise run.BenchError(f"{case.problem.id}: exit {code}, not a passing verdict")
            table[case.problem.id] = entry
        return table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    table = {}
    cli = run.import_cli()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
        for name in sorted(corpus.WORKLOADS):
            table[name] = freeze(cli, corpus.WORKLOADS[name])
            print(f"{name}: {len(table[name])} problems frozen", flush=True)
    blocks = []
    for name in sorted(table):
        rows = ",\n".join(f"  {json.dumps(pid)}: {json.dumps(entry)}"
                          for pid, entry in sorted(table[name].items()))
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    # one problem per line
    (run.HERE / "expected.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
