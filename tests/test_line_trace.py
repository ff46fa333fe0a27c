"""The never-run-lines tracer ``tools/line_trace.py`` is a script outside the
package; its collector runs here on a small module, not on the whole suite."""

import importlib.util
import json
import sys
import threading
import time
from pathlib import Path

LINE_TRACE = Path(__file__).resolve().parents[1] / "tools" / "line_trace.py"

SAMPLE = '''"""A sample module."""


def f(x):
    if x < 0:
        raise ValueError(
            "negative")
    return [y * 2 for y in range(x)]


def g():
    return 1


def h(out):
    out.append(3)
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collector_finds_the_lines_a_run_never_reaches(tmp_path):
    tool = _load("line_trace", LINE_TRACE)
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    outer = sys.gettrace()

    def run():
        sample = _load("sample", path)  # imported inside the run: its def lines run
        out = []
        thread = threading.Thread(target=sample.h, args=(out,))
        thread.start()
        thread.join()
        return sample.f(2), out

    result, hits = tool.run_traced(run, tmp_path)
    assert result == ([0, 2], [3])
    assert sys.gettrace() is outer  # the tracer of a traced suite is put back
    # the raise, over two lines, and the body of g; h ran on its own thread.
    # There is no allowlist: each never-run line is a fault
    assert tool.never_run([path], hits) == [
        'sample.py:6: never run: raise ValueError(',
        'sample.py:7: never run: "negative")',
        "sample.py:12: never run: return 1"]


def test_corpus_mode_lists_the_lines_a_corpus_never_runs(tmp_path):
    # one problem, with the flags of the ando-construct workload: the audit and the
    # dump run, and the refusal of a bad flag is listed as never run
    tool = _load("line_trace", LINE_TRACE)
    flags = ("ando", "--max-power", "1", "--trunc", "0", "--trials", "1",
             "--dump-operators", "1")
    problem = ('{"field": {"kind": "gf", "modulus": 7}, '
               '"recipe": {"kind": "polynomial", "dim": 2, "seed": 3}}')
    start = time.perf_counter()
    codes, hits = tool.run_traced(lambda: tool.run_corpus([(flags, problem)], tmp_path),
                                  tool.PACKAGE)
    assert time.perf_counter() - start < 2
    assert codes == [0]
    assert (tmp_path / "p0.report.json.operators.json").is_file()
    cli = tool.PACKAGE / "cli.py"
    unrun = tool.never_run([cli], hits)
    refusal = 'raise ProblemError("--dump-operators level must be >= 0")'
    built = 'truncations = (truncated_matrix("U", ops, top), truncated_matrix("V", ops, top))'
    assert not any(line.endswith(f": never run: {built}") for line in unrun)
    assert sum(line.endswith(f": never run: {refusal}") for line in unrun) == 1


def test_corpus_cases_are_one_seed_1_pass_of_every_benchmark_workload():
    tool = _load("line_trace", LINE_TRACE)
    cases = tool.corpus_cases()
    corpus = sys.modules["corpus"]  # perfbench/corpus.py, as the tool imports it
    workloads = corpus.WORKLOADS.values()
    assert len(cases) == sum(st.per_pass for w in workloads for st in w.strata)
    assert {flags for flags, _ in cases} == {w.flags for w in workloads}
    assert all(json.loads(text) for _, text in cases)
