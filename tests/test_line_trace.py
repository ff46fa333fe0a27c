"""The never-run-lines tracer ``tools/line_trace.py`` is a script outside the
package; its collector runs here on a small module, not on the whole suite."""

import importlib.util
import sys
import threading
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
    # the raise, over two lines, and the body of g; h ran on its own thread
    missing = tool.never_run([path], hits)
    assert [(n, text) for _, n, text in missing] == [
        (6, "raise ValueError("), (7, '"negative")'), (12, "return 1")]

    allowed = {("sample.py", "raise ValueError("): "a reason",
               ("sample.py", '"negative")'): "a reason",
               ("sample.py", "return 2"): "text no longer in the file"}
    assert tool.audit(missing, allowed, tmp_path) == [
        "sample.py:12: never run: return 1",
        "sample.py: allowlist entry not found: return 2"]
