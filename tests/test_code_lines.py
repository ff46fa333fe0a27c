"""The code-line counter ``tools/code_lines.py`` is a script outside the
package; it is loaded from its file and run on a small module here."""

import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


def f(x):
    """A function docstring."""

    return (x +
            os.sep)


class C:
    """A class docstring."""
    y = """a string that is not a docstring"""
'''


def _load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path, capsys):
    tool = _load_code_lines()
    # import, def, the two lines of return, class, y
    assert tool.code_lines(SAMPLE) == 6
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    total = str(len(SAMPLE.splitlines()))
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["module", "code", "total"], ["sample.py", "6", total],
        ["code", "lines", "6"], ["total", "lines", total]]


# ROADMAP item 8's ceiling.  A feature PR that states a code budget raises it by
# exactly that budget, and says so in CHANGES.md.
CODE_LINE_CEILING = 1480


def test_package_stays_under_the_code_line_ceiling():
    tool = _load_code_lines()
    counts = {path.name: tool.code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(tool.PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    assert total <= CODE_LINE_CEILING, "".join(
        f"\n{name:<16} {n:>5}" for name, n in {**counts, "code lines": total}.items())
