"""Every proof that the code or README cites still runs.

A ``test_...`` name in a docstring or comment under ``src/exactdilation/`` or
``tools/`` must name a test function or a test module under ``tests/``, and
every ``tests/<file>.py::<name>`` in README.md a test function of that file.
So a test renamed or deleted cannot leave an argued step citing nothing.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITED = re.compile(r"\btest_\w*[A-Za-z0-9]")
README_ID = re.compile(r"\btests/(\w+)\.py::(\w+)")


def _test_functions() -> dict:
    """Each test module's name -> the names of the test functions it defines."""
    return {path.stem: {node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
            for path in (ROOT / "tests").glob("test_*.py")}


def _prose(source: str) -> list:
    """The docstrings and comments of one Python source text."""
    texts = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            texts.append(ast.get_docstring(node) or "")
    return texts


def _citations() -> dict:
    """Each file under ``src/exactdilation/`` and ``tools/`` -> the test names its prose cites."""
    paths = [*(ROOT / "src" / "exactdilation").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    return {path.relative_to(ROOT).as_posix():
            {name for text in _prose(path.read_text(encoding="utf-8"))
             for name in CITED.findall(text)}
            for path in paths}


def test_every_test_cited_in_code_prose_exists():
    functions = _test_functions()
    known = set(functions).union(*functions.values())
    cited = _citations()
    # the check reads the citations there are: the kernel lemma's proof is one
    assert "test_kernel_lemma_is_an_identity" in cited["src/exactdilation/dilation.py"]
    assert "test_no_such_proof" not in known
    missing = {path: sorted(names - known) for path, names in cited.items() if names - known}
    assert missing == {}


def test_every_test_id_in_the_readme_exists():
    functions = _test_functions()
    ids = README_ID.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert ("test_dilation", "test_kernel_lemma_is_an_identity") in ids
    assert "test_no_such_proof" not in functions["test_dilation"]
    assert [f"tests/{m}.py::{n}" for m, n in ids if n not in functions.get(m, ())] == []
