"""The benchmark checks every exchange map it dumps with the independent oracles
of ``tests/oracles.py`` (``spot_check`` in ``perfbench/run.py``), so an edit of
those oracles that breaks it would break the benchmark; it is exercised here
against them as they are.  The benchmark's modules are loaded from their files
and are not modified."""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

from exactdilation.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

T = [[Fraction(1, 2), 1, 0], [0, 1, Fraction(-2, 3)], [0, 0, 2]]


def _load_run(monkeypatch):
    """``perfbench/run.py`` as a module, with ``perfbench/`` on the path for its own
    imports; it is registered before it runs, as ``@dataclass`` looks it up."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_spot_check_reads_the_dump_with_the_test_oracles(tmp_path, monkeypatch):
    run = _load_run(monkeypatch)
    s = [[sum(T[i][k] * T[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    text = json.dumps({"field": {"kind": "rational"}, "dim": 3,
                       "T": [[str(x) for x in row] for row in T],
                       "S": [[str(x) for x in row] for row in s]})
    path, out = tmp_path / "p.json", tmp_path / "r.json"
    path.write_text(text, encoding="utf-8")
    argv = ["ando", "--input", str(path), "--out", str(out), "--dump-operators", "1",
            "--trunc", "0", "--max-power", "1", "--trials", "1"]
    assert main(argv) == 0
    dump = Path(f"{out}.operators.json")
    case = run.Case(run.corpus.Problem("q-d3", text), argv, path, out, dump, [])
    assert run.spot_check([case]) == (1, [])
    # the identity is no exchange map here, as G != H
    operators = json.loads(dump.read_text())
    operators["v"] = [[int(i == j) for j in range(12)] for i in range(12)]
    dump.write_text(json.dumps(operators))
    assert run.spot_check([case]) == (1, ["q-d3"])
