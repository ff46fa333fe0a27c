"""Report bytes frozen under ``tests/golden/``.

Every case records what a user would see: the report file, the operator
dump sidecar, the exit code and stderr.  The golden files hold the bytes the
code gave when they were written, so any change in report bytes fails here.
After a deliberate change of report format, rewrite them with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change
description.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from exactdilation.cli import main
from exactdilation.dilation import ando
from exactdilation.fields import RATIONAL
from exactdilation.linalg import Mat
from exactdilation.pairs import PairRecipe, gen_pair
from exactdilation.verify import CheckParams, check_ando

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

Q = {"kind": "rational"}
GF7 = {"kind": "gf", "modulus": 7}


def _recipe(field, kind, dim, seed):
    return {"field": field, "recipe": {"kind": kind, "dim": dim, "seed": seed}}


# name -> (problem, argv after the subcommand's --input/--out)
CLI_CASES = {
    "ando_q_polynomial": (_recipe(Q, "polynomial", 3, 42), ["ando"]),
    "ando_q_idempotent": (_recipe(Q, "idempotent", 3, 7), ["ando", "--trunc", "3"]),
    "ando_gf7_polynomial": (_recipe(GF7, "polynomial", 3, 42), ["ando"]),
    "ando_gf7_upper_triangular": (_recipe(GF7, "upper_triangular", 4, 3),
                                  ["ando", "--max-power", "3", "--trunc", "2"]),
    "sznagy_q_polynomial": (_recipe(Q, "polynomial", 3, 42),
                            ["sznagy", "--max-power", "8", "--trunc", "6"]),
    "sznagy_q_idempotent": (_recipe(Q, "idempotent", 3, 4), ["sznagy", "--trunc", "4"]),
    "sznagy_q_explicit_large_denominators": (
        {"field": Q, "dim": 2,
         "T": [["1/3", "-2/5"], ["7/2", "12345678901234567890123/98765432109876543210"]]},
        ["sznagy"]),
    "sznagy_gf7_polynomial": (_recipe(GF7, "polynomial", 4, 1), ["sznagy"]),
    "sznagy_gf7_idempotent": (_recipe(GF7, "idempotent", 3, 9), ["sznagy", "--trials", "3"]),
    "ando_q_text": (_recipe(Q, "upper_triangular", 2, 1), ["ando", "--format", "text"]),
    "sznagy_gf7_text": (_recipe(GF7, "diagonal", 3, 2), ["sznagy", "--format", "text"]),
    "ando_q_dump": (_recipe(Q, "polynomial", 2, 3), ["ando", "--dump-operators", "1"]),
    "ando_noncommuting": (
        {"field": Q, "dim": 2, "T": [["0", "1"], ["0", "0"]], "S": [["0", "0"], ["1", "0"]]},
        ["ando"]),
}

TAMPERED_CASE = "ando_q_tampered_v"


def _run_cli(name, workdir: Path) -> dict:
    """Every output of one CLI case: file name -> text, plus exit code and stderr."""
    problem, argv = CLI_CASES[name]
    inp, out = workdir / f"{name}.problem.json", workdir / f"{name}.report"
    inp.write_text(json.dumps(problem), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([argv[0], "--input", str(inp), "--out", str(out), *argv[1:]])
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(workdir.glob(f"{name}.report*"))}
    return {"exit": code, "stderr": err.getvalue(), "files": files}


def _run_tampered() -> dict:
    """A failing report: the honest exchange map with one entry bumped by 1/2."""
    t, s = gen_pair(PairRecipe("polynomial", 2, RATIONAL, seed=5))
    ops = ando(t, s)
    rows = [list(r) for r in ops.v.entries]
    rows[1][0] += RATIONAL.parse("1/2")
    bad = ops.replace(v=Mat(RATIONAL, ops.v.rows, ops.v.cols, tuple(map(tuple, rows))))
    report = check_ando(bad, CheckParams(max_power=3, max_trunc=2))
    return {"exit": None, "stderr": "", "files": {f"{TAMPERED_CASE}.report": report.to_json()}}


def _outputs(name, workdir: Path) -> dict:
    return _run_tampered() if name == TAMPERED_CASE else _run_cli(name, workdir)


ALL_CASES = [*CLI_CASES, TAMPERED_CASE]


@pytest.mark.parametrize("name", ALL_CASES)
def test_report_bytes_match_golden(name, tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    got = _outputs(name, tmp_path)
    assert got["exit"] == manifest["exit"]
    assert got["stderr"] == manifest["stderr"]
    assert sorted(got["files"]) == manifest["files"]
    for fname, text in got["files"].items():
        assert text.encode("utf-8") == (GOLDEN / fname).read_bytes(), fname


def test_golden_cases_cover_failures():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert manifest["ando_noncommuting"]["exit"] == 3
    assert '"pass": false' in (GOLDEN / f"{TAMPERED_CASE}.report").read_text(encoding="utf-8")
    assert "ando_q_dump.report.operators.json" in manifest["ando_q_dump"]["files"]


# run under ``python -O``, where assert statements are gone, so every check raises
_UNDER_O = """
import json, sys
from pathlib import Path
import test_golden as golden
from exactdilation.dilation import SzNagyOperators, ando
from exactdilation.fields import FieldSpec, gf
from exactdilation.linalg import identity, mat, zeros
from exactdilation.pairs import PairRecipe
from exactdilation.problems import Problem
from exactdilation.verify import CheckParams, report_from_json
if __debug__:
    sys.exit("not running under -O")
manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
for name in ("ando_q_dump", "sznagy_q_polynomial"):
    got = golden._run_cli(name, Path(sys.argv[1]))
    if got["exit"] != manifest[name]["exit"] or sorted(got["files"]) != manifest[name]["files"]:
        sys.exit(f"{name}: exit code or files differ from the manifest")
    for fname, text in got["files"].items():
        if text.encode("utf-8") != (golden.GOLDEN / fname).read_bytes():
            sys.exit(f"{fname} differs from its golden bytes")
ops = ando(*(mat(gf(7), [[1, 2], [0, 1]]),) * 2)
failing = json.dumps({"meta": {}, "checks": [{"name": "x", "params": {}, "pass": False,
                                              "counterexample": {}}], "pass": True})
recipe = PairRecipe("diagonal", 2, ops.field)
for make in (lambda: CheckParams(max_power=0),
             lambda: PairRecipe("diagonal", True, ops.field), lambda: gf(None),
             lambda: FieldSpec.from_dict({"kind": "gf", "modulus": None}),
             lambda: ops.replace(v=identity(ops.field, 9)),
             lambda: Problem(ops.field, 2, ops.T, None, recipe),
             lambda: SzNagyOperators(zeros(ops.field, 2, 3)),
             lambda: report_from_json(failing)):
    try:
        make()
    except ValueError:  # DimensionMismatch, InvalidRecipe and ProblemError among them
        continue
    sys.exit("an invalid value was accepted")
print("ok")
"""


def test_golden_bytes_and_validation_survive_python_O(tmp_path):
    tests_dir = Path(__file__).resolve().parent
    src_dir = Path(main.__code__.co_filename).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O, str(tmp_path)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src_dir, tests_dir)))),
        timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def _write_golden():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ALL_CASES:
            got = _outputs(name, Path(tmp))
            for fname, text in got["files"].items():
                (GOLDEN / fname).write_bytes(text.encode("utf-8"))
            manifest[name] = {"exit": got["exit"], "stderr": got["stderr"],
                              "files": sorted(got["files"])}
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
    sys.exit(0)
