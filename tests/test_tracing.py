"""The benchmark's tracer wraps package functions by name from outside the
package; a name it lists that is gone or renamed would crash a traced run, so
it is exercised here against the package as it is.  The tracer module is
loaded from its file and is not modified."""

import importlib.util
import json
import sys
from pathlib import Path

import exactdilation.cli as cli_mod
import exactdilation.dilation as dilation_mod
import exactdilation.linalg as linalg_mod
from exactdilation.fields import RATIONAL
from exactdilation.linalg import mat
from exactdilation.sequences import embed

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer_and_traces_one_call(tmp_path):
    tracing = _load_tracing()
    for modname, attr, _ in tracing.LAYERS:  # every traced name still exists
        owner = sys.modules[f"exactdilation.{modname}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)
    originals = (cli_mod.main, dilation_mod.apply_u, linalg_mod.Mat.__matmul__)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"field": {"kind": "rational"}, "dim": 2,
                                   "T": [["1", "1"], ["0", "1"]],
                                   "S": [["1", "2"], ["0", "1"]]}), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.prepare()
    tracer.install()
    try:
        assert cli_mod.main(["ando", "--input", str(problem), "--out", str(tmp_path / "r.json"),
                             "--trunc", "1", "--max-power", "2", "--trials", "1",
                             "--dump-operators", "1"]) == 0
        # the single-sequence actions keep the interface the tracer's hook reads
        t = mat(RATIONAL, [[1, 1], [0, 1]])
        image = dilation_mod.apply_u(dilation_mod.ando(t, t @ t), embed(RATIONAL, (1, 2)))
    finally:
        tracer.uninstall()
    agg = tracer.take_pass()
    assert (cli_mod.main, dilation_mod.apply_u, linalg_mod.Mat.__matmul__) == originals
    assert agg["cli.calls"] == 1 and agg["verify.calls"] == 1
    assert agg["dilation.truncated_matrix.calls"] == 2
    assert agg["linalg.matmul.calls"] > 0 and agg["linalg.matmul_madds"] > 0
    # the action table holds the public actions, so the tracer sees the audit's
    # applications too: 1 direct call, U and V on each of levels 0..2 of the one
    # build that serves the audit (read at trunc + 1 = 2) and the level-1 dump,
    # and 2 steps each of U and V in the bivariate record; the audit's highest
    # coordinate is 10
    assert agg["dilation.apply.calls"] == 11
    assert agg["dilation.support_max"] == 10 > image.max_support() > 0
    assert agg["fields.v_max_bits"] > 0
