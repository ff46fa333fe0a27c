import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactdilation
import exactdilation.cli as cli_mod
import exactdilation.dilation as dilation_mod
import exactdilation.linalg as linalg_mod
from exactdilation.cli import main
from exactdilation.dilation import ando, truncated_matrix
from exactdilation.fields import gf
from exactdilation.problems import (
    ProblemError,
    load_problem,
    mat_to_grid,
    parse_problem,
    resolve_pair,
)
from exactdilation.verify import report_from_json


def write_problem(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


IDENTITY2 = {"field": {"kind": "rational"}, "dim": 2,
             "T": [["1", "0"], ["0", "1"]], "S": [["1", "0"], ["0", "1"]]}
NONCOMMUTING = {"field": {"kind": "rational"}, "dim": 2,
                "T": [["0", "1"], ["0", "0"]], "S": [["0", "0"], ["1", "0"]]}
RECIPE_GF7 = {"field": {"kind": "gf", "modulus": 7},
              "recipe": {"kind": "polynomial", "dim": 3, "seed": 42}}


# -- problem files ---------------------------------------------------------------


def test_parse_explicit_problem():
    problem = parse_problem(IDENTITY2)
    assert problem.dim == 2 and problem.recipe is None
    t, s = resolve_pair(problem)
    assert t.rows == 2 and s is not None


def test_parse_recipe_problem():
    problem = parse_problem(RECIPE_GF7)
    assert problem.recipe is not None and problem.T is None
    t, s = resolve_pair(problem)
    assert t.field == gf(7) and t.rows == 3


@pytest.mark.parametrize("mutate", [
    lambda o: o.pop("field"),
    lambda o: o.pop("T"),
    lambda o: o.update(recipe={"kind": "diagonal", "dim": 2, "seed": 0}),
    lambda o: o.update(dim=3),
    lambda o: o["T"][0].__setitem__(0, "1/0"),
    lambda o: o["T"][0].__setitem__(0, "0.5"),
    lambda o: o.update(extra=1),
    lambda o: o.update(field={"kind": "gf", "modulus": 6}),
])
def test_parse_problem_rejects(mutate):
    obj = json.loads(json.dumps(IDENTITY2))
    mutate(obj)
    with pytest.raises(ProblemError):
        parse_problem(obj)


def test_parse_recipe_rejects():
    with pytest.raises(ProblemError):
        parse_problem({"field": {"kind": "rational"},
                       "recipe": {"kind": "explicit", "dim": 2, "seed": 0}})
    with pytest.raises(ProblemError):
        parse_problem({"field": {"kind": "rational"}, "dim": 3,
                       "recipe": {"kind": "diagonal", "dim": 2, "seed": 0}})
    with pytest.raises(ProblemError):
        parse_problem({"field": {"kind": "rational"},
                       "recipe": {"kind": "diagonal", "dim": 2}})


def test_load_problem_errors(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ProblemError):
        load_problem(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProblemError):
        load_problem(str(bad))


# -- gen -------------------------------------------------------------------------------


def test_gen_writes_parseable_commuting_pair(tmp_path):
    out = tmp_path / "problem.json"
    code = main(["gen", "--kind", "diagonal", "--dim", "2", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    problem = load_problem(str(out))
    t, s = resolve_pair(problem)
    from exactdilation.pairs import check_commute

    assert check_commute(t, s)


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--kind", "polynomial", "--dim", "3", "--seed", "5", "--field", "gf7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_idempotent_kind_generates_idempotents(tmp_path):
    out = tmp_path / "p.json"
    assert main(["gen", "--kind", "idempotent", "--dim", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    t, _ = resolve_pair(load_problem(str(out)))
    assert t @ t == t


def test_gen_rejects_bad_field(tmp_path, capsys):
    code = main(["gen", "--kind", "diagonal", "--dim", "2", "--field", "gf6",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- sznagy -------------------------------------------------------------------------------


def test_sznagy_identity_passes(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    out = tmp_path / "report.json"
    code = main(["sznagy", "--input", path, "--out", str(out)])
    assert code == 0
    report = report_from_json(out.read_text(encoding="utf-8"))
    assert report.passed and report.meta["kind"] == "sznagy"
    # S was present: warn and ignore
    assert "ignored" in capsys.readouterr().err


def test_sznagy_nilpotent_passes(tmp_path):
    problem = {"field": {"kind": "rational"}, "dim": 2, "T": [["0", "1"], ["0", "0"]]}
    path = write_problem(tmp_path / "p.json", problem)
    code = main(["sznagy", "--input", path, "--max-power", "4",
                 "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_sznagy_stdout_and_text_format(tmp_path, capsys):
    problem = {"field": {"kind": "rational"}, "dim": 1, "T": [["3"]]}
    path = write_problem(tmp_path / "p.json", problem)
    assert main(["sznagy", "--input", path, "--format", "text"]) == 0
    rendered = capsys.readouterr().out
    assert "PASS dilation_equation" in rendered
    assert "overall: PASS" in rendered


def test_sznagy_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["sznagy", "--input", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_params_exit_2(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    assert main(["ando", "--input", path, "--trials", "0"]) == 2
    capsys.readouterr()


# -- ando ----------------------------------------------------------------------------------


def test_ando_identity_passes(tmp_path):
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    out = tmp_path / "report.json"
    assert main(["ando", "--input", path, "--out", str(out)]) == 0
    report = report_from_json(out.read_text(encoding="utf-8"))
    assert report.passed
    assert {r.name for r in report.checks} == {
        "bivariate_dilation_equation", "commutation", "injectivity_u",
        "injectivity_v", "v_coherence", "well_definedness"}


def test_ando_noncommuting_exits_3_without_report(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", NONCOMMUTING)
    out = tmp_path / "report.json"
    assert main(["ando", "--input", path, "--out", str(out)]) == 3
    assert not out.exists()
    assert "commute" in capsys.readouterr().err


def test_ando_requires_s(tmp_path):
    problem = {"field": {"kind": "rational"}, "dim": 1, "T": [["1"]]}
    path = write_problem(tmp_path / "p.json", problem)
    assert main(["ando", "--input", path]) == 2


def test_ando_recipe_end_to_end_deterministic(tmp_path):
    path = write_problem(tmp_path / "p.json", RECIPE_GF7)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["ando", "--input", path, "--out", str(r1)]) == 0
    assert main(["ando", "--input", path, "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = report_from_json(r1.read_text(encoding="utf-8"))
    assert report.passed
    assert report.meta["recipe"] == {"kind": "polynomial", "dim": 3, "seed": 42,
                                     "degree": 3, "height": 5}


def test_ando_dump_operators(tmp_path):
    problem = {"field": {"kind": "rational"}, "dim": 1, "T": [["2"]], "S": [["4"]]}
    path = write_problem(tmp_path / "p.json", problem)
    out = tmp_path / "report.json"
    assert main(["ando", "--input", path, "--out", str(out), "--dump-operators", "1"]) == 0
    dump = json.loads((tmp_path / "report.json.operators.json").read_text(encoding="utf-8"))
    assert dump["trunc"] == 1
    t, s = resolve_pair(load_problem(path))
    ops = ando(t, s)
    assert dump["U"] == mat_to_grid(truncated_matrix("U", ops, 1))
    assert dump["V"] == mat_to_grid(truncated_matrix("V", ops, 1))
    assert dump["v"] == mat_to_grid(ops.v)


def test_ando_dump_operators_needs_out(tmp_path):
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    assert main(["ando", "--input", path, "--dump-operators", "1"]) == 2


def _count_calls(monkeypatch, **owners):
    """Count calls of each named function, wherever a package module binds it."""
    counts = {}
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "exactdilation"]
    for name, owner in owners.items():
        real = getattr(owner, name)
        counts[name] = 0

        def wrapper(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def test_each_fact_is_computed_once_per_run(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, ando=dilation_mod, build_generators=dilation_mod,
                          truncated_matrix=dilation_mod, kernel_basis=linalg_mod)
    path = write_problem(tmp_path / "p.json", RECIPE_GF7)
    out = tmp_path / "report.json"
    assert main(["ando", "--input", path, "--out", str(out), "--trunc", "5",
                 "--dump-operators", "1"]) == 0
    # one build each for the audit and the dump; the audit reads every level
    # off one truncation per operator
    assert counts == {"ando": 1, "build_generators": 2, "truncated_matrix": 4,
                      "kernel_basis": 2}
    counts.update(dict.fromkeys(counts, 0))
    assert main(["sznagy", "--input", path, "--out", str(out), "--trunc", "5"]) == 0
    assert counts["truncated_matrix"] == 1


def test_ando_dump_operators_rejects_negative_level(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    out = tmp_path / "report.json"
    assert main(["ando", "--input", path, "--out", str(out), "--dump-operators", "-1"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


ONE_DIM = {"field": {"kind": "rational"}, "dim": 1, "T": [["1"]], "S": [["1"]]}
DIAGONAL = {"field": {"kind": "rational"}, "recipe": {"kind": "diagonal", "dim": 1, "seed": 0}}


@pytest.mark.parametrize("problem", [
    dict(ONE_DIM, dim=True),
    dict(ONE_DIM, dim=1.0),
    dict(DIAGONAL, dim=True),
    dict(DIAGONAL, recipe=dict(DIAGONAL["recipe"], dim=True)),
    dict(DIAGONAL, recipe=dict(DIAGONAL["recipe"], seed=False)),
    dict(DIAGONAL, recipe=dict(DIAGONAL["recipe"], seed=0.5)),
    dict(DIAGONAL, recipe=dict(DIAGONAL["recipe"], degree=True)),
    dict(DIAGONAL, recipe=dict(DIAGONAL["recipe"], degree="3")),
    dict(DIAGONAL, recipe=dict(DIAGONAL["recipe"], height=2.5)),
    dict(DIAGONAL, recipe=dict(DIAGONAL["recipe"], degree=-1)),
    dict(DIAGONAL, recipe=dict(DIAGONAL["recipe"], height=0)),
])
@pytest.mark.parametrize("command", ["ando", "sznagy"])
def test_bad_numbers_exit_2(tmp_path, capsys, problem, command):
    path = write_problem(tmp_path / "p.json", problem)
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_large_moduli_at_the_cli(tmp_path, capsys):
    # 2**61 - 1 is a prime the suite runs on; 2**89 - 1 is prime but above
    # the ceiling of the deterministic prime test, so it is refused with exit 2
    ok = write_problem(tmp_path / "ok.json", {"field": {"kind": "gf", "modulus": 2**61 - 1},
                                              "recipe": {"kind": "polynomial", "dim": 2,
                                                         "seed": 1}})
    assert main(["ando", "--input", ok, "--max-power", "2", "--trunc", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    big = write_problem(tmp_path / "big.json", {"field": {"kind": "gf", "modulus": 2**89 - 1},
                                                "recipe": {"kind": "diagonal", "dim": 2,
                                                           "seed": 1}})
    for argv in (["ando", "--input", big], ["sznagy", "--input", big],
                 ["gen", "--kind", "diagonal", "--dim", "1", "--field", f"gf{2**89 - 1}"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err and captured.err.count("\n") == 1


def test_failing_report_exits_1(tmp_path, monkeypatch):
    # no honest input can fail the suite, so stub the checker
    from exactdilation.verify import CheckRecord, Report

    def fake_check(t, s, params, recipe=None, ops=None):
        rec = CheckRecord("commutation", {}, False, {"trunc": 0})
        return Report({"kind": "ando"}, (rec,), False)

    monkeypatch.setattr(cli_mod, "check_ando", fake_check)
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    out = tmp_path / "report.json"
    assert main(["ando", "--input", path, "--out", str(out)]) == 1
    assert out.exists()  # failing report is still written


def test_console_script_runs(tmp_path):
    # Run the console script declared in pyproject.toml through the launcher
    # body pip writes for it, so the check needs a checkout, not an install.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, func = scripts["exactdilation"].split(":")
    launcher = tmp_path / "exactdilation"
    launcher.write_text(f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n",
                        encoding="utf-8")
    src_dir = Path(exactdilation.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run([sys.executable, str(launcher), "gen", "--kind", "diagonal",
                           "--dim", "1", "--seed", "1"],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    parsed = json.loads(proc.stdout)
    assert parsed["dim"] == 1


def test_cli_text_format_ando(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    assert main(["ando", "--input", path, "--format", "text"]) == 0
    rendered = capsys.readouterr().out
    assert "overall: PASS" in rendered
    assert "commutation" in rendered


def test_text_renderer_failure_lines():
    from exactdilation.cli import _render_text
    from exactdilation.verify import CheckRecord, Report

    rec = CheckRecord("commutation", {}, False, {"trunc": 0, "row": 1, "col": 2,
                                                 "uv": "1", "vu": "0"})
    report = Report({"kind": "ando", "field": {"kind": "rational"}, "dim": 1,
                     "params": {"seed": 0}}, (rec,), False)
    rendered = _render_text(report)
    assert "FAIL commutation" in rendered
    assert "counterexample" in rendered
    assert rendered.rstrip().endswith("overall: FAIL")


def test_module_invocation(tmp_path):
    import sys

    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "exactdilation", "gen", "--kind", "diagonal",
         "--dim", "2", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text(encoding="utf-8"))["dim"] == 2
