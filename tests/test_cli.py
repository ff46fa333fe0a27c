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
from exactdilation.cli import _params, build_parser, main
from exactdilation.dilation import ando, truncated_matrix
from exactdilation.fields import gf
from exactdilation.problems import (
    ProblemError,
    load_problem,
    mat_to_grid,
    parse_problem,
    resolve_pair,
)
from exactdilation.pairs import PairRecipe
from exactdilation.verify import CheckParams, report_from_json


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


def test_parse_problem_rejects_a_non_object():
    with pytest.raises(ProblemError, match="must be a JSON object"):
        parse_problem([IDENTITY2])


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
    with pytest.raises(ProblemError, match="must be an object"):
        parse_problem({"field": {"kind": "rational"}, "recipe": ["diagonal", 2, 0]})
    with pytest.raises(ProblemError, match="unknown recipe keys"):
        parse_problem({"field": {"kind": "rational"},
                       "recipe": {"kind": "diagonal", "dim": 2, "seed": 0, "size": 2}})


def test_load_problem_errors(tmp_path, monkeypatch):
    missing = tmp_path / "missing.json"
    with pytest.raises(ProblemError):
        load_problem(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProblemError):
        load_problem(str(bad))

    def failing_load(fh):  # the file opens, but reading it fails
        raise OSError("Input/output error")

    monkeypatch.setattr(json, "load", failing_load)
    with pytest.raises(ProblemError, match="cannot read .*Input/output error"):
        load_problem(write_problem(tmp_path / "p.json", IDENTITY2))


def test_path_with_nul_byte_cannot_be_read(tmp_path):
    # open raises ValueError here, which is no number too long to read
    with pytest.raises(ProblemError, match="cannot read") as info:
        load_problem(str(tmp_path / "p\0.json"))
    assert "number too long" not in str(info.value)


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
    for field in ("gf6", "real"):  # not prime; no field of that name
        code = main(["gen", "--kind", "diagonal", "--dim", "2", "--field", field,
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


def test_flag_defaults_are_those_of_check_params_and_pair_recipe(capsys, monkeypatch):
    parser = build_parser()
    monkeypatch.setenv("COLUMNS", "200")  # one line per flag
    for command in ("sznagy", "ando"):
        assert _params(parser.parse_args([command, "--input", "p.json"])) == CheckParams()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        for text in ("exponent checked (default 4)", "level checked (default 5)",
                     "per check (default 8)", "seed (default 0)"):
            assert text in out
    args = parser.parse_args(["gen", "--kind", "diagonal", "--dim", "1"])
    assert PairRecipe(args.kind, args.dim, gf(7), seed=args.seed, degree=args.degree,
                      height=args.height) == PairRecipe("diagonal", 1, gf(7))


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


@pytest.mark.parametrize("problem", [
    {"field": {"kind": "rational"}, "dim": 0, "T": [], "S": []},
    {"field": {"kind": "rational"}, "dim": 1, "T": [["-1/3"]], "S": [["2"]]},
    {"field": {"kind": "rational"}, "recipe": {"kind": "upper_triangular", "dim": 3, "seed": 5}},
    RECIPE_GF7,
])
def test_dump_is_the_json_module_layout(tmp_path, problem):
    # the dump is written without the json module; its bytes must be what
    # json.dumps(sort_keys=True, indent=2) writes for the same content
    path = write_problem(tmp_path / "p.json", problem)
    out = tmp_path / "report.json"
    assert main(["ando", "--input", path, "--out", str(out), "--trunc", "1",
                 "--dump-operators", "1"]) == 0
    text = (tmp_path / "report.json.operators.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("trunc, level", [(0, 3), (3, 3), (3, 0)])
def test_dump_and_audit_share_one_build_at_any_level(tmp_path, monkeypatch, trunc, level):
    # the build is at max(trunc + 1, level); the report must not depend on it
    path = write_problem(tmp_path / "p.json", RECIPE_GF7)
    plain, dumped = tmp_path / "plain.json", tmp_path / "dumped.json"
    assert main(["ando", "--input", path, "--out", str(plain), "--trunc", str(trunc)]) == 0
    counts = _count_calls(monkeypatch, truncated_matrix=dilation_mod)
    assert main(["ando", "--input", path, "--out", str(dumped), "--trunc", str(trunc),
                 "--dump-operators", str(level)]) == 0
    assert counts == {"truncated_matrix": 2}
    assert dumped.read_bytes() == plain.read_bytes()
    dump = json.loads((tmp_path / "dumped.json.operators.json").read_text(encoding="utf-8"))
    ops = ando(*resolve_pair(load_problem(path)))
    assert dump["U"] == mat_to_grid(truncated_matrix("U", ops, level))
    assert dump["V"] == mat_to_grid(truncated_matrix("V", ops, level))


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


BAD_FLAGS = {
    "sznagy-trunc": ("sznagy", ["--trunc", "-1"], "max_trunc must be >= 0"),
    "ando-trunc": ("ando", ["--trunc", "-1"], "max_trunc must be >= 0"),
    "sznagy-max-power": ("sznagy", ["--max-power", "0"], "max_power must be >= 1"),
    "ando-max-power": ("ando", ["--max-power", "0"], "max_power must be >= 1"),
    "sznagy-trials": ("sznagy", ["--trials", "0"], "trials must be >= 1"),
    "ando-trials": ("ando", ["--trials", "0"], "trials must be >= 1"),
    "ando-dump-level": ("ando", ["--out", "{out}", "--dump-operators", "-1"],
                        "level must be >= 0"),
    "ando-dump-without-out": ("ando", ["--dump-operators", "1"], "--dump-operators needs --out"),
}


# each flag on the GF(7) recipe and on the explicit T+S problem, where the
# error line must stand alone although sznagy ignores the problem's S
@pytest.mark.parametrize("problem, command, flags, fragment", [
    pytest.param(problem, *case, id=name + suffix)
    for problem, suffix in ((RECIPE_GF7, ""), (IDENTITY2, "-explicit"))
    for name, case in BAD_FLAGS.items()])
def test_bad_flags_are_refused_before_the_problem_is_read(tmp_path, capsys, monkeypatch,
                                                          problem, command, flags, fragment):
    # the front door checks every flag first: a refused run neither reads the
    # problem file nor generates its pair, and says why in one line
    path = write_problem(tmp_path / "p.json", problem)
    counts = _count_calls(monkeypatch, load_problem=cli_mod, resolve_pair=cli_mod)
    flags = [f.format(out=tmp_path / "report.json") for f in flags]
    assert main([command, "--input", path] + flags) == 2
    _assert_one_error_line(capsys, fragment)
    assert counts == {"load_problem": 0, "resolve_pair": 0}
    assert list(tmp_path.iterdir()) == [tmp_path / "p.json"]


def test_each_fact_is_computed_once_per_run(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch, ando=dilation_mod, truncated_matrix=dilation_mod,
                          kernel_basis=linalg_mod, _span=linalg_mod, rank=linalg_mod,
                          complete_basis=linalg_mod)
    path = write_problem(tmp_path / "p.json", RECIPE_GF7)
    out = tmp_path / "report.json"
    dilation_mod.build_generators.cache_clear()
    assert main(["ando", "--input", path, "--out", str(out), "--trunc", "5",
                 "--dump-operators", "1"]) == 0
    # one truncation per operator, read at every level by the audit and the dump;
    # the exchange map eliminates G's columns once and H's once; the builder and
    # the audit share one computation of the generators
    assert counts == {"ando": 1, "truncated_matrix": 2, "kernel_basis": 2, "_span": 2,
                      "rank": 0, "complete_basis": 0}
    assert dilation_mod.build_generators.cache_info().misses == 1
    counts.update(dict.fromkeys(counts, 0))
    assert main(["sznagy", "--input", path, "--out", str(out), "--trunc", "5"]) == 0
    assert counts["truncated_matrix"] == 1


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

    def fake_check(ops, params, recipe=None, truncations=None):
        rec = CheckRecord("commutation", {}, {"trunc": 0})
        return Report({"kind": "ando"}, (rec,))

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

    rec = CheckRecord("commutation", {}, {"trunc": 0, "row": 1, "col": 2, "uv": "1", "vu": "0"})
    report = Report({"kind": "ando", "field": {"kind": "rational"}, "dim": 1,
                     "params": {"seed": 0}}, (rec,))
    assert not report.passed
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


def test_huge_output_scalar_exits_2_and_writes_nothing(tmp_path, capsys):
    # 4200-digit entries parse (Python's int-to-text limit is 4300 digits), but
    # the dumped operators hold longer ones: one error line, exit 2, and neither
    # the report nor the dump is written
    big = "1" + "0" * 4199
    path = write_problem(tmp_path / "p.json", {"field": {"kind": "rational"}, "dim": 2,
                                               "T": [[big, "1"], ["0", big]],
                                               "S": [["2", "3"], ["0", "2"]]})
    out = tmp_path / "report.json"
    argv = ["ando", "--input", path, "--out", str(out), "--trunc", "0", "--max-power", "1",
            "--trials", "1"]
    assert main(argv + ["--dump-operators", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "too large to write" in captured.err
    assert list(tmp_path.iterdir()) == [tmp_path / "p.json"]
    assert main(argv) == 0  # the report alone has no such scalar
    assert report_from_json(out.read_text(encoding="utf-8")).passed


def _assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(f in err for f in fragments), err


T_ONLY = {"field": {"kind": "rational"}, "dim": 1, "T": [["1/2"]]}


@pytest.mark.parametrize("argv", [
    ["ando", "--input", "{problem}"],
    ["sznagy", "--input", "{t_only}"],
    ["gen", "--kind", "diagonal", "--dim", "2"],
])
def test_out_in_a_missing_directory_exits_2(tmp_path, capsys, argv):
    problem = write_problem(tmp_path / "p.json", IDENTITY2)
    t_only = write_problem(tmp_path / "t.json", T_ONLY)
    dest = tmp_path / "missing" / "out.json"
    argv = [a.format(problem=problem, t_only=t_only) for a in argv]
    assert main(argv + ["--out", str(dest)]) == 2
    _assert_one_error_line(capsys, f"cannot write {dest}: ")
    assert not dest.parent.exists()


def test_sznagy_with_s_that_exits_2_writes_one_line(tmp_path, capsys):
    # the warning about S waits for the run's outcome, so the error line is alone
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    missing = tmp_path / "missing" / "out.json"
    assert main(["sznagy", "--input", path, "--out", str(missing)]) == 2
    _assert_one_error_line(capsys, "cannot write ")


def test_sznagy_with_s_that_passes_warns_once(tmp_path, capsys):
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    assert main(["sznagy", "--input", path, "--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err == (
        "warning: 'S' present in input is ignored by the single-map suite\n")


def test_dump_destination_that_is_a_directory_exits_2(tmp_path, capsys):
    # the report is written before the dump, so it is there; the dump is not
    path = write_problem(tmp_path / "p.json", IDENTITY2)
    out = tmp_path / "report.json"
    dump = tmp_path / "report.json.operators.json"
    dump.mkdir()
    assert main(["ando", "--input", path, "--out", str(out), "--dump-operators", "1"]) == 2
    _assert_one_error_line(capsys, f"cannot write {dump}: ")
    assert report_from_json(out.read_text(encoding="utf-8")).passed
    assert list(dump.iterdir()) == []


@pytest.mark.parametrize("command", ["ando", "sznagy"])
def test_problem_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "p.json"
    path.write_bytes(b'{"field": {"kind": "rational"}, "dim": 1, "T": [["\xff"]]}')
    assert main([command, "--input", str(path)]) == 2
    _assert_one_error_line(capsys, "is not valid JSON")


@pytest.mark.parametrize("command", ["ando", "sznagy"])
@pytest.mark.parametrize("text, fragment", [
    ("[" * 200000, "nested too deeply"),
    ('{"field": {"kind": "gf", "modulus": ' + "7" * 5000 + '}, "recipe": '
     '{"kind": "diagonal", "dim": 1, "seed": 0}}', "number too long"),
    ('{"field": {"kind": "gf", "modulus": null}, "recipe": '
     '{"kind": "diagonal", "dim": 1, "seed": 0}}', "modulus must be a prime integer, got None"),
], ids=["deep-nesting", "long-integer", "null-modulus"])
def test_hostile_problem_file_exits_2(tmp_path, capsys, command, text, fragment):
    # json raises RecursionError on deep nesting, and ValueError, not
    # JSONDecodeError, on an integer past the int-from-text digit limit; a
    # null modulus is refused, not read as the rational field
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--input", str(path)]) == 2
    _assert_one_error_line(capsys, fragment)
    with pytest.raises(ProblemError, match=fragment):
        load_problem(path)


DIAGONAL_RECIPE = {"kind": "diagonal", "dim": 1, "seed": 0}


@pytest.mark.parametrize("command", ["ando", "sznagy"])
@pytest.mark.parametrize("obj, fragment", [
    ({"field": {"kind": "rational"}, "dim": 2, "recipe": DIAGONAL_RECIPE},
     "recipe must be over rational with 'dim' 2"),
    ({"field": {"kind": "gf", "modulus": 7}, "dim": 1, "T": [["1"]], "recipe": DIAGONAL_RECIPE},
     "problem needs exactly one of"),
    ({"field": {"kind": "rational"}, "S": [["1"]], "recipe": DIAGONAL_RECIPE},
     "problem needs exactly one of"),
    ({"field": {"kind": "rational"}, "dim": 1}, "problem needs exactly one of"),
    ({"field": {"kind": "rational"}, "dim": -1, "T": []}, "nonnegative integer 'dim'"),
], ids=["recipe-of-another-dim", "t-and-recipe", "s-and-recipe", "neither", "negative-dim"])
def test_inconsistent_problem_file_exits_2(tmp_path, capsys, command, obj, fragment):
    # the Problem refuses what its parts do not agree on, and the CLI says so in one line
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main([command, "--input", str(path)]) == 2
    _assert_one_error_line(capsys, fragment)


def test_parser_is_built_once_on_first_call():
    # not at import, so the import time does not grow; then shared by every call
    script = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "real_init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    real_init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import exactdilation.cli as cli\n"
        "assert not built, 'parser built at import'\n"
        "counts = []\n"
        "for _ in range(3):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['gen', '--kind', 'diagonal', '--dim', '1']) == 0\n"
        "    counts.append(len(built))\n"
        "assert counts[0] > 0 and counts == counts[:1] * 3, counts\n")
    src_dir = Path(cli_mod.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src_dir)), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_neither_dataclasses_nor_inspect():
    # both cost import time on every command-line run; the value classes are
    # built without them
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import exactdilation.cli\n"
        "loaded = set(sys.modules) - before\n"
        "assert 'exactdilation.cli' in loaded, sorted(loaded)\n"
        "print(sorted(loaded & {'dataclasses', 'inspect'}))\n")
    src_dir = Path(cli_mod.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src_dir)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
