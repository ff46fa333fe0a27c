"""The same-process A/B harness ``tools/same_process_ab.py`` is a script outside
the package; its core is run here on two copies of the package, on two small
problems, with no git checkout."""

import importlib.util
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "exactdilation"
CASES = [(("ando", "--max-power", "1", "--trunc", "0", "--trials", "1", "--dump-operators", "1"),
          '{"field": {"kind": "gf", "modulus": 7}, '
          '"recipe": {"kind": "polynomial", "dim": 2, "seed": 3}}'),
         (("sznagy", "--max-power", "2", "--trunc", "1"),
          '{"field": {"kind": "rational"}, "dim": 2, "T": [["1/2", "1"], ["0", "-1"]]}')]
# the same problems with corpus ids, ``workload/stratum/i``, as corpus_cases(ids=True) gives
CASES_WITH_IDS = [(*CASES[0], "tiny/ando-d2/0"), (*CASES[1], "tiny/sznagy-d2/0")]
STRATUM_LINE = re.compile(r"stratum (.+): B/A (\d+\.\d{3}), (\d+\.\d)% of the parent's time")


def load_tool():
    spec = importlib.util.spec_from_file_location("same_process_ab",
                                                  ROOT / "tools" / "same_process_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def packages(root: Path) -> list:
    """Two copies of the package under the tool's two names."""
    out = [root / "ab_parent", root / "ab_change"]
    for package in out:
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    return out


def test_identical_sides_pass_and_one_report_byte_fails(tmp_path, capsys):
    tool = load_tool()
    same = packages(tmp_path / "same")
    runs = [("tiny seed 1", CASES), ("tiny seed 2", CASES_WITH_IDS)]
    assert tool.ab(same, runs, 2, tmp_path / "same") == 0
    out = capsys.readouterr().out.splitlines()
    assert "tiny seed 1 round 2: parent " in out[1] and "tiny seed 2 round 1: parent " in out[2]
    assert "identical on every problem" in out[-1]
    # one line per stratum, after the rounds: hand-built cases form one stratum named
    # by their label, and corpus cases are grouped by the stratum of their id
    strata = [STRATUM_LINE.fullmatch(line) for line in out[4:-1]]
    assert all(strata) and len(strata) == 3
    assert [m[1] for m in strata] == ["ando-d2", "sznagy-d2", "tiny seed 1"]
    assert all(float(m[2]) > 0 for m in strata)
    assert abs(sum(float(m[3]) for m in strata) - 100) <= 0.2
    # one byte of every report, on the change's side alone: "pass" becomes "Pass"
    changed = packages(tmp_path / "changed")
    verify = changed[1] / "verify.py"
    text = verify.read_text(encoding="utf-8")
    old = "return json_text(self.to_dict())"
    assert text.count(old) == 1
    verify.write_text(text.replace(old, f"{old}.replace('\"pass\"', '\"Pass\"', 1)"),
                      encoding="utf-8")
    assert tool.ab(changed, [("tiny seed 1", CASES)], 1, tmp_path / "changed") == 1
    err = capsys.readouterr().err
    assert err == "same_process_ab: tiny seed 1 problem 0: report bytes differ\n"
