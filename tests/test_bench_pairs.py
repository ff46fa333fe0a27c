"""The parent/change benchmark driver ``tools/bench_pairs.py`` is a script
outside the package; its summary is checked here on canned run records, and
no benchmark is run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"
END_TO_END = [{"name": "problems_per_s", "better": "higher", "bound": 0.15},
              {"name": "verdict_s_p50", "better": "lower", "bound": 0.25}]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_runs(workload, parent_rates, change_rates, change_p50=0.01, correct=True):
    """One run record per side and seed; seeds from 1, the parent's p50 fixed at 0.01."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent_rates, change_rates), 1):
        for side, rate, p50 in (("parent", p, 0.01), ("change", c, change_p50)):
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "result": {"correct": correct or side == "parent", "metrics": {
                             "problems_per_s": {"value": rate, "unit": "1/s"},
                             "verdict_s_p50": {"value": p50, "unit": "s"}}}})
    return runs


def test_summary_pairs_runs_by_seed_and_compares_medians():
    tool = load_tool()
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    change = [110, 111, 112, 113, 114, 115, 116, 117, 118, 100]  # the last pair is lost
    runs = canned_runs("fast", parent, change) + canned_runs(
        "same", parent, parent, change_p50=0.013, correct=False)
    # the order of the records does not matter; only the seed pairs two runs
    out = tool.summarize(runs[::-1], END_TO_END)
    assert list(out) == ["same", "fast"]
    fast = out["fast"]
    assert (fast["pairs"], fast["seeds"], fast["correct_all"]) == (10, list(range(1, 11)), True)
    rate = fast["metrics"]["problems_per_s"]
    assert rate["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert rate["change"] == {"median": 113.5, "q1": 111.25, "q3": 115.75}
    assert rate["change_wins"] == 9
    assert rate["relative_change_of_median"] == round(9 / 104.5, 4)
    assert not rate["worse_than_bound"]
    assert (rate["parent_runs"], rate["change_runs"]) == (parent, change)
    same = out["same"]
    assert not same["correct_all"]
    # equal runs are ties: no wins either way, no change of median
    assert same["metrics"]["problems_per_s"]["change_wins"] == 0
    assert same["metrics"]["problems_per_s"]["relative_change_of_median"] == 0.0
    # a lower-is-better metric 30% up is worse than its 0.25 bound, 20% up is not
    p50 = same["metrics"]["verdict_s_p50"]
    assert p50["relative_change_of_median"] == 0.3 and p50["worse_than_bound"]
    assert p50["change_wins"] == 0
    near = tool.summarize(canned_runs("w", parent, parent, change_p50=0.012), END_TO_END)
    assert not near["w"]["metrics"]["verdict_s_p50"]["worse_than_bound"]
    # a higher-is-better metric 20% down is worse than its 0.15 bound
    down = tool.summarize(canned_runs("w", parent, [0.8 * x for x in parent]), END_TO_END)
    assert down["w"]["metrics"]["problems_per_s"]["worse_than_bound"]


@pytest.mark.parametrize("change, met", [
    ([110, 111, 112, 113, 114, 115, 116, 117, 118, 100], True),  # 9 wins, gain 9 > IQR 4.5
    ([110, 111, 112, 113, 114, 115, 116, 117, 100, 100], False),  # 8 wins
    ([101, 102, 103, 104, 105, 106, 107, 108, 109, 110], False),  # 10 wins, gain 1 < IQR
    ([100, 101, 102, 103, 104, 105, 106, 107, 108, 109], False),  # A/A: every pair a tie
])
def test_claim_needs_nine_wins_in_ten_and_a_gain_beyond_the_parents_spread(change, met):
    tool = load_tool()
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    metrics = tool.summarize(canned_runs("w", parent, change), END_TO_END)["w"]["metrics"]
    rate = metrics["problems_per_s"]
    assert rate["claim_met"] is met
    assert rate["change_wins"] == sum(c > p for p, c in zip(parent, change))
    assert rate["parent_iqr"] == 4.5
    assert rate["median_gain"] == rate["change"]["median"] - 104.5
    # for a lower-is-better metric the gain is the drop of the median; equal p50s tie
    lower = metrics["verdict_s_p50"]
    assert (lower["change_wins"], lower["median_gain"], lower["claim_met"]) == (0, 0, False)


def fake_checkouts(tool, workdirs):
    """``checkouts`` without git: two empty directories in ``workdir``."""
    def checkouts(parent, workdir):
        workdirs.append(workdir)
        for side in tool.SIDES:
            (workdir / side).mkdir()
        return {side: workdir / side for side in tool.SIDES}
    return checkouts


@pytest.mark.parametrize("fails", [False, True])
def test_main_removes_its_checkouts_when_it_returns_or_a_run_fails(tmp_path, monkeypatch, fails):
    # no git call and no benchmark: the checkouts are two empty directories
    tool = load_tool()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    workdirs = []

    def run_once(tree, workload, seed, seconds):
        assert tree.is_dir()
        if fails:
            raise SystemExit(f"bench_pairs: {tree.name} {workload} seed {seed} exited 1")
        return {"correct": True, "metrics": {name: {"value": float(seed)} for name in names}}

    monkeypatch.setattr(tool, "_git", lambda *args: b"c0ffee\n")
    monkeypatch.setattr(tool, "checkouts", fake_checkouts(tool, workdirs))
    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--out", str(out), "--pairs", "2"]
    if fails:
        with pytest.raises(SystemExit, match="exited 1"):
            tool.main(argv)
        assert not out.exists()
    else:
        assert tool.main(argv) == 0
        written = json.loads(out.read_text())
        assert written["parent_commit"] == "c0ffee" and "claimed" not in written
        # the claim rule is applied to every workload and end-to-end metric
        assert list(written["workloads"]) == [w["name"] for w in spec["workloads"]]
        for workload in written["workloads"].values():
            assert list(workload["metrics"]) == names
            for m in workload["metrics"].values():
                assert {"median_gain", "parent_iqr", "claim_met"} <= m.keys()
                assert m["claim_met"] is False
    assert len(workdirs) == 1 and not workdirs[0].exists()


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_main_refuses_fewer_than_two_pairs_before_any_checkout_or_run(tmp_path, monkeypatch,
                                                                      capsys, pairs):
    tool = load_tool()

    def never(*args):
        raise AssertionError("called")

    monkeypatch.setattr(tool, "checkouts", never)
    monkeypatch.setattr(tool, "run_once", never)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "HEAD", "--out", str(out), "--pairs", pairs]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bench_pairs: ")
    assert not out.exists()


def test_a_run_past_its_timeout_exits_through_the_tool_and_removes_the_checkouts(
        tmp_path, monkeypatch):
    tool = load_tool()
    workdirs, timeouts = [], []

    def run(cmd, timeout=None, **kwargs):
        timeouts.append(timeout)
        raise subprocess.TimeoutExpired(cmd, timeout)

    monkeypatch.setattr(tool, "_git", lambda *args: b"c0ffee\n")
    monkeypatch.setattr(tool, "checkouts", fake_checkouts(tool, workdirs))
    monkeypatch.setattr(tool.subprocess, "run", run)
    first = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"][0]["name"]
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit, match=f"^bench_pairs: parent {first} seed 1 timed out "
                                         "after 600 s$"):
        tool.main(["--parent", "HEAD", "--out", str(out)])
    assert timeouts == [600] and not out.exists()
    assert len(workdirs) == 1 and not workdirs[0].exists()
