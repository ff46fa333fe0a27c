"""Benchmark: time to verdict of ``exactdilation ando|sznagy`` on seeded corpora.

Usage::

    python3 perfbench/run.py --workload ando-rational --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  One
client, one process, no threads: each problem is one in-process
``exactdilation.cli.main(argv)`` call (load, build, check, write report), and
the next call starts when the previous one returns.  Every call's exit code,
report bytes and operator-dump bytes are compared with the digests frozen in
``expected.json``; ``ando-construct`` dumps are also spot-checked, outside the
timed region, with the independent oracles of ``tests/oracles.py``.

``--trace 0`` runs ``--seconds`` worth of whole corpus passes (the count comes
from the nominal pass time, so every problem has a fixed share of the
samples), with speed probes in between, and reports the end-to-end metrics
with every time scaled to reference speed; the wall times are printed and
stored too.  ``--trace 1`` runs whole corpus passes, each problem once
untraced and once traced, reports the per-layer metrics of one pass and the
traced and untraced throughput, and writes every span under ``_out/``.  The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import corpus
import tracing
from probe import REF_S as PROBE_REF_S, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "_out"
SETUP_REPEATS = 9
PROBE_SHARE = 0.1  # share of the timed loop spent in speed probes
PROBE_WINDOW = 8  # a time is scaled by the 2 * PROBE_WINDOW probes nearest to it
# a fresh interpreter imports the package, then runs speed probes; it prints
# the import time and the probe times
IMPORT_CHILD = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import exactdilation.cli; t = time.perf_counter() - t0; "
                "sys.path.insert(0, sys.argv[2]); from probe import speed_probe; "
                f"print(t, *(speed_probe() for _ in range({PROBE_WINDOW})))")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing package, stale digests, ...)."""


@dataclass(frozen=True)
class Case:
    problem: corpus.Problem
    argv: list
    input: Path
    out: Path
    dump: Optional[Path]
    expected: list  # [problem digest, exit code, report digest, dump digest]


def import_cli():
    """``exactdilation.cli`` imported from ``src/``."""
    src = ROOT / "src"
    if not (src / "exactdilation" / "cli.py").is_file():
        raise BenchError(f"no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return importlib.import_module("exactdilation.cli")


def time_setup() -> tuple[float, float]:
    """(scaled, wall) seconds of the package import in a fresh interpreter.

    The import is timed in a new process, so it pays for every module the
    package pulls in, the standard library ones too, as a command-line user
    does.  It is scaled by the probes the same process runs right after it.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(ROOT / "src"), str(HERE)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"importing the package failed:\n{proc.stderr}")
    wall, *probes = (float(x) for x in proc.stdout.split())
    return wall * PROBE_REF_S / statistics.fmean(probes), wall


def load_expected(workload: corpus.Workload) -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)[workload.name]


def make_cases(workload: corpus.Workload, problems, workdir: Path, expected: dict) -> list:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    dumps = "--dump-operators" in workload.flags
    cases = []
    for k, prob in enumerate(problems):
        exp = expected.get(prob.id)
        if exp is None or exp[0] != prob.sha:
            raise BenchError(f"no frozen digest for {prob.id}; run perfbench/freeze.py")
        path, out = workdir / f"p{k:03d}.json", workdir / f"p{k:03d}.report.json"
        cases.append(Case(prob, [*workload.flags, "--input", str(path), "--out", str(out)],
                          path, out, Path(f"{out}.operators.json") if dumps else None, exp))
    return cases


def _read(path: Optional[Path]) -> Optional[bytes]:
    try:
        return path.read_bytes() if path is not None else None
    except FileNotFoundError:
        return None


def run_case(cli, case: Case):
    """One timed ``main`` call: (seconds, exit code, report bytes, dump bytes).

    The problem file is written just before the call, outside its time:
    creating files here takes from 0.1 ms to over 1 ms, so writing the whole
    corpus up front would make ``setup_s`` measure the file system.
    """
    case.input.write_text(case.problem.text, encoding="utf-8")
    for path in (case.out, case.dump):
        if path is not None:
            path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main(case.argv)
    except Exception as exc:  # a crash is a failed problem, not a benchmark error
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, _read(case.out), _read(case.dump)


def verdict_ok(case: Case, code, report: Optional[bytes], dump: Optional[bytes]) -> bool:
    _, exp_code, exp_report, exp_dump = case.expected
    if code != exp_code or corpus.digest(report) != exp_report or corpus.digest(dump) != exp_dump:
        return False
    return code != 0 or json.loads(report)["pass"] is True


def load_oracles():
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise BenchError(f"no oracle module at {path}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spot_check(cases) -> tuple[int, list]:
    """Check each dumped exchange map v with the test oracles: v G = H and rank v = 4d.

    G and H are built from the problem file's own T and S (explicit, over Q).
    """
    dumped = [(case, _read(case.dump)) for case in cases]
    dumped = [(case, dump) for case, dump in dumped if dump is not None]
    if not dumped:
        return 0, []
    oracles = load_oracles()
    bad = []
    for case, dump in dumped:
        problem = json.loads(case.problem.text)
        t, s = ([[Fraction(x) for x in row] for row in problem[k]] for k in ("T", "S"))
        d = len(t)
        eye = oracles.plain_eye(d)
        i_t = [[eye[i][j] - t[i][j] for j in range(d)] for i in range(d)]
        i_s = [[eye[i][j] - s[i][j] for j in range(d)] for i in range(d)]
        pad = [[Fraction(0)] * d for _ in range(d)]
        g = oracles.plain_mult(i_t, s) + pad + i_s + pad
        h = oracles.plain_mult(i_s, t) + pad + i_t + pad
        v = [[Fraction(x) for x in row] for row in json.loads(dump)["v"]]
        if oracles.plain_mult(v, g) != h or oracles.gauss_rank(v) != 4 * d:
            bad.append(case.problem.id)
    return len(dumped), bad


def environment() -> dict:
    src = ROOT / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return {"python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "nproc": os.cpu_count(), "commit": commit, "src_sha256": h.hexdigest()[:20]}


def tail(samples: list) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def metric(value, unit):
    return {"value": value, "unit": unit}


class SpeedLog:
    """Speed probes in time order, to scale a time measured among them to reference speed."""

    def __init__(self):
        self.times, self.probes = [], []

    def probe(self) -> float:
        self.times.append(time.perf_counter())
        self.probes.append(speed_probe())
        return self.probes[-1]

    def scale(self, t: float) -> float:
        """PROBE_REF_S over the mean of the probes nearest to time ``t``."""
        j = bisect.bisect_left(self.times, t)
        return PROBE_REF_S / statistics.fmean(self.probes[max(0, j - PROBE_WINDOW):
                                                          j + PROBE_WINDOW])


def measure(cli, cases, passes: int, speed: SpeedLog) -> dict:
    """Closed loop over whole corpus passes, with speed probes between problems.

    Returns each call's (start, seconds), and the failed problem ids.
    """
    calls, failures = [], []
    busy = probed = 0.0
    for _ in range(passes):
        for case in cases:
            t0 = time.perf_counter()
            elapsed, code, report, dump = run_case(cli, case)
            calls.append((t0, elapsed))
            if not verdict_ok(case, code, report, dump):
                failures.append(case.problem.id)
            busy += time.perf_counter() - t0
            while probed < PROBE_SHARE * busy:
                probed += speed.probe()
    return {"attempted": len(calls), "failures": failures, "calls": calls,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def end_to_end_metrics(result: dict, setups: list, speed: SpeedLog) -> tuple[dict, dict]:
    """The metrics, with each time scaled by the probes around it, and the wall-time values."""
    def summary(calls, setups):
        latencies = [elapsed for _, elapsed in calls]
        pct, tail_s = tail(latencies)
        return {"verdict_s_p50": statistics.median(latencies), "verdict_s_tail": tail_s,
                "tail_percentile": pct, "problems_per_s": len(latencies) / sum(latencies),
                "setup_s": statistics.median(setups)}

    scaled_calls = [(t0, elapsed * speed.scale(t0 + elapsed / 2))
                    for t0, elapsed in result["calls"]]
    unscaled = summary(result["calls"], [wall for _, wall in setups])
    unscaled["mean_speed_scale"] = PROBE_REF_S / statistics.fmean(speed.probes)
    values = summary(scaled_calls, [scaled for scaled, _ in setups])
    metrics = {"verdict_s_p50": metric(values["verdict_s_p50"], "s"),
               "verdict_s_tail": metric(values["verdict_s_tail"], "s"),
               "problems_per_s": metric(values["problems_per_s"], "1/s"),
               "setup_s": metric(values["setup_s"], "s"),
               "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
               "ok_frac": metric(1 - len(result["failures"]) / result["attempted"], "ratio")}
    return metrics, unscaled


def measure_traced(cli, cases, passes: int, spans_path: Path) -> dict:
    """Whole corpus passes, each problem untraced then traced (order alternating)."""
    tracer = tracing.Tracer()
    tracer.prepare()
    per_pass, failures, attempted = [], [], 0
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    for _ in range(passes):
        report_bytes = 0
        for k, case in enumerate(cases):
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tracer.problem = k
                    tracer.install()
                try:
                    elapsed, code, report, dump = run_case(cli, case)
                finally:
                    tracer.uninstall()
                attempted += 1
                if not verdict_ok(case, code, report, dump):
                    failures.append(case.problem.id)
                if traced:
                    traced_s += elapsed
                    report_bytes += len(report or b"") + len(dump or b"")
                else:
                    untraced_s += elapsed
        layer = tracer.take_pass()
        layer["cli.report_bytes"] = report_bytes
        per_pass.append(layer)
    tracer.write(spans_path, start)
    n = len(cases) * passes
    traced_pps, untraced_pps = n / traced_s, n / untraced_s
    return {"attempted": attempted, "failures": failures, "passes": per_pass,
            "pass_problems": len(cases), "spans": len(tracer.span_end),
            "traced_pps": traced_pps, "untraced_pps": untraced_pps}


def layer_metrics(result: dict, per_layer: list) -> dict:
    """Per-layer metrics of one pass: counts from the first pass, times as pass medians."""
    passes = result["passes"]
    metrics = {}
    for spec in per_layer:
        name, unit = spec["name"], spec["unit"]
        if name.startswith("trace."):
            continue
        values = [p.get(name, 0) for p in passes]
        metrics[name] = metric(statistics.median(values) if unit == "s" else int(values[0]), unit)
    metrics["trace.problems_per_s"] = metric(result["traced_pps"], "1/s")
    metrics["trace.untraced_problems_per_s"] = metric(result["untraced_pps"], "1/s")
    metrics["trace.overhead_frac"] = metric(1 - result["traced_pps"] / result["untraced_pps"],
                                            "ratio")
    metrics["trace.pass_problems"] = metric(result["pass_problems"], "count")
    metrics["trace.spans_per_pass"] = metric(result["spans"] // len(passes), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = corpus.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    try:
        cases = make_cases(workload, corpus.corpus(workload, args.seed), workdir,
                           load_expected(workload))
        cli = import_cli()
        setups = [] if args.trace else [time_setup() for _ in range(SETUP_REPEATS)]
        env = environment()
        # a pass count fixed by --seconds keeps the samples, and so the tail percentile, fixed
        passes = max(1, round(args.seconds / corpus.PASS_S))
        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
            if args.trace:
                OUT.mkdir(exist_ok=True)
                result = measure_traced(cli, cases, passes, OUT / f"{tag}.spans.tsv.gz")
            else:
                speed = SpeedLog()
                for _ in range(PROBE_WINDOW):
                    speed.probe()
                result = measure(cli, cases, passes, speed)
        checked, bad = spot_check(cases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(result, spec["per_layer"])
    else:
        metrics, unscaled = end_to_end_metrics(result, setups, speed)
    failed = len(result["failures"])
    correct = not failed and not bad
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "corpus_problems": len(cases),
              "spot_checked": checked, "spot_check_failures": bad,
              "failures": sorted(set(result["failures"])),
              "fail_frac": failed / result["attempted"], "metrics": metrics}
    if not args.trace:
        record["unscaled"] = unscaled
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {result['attempted']} problems "
          f"attempted, {failed} failed (fail_frac {record['fail_frac']:.4f}), "
          f"{checked} dumps spot-checked, {len(bad)} bad")
    if not args.trace:
        print(f"verdict_s_tail is p{unscaled['tail_percentile']:.1f} of {result['attempted']} "
              f"samples; times below are scaled to reference speed (mean scale "
              f"{unscaled['mean_speed_scale']:.4f}); unscaled: " + ", ".join(
                  f"{k} {unscaled[k]:.6g}"
                  for k in ("verdict_s_p50", "verdict_s_tail", "problems_per_s", "setup_s")))
        print(f"setup_s is the median package import time of {SETUP_REPEATS} fresh interpreters")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
