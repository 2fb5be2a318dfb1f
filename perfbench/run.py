"""Benchmark of ``apicomp run`` on generated trace corpora.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 58 --trace 0

Run from the root of a checkout. The command generates the workload's
corpus from the seed (set-up, in no metric), runs ``apicomp run`` once
untimed as a warm-up, then for ``--seconds`` runs it as a subprocess again
and again and times each run from outside. With ``--trace 1`` it then
makes one traced pass (perfbench/traced.py) for the per-layer numbers.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object holding the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``), as listed in BENCHMARK.json.
The exit code is 1 when a correctness check fails.

Checks: every run, the warm-up included, exits 0; every ``report.json`` is byte-identical, the
traced pass's included; the graph has one vertex per distinct API method
of the generated corpus; on workloads of disjoint cliques every planted
component is reported exactly; an interleaved corpus prunes to the same
trees as the corpus it was made from.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, the children's working directory
MIN_RUNS = 3
SETUP_SAMPLES_PER_RUN = 3
RUN_TIMEOUT_S = 150.0
SETUP_CODE = "from apicomp.cli import build_parser; build_parser()"


def spawn(cmd: list[str]) -> tuple[int, float, float, float]:
    """Run a child to completion: exit code, wall s, user+system s, max RSS MB."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def tail_percentile(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{p}={ordered[rank - 1]:.4f}"
    return "no percentile has ten samples beyond it"


def recovery_jaccard(report: dict, truth: list[frozenset]) -> float:
    """Mean over planted components of the best Jaccard match among the
    reported provided interfaces."""
    found = [set(c["provided_interface"]) for c in report["components"]]
    total = 0.0
    for planted in truth:
        names = {m.qualified for m in planted}
        total += max((len(names & f) / len(names | f) for f in found), default=0.0)
    return total / len(truth)


def check_report(report: dict, vertices: int, truth: list[frozenset],
                 exact_recovery: bool) -> list[str]:
    """What is wrong with a report's content, if anything."""
    problems = []
    if report["graph"]["vertices"] != vertices:
        problems.append(f"graph has {report['graph']['vertices']} vertices, "
                        f"corpus has {vertices} API methods")
    if exact_recovery:
        found = {frozenset(c["provided_interface"]) for c in report["components"]}
        missing = [p for p in truth if frozenset(m.qualified for m in p) not in found]
        if missing:
            problems.append(f"{len(missing)} planted components not reported exactly")
    return problems


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the time its (sequential) child spans cover."""
    own = {i: s["end"] - s["start"] for i, s in enumerate(spans)}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return {s["name"]: own[i] for i, s in enumerate(spans)}


def prepare(workload, seed: int, run_dir: Path, failures: list[str]):
    """Set-up, in no metric: write the corpus; return its distinct API
    method count, its event count and the planted components."""
    from apicomp.rng import SplitMix64
    from workloads import api_methods, event_count, interleave, pruned_text, write_workload

    corpus, truth = workload.build(seed)
    if workload.glue:
        plain = pruned_text(corpus)
        interleave(corpus, SplitMix64(seed))
        if pruned_text(corpus) != plain:
            failures.append("interleaved corpus does not prune to the plain corpus")
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    write_workload(corpus, ROOT / run_dir / "corpus")
    return len(api_methods(corpus)), event_count(corpus), truth


def measure(run_cmd: list[str], report_path: Path, seconds: float,
            failures: list[str]):
    """Run ``apicomp run`` once untimed, then time it for ``seconds`` (at
    least MIN_RUNS times), with SETUP_SAMPLES_PER_RUN set-up samples before
    each timed run. The warm-up run comes first in the runs returned."""
    setup_cmd = [sys.executable, "-c", SETUP_CODE]
    # Warm-up: compiles bytecode and reads the corpus into the page cache,
    # which users pay once, not per run. The warm-up run is checked, not timed.
    if spawn(setup_cmd)[0] != 0:
        failures.append("importing apicomp.cli failed")
    setups: list[float] = []
    runs: list[tuple[int, float, float, float]] = [spawn(run_cmd)]
    reports: list[bytes | None] = [report_path.read_bytes() if report_path.is_file() else None]
    deadline = perf_counter() + seconds
    while len(runs) <= MIN_RUNS or (
            perf_counter() + statistics.median(r[1] for r in runs[1:]) <= deadline):
        for _ in range(SETUP_SAMPLES_PER_RUN):
            code, wall, _, _ = spawn(setup_cmd)
            setups.append(wall)
            if code != 0:
                failures.append("importing apicomp.cli failed")
        report_path.unlink(missing_ok=True)
        runs.append(spawn(run_cmd))
        reports.append(report_path.read_bytes() if report_path.is_file() else None)
    return setups, runs, reports


def layer_values(traced: dict, traced_wall: float, run_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced pass's spans and counts."""
    spans = traced["spans"]
    own = self_times(spans)
    root_s = spans[0]["end"] - spans[0]["start"]
    values = {f"{name}_s": t for name, t in own.items() if name != "run"}
    values.update(traced["counts"])
    values["trace.overhead_s"] = traced_wall - traced["post_run_s"] - run_s
    values["trace.span_cover_share"] = (root_s - own["run"]) / root_s
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "apicomp" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'apicomp'} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    failures: list[str] = []
    run_dir = WORK / f"{args.workload}-seed{args.seed}"
    vertices, events, truth = prepare(workload, args.seed, run_dir, failures)
    inputs = ["--corpus", str(run_dir / "corpus"),
              "--classifier", str(run_dir / "corpus" / "classifier.txt")]
    report_path = ROOT / run_dir / "out" / "report.json"
    setups, runs, reports = measure(
        [sys.executable, "-m", "apicomp.cli", "run", *inputs,
         "--out", str(run_dir / "out"), "--jobs", str(workload.jobs)],
        report_path, args.seconds, failures)
    timed = runs[1:]
    walls = [r[1] for r in timed]
    run_s = statistics.median(walls)
    values = {
        "run_s": run_s,
        "events_per_s": statistics.median(events / w for w in walls),
        "cpu_s": statistics.median(r[2] for r in timed),
        "peak_rss_mb": statistics.median(r[3] for r in timed),
        "setup_s": statistics.median(setups),
    }

    traced = None
    if args.trace:
        result_path = ROOT / run_dir / "traced.json"
        code, traced_wall, _, _ = spawn(
            [sys.executable, str(ROOT / "perfbench" / "traced.py"), *inputs,
             "--out", str(run_dir / "traced"), "--jobs", str(workload.jobs),
             "--result", str(result_path)])
        traced_report = ROOT / run_dir / "traced" / "report.json"
        runs.append((code, traced_wall, 0.0, 0.0))
        reports.append(traced_report.read_bytes() if traced_report.is_file() else None)
        if code == 0:
            traced = json.loads(result_path.read_text(encoding="utf-8"))
            values.update(layer_values(traced, traced_wall, run_s))
            spans_file = ROOT / WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            spans_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                              "spans": traced["spans"]}, indent=1),
                                  encoding="utf-8")
    shutil.rmtree(ROOT / run_dir, ignore_errors=True)

    # Correctness: every run exits 0 with the bytes of the first good
    # report, whose content is checked once.
    reference = next((data for (code, *_), data in zip(runs, reports)
                      if code == 0 and data is not None), None)
    report = json.loads(reference) if reference is not None else None
    problems = (check_report(report, vertices, truth, workload.exact_recovery)
                if report is not None else ["no run wrote a report"])
    failures += problems
    failed = 0
    for i, ((code, *_), data) in enumerate(zip(runs, reports)):
        if code != 0 or data != reference or problems:
            failed += 1
            failures.append(f"run {i}: exit {code}, report "
                            f"{'identical' if data == reference else 'differs'}")
    if report is not None:
        values["recovery_jaccard"] = recovery_jaccard(report, truth)

    print(f"workload {args.workload}  seed {args.seed}  jobs {workload.jobs}  "
          f"events {events}  API methods {vertices}")
    print(f"run_s samples ({len(walls)}): {' '.join(f'{w:.3f}' for w in walls)}; "
          f"{tail_percentile(walls)}")
    print(f"setup_s samples: {len(setups)}; {tail_percentile(setups)}")
    print(f"report.json sha256 {hashlib.sha256(reference or b'').hexdigest()}")
    print(f"failed_share {failed / len(runs):.4f} ({failed} of {len(runs)} runs)")
    for metric in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        if metric["name"] in values:
            print(f"  {metric['name']:<34} {values[metric['name']]:>16.6f} {metric['unit']}")
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": not failures, "attempted": len(runs), "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in chosen if m["name"] in values},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
