"""Check that a base revision and the working tree write the same reports
and graphs, or time the two against each other.

Usage: ``python tools/ab.py BASE [--time] [--work DIR]``.

``BASE`` is a git revision, whose ``src/`` is extracted with ``git archive``
under the work directory (no network needed), or a directory that holds
``src/``. The other side is the working tree's ``src/``. Both sides run
every case of a fixed grid, one after the other, from the same working
directory and the same relative paths, so both reports echo the same corpus
path. A case is identical when the exit codes and the outputs it writes
are, byte for byte (``OUTPUTS``): ``report.json`` and ``report.txt`` for
``apicomp run``, ``graph.tsv`` and ``graph.dot`` for ``apicomp graph``,
``clusters.txt`` for ``apicomp cluster``, the CSV of ``apicomp metrics``,
``evaluation.json`` and ``evaluation.txt`` for ``apicomp evaluate``, stdout
for ``--help`` and stderr for a usage error. Only the graph holds the pair
weights, written with ``repr``, so only its cases show a float that drifts
without moving a report. Each ``graph`` case is followed by a ``cluster``
case, in which both sides cluster the ``graph.tsv`` the base side has just
written, so it sees the edge-list reader, the clusterer and the cluster
text alone; each ``run`` case on ``M`` is followed, in the same way, by an
``evaluate`` case on the base side's ``report.json``.

The grid is, first, the front end: ``--help``, and a usage error (no
arguments), for the top level and each subcommand (``COMMANDS``), under
``PYTHONHASHSEED`` 0. Then every combination of:

* corpora: ``M`` (10 planted components, 20 apps of 20 trees; ROADMAP's
  medium corpus) and the benchmark's ``deep`` and ``sparse-j2`` workloads
  at seeds 1 and 2, each written to ``<case>/corpus`` by the benchmark's
  own ``prepare`` in ``perfbench/run.py``; each runs with its
  ``classifier.txt``;
* commands and flags: ``run`` with the default, ``--weight-formula
  literal``, ``--rc-comparison caption`` and ``--edge-threshold 0.2``;
  ``graph`` with the same less ``--rc-comparison``, which it does not take,
  each followed by ``cluster`` with the default flags; on ``M`` only, which
  alone has planted components, ``evaluate`` after each ``run``, against
  the planted pairs (``M/labels.txt``: every pair of methods planted in one
  component), and ``metrics`` with the default and ``--weight-formula
  literal``, on ``M``'s ``ground_truth.txt`` as the method sets;
* ``PYTHONHASHSEED`` 0 and 1.

That is 16 front-end and 112 analysis cases. The corpora are written with
the working tree's generator. For each differing case, one line names the case and the first
differing JSON path, or text line; the last line counts the identical
cases. Exits 1 if any case differs, else 0. The work directory (default
``.bench_work/ab``) is rewritten on every run.

``--time`` times the two sides instead, out of process, on the benchmark's
``deep-1`` and ``sparse-j2-1`` corpora (``TIME_CORPORA``). Each command
runs once per side untimed, to warm the page cache, then ``ROUNDS`` times
per side in ABBA order (base, work, work, base), each run in a fresh
interpreter. The commands are the benchmark's own ``SETUP_CODE`` from
``perfbench/run.py``, ``apicomp run`` with the default flags on each
corpus, and ``apicomp cluster`` on each corpus's ``graph.tsv``, which the
working tree's ``apicomp graph`` writes first: ``run`` loads every stage,
``cluster`` only the edge-list reader and the clusterer. Each base run and
the work run beside it make one pair, whose ratio is work time over base
time. For each command one line prints the median ratio with its quartiles
and each side's median time, and ``<work>/time.json`` holds the same with
every sample. The in-process, per-stage half of the comparison is not
written yet.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import itertools
import json
import os
import shutil
import subprocess
import statistics
import sys
import tarfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
M_SPEC = dict(component_count=10, app_count=20, trees_per_app=20,
              methods_per_component=(8, 14), tree_depth=(3, 6),
              inter_call_prob=0.3, noise_prob=0.3, seed=1)
CORPORA = ("M", "deep-1", "deep-2", "sparse-j2-1", "sparse-j2-2")
FLAGS = {"default": [], "literal": ["--weight-formula", "literal"],
         "caption": ["--rc-comparison", "caption"],
         "threshold-0.2": ["--edge-threshold", "0.2"]}
GRAPH_FLAGS = ("default", "literal", "threshold-0.2")  # the FLAGS graph accepts
METRICS_FLAGS = ("default", "literal")  # the FLAGS that move a set's scores
HASH_SEEDS = ("0", "1")
COMMANDS = ("", "generate", "prune", "metrics", "graph", "cluster", "run", "evaluate")
PLANTED = ("metrics", "evaluate")  # they read planted components, which only M has
OUTPUTS = {"run": ("report.json", "report.txt"), "graph": ("graph.tsv", "graph.dot"),
           "cluster": ("clusters.txt",), "metrics": ("metrics.csv",),
           "evaluate": ("evaluation.json", "evaluation.txt"),
           "help": ("stdout",), "usage": ("stderr",)}
FEEDS = {"graph": "graph.tsv", "run": "report.json"}  # read by the next case
TIME_CORPORA = ("deep-1", "sparse-j2-1")
ROUNDS = 20


def base_src(base: str, work: Path) -> Path:
    """The ``src/`` directory of ``base``: a directory's own, or a revision's
    extracted under ``work``."""
    if (Path(base) / "src").is_dir():
        return (Path(base) / "src").resolve()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src"],
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"ab: {base!r} is neither a directory holding src/ nor a "
                         f"git revision: {archive.stderr.decode().strip()}")
    target = work / "base"
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(target)
    return target / "src"


def perfbench():
    """``perfbench/run.py`` as a module, with the working tree's ``src/`` and
    ``perfbench/`` importable, as its ``prepare`` needs."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def build_corpora(names: tuple[str, ...], work: Path) -> None:
    """Write each named corpus to ``work / name / "corpus"``: ``M`` with the
    generator, a benchmark workload with the benchmark's ``prepare``."""
    bench = perfbench()
    from apicomp.synth import PlantSpec, write_generated
    from workloads import WORKLOADS

    for name in names:
        if name == "M":
            _, truth = write_generated(PlantSpec(**M_SPEC), work / name / "corpus")
            (work / name / "labels.txt").write_text(
                "".join(f"{a.qualified}\t{b.qualified}\n" for component in truth
                        for a, b in itertools.combinations(sorted(component), 2)),
                encoding="utf-8")
            continue
        workload, seed = name.rsplit("-", 1)
        failures: list[str] = []
        bench.prepare(WORKLOADS[workload], int(seed), work / name, failures)
        if failures:
            raise SystemExit(f"ab: {name}: {'; '.join(failures)}")


def case_args(command: str, corpus: str, flags: str) -> list[str]:
    """The ``apicomp`` arguments of one analysis case; a ``cluster`` case
    reads ``graph.tsv`` in the work directory, an ``evaluate`` case
    ``report.json`` there (see ``FEEDS``)."""
    if command == "cluster":
        return [command, "--graph", "graph.tsv", "--out", "out/clusters.txt"]
    if command == "evaluate":
        return [command, "--report", "report.json", "--labels", f"{corpus}/labels.txt",
                "--out", "out"]
    corpus_args = ["--corpus", f"{corpus}/corpus", "--classifier",
                   f"{corpus}/corpus/classifier.txt"]
    if command == "metrics":
        return [command, *corpus_args, "--sets", f"{corpus}/corpus/ground_truth.txt",
                "--out", "out/metrics.csv", *FLAGS[flags]]
    return [command, *corpus_args, "--out", "out", *FLAGS[flags]]


def grid() -> list[tuple[str, str, list[str], str]]:
    """Every case in order (see the module docstring), as ``(kind, label,
    apicomp arguments, PYTHONHASHSEED)``; the kind names its ``OUTPUTS``."""
    cases = []
    for command in COMMANDS:
        head = [command] if command else []
        cases += [(kind, f"{kind} {command or 'apicomp'}", [*head, *extra], "0")
                  for kind, extra in (("help", ["--help"]), ("usage", []))]
    chains = ((("run", "evaluate"), FLAGS), (("metrics",), METRICS_FLAGS),
              (("graph", "cluster"), GRAPH_FLAGS))
    return cases + [(command, f"{command} {corpus} {flags}",
                     case_args(command, corpus, flags), seed)
                    for corpus in CORPORA for commands, flag_sets in chains
                    for flags in flag_sets for seed in HASH_SEEDS for command in commands
                    if corpus == "M" or command not in PLANTED]


def python(src: Path, work: Path, argv: list[str],
           hash_seed: str = "0") -> tuple[subprocess.CompletedProcess, float]:
    """``python *argv`` in a fresh interpreter that imports ``apicomp`` from
    ``src``, run in ``work``, and its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    start = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    return proc, perf_counter() - start


def run_case(src: Path, work: Path, args: list[str], outputs: tuple[str, ...],
             hash_seed: str) -> tuple[int, str, dict]:
    """``(exit code, stderr, files)`` of ``apicomp *args`` from ``src``, run
    in ``work`` with ``out`` emptied: ``files`` maps each of ``outputs`` to
    its bytes, or to ``None`` when it was not written; ``stdout`` and
    ``stderr`` name the streams, any other name a file in ``out``."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    proc, _ = python(src, work, ["-m", "apicomp.cli", *args], hash_seed)
    streams = {"stdout": proc.stdout, "stderr": proc.stderr}
    return proc.returncode, proc.stderr, {
        name: streams[name].encode() if name in streams
        else (out / name).read_bytes() if (out / name).is_file() else None
        for name in outputs}


_ABSENT = object()  # a key or item that one side lacks


def first_json_difference(a, b, path: str = "$") -> tuple[str, object, object] | None:
    """``(path, value in a, value in b)`` at the first place, in sorted-key
    order, where ``a`` and ``b`` differ, or ``None``; a missing key or item
    is ``_ABSENT``."""
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = ((f"{path}.{key}", a.get(key, _ABSENT), b.get(key, _ABSENT))
                 for key in sorted(a.keys() | b.keys()))
    elif isinstance(a, list) and isinstance(b, list):
        pairs = ((f"{path}[{i}]", a[i] if i < len(a) else _ABSENT,
                  b[i] if i < len(b) else _ABSENT) for i in range(max(len(a), len(b))))
    else:
        return None if type(a) is type(b) and a == b else (path, a, b)
    return next(filter(None, (first_json_difference(x, y, at) for at, x, y in pairs)), None)


def describe(base: tuple, work: tuple) -> str | None:
    """Where two ``run_case`` results first differ, or ``None``."""
    (base_code, base_err, base_files), (work_code, work_err, work_files) = base, work
    if base_code != work_code:
        last = (work_err or base_err).strip().splitlines()[-1:] or [""]
        return f"exit code base {base_code}, work {work_code}: {last[0]}"
    for name, old in base_files.items():
        new = work_files[name]
        if old == new:
            continue
        if old is None or new is None:
            return f"{name} written by one side only"
        if name.endswith(".json"):
            found = first_json_difference(json.loads(old), json.loads(new))
            if found is None:
                return f"{name}: same values, different bytes"
            path, *values = found
            shown = ["(absent)" if v is _ABSENT else json.dumps(v)[:60] for v in values]
            return f"{name} {path}: base {shown[0]} | work {shown[1]}"
        old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
        line = next((i for i, pair in enumerate(zip(old_lines, new_lines))
                     if pair[0] != pair[1]), min(len(old_lines), len(new_lines)))
        shown = [lines[line].strip()[:60] if line < len(lines) else "(absent)"
                 for lines in (old_lines, new_lines)]
        return f"{name} line {line + 1}: base {shown[0]!r} | work {shown[1]!r}"
    return None


def checked(sides: tuple[Path, Path], side: int, work: Path, name: str,
            argv: list[str]) -> float:
    """The wall time of ``python *argv`` on one side; a failed run ends
    ``ab`` with its error."""
    proc, wall = python(sides[side], work, argv)
    if proc.returncode:
        raise SystemExit(f"ab: {name} exited {proc.returncode} on the "
                         f"{('base', 'work')[side]} side: {proc.stderr.strip()}")
    return wall


def time_sides(sides: tuple[Path, Path], work: Path) -> dict:
    """Each timed command's samples and ratios (see the module docstring),
    by command name."""
    commands = {"setup": ["-c", perfbench().SETUP_CODE],
                **{f"run {corpus}": ["-m", "apicomp.cli", *case_args("run", corpus, "default")]
                   for corpus in TIME_CORPORA},
                **{f"cluster {corpus}": ["-m", "apicomp.cli", "cluster", "--graph",
                                         f"{corpus}/graph.tsv", "--out", f"{corpus}/clusters.txt"]
                   for corpus in TIME_CORPORA}}
    for corpus in TIME_CORPORA:  # the graph.tsv that both sides cluster
        checked(sides, 1, work, f"graph {corpus}",
                ["-m", "apicomp.cli", "graph", "--corpus", f"{corpus}/corpus", "--classifier",
                 f"{corpus}/corpus/classifier.txt", "--out", corpus])
    summary = {}
    for name, argv in commands.items():
        samples: tuple[list[float], list[float]] = ([], [])
        for side in [0, 1] + [0, 1, 1, 0] * ROUNDS:
            samples[side].append(checked(sides, side, work, name, argv))
        base, new = (side[1:] for side in samples)  # less the warm-up run
        ratios = [w / b for b, w in zip(base, new)]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        summary[name] = {"ratio": {"median": median, "q1": q1, "q3": q3},
                         "base_s": base, "work_s": new}
        print(f"time {name}: work/base {median:.3f} [{q1:.3f}-{q3:.3f}], median "
              f"base {statistics.median(base) * 1e3:.1f} ms, "
              f"work {statistics.median(new) * 1e3:.1f} ms, {len(ratios)} pairs")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE",
                        help="git revision, or directory holding src/")
    parser.add_argument("--work", type=Path, default=ROOT / ".bench_work" / "ab",
                        help="scratch directory, rewritten (default: %(default)s)")
    parser.add_argument("--time", action="store_true",
                        help="time the two sides instead of comparing outputs")
    args = parser.parse_args(argv)
    work = args.work.resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sides = base_src(args.base, work), ROOT / "src"
    if args.time:
        build_corpora(TIME_CORPORA, work)
        summary = {"base": args.base, "rounds": ROUNDS, "commands": time_sides(sides, work)}
        (work / "time.json").write_text(json.dumps(summary, indent=2) + "\n",
                                        encoding="utf-8")
        return 0
    build_corpora(CORPORA, work)
    cases = grid()
    same = 0
    for kind, label, case, seed in cases:
        results = [run_case(src, work, case, OUTPUTS[kind], seed) for src in sides]
        if kind in FEEDS:  # the input of the next case
            (work / FEEDS[kind]).write_bytes(results[0][2][FEEDS[kind]] or b"")
        difference = describe(*results)
        if difference is None:
            same += 1
        else:
            print(f"DIFF {label} PYTHONHASHSEED={seed}: {difference}")
    print(f"ab: {same} of {len(cases)} cases identical, base {args.base}")
    return 0 if same == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
