"""Metamorphic relations of the whole pipeline: a transformed copy of a
corpus must give the same outputs as the corpus itself.

Each corpus runs ``apicomp run`` and ``apicomp graph`` under the flag sets
of ``tools/ab.py``, and ``apicomp cluster`` under both ``--rc-comparison``
readings on each graph. A corpus and its copy run from the same relative
paths, so their reports echo the same config, and the outputs are compared
byte for byte after the relation's mapping:

1. a comment or blank line before every line of every trace and of the
   classifier file: every output is identical;
2. ``zz.`` before every class name and every classifier prefix, a rename
   that keeps name order: every output is identical once ``zz.`` is
   removed;
3. an app rename that keeps app order and each id's length (each
   character of the app ids mapped, in order, to a capital letter): every
   output is identical once the ids are mapped back;
4. ``perfbench/workloads.interleave``, which wraps about half of the API
   calls in an application frame: the pruned corpus, ``graph.tsv``,
   ``graph.dot``, the clusters and the reports are identical, but for the
   recorded call-tree stats and their text table;
5. the children of every node in reverse order: ``graph.tsv``,
   ``graph.dot`` and the clusters are identical, and so are the reports
   but for the first-call witnesses, which follow corpus order.

The corpora are the golden ones of ``test_golden.py`` and one small
generated corpus of deeper trees.
"""

import importlib.util
import json
import os
import re
from pathlib import Path

import pytest

from test_golden import GENERATE, HAND_CORPUS, NOISY

from apicomp.cli import main
from apicomp.clusterer import RC_COMPARISONS
from apicomp.rng import SplitMix64
from apicomp.trace_model import ApiClassifier, load_corpus, write_corpus

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SMALL = ["generate", "--components", "2", "--methods-per-component", "3", "4",
         "--inter-call-prob", "0.5", "--trees-per-app", "3", "--apps", "2",
         "--tree-depth", "5", "9", "--noise-prob", "0.5", "--seed", "5"]
NAMES = ("golden", "noisy", "hand", "small")


def outputs(root: Path, traces: dict[str, str], classifier: str) -> dict[str, bytes]:
    """Write ``traces`` to ``root / "corpus"`` and ``classifier`` beside it,
    run every command on them from ``root``, and return each output file's
    bytes by its path under ``root``."""
    for name, text in traces.items():
        path = root / "corpus" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (root / "classifier.txt").write_text(classifier, encoding="utf-8")
    corpus = ["--corpus", "corpus", "--classifier", "classifier.txt"]
    here = os.getcwd()
    os.chdir(root)
    try:
        for flags, args in ab.FLAGS.items():
            assert main(["run", *corpus, *args, "--out", f"run-{flags}"]) == 0
        for flags in ab.GRAPH_FLAGS:
            out = f"graph-{flags}"
            assert main(["graph", *corpus, *ab.FLAGS[flags], "--out", out]) == 0
            for rc in RC_COMPARISONS:
                assert main(["cluster", "--graph", f"{out}/graph.tsv", "--rc-comparison", rc,
                             "--out", f"{out}/clusters-{rc}.txt"]) == 0
    finally:
        os.chdir(here)
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.glob("*-*/*"))}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Each corpus by name: its traces by path, its classifier text and its
    outputs."""
    found = {}
    for name in NAMES:
        if name == "hand":
            traces, classifier = HAND_CORPUS, "lib.\n"
        else:
            generated = tmp_path_factory.mktemp(name) / "corpus"
            assert main([*{"golden": GENERATE, "noisy": NOISY, "small": SMALL}[name],
                         "--out", str(generated)]) == 0
            traces = {path.relative_to(generated).as_posix(): path.read_text(encoding="utf-8")
                      for path in sorted(generated.glob("*/*.trace"))}
            classifier = (generated / "classifier.txt").read_text(encoding="utf-8")
        found[name] = traces, classifier, outputs(tmp_path_factory.mktemp(name), traces,
                                                  classifier)
    return found


def pruned(root: Path) -> dict[str, bytes]:
    """The files ``apicomp prune`` writes for the corpus and classifier that
    ``outputs`` left under ``root``, by path."""
    out = root / "pruned"
    assert main(["prune", "--corpus", str(root / "corpus"), "--classifier",
                 str(root / "classifier.txt"), "--out", str(out)]) == 0
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


NOTES = ("# a comment", "", "   ", "\t# an indented comment\twith a tab")


def with_notes(text: str) -> str:
    """``text`` with one of ``NOTES`` before each line and a comment after
    the last."""
    return "".join(f"{NOTES[i % len(NOTES)]}\n{line}\n"
                   for i, line in enumerate(text.splitlines())) + "# the end\n"


def renamed(text: str) -> str:
    """A trace with ``zz.`` before the method name of each event."""
    return "".join("{}\tzz.{}\n".format(*line.split("\t", 1)) for line in text.splitlines())


def reversed_children(text: str) -> str:
    """A trace with the children of every node in reverse order."""
    root = None
    stack: list[tuple[str, list]] = []
    for line in text.splitlines():
        node = (line, [])
        del stack[int(line.split("\t", 1)[0]):]
        if stack:
            stack[-1][1].append(node)
        else:
            root = node
        stack.append(node)
    lines, todo = [], [root]
    while todo:  # pre-order; the last child pushed is the first popped
        line, children = todo.pop()
        lines.append(line)
        todo.extend(children)
    return "".join(f"{line}\n" for line in lines)


def without_witnesses(files: dict[str, bytes]) -> dict[str, object]:
    """``files`` with the first-call witness of each required method taken
    out of the reports."""
    kept: dict[str, object] = {}
    for path, data in files.items():
        if path.endswith("report.json"):
            report = json.loads(data)
            for component in report["components"]:
                for entry in component["required_interface"]:
                    del entry["witness"]
            kept[path] = report
        elif path.endswith("report.txt"):
            kept[path] = re.sub(rb"; first call by \S+ in \S+\)", b")", data)
        else:
            kept[path] = data
    return kept


@pytest.mark.parametrize("name", NAMES)
def test_comment_and_blank_lines_change_no_output(name, corpora, tmp_path):
    traces, classifier, expected = corpora[name]
    notes = {path: with_notes(text) for path, text in traces.items()}
    assert outputs(tmp_path, notes, with_notes(classifier)) == expected


@pytest.mark.parametrize("name", NAMES)
def test_a_class_rename_that_keeps_name_order_changes_only_the_names(name, corpora,
                                                                      tmp_path):
    traces, classifier, expected = corpora[name]
    assert not any(b"zz." in data for data in expected.values())
    prefixes = "".join(f"zz.{line}\n" for line in classifier.splitlines() if line.strip())
    got = outputs(tmp_path, {path: renamed(text) for path, text in traces.items()}, prefixes)
    assert {path: data.replace(b"zz.", b"") for path, data in got.items()} == expected


@pytest.mark.parametrize("name", NAMES)
def test_reversed_children_move_only_the_witnesses(name, corpora, tmp_path):
    traces, classifier, expected = corpora[name]
    reversed_traces = {path: reversed_children(text) for path, text in traces.items()}
    assert reversed_traces != traces
    assert without_witnesses(outputs(tmp_path, reversed_traces, classifier)) == \
        without_witnesses(expected)


def app_renames(traces: dict[str, str]) -> dict[str, str]:
    """Each app id of ``traces`` by its new id: every character of the ids
    mapped, in order, to a capital letter, which keeps the ids' order and
    lengths."""
    apps = sorted({path.split("/", 1)[0] for path in traces})
    letters = {c: chr(ord("A") + i) for i, c in enumerate(sorted(set("".join(apps))))}
    assert len(letters) <= 26
    return {app: "".join(map(letters.get, app)) for app in apps}


@pytest.mark.parametrize("name", NAMES)
def test_an_app_rename_that_keeps_order_and_length_changes_only_the_ids(name, corpora,
                                                                        tmp_path):
    traces, classifier, expected = corpora[name]
    renames = app_renames(traces)
    assert not any(new.encode() in data for new in renames.values()
                   for data in expected.values())
    moved = {re.sub(r"^[^/]+", lambda app: renames[app[0]], path): text
             for path, text in traces.items()}
    got = outputs(tmp_path, moved, classifier)
    for app, new in sorted(renames.items(), key=lambda item: -len(item[0])):
        got = {path: data.replace(new.encode(), app.encode()) for path, data in got.items()}
    assert got == expected


def without_recorded_stats(files: dict[str, bytes]) -> dict[str, object]:
    """``files`` with the recorded call-tree stats taken out of the
    reports, and their table out of the report text."""
    kept: dict[str, object] = {}
    for path, data in files.items():
        if path.endswith("report.json"):
            kept[path] = {**json.loads(data), "call_tree_stats": None}
        elif path.endswith("report.txt"):
            kept[path] = re.sub(rb"Call trees \(as recorded\)\n.*?\n\n", b"", data,
                                flags=re.DOTALL)
        else:
            kept[path] = data
    return kept


@pytest.mark.parametrize("name", NAMES)
def test_interleaved_application_frames_move_only_the_recorded_stats(name, corpora,
                                                                     tmp_path):
    ab.perfbench()  # makes perfbench/ importable
    from workloads import GLUE, interleave

    traces, classifier, expected = corpora[name]
    plain = tmp_path / "plain"
    outputs(plain, traces, classifier)
    api = ApiClassifier.load(plain / "classifier.txt")
    assert not api.is_api(GLUE.class_name)
    corpus = load_corpus(plain / "corpus", api)
    interleave(corpus, SplitMix64(7))
    write_corpus(corpus, tmp_path / "glued")
    glued = {path.relative_to(tmp_path / "glued").as_posix(): path.read_text(encoding="utf-8")
             for path in sorted((tmp_path / "glued").glob("*/*.trace"))}
    assert glued.keys() == traces.keys() and glued != traces
    got = outputs(tmp_path / "out", glued, classifier)
    assert pruned(tmp_path / "out") == pruned(plain)
    assert without_recorded_stats(got) == without_recorded_stats(expected)
    assert all(json.loads(got[path])["call_tree_stats"] !=
               json.loads(expected[path])["call_tree_stats"]
               for path in got if path.endswith("report.json"))
