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
