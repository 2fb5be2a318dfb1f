"""The code-line counter in ``tools/code_lines.py`` and the report
comparison and timing in ``tools/ab.py``."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
ab = _load("ab")

# Code lines: 5, 8 and 10-14; a string that opens no body is code.
FIXTURE = '''"""Module docstring
over two lines."""

# a comment-only line
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    return os.path.join(
        x,
        """not a
docstring""",
    )
'''


def test_counts_lines_spanned_by_code_tokens(tmp_path, capsys):
    module = tmp_path / "pkg" / "mod.py"
    module.parent.mkdir()
    module.write_text(FIXTURE, encoding="utf-8")
    assert code_lines.code_lines(FIXTURE.encode()) == 7
    assert code_lines.main([str(module.parent)]) == 0
    assert capsys.readouterr().out == f"     7  {module}\n     7  total\n"


_FOLD = "row[1] += app_dist / size"
_APP_ORDER = "for trees in corpus.trees.values():"
_SATELLITE_ORDER = "[c.center.qualified, *rest]"
_RC_HELP = "relative compactness comparison (default %(default)s)"


def test_ab_finds_a_copy_identical_and_locates_a_mutated_fold(tmp_path, capsys, monkeypatch):
    """The working tree against a copy of its ``src/``: every case is
    identical. Against the copy with one change to ``CorpusMetrics``' fold:
    each differing case is reported with its first differing JSON path or
    text line, and the tool exits 1. Folding the apps in reverse moves only
    the last bits of some pair weights, which no report holds, so only the
    ``graph`` case shows it. Writing each cluster's satellites in reverse
    touches only the cluster text of ``apicomp cluster``, so only the
    ``cluster`` case shows it. Editing the help of the shared
    ``--rc-comparison`` option moves only ``apicomp cluster --help``, not
    its usage error."""
    # deep-1 at --edge-threshold 0.2 is the grid case whose report moves
    # when an app's distance sum is divided by its trees that hold the pair.
    monkeypatch.setattr(ab, "CORPORA", ("deep-1",))
    monkeypatch.setattr(ab, "FLAGS", {"threshold-0.2": ab.FLAGS["threshold-0.2"]})
    monkeypatch.setattr(ab, "GRAPH_FLAGS", ("threshold-0.2",))
    monkeypatch.setattr(ab, "HASH_SEEDS", ("0",))
    monkeypatch.setattr(ab, "COMMANDS", ("cluster",))
    base = tmp_path / "base"
    shutil.copytree(ROOT / "src", base / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    work = ["--work", str(tmp_path / "work")]
    assert ab.main([str(base), *work]) == 0
    assert capsys.readouterr().out == f"ab: 5 of 5 cases identical, base {base}\n"

    metrics = base / "src" / "apicomp" / "metrics.py"
    source = metrics.read_text(encoding="utf-8")
    assert source.count(_FOLD) == 1 and source.count(_APP_ORDER) == 1
    metrics.write_text(source.replace(_FOLD, "row[1] += app_dist / count"),
                       encoding="utf-8")
    assert ab.main([str(base), *work]) == 1
    report, graph, summary = capsys.readouterr().out.splitlines()
    assert report.startswith("DIFF run deep-1 threshold-0.2 PYTHONHASHSEED=0: report.json "
                             "$.component_stats.avg_component_classes: base ")
    assert graph.startswith("DIFF graph deep-1 threshold-0.2 PYTHONHASHSEED=0: graph.tsv line ")
    assert summary == f"ab: 3 of 5 cases identical, base {base}"

    metrics.write_text(source.replace(_APP_ORDER, "for trees in reversed(corpus.trees.values()):"),
                       encoding="utf-8")
    assert ab.main([str(base), *work]) == 1
    graph, summary = capsys.readouterr().out.splitlines()
    assert graph.startswith("DIFF graph deep-1 threshold-0.2 PYTHONHASHSEED=0: graph.tsv line ")
    assert summary == f"ab: 4 of 5 cases identical, base {base}"

    metrics.write_text(source, encoding="utf-8")
    clusterer = base / "src" / "apicomp" / "clusterer.py"
    text = clusterer.read_text(encoding="utf-8")
    assert text.count(_SATELLITE_ORDER) == 1
    clusterer.write_text(text.replace(_SATELLITE_ORDER, "[c.center.qualified, *rest[::-1]]"),
                         encoding="utf-8")
    assert ab.main([str(base), *work]) == 1
    clusters, summary = capsys.readouterr().out.splitlines()
    assert clusters.startswith("DIFF cluster deep-1 threshold-0.2 PYTHONHASHSEED=0: "
                               "clusters.txt line 1: ")
    assert summary == f"ab: 4 of 5 cases identical, base {base}"

    clusterer.write_text(text, encoding="utf-8")
    cli = base / "src" / "apicomp" / "cli.py"
    front = cli.read_text(encoding="utf-8")
    assert front.count(_RC_HELP) == 1
    cli.write_text(front.replace(_RC_HELP, "relative compactness rule (default %(default)s)"),
                   encoding="utf-8")
    assert ab.main([str(base), *work]) == 1
    help_screen, summary = capsys.readouterr().out.splitlines()
    assert help_screen == ("DIFF help cluster PYTHONHASHSEED=0: stdout line 8: base "
                           "'relative compactness rule (default prose)' | "
                           "work 'relative compactness comparison (default prose)'")
    assert summary == f"ab: 4 of 5 cases identical, base {base}"


@pytest.mark.parametrize("a, b, path", [
    ({"k": [1, {"x": 1}]}, {"k": [1, {"x": 1}]}, None),
    ({"k": [1, {"x": 1}]}, {"k": [1, {"x": 2}]}, "$.k[1].x"),
    ({"a": 1, "b": 2}, {"b": 3}, "$.a"),
    ({"k": [1, 2]}, {"k": [1, 2, 3]}, "$.k[2]"),
    ({"k": 1}, {"k": 1.0}, "$.k"),
])
def test_first_json_difference_is_the_first_in_sorted_key_order(a, b, path):
    for x, y in ((a, b), (b, a)):
        found = ab.first_json_difference(x, y)
        assert (found and found[0]) == path


def test_a_text_difference_names_its_first_line():
    base = (0, "", {"report.json": b"{}", "report.txt": b"same\nold line\nrest\n"})
    work = (0, "", {"report.json": b"{}", "report.txt": b"same\nnew line\nrest\n"})
    assert ab.describe(base, work) == "report.txt line 2: base 'old line' | work 'new line'"
    assert ab.describe(base, base) is None


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_a_revision_is_extracted_offline(tmp_path):
    src = ab.base_src("HEAD", tmp_path)
    assert src == tmp_path / "base" / "src" and (src / "apicomp" / "cli.py").is_file()
    with pytest.raises(SystemExit, match="neither a directory holding src/ nor a git revision"):
        ab.base_src("no-such-revision", tmp_path)


def test_ab_time_writes_a_summary_of_every_command(tmp_path, capsys, monkeypatch):
    """One ABBA round on ``deep-1``: the start-up code, ``apicomp run`` and
    ``apicomp cluster`` each print one line and get a ratio, its quartiles
    and both sides' samples. The keys are checked, not the numbers."""
    monkeypatch.setattr(ab, "TIME_CORPORA", ("deep-1",))
    monkeypatch.setattr(ab, "ROUNDS", 1)
    base = tmp_path / "base"
    shutil.copytree(ROOT / "src", base / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    work = tmp_path / "work"
    assert ab.main([str(base), "--time", "--work", str(work)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "time setup", "time run deep-1", "time cluster deep-1"]
    summary = json.loads((work / "time.json").read_text(encoding="utf-8"))
    assert summary.keys() == {"base", "rounds", "commands"}
    assert summary["base"] == str(base) and summary["rounds"] == 1
    assert list(summary["commands"]) == ["setup", "run deep-1", "cluster deep-1"]
    for command in summary["commands"].values():
        assert command.keys() == {"ratio", "base_s", "work_s"}
        assert command["ratio"].keys() == {"median", "q1", "q3"}
        assert len(command["base_s"]) == len(command["work_s"]) == 2
