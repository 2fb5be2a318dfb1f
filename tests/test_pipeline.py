"""One stage chain for every corpus: an empty corpus runs every stage of
``run_pipeline`` and gives the empty report, and no stage output is None.
A report read back from ``report.json`` renders as the run rendered it, and
a report pair is replaced whole or not at all."""

import json
import re
from pathlib import Path

import pytest

from conftest import FIG_TREE_TEXT, write_corpus_dir

from apicomp import pipeline
from apicomp.clusterer import ClusterConfig
from apicomp.metrics import MetricConfig, QualityWeights
from apicomp.pipeline import RunConfig, load_pruned, run_pipeline
from apicomp.report import render_report_text, write_evaluation, write_report
from apicomp.trace_model import TraceCorpus


def _empty_report(corpus_dir) -> dict:
    """The report an empty corpus has always had, held here as a literal."""
    return {
        "call_tree_stats": [],
        "component_stats": {"avg_component_classes": 0.0, "avg_interface_methods": 0.0,
                            "count": 0, "empty": True},
        "components": [],
        "config": {"classifier": None, "corpus": str(corpus_dir), "edge_threshold": 0.0,
                   "lambda_dist": 1.0, "lambda_freq": 1.0, "lambda_weight": 1.0,
                   "rc_comparison": "prose", "weight_formula": "example"},
        "corpus": {"apps": 0, "empty": True, "trees": 0},
        "graph": {"edges": 0, "vertices": 0},
        "pruned_tree_stats": [],
        "schema": "apicomp-report/2",
    }


@pytest.fixture
def empty_dir(tmp_path):
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / "app-without-traces").mkdir(parents=True)
    return corpus_dir


def test_an_empty_corpus_runs_every_stage_once(empty_dir, tmp_path, monkeypatch):
    calls = []
    for name in ("build_graph", "cluster", "assemble", "build_report"):
        def counted(*args, stage=getattr(pipeline, name), name=name, **kwargs):
            calls.append(name)
            return stage(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    out = tmp_path / "out"
    report = run_pipeline(RunConfig(empty_dir, out))
    assert sorted(calls) == ["assemble", "build_graph", "build_report", "cluster"]
    assert report == _empty_report(empty_dir)
    assert json.loads((out / "report.json").read_text(encoding="utf-8")) == report


def test_the_config_echo_holds_every_field_of_the_analysis_records():
    """Every switch that can change a result is echoed with its value, and
    the invocation details (output directory, job count) are not."""
    config = RunConfig(Path("c"), Path("o"), Path("k.txt"), QualityWeights(0.25, 0.5, 0.75),
                       0.2, MetricConfig("literal"), ClusterConfig("caption"), jobs=3)
    assert config.config_echo() == {
        "corpus": "c", "classifier": "k.txt", "edge_threshold": 0.2,
        "lambda_freq": 0.25, "lambda_dist": 0.5, "lambda_weight": 0.75,
        "weight_formula": "literal", "rc_comparison": "caption"}


def test_load_pruned_gives_an_empty_pruned_corpus(empty_dir):
    corpus, pruned = load_pruned(empty_dir, None)
    assert corpus.is_empty()
    assert type(pruned) is TraceCorpus and pruned == TraceCorpus({})


# Each column of a tree-stats table: its header and the row key it shows.
STATS_COLUMNS = {"app": "app", "scenario": "scenario", "nodes": "nodes",
                 "unique_api": "unique_api_methods", "height": "height",
                 "min_rep": "min_repetition", "max_rep": "max_repetition",
                 "avg_rep": "avg_repetition"}


def test_a_report_read_back_renders_each_column_under_its_header(tmp_path):
    """``report.json`` holds its keys sorted, so a table that took its
    columns from a row's key order would put them under the wrong headers."""
    corpus_dir = write_corpus_dir(tmp_path, {
        "demo": {"s0": FIG_TREE_TEXT, "s1": "0\tclient.Main.A\n1\tlib.Core.B\n"
                                            "2\tlib.Core.F\n2\tlib.Core.F\n"}})
    classifier = tmp_path / "classifier.txt"
    classifier.write_text("lib.\n", encoding="utf-8")
    out = tmp_path / "out"
    run_pipeline(RunConfig(corpus_dir, out, classifier))
    loaded = json.loads((out / "report.json").read_text(encoding="utf-8"))
    text = render_report_text(loaded)
    assert text == (out / "report.txt").read_text(encoding="utf-8")
    lines = text.splitlines()
    for title, key in (("Call trees (as recorded)", "call_tree_stats"),
                       ("Call trees (pruned)", "pruned_tree_stats")):
        rows = loaded[key]
        assert list(rows[0]) == sorted(rows[0]) != list(STATS_COLUMNS.values())
        header, *table = lines[lines.index(title) + 1:][:len(rows) + 1]
        spans = [match.span() for match in re.finditer(r"\S+", header)]
        assert [header[a:b] for a, b in spans] == list(STATS_COLUMNS)
        starts = [a for a, _ in spans]
        for row, line in zip(rows, table, strict=True):
            cells = [line[a:b].strip() for a, b in zip(starts, [*starts[1:], None])]
            assert cells == [f"{row[k]:g}" if isinstance(row[k], float) else str(row[k])
                             for k in STATS_COLUMNS.values()]


_REPORT = _empty_report("corpus")
_EVALUATION = {"schema": "apicomp-evaluation/1", "components": [], "mean_precision": 0.0}


@pytest.mark.parametrize("write, old, new", [
    (write_report, _REPORT, {**_REPORT, "config": {**_REPORT["config"], "edge_threshold": 0.5}}),
    (write_evaluation, _EVALUATION, {**_EVALUATION, "mean_precision": 1.0}),
], ids=["report", "evaluation"])
def test_a_failed_second_write_leaves_the_previous_pair(tmp_path, monkeypatch, write, old,
                                                        new):
    """The second file of a pair fails to write: both files keep their
    previous bytes, and no temporary file is left in the directory."""
    write(old, tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert len(before) == 2
    write_text, calls = Path.write_text, []

    def fail_second(self, *args, **kwargs):
        calls.append(self)
        if len(calls) == 2:
            raise OSError("no space left on device")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_second)
    with pytest.raises(OSError, match="no space left"):
        write(new, tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
