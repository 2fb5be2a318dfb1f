"""One stage chain for every corpus: an empty corpus runs every stage of
``run_pipeline`` and gives the empty report, and no stage output is None."""

import json

import pytest

from apicomp import pipeline
from apicomp.pipeline import RunConfig, load_pruned, run_pipeline
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


def test_load_pruned_gives_an_empty_pruned_corpus(empty_dir):
    corpus, pruned = load_pruned(empty_dir, None)
    assert corpus.is_empty()
    assert type(pruned) is TraceCorpus and pruned == TraceCorpus({})
