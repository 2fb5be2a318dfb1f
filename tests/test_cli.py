import csv
import io
import json

import pytest

from conftest import FIG_TREE_TEXT, write_corpus_dir

from apicomp.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def fig_corpus(tmp_path):
    corpus_dir = write_corpus_dir(tmp_path, {"demo": {"s0": FIG_TREE_TEXT}})
    classifier = tmp_path / "classifier.txt"
    classifier.write_text("lib.\n", encoding="utf-8")
    return corpus_dir, classifier


@pytest.fixture
def worked_corpus_dir(tmp_path):
    """The three worked scenario trees as files (every method is API)."""
    t1 = ("0\tlib.Ops.A\n1\tlib.Ops.B\n2\tlib.Ops.D\n3\tlib.Ops.E\n"
          "1\tlib.Ops.L\n1\tlib.Ops.C\n")
    t2 = "0\tlib.Ops.A\n1\tlib.Ops.B\n2\tlib.Ops.C\n"
    t3 = "0\tlib.Ops.D\n1\tlib.Ops.E\n"
    return write_corpus_dir(tmp_path, {"app1": {"t1": t1, "t2": t2, "t3": t3}})


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("run", "--bogus") == 1
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli() == 1

    def test_bad_lambda_is_config_error(self, fig_corpus, tmp_path, capsys):
        corpus, classifier = fig_corpus
        code = run_cli("run", "--corpus", str(corpus), "--lambda-freq", "2.0",
                       "--out", str(tmp_path / "out"))
        assert code == 1

    def test_malformed_trace_is_parse_error(self, tmp_path, capsys):
        corpus = write_corpus_dir(tmp_path, {"a": {"bad": "0\tlib.A.a\n5\tlib.B.b\n"}})
        code = run_cli("run", "--corpus", str(corpus),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.trace" in err and ":2" in err

    def test_non_utf8_trace_is_parse_error(self, tmp_path, capsys):
        corpus = write_corpus_dir(tmp_path, {"a": {"ok": "0\tlib.A.a\n"}})
        (corpus / "a" / "latin1.trace").write_bytes(b"0\tlib.A.caf\xe9\n")
        code = run_cli("run", "--corpus", str(corpus),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "latin1.trace" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, fig_corpus, tmp_path, capsys, jobs):
        corpus, _ = fig_corpus
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", str(corpus), "--jobs", jobs,
                       "--out", str(out)) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_corpus_is_distinct(self, tmp_path):
        empty = tmp_path / "corpus"
        empty.mkdir()
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", str(empty), "--out", str(out)) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["corpus"]["empty"] is True

    def test_missing_corpus_is_config_error(self, tmp_path):
        assert run_cli("run", "--corpus", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "out")) == 1


class TestRun:
    def test_fig_corpus_report(self, fig_corpus, tmp_path, capsys):
        corpus, classifier = fig_corpus
        out = tmp_path / "out"
        code = run_cli("run", "--corpus", str(corpus),
                       "--classifier", str(classifier), "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        raw, = report["call_tree_stats"]
        pruned, = report["pruned_tree_stats"]
        assert raw["nodes"] == 21
        assert pruned["nodes"] == 13
        assert report["component_stats"]["count"] >= 1
        text = (out / "report.txt").read_text()
        assert "Components" in text and "Call trees (pruned)" in text

    def test_planted_corpus_recovery(self, tmp_path):
        corpus_dir = tmp_path / "synth"
        assert run_cli("generate", "--components", "2", "--seed", "7",
                       "--out", str(corpus_dir)) == 0
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", str(corpus_dir),
                       "--classifier", str(corpus_dir / "classifier.txt"),
                       "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        got = {frozenset(c["provided_interface"]) for c in report["components"]}
        truth = {frozenset(line.split(","))
                 for line in (corpus_dir / "ground_truth.txt").read_text().splitlines()}
        assert got == truth

    def test_reports_are_byte_identical_across_jobs(self, fig_corpus, tmp_path):
        corpus, classifier = fig_corpus
        outs = []
        for name, jobs in (("one", "1"), ("two", "8")):
            out = tmp_path / name
            assert run_cli("run", "--corpus", str(corpus),
                           "--classifier", str(classifier),
                           "--jobs", jobs, "--out", str(out)) == 0
            outs.append(out)
        for filename in ("report.json", "report.txt"):
            assert (outs[0] / filename).read_bytes() == \
                (outs[1] / filename).read_bytes()


class TestStageComposition:
    def test_generate_prune_graph_cluster(self, tmp_path):
        corpus_dir = tmp_path / "synth"
        run_cli("generate", "--components", "2", "--seed", "3",
                "--out", str(corpus_dir))

        pruned_dir = tmp_path / "pruned"
        assert run_cli("prune", "--corpus", str(corpus_dir),
                       "--classifier", str(corpus_dir / "classifier.txt"),
                       "--jobs", "4", "--out", str(pruned_dir)) == 0
        assert sorted(p.name for p in (pruned_dir / "app0").glob("*.trace"))

        graph_dir = tmp_path / "graph"
        assert run_cli("graph", "--corpus", str(pruned_dir),
                       "--jobs", "4", "--out", str(graph_dir)) == 0
        assert (graph_dir / "graph.tsv").exists()
        assert (graph_dir / "graph.dot").read_text().startswith("graph")

        clusters_file = tmp_path / "clusters.txt"
        assert run_cli("cluster", "--graph", str(graph_dir / "graph.tsv"),
                       "--out", str(clusters_file)) == 0
        lines = clusters_file.read_text().splitlines()
        truth = {frozenset(line.split(","))
                 for line in (corpus_dir / "ground_truth.txt").read_text().splitlines()}
        assert {frozenset(line.split(",")) for line in lines} == truth

    def test_pruned_corpus_reloads_without_classifier(self, fig_corpus, tmp_path):
        corpus, classifier = fig_corpus
        pruned_dir = tmp_path / "pruned"
        assert run_cli("prune", "--corpus", str(corpus),
                       "--classifier", str(classifier),
                       "--out", str(pruned_dir)) == 0
        # Pruned trees keep a single-root format (connector line if needed).
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", str(pruned_dir), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pruned_tree_stats"][0]["nodes"] == 13


class TestMetricsCommand:
    def test_csv_output(self, worked_corpus_dir, tmp_path, capsys):
        sets_file = tmp_path / "sets.txt"
        sets_file.write_text("lib.Ops.D,lib.Ops.E\nlib.Ops.A,lib.Ops.B\n",
                             encoding="utf-8")
        assert run_cli("metrics", "--corpus", str(worked_corpus_dir),
                       "--sets", str(sets_file)) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["set"] for r in rows] == ["lib.Ops.D,lib.Ops.E",
                                            "lib.Ops.A,lib.Ops.B"]
        de = rows[0]
        assert float(de["call_weight"]) == pytest.approx(0.6, abs=1e-9)
        assert float(de["call_dist"]) == pytest.approx(4 / 9, abs=1e-9)
        assert float(de["quality"]) == pytest.approx(169 / 270, abs=1e-9)

    def test_singleton_set_is_config_error(self, worked_corpus_dir, tmp_path):
        sets_file = tmp_path / "sets.txt"
        sets_file.write_text("lib.Ops.D\n", encoding="utf-8")
        assert run_cli("metrics", "--corpus", str(worked_corpus_dir),
                       "--sets", str(sets_file)) == 1


class TestEvaluate:
    def test_mean_precision(self, worked_corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("run", "--corpus", str(worked_corpus_dir), "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        first = report["components"][0]["provided_interface"]

        labels_file = tmp_path / "labels.txt"
        pairs = [f"{a}\t{b}" for i, a in enumerate(first) for b in first[i + 1:]]
        labels_file.write_text("\n".join(pairs) + "\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(out / "report.json"),
                       "--labels", str(labels_file)) == 0

        evaluation = json.loads((out / "evaluation.json").read_text())
        per_component = [row["precision"] for row in evaluation["components"]]
        assert per_component[0] == 1.0
        assert evaluation["mean_precision"] == pytest.approx(
            sum(per_component) / len(per_component))
        assert "mean precision" in capsys.readouterr().out

    def test_empty_labels_score_zero(self, worked_corpus_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--corpus", str(worked_corpus_dir), "--out", str(out))
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("# none\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(out / "report.json"),
                       "--labels", str(labels_file)) == 0
        evaluation = json.loads((out / "evaluation.json").read_text())
        assert evaluation["mean_precision"] == 0.0


class TestGenerateCommand:
    def test_infeasible_spec_is_config_error(self, tmp_path):
        assert run_cli("generate", "--tree-depth", "0", "3",
                       "--out", str(tmp_path / "c")) == 1

    def test_seed_reproducibility(self, tmp_path):
        for name in ("one", "two"):
            run_cli("generate", "--seed", "5", "--out", str(tmp_path / name))
        a = sorted((tmp_path / "one").rglob("*.trace"))
        b = sorted((tmp_path / "two").rglob("*.trace"))
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


class TestEmptyCorpusAcrossCommands:
    @pytest.fixture
    def empty_corpus(self, tmp_path):
        empty = tmp_path / "corpus"
        empty.mkdir()
        return empty

    def test_prune(self, empty_corpus, tmp_path):
        assert run_cli("prune", "--corpus", str(empty_corpus),
                       "--out", str(tmp_path / "out")) == 3

    def test_metrics(self, empty_corpus, tmp_path):
        sets_file = tmp_path / "sets.txt"
        sets_file.write_text("a.B.c,d.E.f\n", encoding="utf-8")
        assert run_cli("metrics", "--corpus", str(empty_corpus),
                       "--sets", str(sets_file)) == 3

    def test_graph(self, empty_corpus, tmp_path):
        assert run_cli("graph", "--corpus", str(empty_corpus),
                       "--out", str(tmp_path / "out")) == 3


class TestConfigSwitchesReachThePipeline:
    def test_literal_weight_formula_changes_the_graph(self, worked_corpus_dir,
                                                      tmp_path):
        reports = {}
        for formula in ("example", "literal"):
            out = tmp_path / formula
            assert run_cli("run", "--corpus", str(worked_corpus_dir),
                           "--weight-formula", formula, "--out", str(out)) == 0
            reports[formula] = json.loads((out / "report.json").read_text())
        assert reports["example"]["config"]["weight_formula"] == "example"
        assert reports["literal"]["config"]["weight_formula"] == "literal"

    def test_caption_rc_comparison_runs(self, worked_corpus_dir, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", str(worked_corpus_dir),
                       "--rc-comparison", "caption", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["rc_comparison"] == "caption"


def test_every_corpus_method_lands_in_a_component(worked_corpus_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--corpus", str(worked_corpus_dir),
                   "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    provided = set()
    for comp in report["components"]:
        provided.update(comp["provided_interface"])
    methods = {f"lib.Ops.{x}" for x in "ABCDEL"}
    assert provided == methods
    assert report["graph"]["vertices"] == len(methods)
