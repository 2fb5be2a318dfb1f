import argparse
import csv
import io
import json

import pytest

from conftest import API_CLASSIFIER, FIG_TREE_TEXT, fresh, write_corpus_dir

from apicomp.cli import build_parser, main
from apicomp.clusterer import RC_COMPARISONS, ClusterConfig
from apicomp.components import RelatednessLabels
from apicomp.graph_builder import GraphConfig, read_edge_list
from apicomp.metrics import WEIGHT_FORMULAS, MetricConfig, QualityWeights
from apicomp.synth import PlantSpec, load_ground_truth, write_generated
from apicomp.trace_model import load_corpus


def run_cli(*argv) -> int:
    return main(list(argv))


# Code that prints the apicomp submodules, and ``json``, loaded so far.
LOADED = ("print(sorted(m for m in sys.modules"
          " if m.startswith('apicomp.') or m == 'json'))")


def test_import_loads_no_thread_pool(tmp_path):
    """Every stage runs serially, so ``apicomp run``, which loads every
    stage, must not import ``concurrent.futures``. A pool may come back only
    with a measured gain."""
    corpus = tmp_path / "corpus"
    assert run_cli("generate", "--seed", "3", "--out", str(corpus)) == 0
    argv = ["run", "--corpus", str(corpus), "--out", str(tmp_path / "out")]
    proc = fresh("-c", "import sys\nfrom apicomp.cli import main\n"
                       f"code = main({argv!r})\n"
                       "print(code, 'concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_run_loads_no_dataclasses_and_no_generate_only_module(tmp_path):
    """``apicomp run`` starts without the ``dataclasses`` machinery and
    without what only ``generate`` and ``metrics`` use. The run happens in
    the same fresh interpreter, so nothing it needs was merely deferred."""
    corpus = tmp_path / "corpus"
    assert run_cli("generate", "--seed", "3", "--out", str(corpus)) == 0
    argv = ["run", "--corpus", str(corpus), "--out", str(tmp_path / "out")]
    proc = fresh("-c", "import sys\nfrom apicomp.cli import main\n"
                       f"code = main({argv!r})\n"
                       "print(code, [m for m in ('dataclasses', 'apicomp.synth', "
                       "'apicomp.rng', 'csv') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "report.json").is_file()


@pytest.mark.parametrize("call", ["build_parser()", "main(['--help'])",
                                  "main(['run', '--help'])"])
def test_parser_and_help_load_only_cli_and_config(call):
    """Building the parser, and every help screen it prints, needs only the
    records' defaults and choices: no analysis stage and no ``json``."""
    proc = fresh("-c", f"import sys\nfrom apicomp.cli import build_parser, main\n"
                       f"{call}\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['apicomp.cli', 'apicomp.config']"


def test_generate_loads_no_analysis_stage(tmp_path):
    """``generate`` adds only the generator, its random numbers and the
    trace model it writes with."""
    argv = ["generate", "--seed", "3", "--out", str(tmp_path / "corpus")]
    proc = fresh("-c", f"import sys\nfrom apicomp.cli import main\n"
                       f"print(main({argv!r}))\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "0", "['apicomp.cli', 'apicomp.config', 'apicomp.rng', 'apicomp.synth', "
             "'apicomp.trace_model']"]


@pytest.mark.parametrize("command, stages", [
    (["prune", "--out", "pruned"], ["pruner", "trace_model"]),
    (["metrics", "--sets", "sets.txt"], ["metrics", "pruner", "trace_model"]),
    (["graph", "--out", "graph"], ["graph_builder", "metrics", "pruner", "trace_model"]),
])
def test_a_corpus_command_loads_only_the_stages_it_runs(tmp_path, command, stages):
    """``prune``, ``metrics`` and ``graph`` read a corpus through
    ``pruner.load_pruned`` and load no stage of the chain behind their own:
    no clusterer, components, report or pipeline, and no ``json``."""
    assert run_cli("generate", "--seed", "3", "--out", str(tmp_path / "corpus")) == 0
    (tmp_path / "sets.txt").write_text("lib.A.a,lib.B.b\n", encoding="utf-8")
    argv = [*command[:1], "--corpus", "corpus", *command[1:]]
    proc = fresh("-c", f"import sys\nfrom apicomp.cli import main\n"
                       f"print(main({argv!r}), file=sys.stderr)\n{LOADED}", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0"
    assert proc.stdout.splitlines()[-1] == str(
        ["apicomp.cli", "apicomp.config", *(f"apicomp.{stage}" for stage in stages)])


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

    @pytest.mark.parametrize("flag", ["--classifier", "--sets", "--graph", "--labels"])
    def test_non_utf8_input_file_is_usage_error_naming_it(self, worked_corpus_dir,
                                                          tmp_path, capsys, flag):
        corpus = str(worked_corpus_dir)
        report = tmp_path / "report" / "report.json"
        assert run_cli("run", "--corpus", corpus, "--out", str(report.parent)) == 0
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"lib.Ops.caf\xe9\n")
        argv = {
            "--classifier": ["run", "--corpus", corpus, "--classifier", str(bad),
                             "--out", str(tmp_path / "out")],
            "--sets": ["metrics", "--corpus", corpus, "--sets", str(bad)],
            "--graph": ["cluster", "--graph", str(bad)],
            "--labels": ["evaluate", "--report", str(report), "--labels", str(bad)],
        }[flag]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert "latin1.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("run", "--classifier"), ("metrics", "--sets"), ("cluster", "--graph"),
        ("evaluate", "--labels")])
    def test_non_utf8_input_file_error_starts_with_its_path(self, worked_corpus_dir,
                                                            tmp_path, capsys, command, flag):
        """README: a non-UTF-8 classifier, method-set, edge-list or label
        file is exit 1, and the message names the file."""
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"components": []}), encoding="utf-8")
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"lib.Ops.caf\xe9\n")
        argv = {"run": ["--corpus", str(worked_corpus_dir), "--out", str(tmp_path / "out")],
                "metrics": ["--corpus", str(worked_corpus_dir)],
                "cluster": [],
                "evaluate": ["--report", str(report)]}[command]
        assert run_cli(command, *argv, flag, str(bad)) == 1
        assert capsys.readouterr().err.startswith(
            f"apicomp: error: {bad}: not UTF-8 text (")

    def test_distance_pair_cap_flag_is_gone(self, fig_corpus, tmp_path, capsys):
        corpus, _ = fig_corpus
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", str(corpus), "--distance-pair-cap", "5",
                       "--out", str(out)) == 1
        assert "--distance-pair-cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, fig_corpus, tmp_path, capsys, jobs):
        corpus, _ = fig_corpus
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", str(corpus), "--jobs", jobs,
                       "--out", str(out)) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "graph"])
    def test_literal_quality_above_one_names_pair_and_cause(self, tmp_path, capsys,
                                                            command):
        # One app, three trees with the one direct call x -> y: the literal
        # weight is 3 shares / 1 app = 3.0, and the quality (1 + 0.5 + 3) / 3.
        tree = "0\ta.A.x\n1\ta.A.y\n"
        corpus = write_corpus_dir(tmp_path, {"app": {f"s{i}": tree for i in range(3)}})
        assert run_cli(command, "--corpus", str(corpus), "--weight-formula", "literal",
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("apicomp: error: quality 1.5 of a.A.x -- a.A.y exceeds 1")
        assert "'literal' weight formula" in err

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

    def test_jobs_that_is_not_a_number_is_usage_error(self, fig_corpus, tmp_path,
                                                      capsys):
        corpus, _ = fig_corpus
        assert run_cli("run", "--corpus", str(corpus), "--jobs", "x",
                       "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.endswith(
            "apicomp run: error: argument --jobs: must be an integer >= 1, got 'x'\n")

    @pytest.mark.parametrize("text, line_no, message", [
        ("0\tlib.A.a\tAPI\tx\n", 1, "unexpected trailing fields"),
        ("0\tlib.A.a\n1\t<connector>\n", 2,
         "connector marker is only valid as the root event"),
        ("0\tnodot\n", 1, "not a qualified method name: 'nodot'"),
    ], ids=["trailing-fields", "inner-connector", "bare-name"])
    def test_trace_error_names_file_line_and_cause(self, tmp_path, capsys, text,
                                                   line_no, message):
        corpus = write_corpus_dir(tmp_path, {"a": {"bad": text}})
        assert run_cli("run", "--corpus", str(corpus),
                       "--out", str(tmp_path / "out")) == 2
        path = corpus / "a" / "bad.trace"
        assert capsys.readouterr().err == (
            f"apicomp: parse error: {path}:{line_no}: {message}\n")

    def test_help_exits_zero(self, capsys):
        assert run_cli("cluster", "--help") == 0
        assert capsys.readouterr().out.startswith("usage: apicomp cluster [-h] --graph")


class TestExitCodesInAFreshInterpreter:
    """``main`` maps errors to exit codes without ``trace_model`` loaded
    beforehand, as it is in the tests above."""

    @pytest.mark.parametrize("command, options", [
        ("run", ["--out", "out"]), ("prune", ["--out", "pruned"]),
        ("metrics", ["--sets", "sets.txt"]), ("graph", ["--out", "graph"]),
    ])
    def test_corrupt_trace_is_parse_error(self, tmp_path, command, options):
        write_corpus_dir(tmp_path, {"a": {"bad": "0\tnodot\n"}})
        (tmp_path / "sets.txt").write_text("lib.A.a,lib.A.b\n", encoding="utf-8")
        proc = fresh("-m", "apicomp.cli", command, "--corpus", "corpus", *options,
                     cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("apicomp: parse error: ")

    @pytest.mark.parametrize("argv, message", [
        (["cluster", "--graph", "graph.tsv"], "apicomp: error: "),
        (["evaluate", "--report", "missing.json", "--labels", "labels.txt"],
         "apicomp: error: "),
        (["run", "--corpus", "corpus", "--out", "out", "--no-such-option"],
         "usage: apicomp "),
    ], ids=["bad-graph", "missing-report", "unknown-option"])
    def test_bad_input_is_usage_error(self, tmp_path, argv, message):
        (tmp_path / "graph.tsv").write_text("lib.A.a\tlib.A.b\theavy\n", encoding="utf-8")
        (tmp_path / "labels.txt").write_text("lib.A.a\tlib.A.b\n", encoding="utf-8")
        proc = fresh("-m", "apicomp.cli", *argv, cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(message)


def test_an_unexpected_error_escapes_main(fig_corpus, tmp_path, monkeypatch):
    """Only parse, value and OS errors become exit codes; a ``KeyError`` from
    a stage is a bug, and ``main`` lets it through."""
    import apicomp.pipeline

    def broken(config):
        raise KeyError("broken stage")

    monkeypatch.setattr(apicomp.pipeline, "run_pipeline", broken)
    corpus, classifier = fig_corpus
    with pytest.raises(KeyError, match="broken stage"):
        run_cli("run", "--corpus", str(corpus), "--classifier", str(classifier),
                "--out", str(tmp_path / "out"))


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    action, = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_shared_option_defaults_and_choices_are_the_records():
    """Each shared option's default and choices come from the record that
    validates it, in every subcommand that takes the option."""
    weights = QualityWeights()
    expected = {
        "lambda_freq": (weights.lambda_freq, None),
        "lambda_dist": (weights.lambda_dist, None),
        "lambda_weight": (weights.lambda_weight, None),
        "weight_formula": (MetricConfig().weight_formula, WEIGHT_FORMULAS),
        "edge_threshold": (GraphConfig().edge_threshold, None),
        "rc_comparison": (ClusterConfig().rc_comparison, RC_COMPARISONS),
    }
    takers: dict[str, list[str]] = {}
    for command, sub in _subcommands().items():
        for action in sub._actions:
            if action.dest in expected:
                default, choices = expected[action.dest]
                assert action.default == default and action.choices == choices, \
                    (command, action.dest)
                assert type(action.default) is type(default), (command, action.dest)
                takers.setdefault(action.dest, []).append(command)
    metric_commands = ["metrics", "graph", "run"]
    assert takers == {
        "lambda_freq": metric_commands, "lambda_dist": metric_commands,
        "lambda_weight": metric_commands, "weight_formula": metric_commands,
        "edge_threshold": ["graph", "run"], "rc_comparison": ["cluster", "run"],
    }


def _load_trace(path):
    return load_corpus(path.parent.parent, API_CLASSIFIER)


def _run_with_classifier(path):
    corpus = write_corpus_dir(path.parent, {"demo": {"s0": FIG_TREE_TEXT}})
    out = path.parent / "out"
    assert run_cli("run", "--corpus", str(corpus), "--classifier", str(path),
                   "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return report["graph"], report["components"]


def _read_edge_list(path):
    graph = read_edge_list(path)
    return graph.vertices, list(graph.edges())


def _metrics_of_sets(path):
    corpus = write_corpus_dir(path.parent, {"a": {"t": "0\tlib.Ops.A\n1\tlib.Ops.B\n"}})
    out = path.parent / "metrics.csv"
    assert run_cli("metrics", "--corpus", str(corpus), "--sets", str(path),
                   "--out", str(out)) == 0
    return out.read_text(encoding="utf-8")


def _evaluate_report(path):
    labels = path.parent / "labels.txt"
    labels.write_text("lib.Ops.A\tlib.Ops.B\n", encoding="utf-8")
    out = path.parent / "evaluation"
    assert run_cli("evaluate", "--report", str(path), "--labels", str(labels),
                   "--out", str(out)) == 0
    return (out / "evaluation.json").read_text(encoding="utf-8")


# Reader case: (file path under its directory, file text, reader of that path).
BOM_CASES = {
    "trace": ("corpus/demo/s0.trace", FIG_TREE_TEXT, _load_trace),
    "classifier": ("classifier.txt", "lib.\n", _run_with_classifier),
    "edge list": ("graph.tsv", "lib.A.a\tlib.A.b\t0.5\nlib.A.c\n", _read_edge_list),
    "labels": ("labels.txt", "lib.A.a\tlib.A.b\n", RelatednessLabels.load),
    "method sets": ("sets.txt", "lib.Ops.A,lib.Ops.B\n", _metrics_of_sets),
    "ground truth": ("truth.txt", "lib.A.a,lib.A.b\nlib.B.c\n", load_ground_truth),
    "report": ("report.json", json.dumps({
        "schema": "apicomp-report/1",
        "components": [{"id": 0, "center": "lib.Ops.A",
                        "provided_interface": ["lib.Ops.A", "lib.Ops.B"]}]}),
        _evaluate_report),
}


@pytest.mark.parametrize("case", list(BOM_CASES))
def test_leading_byte_order_mark_is_ignored(tmp_path, case):
    """A UTF-8 file that starts with a byte order mark reads as the same
    file without it, for every text input."""
    name, text, read = BOM_CASES[case]
    results = []
    for directory, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = tmp_path / directory / name
        path.parent.mkdir(parents=True)
        path.write_bytes(prefix + text.encode("utf-8"))
        results.append(read(path))
    assert results[0] == results[1]


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

    def test_bare_method_name_is_located(self, worked_corpus_dir, tmp_path, capsys):
        sets_file = tmp_path / "sets.txt"
        sets_file.write_text("lib.Ops.D,lib.Ops.E\n# next\nlib.Ops.A,nodot\n",
                             encoding="utf-8")
        assert run_cli("metrics", "--corpus", str(worked_corpus_dir),
                       "--sets", str(sets_file)) == 1
        assert capsys.readouterr().err == (
            f"apicomp: error: {sets_file}:3: not a qualified method name: 'nodot'\n")

    def test_singleton_set_is_config_error(self, worked_corpus_dir, tmp_path):
        sets_file = tmp_path / "sets.txt"
        sets_file.write_text("lib.Ops.D\n", encoding="utf-8")
        assert run_cli("metrics", "--corpus", str(worked_corpus_dir),
                       "--sets", str(sets_file)) == 1


@pytest.mark.parametrize("command", ["metrics", "cluster"])
def test_stdout_carries_the_bytes_out_writes(worked_corpus_dir, tmp_path, capsys,
                                             command):
    corpus = str(worked_corpus_dir)
    assert run_cli("graph", "--corpus", corpus, "--out", str(tmp_path / "graph")) == 0
    sets_file = tmp_path / "sets.txt"
    sets_file.write_text("lib.Ops.D,lib.Ops.E\nlib.Ops.A,lib.Ops.B\n",
                         encoding="utf-8")
    argv = {"metrics": ["metrics", "--corpus", corpus, "--sets", str(sets_file)],
            "cluster": ["cluster", "--graph", str(tmp_path / "graph" / "graph.tsv")]
            }[command]
    out = tmp_path / "out.txt"
    assert run_cli(*argv, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli(*argv) == 0
    printed = capsys.readouterr().out
    assert printed and printed.encode("utf-8") == out.read_bytes()


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

    @pytest.mark.parametrize("report", [{"schema": "x"}, [],
                                        {"schema": "apicomp-report/1",
                                         "components": [{"id": 0}]}],
                             ids=["other-schema", "top-level-list", "bad-component"])
    def test_malformed_report_is_usage_error(self, tmp_path, capsys, report):
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps(report), encoding="utf-8")
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("# none\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(report_file),
                       "--labels", str(labels_file)) == 1
        assert capsys.readouterr().err.startswith(f"apicomp: error: {report_file}: ")
        assert not (tmp_path / "evaluation.json").exists()

    @pytest.mark.parametrize("interface, message", [
        (["abc", "x.y"], "not a qualified method name: 'abc'"),
        ([], "cannot score a component with an empty interface"),
    ], ids=["bare-name", "empty-interface"])
    def test_bad_component_names_report_and_component(self, tmp_path, capsys,
                                                      interface, message):
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps({
            "schema": "apicomp-report/2",
            "components": [{"id": 0, "center": "x.y", "provided_interface": ["x.y", "x.z"]},
                           {"id": 1, "center": "x.y", "provided_interface": interface}],
        }), encoding="utf-8")
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("# none\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(report_file),
                       "--labels", str(labels_file)) == 1
        assert capsys.readouterr().err == (
            f"apicomp: error: {report_file}: component 1: {message}\n")
        assert not (tmp_path / "evaluation.json").exists()

    def test_malformed_json_report_names_the_file(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        report_file.write_text('{"schema": }', encoding="utf-8")
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("# none\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(report_file),
                       "--labels", str(labels_file)) == 1
        assert capsys.readouterr().err == (
            f"apicomp: error: {report_file}: not valid JSON (line 1 column 12)\n")

    def test_non_utf8_report_names_the_file(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        report_file.write_bytes(b'{"schema": "caf\xe9"}')
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("# none\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(report_file),
                       "--labels", str(labels_file)) == 1
        assert capsys.readouterr().err.startswith(
            f"apicomp: error: {report_file}: not UTF-8 text (")

    def test_schema_1_report_still_evaluates(self, tmp_path):
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps({
            "schema": "apicomp-report/1",
            "components": [{"id": 0, "center": "lib.Ops.A",
                            "provided_interface": ["lib.Ops.A", "lib.Ops.B"]}],
        }), encoding="utf-8")
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("lib.Ops.A\tlib.Ops.B\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(report_file),
                       "--labels", str(labels_file)) == 0
        evaluation = json.loads((tmp_path / "evaluation.json").read_text())
        assert evaluation["mean_precision"] == 1.0


class TestNoComponents:
    def test_run_without_api_methods_reports_none(self, worked_corpus_dir, tmp_path,
                                                  capsys):
        classifier = tmp_path / "classifier.txt"
        classifier.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", str(worked_corpus_dir),
                       "--classifier", str(classifier), "--out", str(out)) == 0
        assert capsys.readouterr().out.endswith(": 0 methods, 0 components -> "
                                                f"{out}\n")
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert "\nComponents (0)\n  (none)\n" in text
        assert "\nComponent stats\n  (no components identified)\n  components: 0\n" in text

    def test_evaluate_without_components_scores_zero(self, tmp_path, capsys):
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps({"schema": "apicomp-report/2",
                                           "components": []}), encoding="utf-8")
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("lib.Ops.A\tlib.Ops.B\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(report_file),
                       "--labels", str(labels_file)) == 0
        printed = capsys.readouterr().out
        assert printed == ("COMPONENT EVALUATION\n====================\n\n"
                           "(no components to evaluate)\n\nmean precision: 0.000000\n")
        assert (tmp_path / "evaluation.txt").read_text(encoding="utf-8") == printed
        evaluation = json.loads((tmp_path / "evaluation.json").read_text())
        assert evaluation == {"schema": "apicomp-evaluation/1", "components": [],
                              "mean_precision": 0.0}

    def test_evaluate_report_without_components_list_is_usage_error(self, tmp_path,
                                                                     capsys):
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps({"schema": "apicomp-report/2"}),
                               encoding="utf-8")
        labels_file = tmp_path / "labels.txt"
        labels_file.write_text("# none\n", encoding="utf-8")
        assert run_cli("evaluate", "--report", str(report_file),
                       "--labels", str(labels_file)) == 1
        assert capsys.readouterr().err == (
            f"apicomp: error: {report_file}: report has no 'components' list\n")


class TestGenerateCommand:
    def test_infeasible_spec_is_config_error(self, tmp_path):
        assert run_cli("generate", "--tree-depth", "0", "3",
                       "--out", str(tmp_path / "c")) == 1

    def test_options_are_the_plant_spec_fields_without_defaults(self):
        """Every option but ``--out`` names a ``PlantSpec`` field and has
        no default of its own, so an omitted one takes the record's."""
        options = [a for a in _subcommands()["generate"]._actions
                   if a.option_strings and a.dest not in ("help", "out")]
        assert sorted(a.dest for a in options) == sorted(PlantSpec._fields)
        assert all(a.default is argparse.SUPPRESS for a in options)

    def test_no_options_write_the_default_spec(self, tmp_path, capsys):
        assert run_cli("generate", "--out", str(tmp_path / "cli")) == 0
        write_generated(PlantSpec(), tmp_path / "record")
        files = {root: sorted(p.relative_to(tmp_path / root) for p in
                              (tmp_path / root).rglob("*") if p.is_file())
                 for root in ("cli", "record")}
        assert files["cli"] == files["record"] and files["cli"]
        for name in files["cli"]:
            assert (tmp_path / "cli" / name).read_bytes() == \
                (tmp_path / "record" / name).read_bytes()

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

    @pytest.mark.parametrize("command, message", [
        ("prune", "nothing to prune"),
        ("metrics", "no metrics to compute"),
        ("graph", "no graph to build"),
        ("run", "wrote empty report -> {out}"),
    ])
    def test_stderr_says_what_is_left_undone(self, empty_corpus, tmp_path, capsys,
                                             command, message):
        out = tmp_path / "out"
        sets_file = tmp_path / "sets.txt"
        sets_file.write_text("a.B.c,d.E.f\n", encoding="utf-8")
        extra = ["--sets", str(sets_file)] if command == "metrics" else ["--out", str(out)]
        assert run_cli(command, "--corpus", str(empty_corpus), *extra) == 3
        assert capsys.readouterr() == ("", f"empty corpus: {message.format(out=out)}\n")


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
