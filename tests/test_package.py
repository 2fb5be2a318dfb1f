"""The package surface and the record contracts.

``apicomp`` resolves its public names on first use, and its records are
named tuples or slotted classes rather than dataclasses. These tests pin
what callers may rely on: every public name, pickling and deep copies,
immutability and tuple hashing of the configs and value records, and
unhashable trees.
"""

import ast
import copy
import importlib
import pickle
import re
from pathlib import Path

import pytest

from conftest import FIG_TREE_TEXT, SRC, fresh, write_corpus_dir

import apicomp
from apicomp.clusterer import Cluster, ClusterConfig, CoverState, WsGraph, cluster
from apicomp.components import (CallWitness, Component, ComponentStats,
                                RelatednessLabels, assemble)
from apicomp.graph_builder import GraphConfig, build_graph
from apicomp.metrics import MetricConfig, QualityWeights
from apicomp.pipeline import RunConfig, load_pruned
from apicomp.synth import PlantSpec
from apicomp.trace_model import (ApiClassifier, CallNode, CallTree, MethodRef, Origin,
                                 PrunedTree, TraceCorpus, TraceStats)

# The public names ``apicomp/__init__.py`` imported eagerly before they
# loaded on first use, by defining submodule.
PUBLIC_NAMES = {
    "clusterer": ["Cluster", "ClusterConfig", "CoverState", "WsGraph", "cluster",
                  "initial_clusters", "refine_clusters", "relative_compactness",
                  "relative_density", "star", "ws_quality"],
    "components": ["CallWitness", "Component", "ComponentStats", "RelatednessLabels",
                   "assemble", "component_stats", "precision"],
    "graph_builder": ["ApiGraph", "GraphConfig", "build_graph", "read_edge_list",
                      "write_dot", "write_edge_list"],
    "metrics": ["CorpusMetrics", "MetricConfig", "PairAffinity", "QualityWeights",
                "average_path_length", "call_dist", "call_freq", "call_weight",
                "co_occur", "distance", "global_freq", "local_freq", "pair_distance",
                "pair_weight", "quality", "weight"],
    "pipeline": ["RunConfig", "run_pipeline"],
    "pruner": ["prune", "prune_corpus"],
    "report": ["build_evaluation", "build_report", "render_report_text"],
    "synth": ["PlantSpec", "generate", "load_ground_truth", "write_generated"],
    "trace_model": ["ApiClassifier", "CallNode", "CallTree", "MethodRef", "Origin",
                    "PrunedTree", "TraceCorpus", "TraceParseError", "TraceStats",
                    "classify", "load_corpus", "parse_trace_file", "serialize_tree",
                    "tree_stats", "write_corpus"],
}


class TestPackageNames:
    @pytest.mark.parametrize("module, name", [(module, name)
                                              for module, names in PUBLIC_NAMES.items()
                                              for name in names])
    def test_public_name_is_the_submodules_object(self, module, name):
        namespace = {}
        exec(f"from apicomp import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"apicomp.{module}"),
                                          name)

    def test_version_stays(self):
        assert apicomp.__version__ == "0.1.0"

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            apicomp.no_such_name
        with pytest.raises(ImportError):
            exec("from apicomp import no_such_name", {})

    def test_bare_import_loads_no_submodule(self):
        proc = fresh("-c", "import sys, apicomp\n"
                           "print(sorted(m for m in sys.modules if m.startswith('apicomp.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_a_record_loads_only_config(self):
        """The analysis records live in ``config``, so naming one compiles no
        analysis stage."""
        proc = fresh("-c", "import sys\nfrom apicomp import GraphConfig\n"
                           "print(sorted(m for m in sys.modules if m.startswith('apicomp.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['apicomp.config']"

    def test_config_imports_nothing_from_apicomp(self):
        """``config`` stays the lean module the CLI's parser reads: it has no
        relative import and no import of ``apicomp``."""
        tree = ast.parse((SRC / "apicomp" / "config.py").read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.level or (node.module or "").split(".")[0] == "apicomp")
                 or isinstance(node, ast.Import)
                 and any(alias.name.split(".")[0] == "apicomp" for alias in node.names)]
        assert found == []


# A 720-deep chain whose frames alternate between an application method
# and four API methods: pruned, it is 360 deep.
DEEP_CHAIN_TEXT = "".join(
    f"{d}\tclient.Glue.forward\n" if d % 2 else f"{d}\tlib.Deep.m{d // 2 % 4}\n"
    for d in range(720))


@pytest.fixture
def stages(tmp_path):
    """Every stage output of a run over the 21-node example corpus plus a
    second app holding one deep chain."""
    corpus_dir = write_corpus_dir(tmp_path, {"demo": {"s0": FIG_TREE_TEXT},
                                             "deep": {"s0": DEEP_CHAIN_TEXT}})
    classifier = tmp_path / "classifier.txt"
    classifier.write_text("lib.\n", encoding="utf-8")
    corpus, pruned = load_pruned(corpus_dir, classifier)
    clusters = cluster(build_graph(pruned))
    return {"corpus": corpus, "pruned": pruned, "clusters": clusters,
            "components": assemble(clusters, pruned)}


CONFIGS = [
    QualityWeights(0.5, 1.0, 0.25),
    MetricConfig("literal"),
    GraphConfig(QualityWeights(1.0, 0.0, 1.0), 0.3, MetricConfig("literal")),
    ClusterConfig("caption"),
    RunConfig(Path("corpus"), Path("out"), Path("classifier.txt"),
              edge_threshold=0.2, cluster_config=ClusterConfig("caption"), jobs=2),
    ApiClassifier(("lib.", "org.")),
    MethodRef("x.C", "a"),
    PlantSpec(component_count=3, methods_per_component=(2, 5), noise_prob=0.25, seed=7),
]


class TestRecordContracts:
    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("key", ["corpus", "pruned", "clusters", "components"])
    def test_stage_outputs_round_trip(self, stages, clone, key):
        original = stages[key]
        copied = clone(original)
        assert copied == original
        assert copied is not original

    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_pruned_trees_stay_pruned(self, stages, clone):
        copied = clone(stages["pruned"])
        assert all(type(t) is PrunedTree for t in copied.all_trees())

    @pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
    def test_configs_round_trip(self, clone, config):
        copied = clone(config)
        assert copied == config
        assert type(copied) is type(config)

    def test_components_built_with_four_arguments_share_no_witnesses(self):
        a, b = MethodRef("x.C", "a"), MethodRef("x.C", "b")
        first = Component(a, frozenset([a]), frozenset(["x.C"]), frozenset())
        second = Component(b, frozenset([b]), frozenset(["x.C"]), frozenset())
        first.required_witnesses[b] = CallWitness("app", "s0", a)
        assert second.required_witnesses == {}

    @pytest.mark.parametrize("record, field", [
        (QualityWeights(), "lambda_freq"),
        (MetricConfig(), "weight_formula"),
        (GraphConfig(), "edge_threshold"),
        (ClusterConfig(), "rc_comparison"),
        (WsGraph(MethodRef("x.C", "a"), frozenset()), "center"),
        (ApiClassifier(("lib.",)), "api_prefixes"),
        (TraceStats(1, 1, 0, 1, 1, 1.0), "nodes"),
        (CallWitness("app", "s0", MethodRef("x.C", "a")), "caller"),
        (ComponentStats(0, 0.0, 0.0), "count"),
        (Cluster(MethodRef("x.C", "a"), frozenset()), "members"),
        (RelatednessLabels(frozenset()), "pairs"),
        (RunConfig(Path("corpus"), Path("out")), "out_dir"),
        (PlantSpec(), "seed"),
        (MethodRef("x.C", "a"), "method_name"),
    ], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
    def test_formerly_frozen_records_reject_assignment(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_metric_config_keeps_the_class_constant(self):
        assert MetricConfig.distance_pair_cap == MetricConfig().distance_pair_cap == 10_000
        with pytest.raises(TypeError):
            MetricConfig(distance_pair_cap=1)

    @pytest.mark.parametrize("record", [
        CallNode(MethodRef("x.C", "a")),
        CallTree("app", "s0", CallNode(MethodRef("x.C", "a"))),
        TraceCorpus({}),
        CoverState([], set()),
        Component(MethodRef("x.C", "a"), frozenset(), frozenset(), frozenset()),
    ], ids=lambda r: type(r).__name__)
    def test_mutable_records_are_unhashable(self, record):
        with pytest.raises(TypeError):
            hash(record)

    @pytest.mark.parametrize("record", [
        RunConfig(Path("corpus"), Path("out"), jobs=2),
        PlantSpec(seed=3),
        MethodRef("x.C", "a"),
    ], ids=lambda r: type(r).__name__)
    def test_value_records_hash_and_compare_as_their_tuples(self, record):
        assert hash(record) == hash(tuple(record))
        assert record == tuple(record) == type(record)(*record)

    def test_tree_equality_is_field_wise_and_class_exact(self):
        def node():
            return CallNode(MethodRef("x.C", "a"), Origin.API,
                            [CallNode(MethodRef("x.C", "b"), Origin.API)])

        assert CallTree("app", "s0", node()) == CallTree("app", "s0", node())
        assert CallTree("app", "s0", node()) != CallTree("app", "s1", node())
        assert CallTree("app", "s0", node()) != PrunedTree("app", "s0", node())

    def test_call_nodes_built_without_children_share_no_list(self):
        first, second = CallNode(None), CallNode(None)
        assert first.children == [] and first.children is not second.children


ROOT = Path(__file__).resolve().parent.parent


def _declared_floor() -> tuple[int, int]:
    """``(major, minor)`` from the ``requires-python = ">=X.Y"`` line of
    pyproject.toml, read with a regex: ``tomllib`` is not in 3.10."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", sorted(
    [*(ROOT / "src" / "apicomp").glob("*.py"), *(ROOT / "tests").glob("*.py"),
     *(ROOT / "tools").glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_sources_parse_at_the_declared_python_floor(path):
    """Every module parses with the grammar of the oldest Python that
    pyproject.toml accepts. This checks syntax only: a stdlib module or
    function newer than the floor still passes."""
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_declared_floor())


def test_only_trace_model_knows_the_node_structure():
    """No ``src/`` module but ``trace_model``, which defines ``CallNode``, and
    ``synth``, which generates trees as a library caller, names ``CallNode``
    or reads an attribute ``root`` or ``children``: every computation reads
    a tree's pre-order ``events``."""
    found = []
    for path in sorted((ROOT / "src" / "apicomp").glob("*.py")):
        if path.name in ("trace_model.py", "synth.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "CallNode"
                    or isinstance(node, ast.alias) and node.name == "CallNode"
                    or isinstance(node, ast.Attribute)
                    and node.attr in ("CallNode", "root", "children")):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_record_is_a_dataclass_or_a_hand_written_tuple():
    """No ``src/`` module imports ``dataclasses``, and every class that
    subclasses ``tuple`` does so through ``namedtuple`` or ``NamedTuple``,
    so no record restates the fields, repr, pickling or hash a named tuple
    gives."""
    found = []
    for path in sorted((ROOT / "src" / "apicomp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Import)
                    and any(alias.name == "dataclasses" for alias in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                    or isinstance(node, ast.ClassDef)
                    and any(isinstance(base, ast.Name) and base.id == "tuple"
                            for base in node.bases)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_roadmap_citations_name_open_items():
    """Every ``ROADMAP item N`` in ``src/`` and README.md names a numbered
    entry under ROADMAP.md's ``**Items:**``, so no citation points at a
    retired or missing item. ``perfbench/`` is left out: its README still
    cites retired item 4, and item 2, the benchmark rebase, rewrites it."""
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    items = roadmap.split("**Items:**", 1)[1].split("### Standing decisions", 1)[0]
    open_items = {int(n) for n in re.findall(r"^(\d+)\. \*\*", items, re.MULTILINE)}
    assert open_items
    cited = [(path.relative_to(ROOT).as_posix(), int(n))
             for path in [*sorted((ROOT / "src").rglob("*.py")), ROOT / "README.md"]
             for n in re.findall(r"ROADMAP\s+item\s+(\d+)", path.read_text(encoding="utf-8"))]
    assert [(path, n) for path, n in cited if n not in open_items] == []
