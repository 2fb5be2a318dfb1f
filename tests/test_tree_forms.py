"""One tree form at a time: stages read pre-order events, and ``CallNode``s
exist only once a caller reads ``tree.root``.

A tree from ``parse_trace_file``, ``load_corpus``, ``classify`` or
``prune`` holds its ``(depth, method, origin, pinned)`` events; the first
read of ``root`` builds the nodes and drops the events, so every later
reader sees a change made through the nodes.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import write_corpus_dir
from test_golden import GENERATE
from test_trace_model import call_trees, chain_text, counter_stats

from apicomp import trace_model
from apicomp.cli import main
from apicomp.metrics import CorpusMetrics
from apicomp.pipeline import RunConfig, run_pipeline
from apicomp.pruner import prune
from apicomp.trace_model import (ApiClassifier, CallNode, CallTree, MethodRef, Origin,
                                 TraceCorpus, classify, load_corpus, parse_trace_file,
                                 serialize_tree, tree_stats)

LIB = ApiClassifier(("lib.",))


@pytest.fixture
def built(monkeypatch):
    """Every ``CallNode`` built from the moment a test asks for this list."""
    nodes = []
    init = CallNode.__init__

    def counted(self, *args, **kwargs):
        nodes.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CallNode, "__init__", counted)
    return nodes


def test_the_run_path_builds_no_call_node(tmp_path, request):
    """``run_pipeline`` over the golden corpus plus a 450-deep chain in which
    every third frame is an application frame."""
    corpus_dir = tmp_path / "corpus"
    assert main([*GENERATE, "--out", str(corpus_dir)]) == 0
    (corpus_dir / "chain").mkdir()
    (corpus_dir / "chain" / "s0.trace").write_text(chain_text(450), encoding="utf-8")
    classifier = corpus_dir / "classifier.txt"
    classifier.write_text(classifier.read_text(encoding="utf-8") + "lib.\n", encoding="utf-8")
    built = request.getfixturevalue("built")
    report = run_pipeline(RunConfig(corpus_dir, tmp_path / "out", classifier))
    assert report["components"] and len(report["call_tree_stats"]) == 10
    assert built == []


def _parsed(tmp_path, text=chain_text(450)):
    return parse_trace_file(text, "app", "s")


def _loaded(tmp_path, text=chain_text(450)):
    corpus_dir = write_corpus_dir(tmp_path, {"app": {"s": text}})
    return load_corpus(corpus_dir, LIB).trees["app"][0]


def _classified(tmp_path, text=chain_text(450)):
    return classify(_parsed(tmp_path, text), LIB)


def _pruned(tmp_path, text=chain_text(450)):
    return prune(_classified(tmp_path, text))


@pytest.mark.parametrize("source", [_parsed, _loaded, _classified, _pruned],
                         ids=["parse_trace_file", "load_corpus", "classify", "prune"])
def test_a_change_through_root_reaches_every_reader(tmp_path, source):
    tree = source(tmp_path)
    assert tree._root is None and tree.events[0][0] == 0
    before = tree_stats(tree)
    *_, (index, node) = enumerate(tree.nodes())  # the last and deepest node
    assert tree._events is None
    depth = tree.events[index][0]
    flipped = Origin.APPLICATION if node.origin is Origin.API else Origin.API
    node.method, node.origin, node.pinned = MethodRef("lib.New", "x"), flipped, flipped
    assert tree.events[index] == (depth, node.method, flipped, flipped)
    assert serialize_tree(tree).splitlines()[index] == f"{depth}\tlib.New.x\t{flipped.value}"
    assert tree_stats(tree) == counter_stats(tree) != before
    assert node.method in CorpusMetrics(TraceCorpus({"app": [tree]})).names


@given(call_trees(), st.booleans())
def test_parents_gives_the_parent_index_of_every_event(tree, connector):
    if connector:
        tree = CallTree("app", "s", CallNode(None, Origin.API, tree.root.children))
    walked = [node for _, node in trace_model._walk(tree.root)]
    position = {id(node): i for i, node in enumerate(walked)}
    expected = [-1] * len(walked)
    for i, node in enumerate(walked):
        for child in node.children:
            expected[position[id(child)]] = i
    assert trace_model._parents(tree.events) == expected


# A chain with application frames, then siblings at depths 1 to 3.
BRANCHING_TEXT = chain_text(40) + "1\tlib.Z.z\n2\tapp.Y.y\n3\tlib.X.x\n3\tlib.Z.z\n1\tapp.W.w\n"


def _with_connector(text):
    rows = (line.split("\t", 1) for line in text.splitlines(keepends=True))
    return "0\t<connector>\n" + "".join(f"{int(depth) + 1}\t{rest}" for depth, rest in rows)


@pytest.mark.parametrize("connector", [False, True], ids=["method_root", "connector_root"])
@pytest.mark.parametrize("source", [_parsed, _loaded, _classified, _pruned],
                         ids=["parse_trace_file", "load_corpus", "classify", "prune"])
def test_edge_count_reads_the_events(tmp_path, request, source, connector):
    text = _with_connector(BRANCHING_TEXT) if connector else BRANCHING_TEXT
    tree = source(tmp_path, text)
    node_form = CallTree("app", "s", trace_model._build(tree.events))
    expected = sum(len(node.children) for node in node_form.method_nodes())
    built = request.getfixturevalue("built")
    assert tree.edge_count() == expected
    assert built == []


def test_comparing_trees_builds_no_call_node(request):
    """``==`` compares ids and events, so two trees holding events compare
    without building nodes, and a tree holding nodes still equals one holding
    the same events."""
    text = "0\tlib.A.a\n1\tlib.B.b\n"
    tree, again = (parse_trace_file(text, "app", "s") for _ in range(2))
    other = parse_trace_file(text + "1\tlib.C.c\n", "app", "s")
    renamed = parse_trace_file(text, "app", "t")
    built = request.getfixturevalue("built")
    assert tree == again and tree != other and tree != renamed
    assert built == [] and tree._root is None and again._root is None
    node_form = CallTree("app", "s", trace_model._build(tree.events))
    assert node_form == tree
    node_form.root.children[0].origin = Origin.API
    assert node_form != tree
