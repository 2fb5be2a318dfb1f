import copy
import pickle
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import API_CLASSIFIER, FIG_TREE_TEXT, build_tree, m, write_corpus_dir

from apicomp import trace_model
from apicomp.pruner import prune
from apicomp.trace_model import (ApiClassifier, CallNode, CallTree, MethodRef,
                                 Origin, TraceCorpus, TraceParseError, TraceStats,
                                 classify, load_corpus, parse_trace_file,
                                 serialize_tree, tree_stats, write_corpus)


class TestMethodRef:
    def test_from_qualified_splits_on_last_dot(self):
        ref = MethodRef.from_qualified("org.pkg.Widget.render")
        assert ref.class_name == "org.pkg.Widget"
        assert ref.method_name == "render"
        assert ref.qualified == "org.pkg.Widget.render"

    @pytest.mark.parametrize("bad", ["render", ".render", "Widget.", ""])
    def test_rejects_unqualified_names(self, bad):
        with pytest.raises(ValueError):
            MethodRef.from_qualified(bad)

    def test_rejects_empty_parts(self):
        with pytest.raises(ValueError):
            MethodRef("", "render")
        with pytest.raises(ValueError):
            MethodRef("Widget", "")

    def test_equality_and_ordering_by_class_then_method(self):
        assert m("a.C.x") == m("a.C.x")
        assert m("a.C.x") != m("a.C.y")
        assert sorted([m("b.C.a"), m("a.C.z"), m("a.C.a")]) == [
            m("a.C.a"), m("a.C.z"), m("b.C.a")]

    @pytest.mark.parametrize("class_name, method_name", [
        ("a.C", "x"), ("org.pkg.Widget", "render"), ("é.Ü", "ß")])
    def test_is_the_tuple_of_its_parts(self, class_name, method_name):
        ref = MethodRef(class_name, method_name)
        assert hash(ref) == hash((class_name, method_name))
        assert ref == (class_name, method_name)
        assert repr(ref) == (f"MethodRef(class_name={class_name!r}, "
                             f"method_name={method_name!r})")

    def test_empty_class_name_is_rejected(self):
        with pytest.raises(ValueError):
            MethodRef("", "x")

    def test_parts_are_read_only(self):
        ref = m("a.C.x")
        with pytest.raises(AttributeError):
            ref.class_name = "b.C"
        with pytest.raises(AttributeError):
            ref.method_name = "y"
        assert ref == m("a.C.x")

    def test_copy_and_pickle_round_trip(self):
        ref = m("org.pkg.Widget.render")
        tree = parse_trace_file(FIG_TREE_TEXT, "app", "s")
        for clone in (copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
            assert type(clone) is MethodRef and clone == ref
            assert clone.qualified == "org.pkg.Widget.render"
        for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone == tree
            assert serialize_tree(clone) == serialize_tree(tree)
            assert all(type(n.method) is MethodRef for n in clone.method_nodes())


class TestParse:
    def test_two_line_nesting(self):
        tree = parse_trace_file("0\ta.App.main\n1\tapi.Log.info\n", "app", "s")
        assert tree.root.method == m("a.App.main")
        assert [c.method for c in tree.root.children] == [m("api.Log.info")]
        assert tree.node_count() == 2

    def test_depth_jump_is_an_error_naming_the_line(self):
        with pytest.raises(TraceParseError) as err:
            parse_trace_file("0\ta.App.main\n2\tapi.Log.info\n", "app", "s")
        assert err.value.line_no == 2

    def test_empty_file_is_an_error(self):
        with pytest.raises(TraceParseError):
            parse_trace_file("", "app", "s")
        with pytest.raises(TraceParseError):
            parse_trace_file("# only a comment\n", "app", "s")

    def test_first_event_must_be_depth_zero(self):
        with pytest.raises(TraceParseError) as err:
            parse_trace_file("1\ta.App.main\n", "app", "s")
        assert err.value.line_no == 1

    def test_single_root_only(self):
        text = "0\ta.App.main\n0\ta.App.other\n"
        with pytest.raises(TraceParseError) as err:
            parse_trace_file(text, "app", "s")
        assert err.value.line_no == 2

    def test_bad_depth_and_missing_field(self):
        with pytest.raises(TraceParseError):
            parse_trace_file("x\ta.App.main\n", "app", "s")
        with pytest.raises(TraceParseError):
            parse_trace_file("0 a.App.main\n", "app", "s")
        # int() takes these; a depth is ASCII digits only.
        for depth in ("0_0", "+0", "\u0660", "-1"):
            with pytest.raises(TraceParseError, match=re.escape(f"invalid depth '{depth}'")):
                parse_trace_file(f"{depth}\ta.App.main\n", "app", "s")
        with pytest.raises(TraceParseError, match="invalid depth '1_0'") as info:
            parse_trace_file("0\ta.App.main\n1_0\tlib.A.y\n", "app", "s")
        assert info.value.line_no == 2

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# header\n\n0\ta.App.main\n# middle\n1\tapi.Log.info\n"
        assert parse_trace_file(text, "app", "s").node_count() == 2

    def test_origin_override_column(self):
        text = "0\ta.App.main\tAPI\n1\tapi.Log.info\tAPP\n"
        tree = parse_trace_file(text, "app", "s")
        assert tree.root.origin is Origin.API
        assert tree.root.children[0].origin is Origin.APPLICATION
        with pytest.raises(TraceParseError):
            parse_trace_file("0\ta.App.main\tBOGUS\n", "app", "s")

    def test_origin_defaults_to_application(self):
        tree = parse_trace_file("0\tapi.Log.info\n", "app", "s")
        assert tree.root.origin is Origin.APPLICATION

    def test_example_tree_has_21_nodes_depth_5(self):
        tree = parse_trace_file(FIG_TREE_TEXT, "demo", "s0")
        # Independent recount via the brute-force walker.
        assert len(bf.node_list(tree)) == 21
        assert tree.node_count() == 21
        assert bf.tree_depth(tree) == 5
        assert tree.depth() == 5


class TestParseBranchOrder:
    """Which check a line meets first: skipped lines, then the missing field,
    then the depth, each error on its own line number."""

    @pytest.mark.parametrize("line", ["\t", "  ", " \t\t ", "#1\tA.b", "  # x"])
    def test_blank_and_comment_lines_are_skipped(self, line):
        tree = parse_trace_file(f"{line}\n0\tlib.A.root\n{line}\n1\tlib.A.b\n", "app", "s")
        assert serialize_tree(tree) == "0\tlib.A.root\n1\tlib.A.b\n"

    @pytest.mark.parametrize("line, message", [
        ("1", "expected <depth><TAB><class.method>"),
        ("x", "expected <depth><TAB><class.method>"),
        ("x\tA.b", "invalid depth 'x'"),
    ])
    def test_errors_keep_their_line_numbers(self, line, message):
        for text, line_no in ((f"{line}\n", 1), (f"# c\n0\tlib.A.root\n\t\n{line}\n", 4)):
            with pytest.raises(TraceParseError) as info:
                parse_trace_file(text, "app", "s", path="t.trace")
            assert str(info.value) == f"t.trace:{line_no}: {message}"
            assert info.value.line_no == line_no

    def test_padded_depth_and_name_are_accepted(self):
        tree = parse_trace_file(" 0\tA.b \n", "app", "s")
        assert tree.root.method == MethodRef("A", "b")
        assert tree.node_count() == 1

    @pytest.mark.parametrize("pin", ["API", "APP"])
    def test_a_pinned_connector_is_api_and_unpinned(self, pin):
        tree = parse_trace_file(f"0\t<connector>\t{pin}\n1\tlib.A.b\n", "app", "s")
        assert tree.root.is_connector
        assert tree.root.origin is Origin.API
        assert tree.root.pinned is None


class TestClassify:
    def test_prefix_match_marks_api(self):
        tree = build_tree("a", "s", ("a.App.main", ["api.Log.info"]),
                          ApiClassifier(("api.",)))
        assert tree.root.origin is Origin.APPLICATION
        assert tree.root.children[0].origin is Origin.API

    def test_empty_classifier_marks_everything_application(self):
        tree = build_tree("a", "s", ("a.App.main", ["api.Log.info"]),
                          ApiClassifier(()))
        assert all(n.origin is Origin.APPLICATION for n in tree.nodes())

    def test_match_all_marks_everything_api(self):
        tree = build_tree("a", "s", ("a.App.main", ["api.Log.info"]))
        assert all(n.origin is Origin.API for n in tree.nodes())

    def test_pinned_override_beats_classifier(self):
        tree = parse_trace_file("0\tapi.Log.info\tAPP\n", "app", "s")
        tree = classify(tree, ApiClassifier(("api.",)))
        assert tree.root.origin is Origin.APPLICATION

    def test_idempotent_and_shape_preserving(self, example_tree):
        again = classify(example_tree, API_CLASSIFIER)
        assert again == example_tree


class TestTreeStats:
    def test_single_api_node(self):
        tree = build_tree("a", "s", "api.Log.info", ApiClassifier(("api.",)))
        stats = tree_stats(tree)
        assert (stats.nodes, stats.unique_api_methods, stats.height) == (1, 1, 0)
        assert (stats.min_repetition, stats.max_repetition,
                stats.avg_repetition) == (1, 1, 1.0)

    def test_example_tree_stats(self, example_tree):
        stats = tree_stats(example_tree)
        assert stats.nodes == 21
        assert stats.unique_api_methods == 6
        assert stats.height == 5
        assert stats.min_repetition == 1
        assert stats.max_repetition == 3
        assert stats.avg_repetition == pytest.approx(13 / 6)

    def test_no_api_nodes_reports_zero_repetitions(self):
        tree = build_tree("a", "s", "a.App.main", ApiClassifier(("api.",)))
        stats = tree_stats(tree)
        assert stats.unique_api_methods == 0
        assert (stats.min_repetition, stats.max_repetition,
                stats.avg_repetition) == (0, 0, 0.0)


# -- property tests over random trees -----------------------------------------

_NAMES = [f"lib.C{i}.m{j}" for i in range(2) for j in range(3)] + \
         [f"app.C{i}.m{j}" for i in range(2) for j in range(2)]


@st.composite
def call_trees(draw, max_nodes=14):
    """Random parse-shaped tree via parent indices; nodes occasionally pin
    their origin (a parsed node's origin always equals its pin, defaulting
    to APPLICATION)."""
    n = draw(st.integers(1, max_nodes))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    names = [draw(st.sampled_from(_NAMES)) for _ in range(n)]
    pins = [draw(st.sampled_from([None, None, None, Origin.API,
                                  Origin.APPLICATION])) for _ in range(n)]
    nodes = [CallNode(m(names[i]), pins[i] or Origin.APPLICATION, pinned=pins[i])
             for i in range(n)]
    for child, parent in enumerate(parents, start=1):
        nodes[parent].children.append(nodes[child])
    return CallTree("app", "s", nodes[0])


@given(call_trees())
def test_serialize_parse_round_trip(tree):
    text = serialize_tree(tree)
    assert parse_trace_file(text, "app", "s") == tree
    assert serialize_tree(parse_trace_file(text, "app", "s")) == text


@given(call_trees(), st.booleans())
def test_every_builder_path_rebuilds_the_tree(tree, connector):
    """Parsing its text, ``deepcopy``, a ``pickle`` round trip and ``classify``
    by a classifier that matches nothing give a new tree equal to a
    parse-shaped one, with the same text."""
    if connector:
        tree = CallTree("app", "s", CallNode(None, Origin.API, tree.root.children))
    text = serialize_tree(tree)
    for rebuilt in (parse_trace_file(text, "app", "s"), copy.deepcopy(tree),
                    pickle.loads(pickle.dumps(tree)), classify(tree, ApiClassifier(()))):
        assert rebuilt == tree
        assert serialize_tree(rebuilt) == text
        assert rebuilt.root is not tree.root


@given(call_trees())
def test_classify_is_idempotent_and_preserves_shape(tree):
    classifier = ApiClassifier(("lib.",))
    once = classify(tree, classifier)
    assert classify(once, classifier) == once
    assert [n.method for n in once.nodes()] == [n.method for n in tree.nodes()]


@given(call_trees())
def test_structural_invariants(tree):
    assert tree.edge_count() == tree.node_count() - 1
    assert tree.depth() <= tree.node_count() - 1


@given(call_trees())
@settings(max_examples=50)
def test_avg_repetition_matches_direct_recount(tree):
    classified = classify(tree, ApiClassifier(("lib.",)))
    stats = tree_stats(classified)
    api_nodes = sum(1 for n in classified.method_nodes()
                    if n.origin is Origin.API)
    if stats.unique_api_methods:
        assert stats.avg_repetition == pytest.approx(
            api_nodes / stats.unique_api_methods)
    else:
        assert api_nodes == 0


def counter_stats(tree: CallTree) -> TraceStats:
    """``tree_stats`` by its definition, in three walks: a ``Counter`` over
    the API method nodes, ``node_count`` and ``depth``, less the level a
    connector root adds."""
    repetitions = Counter(n.method for n in tree.method_nodes() if n.origin is Origin.API)
    height = tree.depth()
    if tree.root.is_connector and height > 0:
        height -= 1
    counts = repetitions.values()
    return TraceStats(
        tree.node_count(), len(repetitions), height,
        min(counts, default=0), max(counts, default=0),
        sum(counts) / len(repetitions) if repetitions else 0.0)


@given(call_trees(), st.booleans())
@settings(max_examples=80)
def test_tree_stats_equals_the_three_walk_definition(tree, connector):
    classified = classify(tree, ApiClassifier(("lib.",)))
    if connector:
        # A pruned application root: a connector adopts its subtrees.
        classified = CallTree("app", "s", CallNode(None, Origin.API,
                                                   classified.root.children))
    assert tree_stats(classified) == counter_stats(classified)


@given(call_trees(), st.sampled_from([ApiClassifier(("lib.",)), ApiClassifier(("",)),
                                      ApiClassifier(()), ApiClassifier(("app.C0",))]))
@settings(max_examples=100)
def test_tree_stats_matches_a_counter_reference_on_raw_and_pruned_trees(tree, classifier):
    """Raw and pruned trees: an application root prunes to a connector, and
    a tree without API nodes to a lone connector."""
    classified = classify(tree, classifier)
    for shown in (tree, classified, prune(classified)):
        assert tree_stats(shown) == counter_stats(shown)


# -- trees deeper than a recursive walk can go ---------------------------------

_CHAIN_NAMES = ["lib.A.a", "lib.B.b", "app.M.m"]
_CHAIN_PINS = ["", "", "", "", "\tAPI"]


def chain_text(depth: int) -> str:
    """A chain of ``depth`` events over three names, every fifth one pinned API."""
    return "".join(f"{d}\t{_CHAIN_NAMES[d % 3]}{_CHAIN_PINS[d % 5]}\n" for d in range(depth))


@pytest.mark.parametrize("depth", [150, 450, 5000])
def test_deep_trees_compare_print_copy_and_pickle(depth):
    text = chain_text(depth)
    tree, again = (parse_trace_file(text, "app", "s") for _ in range(2))
    assert tree == again
    deep = list(again.nodes())[depth - 2]
    deep.origin = Origin.API if deep.origin is Origin.APPLICATION else Origin.APPLICATION
    assert tree != again
    assert repr(tree) == ("CallTree(app_id='app', scenario_id='s', root=CallNode("
                          "method=MethodRef(class_name='lib.A', method_name='a'), "
                          "origin=<Origin.APPLICATION: 'APP'>, pinned=None, len(children)=1))")
    pruned = prune(classify(tree, ApiClassifier(("lib.",))))
    for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        for original in (tree, pruned):
            copied = clone(original)
            assert type(copied) is type(original) and copied == original
            assert len({id(n.method) for n in copied.method_nodes()}) == len(_CHAIN_NAMES)


def test_every_tree_operation_completes_at_depth_5000():
    depth = 5000
    text = chain_text(depth)
    tree = parse_trace_file(text, "app", "s")
    assert serialize_tree(tree) == text
    assert parse_trace_file(serialize_tree(tree), "app", "s") == tree
    assert (tree.depth(), tree.edge_count(), tree.node_count()) == (depth - 1, depth - 1, depth)
    classified = classify(tree, ApiClassifier(("lib.",)))
    assert serialize_tree(classified) == text
    assert classify(classified, ApiClassifier(("lib.",))) == classified
    # A lib name, or the app name where it is pinned API.
    repetitions = Counter(_CHAIN_NAMES[d % 3] for d in range(depth) if d % 3 != 2 or d % 5 == 4)
    api, counts = sum(repetitions.values()), repetitions.values()
    repeats = (len(repetitions), min(counts), max(counts), api / len(repetitions))
    pruned = prune(classified)
    assert (pruned.depth(), pruned.edge_count(), pruned.node_count()) == (api - 1, api - 1, api)
    assert tree_stats(classified) == TraceStats(depth, repeats[0], depth - 1, *repeats[1:])
    assert tree_stats(pruned) == TraceStats(api, repeats[0], api - 1, *repeats[1:])


# -- classifying while loading, against classify ------------------------------

_CLASSES = ["lib.Core", "lib.CoreX", "lib.Io", "libx.Util", "app.Main"]
_CLASSIFIERS = [ApiClassifier(("",)),                 # empty prefix: all API
                ApiClassifier(("zzz.",)),             # matches nothing
                ApiClassifier(()),                    # no prefixes
                ApiClassifier(("lib.", "lib.Core")),  # overlapping prefixes
                ApiClassifier(("lib.Core", "app."))]


@st.composite
def trace_texts(draw):
    """A trace file over few names, so names repeat; some lines pin API or
    APP, and the root is sometimes a connector."""
    lines = ["0\t<connector>"] if draw(st.booleans()) else []
    depth = 0
    for _ in range(draw(st.integers(1, 10))):
        if lines:
            depth = draw(st.integers(1, depth + 1))
        name = f"{draw(st.sampled_from(_CLASSES))}.m{draw(st.integers(0, 1))}"
        pin = draw(st.sampled_from(["", "", "\tAPI", "\tAPP"]))
        lines.append(f"{depth}\t{name}{pin}")
    return "\n".join(lines) + "\n"


@given(files=st.dictionaries(st.sampled_from(["a", "b", "c"]),
                             st.dictionaries(st.sampled_from(["s0", "s1", "s2"]),
                                             trace_texts(), min_size=1),
                             min_size=1),
       classifier=st.sampled_from(_CLASSIFIERS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_corpus_classifies_as_classify_does(tmp_path, files, classifier):
    corpus_dir = write_corpus_dir(Path(tempfile.mkdtemp(dir=tmp_path)), files)
    loaded = load_corpus(corpus_dir, classifier)
    raw = load_corpus(corpus_dir)
    assert loaded.apps == raw.apps == sorted(files)
    for app in raw.apps:
        assert loaded.trees[app] == [classify(tree, classifier) for tree in raw.trees[app]]


def test_load_corpus_makes_no_classify_pass(tmp_path, monkeypatch, example_tree):
    def no_pass(tree, classifier):
        raise AssertionError("load_corpus copied a tree to classify it")

    monkeypatch.setattr(trace_model, "classify", no_pass)
    corpus_dir = write_corpus_dir(tmp_path, {"demo": {"s0": FIG_TREE_TEXT}})
    assert load_corpus(corpus_dir, API_CLASSIFIER).trees["demo"] == [example_tree]


class TestCorpusIO:
    def test_load_corpus_layout(self, tmp_path):
        corpus_dir = write_corpus_dir(tmp_path, {
            "alpha": {"s1": "0\tlib.A.a\n", "s0": "0\tlib.B.b\n"},
            "beta": {"s0": "0\tlib.C.c\n1\tlib.D.d\n"},
        })
        corpus = load_corpus(corpus_dir, ApiClassifier(("lib.",)))
        assert corpus.apps == ["alpha", "beta"]
        assert [t.scenario_id for t in corpus.trees["alpha"]] == ["s0", "s1"]
        assert all(t.app_id == "alpha" for t in corpus.trees["alpha"])
        assert corpus.tree_count() == 3

    def test_load_corpus_shares_one_method_ref_per_name(self, tmp_path):
        corpus_dir = write_corpus_dir(tmp_path, {
            "alpha": {"s0": "0\tlib.A.a\n1\tlib.A.a\n", "s1": "0\tlib.B.b\n1\tlib.A.a\n"},
            "beta": {"s0": "0\tlib.A.a\n"},
        })
        corpus = load_corpus(corpus_dir, ApiClassifier(("lib.",)))
        refs = [n.method for t in corpus.all_trees() for n in t.method_nodes()
                if n.method == m("lib.A.a")]
        assert len(refs) == 4 and all(r is refs[0] for r in refs)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope")

    def test_tree_filed_under_another_app_is_rejected(self):
        tree = parse_trace_file("0\tlib.A.a\n", "b", "s0")
        with pytest.raises(ValueError, match="^tree app_id 'b' filed under 'a'$"):
            TraceCorpus({"a": [tree]})

    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "corpus"
        empty.mkdir()
        assert load_corpus(empty).is_empty()

    def test_write_then_load_round_trip(self, tmp_path, worked_corpus):
        out = tmp_path / "again"
        write_corpus(worked_corpus, out)
        loaded = load_corpus(out, ApiClassifier.match_all())
        assert loaded == worked_corpus

    def test_malformed_file_names_path_and_line(self, tmp_path):
        corpus_dir = write_corpus_dir(tmp_path, {"a": {"bad": "0\tlib.A.a\n3\tlib.B.b\n"}})
        with pytest.raises(TraceParseError) as err:
            load_corpus(corpus_dir)
        assert "bad.trace" in str(err.value)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_file_names_path_and_byte_from_file_start(self, tmp_path, prefix):
        bad = tmp_path / "corpus" / "a" / "latin1.trace"
        bad.parent.mkdir(parents=True)
        bad.write_bytes(prefix + b"0\tlib.A.caf\xe9\n")
        with pytest.raises(TraceParseError) as err:
            load_corpus(bad.parent.parent)
        assert err.value.path == str(bad) and err.value.line_no is None
        assert str(err.value) == (f"{bad}: not UTF-8 text (invalid continuation byte "
                                  f"at byte {len(prefix) + 11})")

    def test_read_lines_locates_a_parse_error_and_not_a_read_error(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_text("# c\n a \n\nb\n", encoding="utf-8")
        assert trace_model.read_lines(path, str.strip) == ["a", "b"]

        def parse(raw):
            if raw == "b":
                raise ValueError("no b")
            return raw

        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: no b$"):
            trace_model.read_lines(path, parse)
        path.write_bytes(b"caf\xe9\n")
        with pytest.raises(ValueError, match=(f"^{re.escape(str(path))}: not UTF-8 text "
                                              r"\(invalid continuation byte at byte 3\)$")):
            trace_model.read_lines(path, parse)

    def test_classifier_file_loading(self, tmp_path):
        path = tmp_path / "classifier.txt"
        path.write_text("# api packages\nlib.\n\norg.api.\n", encoding="utf-8")
        classifier = ApiClassifier.load(path)
        assert classifier.api_prefixes == ("lib.", "org.api.")
        assert classifier.is_api("lib.Core")
        assert not classifier.is_api("app.Main")
