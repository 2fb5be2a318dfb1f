import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus, m, random_corpus

from apicomp import graph_builder
from apicomp.clusterer import Cluster, cluster
from apicomp.graph_builder import (ApiGraph, GraphConfig, IntView, build_graph,
                                   read_edge_list, write_dot, write_edge_list)
from apicomp.metrics import CorpusMetrics, QualityWeights
from apicomp.trace_model import TraceCorpus

A, B, L = m("lib.Ops.A"), m("lib.Ops.B"), m("lib.Ops.L")


class TestApiGraph:
    def test_rejects_self_loops_and_bad_weights(self):
        graph = ApiGraph([A, B])
        with pytest.raises(ValueError):
            graph.add_edge(A, A, 0.5)
        with pytest.raises(ValueError):
            graph.add_edge(A, B, 1.5)

    def test_adjacency_is_sorted_and_symmetric(self):
        graph = ApiGraph([])
        graph.add_edge(B, A, 0.5)
        graph.add_edge(B, L, 0.25)
        assert graph.neighbors(B) == (A, L)
        assert graph.edge_weight(A, B) == graph.edge_weight(B, A) == 0.5
        assert graph.edge_weight(A, L) == 0.0
        assert graph.degree(B) == 2 and graph.degree(A) == 1

    def test_edges_listed_once_in_order(self):
        graph = ApiGraph([])
        graph.add_edge(B, A, 0.5)
        graph.add_edge(L, B, 0.25)
        assert list(graph.edges()) == [(A, B, 0.5), (B, L, 0.25)]
        assert graph.edge_count() == 2

    def test_add_edge_after_reads_refreshes_every_view(self):
        added = ApiGraph([A, B])
        added.add_edge(A, B, 0.5)
        # A graph whose view build_graph wrote straight from the pair rows.
        built = build_graph(build_corpus({"a": [("lib.Ops.A", ["lib.Ops.B"])]}))
        for graph in (added, built):
            self._check_add_edge_after_reads(graph)

    @staticmethod
    def _check_add_edge_after_reads(graph):
        first = m("lib.Aaa.first")  # sorts before every other vertex
        ab = graph.edge_weight(A, B)
        assert 0.0 < ab == graph.edge_weight(B, A) <= 1.0
        assert graph.edge_weight(A, first) == graph.edge_weight(first, B) == 0.0
        assert graph.neighbors(B) == (A,)
        assert graph.vertices == (A, B)
        assert (A in graph, B in graph, first in graph) == (True, True, False)
        assert len(graph) == 2 and graph.edge_count() == 1
        assert graph.degree(A) == graph.degree(B) == 1
        assert cluster(graph) == [Cluster(A, frozenset({A, B}))]
        graph.add_edge(first, B, 0.75)
        assert graph.vertices == (first, A, B)
        assert graph.neighbors(B) == (first, A)
        assert graph.edge_weight(first, B) == graph.edge_weight(B, first) == 0.75
        assert graph.edge_weight(A, B) == ab
        assert list(graph.edges()) == [(first, B, 0.75), (A, B, ab)]
        assert first in graph and len(graph) == 3 and graph.edge_count() == 2
        assert (graph.degree(first), graph.degree(A), graph.degree(B)) == (1, 1, 2)
        # Stars of first and A score 0.75 and ab, B's (0.75 + ab) / 3, so
        # both leaves outrank B and first, sorting first, is taken first.
        assert cluster(graph) == [Cluster(first, frozenset({first, B})),
                                  Cluster(A, frozenset({A, B}))]


def test_edge_by_edge_build_renumbers_once(monkeypatch):
    """``add_edge`` only records the edge, so a path built edge by edge from
    an empty graph is numbered once, at the read after the adds."""
    numbered, calls = graph_builder._numbered, []

    def counted(*args):
        calls.append(args)
        return numbered(*args)

    monkeypatch.setattr(graph_builder, "_numbered", counted)
    path = [m(f"lib.Path.m{i:03d}") for i in range(300)]
    graph = ApiGraph([])
    calls.clear()
    for u, v in zip(path, path[1:]):
        graph.add_edge(u, v, 0.5)
    assert graph.vertices == tuple(path) and graph.edge_count() == 299
    assert len(calls) == 1


POOL = [m(f"lib.P{i % 3}.m{i}") for i in range(7)]


def rejection(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


@given(st.sets(st.sampled_from(POOL)),
       st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from(POOL),
                          st.sampled_from([0.0, 0.25, 0.5, 1.0]))
                .filter(lambda edge: edge[0] != edge[1]), max_size=15))
@settings(max_examples=150, deadline=None)
def test_add_edge_sequence_gives_the_constructor_view(vertices, sequence):
    """Edges to endpoints the graph lacks, constructor-only isolated
    vertices and an edge re-weighted from its other end all leave the view
    that the constructor builds from the final edges; the constructor
    rejects a bad edge with ``add_edge``'s message."""
    if sequence:
        u, v, w = sequence[0]
        sequence.append((v, u, 1.0 - w))
    graph = ApiGraph(vertices)
    final = {}
    for u, v, w in sequence:
        graph.add_edge(u, v, w)
        final[min(u, v), max(u, v)] = w
        assert graph.edge_weight(v, u) == w
    assert graph.int_view() == ApiGraph(vertices, final).int_view()
    for (u, v, w), message in (((A, A, 0.5), "self-loop on lib.Ops.A"),
                               ((A, B, 1.5), "edge weight must be in [0, 1], got 1.5")):
        assert (rejection(lambda: ApiGraph([], {(u, v): w}))
                == rejection(lambda: ApiGraph([A, B]).add_edge(u, v, w)) == message)


class TestBuildGraph:
    def test_two_method_tree(self):
        corpus = build_corpus({"a": [("lib.X.B", ["lib.X.F"])]})
        graph = build_graph(corpus, GraphConfig())
        b, f = m("lib.X.B"), m("lib.X.F")
        assert graph.vertices == (b, f)
        assert graph.edge_count() == 1
        # call_freq 1, call_dist 0.5, call_weight 1 under unit lambdas
        assert graph.edge_weight(b, f) == pytest.approx(5 / 6, abs=1e-12)

    def test_high_threshold_keeps_isolated_vertices(self):
        corpus = build_corpus({"a": [("lib.X.B", ["lib.X.F"])],
                               "b": [("lib.X.G", [])]})
        graph = build_graph(corpus, GraphConfig(edge_threshold=0.99))
        assert len(graph) == 3
        assert graph.edge_count() == 0

    def test_vertex_set_is_every_distinct_method(self, worked_corpus):
        graph = build_graph(worked_corpus)
        expected = sorted({n.method for t in worked_corpus.all_trees()
                           for n in t.method_nodes()})
        assert list(graph.vertices) == expected

    def test_frequency_projection_orders_worked_pairs(self, worked_corpus):
        config = GraphConfig(weights=QualityWeights(1.0, 0.0, 0.0))
        graph = build_graph(worked_corpus, config)
        assert graph.edge_weight(A, B) > graph.edge_weight(A, L)

    def test_empty_corpus_gives_empty_graph(self):
        graph = build_graph(TraceCorpus({}))
        assert len(graph) == 0 and graph.edge_count() == 0

    def test_threshold_zero_keeps_exactly_co_occurrence_pairs(self, worked_corpus):
        graph = build_graph(worked_corpus)
        trees = worked_corpus.trees["app1"]
        co_pairs = set()
        for tree in trees:
            methods = sorted({n.method for n in tree.method_nodes()})
            co_pairs.update((u, v) for i, u in enumerate(methods)
                            for v in methods[i + 1:])
        assert {(u, v) for u, v, _ in graph.edges()} == co_pairs

    def test_raising_threshold_never_adds_edges(self, worked_corpus):
        low = build_graph(worked_corpus, GraphConfig(edge_threshold=0.0))
        high = build_graph(worked_corpus, GraphConfig(edge_threshold=0.6))
        low_edges = {(u, v) for u, v, _ in low.edges()}
        high_edges = {(u, v) for u, v, _ in high.edges()}
        assert high_edges <= low_edges
        assert len(high_edges) < len(low_edges)

    def test_deterministic_across_runs(self):
        corpus = random_corpus(7)
        first, second = build_graph(corpus), build_graph(corpus)
        assert list(first.edges()) == list(second.edges())
        assert first.vertices == second.vertices


@given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_edge_weight_is_the_two_method_quality(seed, lambda_dist, lambda_weight):
    """Blending a table row gives the bits ``quality`` gives for the pair."""
    corpus = random_corpus(seed, max_trees=6)
    weights = QualityWeights(1.0, lambda_dist, lambda_weight)
    graph = build_graph(corpus, GraphConfig(weights=weights))
    engine = CorpusMetrics(corpus)
    assert graph.edge_count() == len(engine.co_occurring_pairs())
    for u, v, w in graph.edges():
        assert w == engine.quality((u, v), weights)


def reference_view(corpus: TraceCorpus, config: GraphConfig) -> IntView:
    """The view built by mutation: every vertex, then one ``add_edge`` per
    kept table row, then the one renumber the read after them makes."""
    engine = CorpusMetrics(corpus, config.metrics)
    graph = ApiGraph(engine.names)
    for (c, v), row in engine.table.items():
        w = config.weights.blend((row.lfreq + row.gfreq) / 2.0, row.distance, row.weight)
        if w >= config.edge_threshold:
            graph.add_edge(engine.names[c], engine.names[v], w)
    return graph.int_view()


WIDE_POOL = [f"lib.W{i // 10}.m{i % 10}" for i in range(1000)]


def wide_corpus(seed: int) -> TraceCorpus:
    return random_corpus(seed, WIDE_POOL, max_trees=40, max_nodes=30)


@given(st.integers(0, 10_000), st.sampled_from([0.0, 0.2, 0.5]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_build_graph_writes_the_view_add_edge_would_build(seed, threshold, wide):
    """Bit for bit, in dict order too. Thresholds 0.2 and 0.5 leave isolated
    vertices; ``wide`` corpora often have more than 256 methods, past the
    ints CPython caches, so the identity check has teeth there."""
    corpus = wide_corpus(seed) if wide else random_corpus(seed, max_trees=6)
    config = GraphConfig(edge_threshold=threshold)
    view = build_graph(corpus, config).int_view()
    expected = reference_view(corpus, config)
    assert view.names == expected.names
    assert list(view.ids.items()) == list(expected.ids.items())
    assert view.adjacency == expected.adjacency
    assert ([[(v, w.hex()) for v, w in ws.items()] for ws in view.weights]
            == [[(v, w.hex()) for v, w in ws.items()] for ws in expected.weights])
    vertex = list(view.ids.values())
    assert all(v is vertex[v] for row in view.adjacency for v in row)
    assert all(v is vertex[v] for ws in view.weights for v in ws)


def test_view_inputs_reach_uncached_ints_and_isolated_vertices():
    """The corpora above do what the property test relies on."""
    wide = build_graph(wide_corpus(0), GraphConfig(edge_threshold=0.2))
    assert len(wide) > 256 and wide.edge_count() > 0
    assert any(wide.degree(v) == 0 for v in wide.vertices)
    small = [build_graph(random_corpus(seed, max_trees=6), GraphConfig(edge_threshold=0.5))
             for seed in range(10)]
    assert any(g.edge_count() and any(g.degree(v) == 0 for v in g.vertices) for g in small)


def test_pair_table_is_in_sorted_pair_order():
    engine = CorpusMetrics(random_corpus(11, max_trees=12, max_nodes=30))
    assert engine.names == sorted(engine.names)
    assert list(engine.table) == sorted(engine.table)
    assert engine.co_occurring_pairs() == sorted(engine.co_occurring_pairs())


class TestGraphFiles:
    def test_edge_list_round_trip_keeps_isolated_vertices(self, tmp_path):
        graph = ApiGraph([m("lib.X.lonely")])
        graph.add_edge(A, B, 0.5)
        graph.add_edge(B, L, 1 / 3)
        path = tmp_path / "graph.tsv"
        write_edge_list(graph, path)
        back = read_edge_list(path)
        assert back.vertices == graph.vertices
        assert list(back.edges()) == list(graph.edges())

    def test_edge_list_is_sorted_text(self, tmp_path):
        graph = ApiGraph([])
        graph.add_edge(m("z.Z.z"), m("a.A.a"), 0.25)
        graph.add_edge(m("b.B.b"), m("a.A.a"), 0.75)
        path = tmp_path / "graph.tsv"
        write_edge_list(graph, path)
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)
        assert lines[0].split("\t")[:2] == ["a.A.a", "b.B.b"]

    def test_dot_output_mentions_every_vertex(self, tmp_path):
        graph = ApiGraph([m("lib.X.lonely")])
        graph.add_edge(A, B, 0.5)
        path = tmp_path / "graph.dot"
        write_dot(graph, path)
        assert path.read_text(encoding="utf-8") == (
            'graph api_methods {\n  node [shape=box];\n  "lib.X.lonely";\n'
            '  "lib.Ops.A" -- "lib.Ops.B" [label="0.500"];\n}\n')

    def test_dot_escapes_quotes_in_names(self, tmp_path):
        quote = m('lib.A.x"y')
        graph = ApiGraph([m('lib.B."lonely"')])
        graph.add_edge(quote, m("lib.A.z"), 0.5)
        path = tmp_path / "graph.dot"
        write_dot(graph, path)
        assert path.read_text(encoding="utf-8").splitlines()[2:] == [
            '  "lib.B.\\"lonely\\"";',
            '  "lib.A.x\\"y" -- "lib.A.z" [label="0.500"];',
            "}",
        ]

    def test_dot_escapes_backslashes_in_names(self, tmp_path):
        # A trailing backslash must not escape the closing quote. Every
        # backslash is doubled, mid-name too, so one rule covers both.
        trailing, middle = m("lib.A.x\\"), m("lib.A.y\\z")
        graph = ApiGraph([m('lib.B.q\\"')])
        graph.add_edge(trailing, middle, 0.5)
        path = tmp_path / "graph.dot"
        write_dot(graph, path)
        assert path.read_text(encoding="utf-8").splitlines()[2:] == [
            '  "lib.B.q\\\\\\"";',
            '  "lib.A.x\\\\" -- "lib.A.y\\\\z" [label="0.500"];',
            "}",
        ]

    def test_read_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a.A.a\tb.B.b\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_read_rejects_conflicting_duplicate_edge(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a.A.a\tb.B.b\t0.5\nc.C.c\n# note\nb.B.b\ta.A.a\t0.9\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=r":4: .* on line 1"):
            read_edge_list(path)

    def test_read_locates_self_loop(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("# edges\na.B.c\ta.B.c\t0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.tsv:2: self-loop on a\.B\.c"):
            read_edge_list(path)

    @pytest.mark.parametrize("weight", ["1.5", "-0.25", "nan"])
    def test_read_locates_weight_outside_unit_interval(self, tmp_path, weight):
        path = tmp_path / "graph.tsv"
        path.write_text(f"c.C.c\na.A.a\tb.B.b\t{weight}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.tsv:2: edge weight must be in \[0, 1\]"):
            read_edge_list(path)

    def test_read_locates_weight_that_is_not_a_number(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a.A.a\tb.B.b\theavy\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"graph\.tsv:1: .*'heavy'"):
            read_edge_list(path)

    def test_read_locates_bare_method_name(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a.A.a\tb.B.b\t0.5\nabc\tb.B.b\t0.5\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"graph\.tsv:2: not a qualified method name: 'abc'"):
            read_edge_list(path)

    def test_read_accepts_repeated_identical_edge(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("a.A.a\tb.B.b\t0.5\nb.B.b\ta.A.a\t0.5\n", encoding="utf-8")
        graph = read_edge_list(path)
        assert graph.edge_count() == 1
        assert graph.edge_weight(m("a.A.a"), m("b.B.b")) == 0.5


def test_graph_config_validates_threshold():
    with pytest.raises(ValueError):
        GraphConfig(edge_threshold=1.0)
    with pytest.raises(ValueError):
        GraphConfig(edge_threshold=-0.1)
