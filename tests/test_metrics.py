import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import build_corpus, build_tree, fresh, m, random_corpus, random_tree_spec
from test_golden import NOISY, RUN_DIGEST

from apicomp import graph_builder, metrics
from apicomp.cli import main
from apicomp.graph_builder import build_graph
from apicomp.metrics import (CorpusMetrics, MetricConfig, PairAffinity,
                             QualityWeights, _index, _pair_distance_totals,
                             average_path_length,
                             call_dist, call_freq, call_weight, co_occur,
                             distance, global_freq, left_sum, local_freq,
                             pair_distance, pair_weight, quality, weight)
from apicomp.pruner import prune
from apicomp.trace_model import (ApiClassifier, CallNode, CallTree, Origin,
                                 PrunedTree, TraceCorpus, _calls)

A, B, C, D, E, L = (m(f"lib.Ops.{x}") for x in "ABCDEL")
TOL = 1e-12


class TestConfigs:
    def test_quality_weights_validate_range(self):
        with pytest.raises(ValueError):
            QualityWeights(lambda_freq=1.5)
        with pytest.raises(ValueError):
            QualityWeights(lambda_dist=-0.1)
        with pytest.raises(ValueError):
            QualityWeights(0.0, 0.0, 0.0)

    def test_metric_config_validates(self):
        with pytest.raises(ValueError):
            MetricConfig(weight_formula="bogus")
        # distance_pair_cap is a class constant, not a field.
        with pytest.raises(TypeError):
            MetricConfig(distance_pair_cap=1)


class TestCoOccur:
    def test_pair_present(self, worked_corpus):
        t1 = worked_corpus.trees["app1"][0]
        assert co_occur(A, B, t1) == 1

    def test_absent_method(self, worked_corpus):
        t1 = worked_corpus.trees["app1"][0]
        assert co_occur(A, m("lib.Ops.X"), t1) == 0

    def test_empty_pruned_tree(self):
        empty = prune(build_tree("a", "s", "app.M.x", ApiClassifier(("lib.",))))
        assert co_occur(A, B, empty) == 0

    def test_same_method_rejected(self, worked_corpus):
        t1 = worked_corpus.trees["app1"][0]
        with pytest.raises(ValueError):
            co_occur(A, A, t1)


class TestFrequencies:
    def test_local_freq_worked_values(self, worked_corpus):
        assert local_freq(A, B, worked_corpus) == pytest.approx(2 / 3, abs=TOL)
        assert local_freq(A, L, worked_corpus) == pytest.approx(1 / 3, abs=TOL)

    def test_local_freq_saturates_at_one(self):
        corpus = build_corpus({"a": [("lib.O.x", ["lib.O.y"])] * 2,
                               "b": [("lib.O.y", ["lib.O.x"])]})
        assert local_freq(m("lib.O.x"), m("lib.O.y"), corpus) == 1.0

    def test_global_freq_ratios(self):
        both = ("lib.O.x", ["lib.O.y"])
        neither = ("lib.O.z", ["lib.O.w"])
        corpus = build_corpus({"a": [both], "b": [neither]})
        assert global_freq(m("lib.O.x"), m("lib.O.y"), corpus) == 0.5
        assert global_freq(m("lib.O.q"), m("lib.O.r"), corpus) == 0.0
        corpus4 = build_corpus({"a": [both], "b": [both], "c": [both],
                                "d": [neither]})
        assert global_freq(m("lib.O.x"), m("lib.O.y"), corpus4) == 0.75

    def test_call_freq_collapses_to_single_pair(self, worked_corpus):
        expected = (local_freq(A, B, worked_corpus)
                    + global_freq(A, B, worked_corpus)) / 2
        assert call_freq([A, B], worked_corpus) == pytest.approx(expected, abs=TOL)
        assert call_freq([A, B], worked_corpus) == pytest.approx(5 / 6, abs=TOL)

    def test_call_freq_triple_is_pair_mean(self, worked_corpus):
        got = call_freq([A, B, L], worked_corpus)
        assert got == pytest.approx(bf.call_freq([A, B, L], worked_corpus), abs=TOL)

    def test_call_freq_needs_two_methods(self, worked_corpus):
        with pytest.raises(ValueError):
            call_freq([A], worked_corpus)


class TestDistance:
    def test_path_lengths_in_first_tree(self, worked_corpus):
        t1 = worked_corpus.trees["app1"][0]
        assert average_path_length(A, B, t1) == 1.0
        assert average_path_length(A, E, t1) == 3.0

    def test_absent_method_scores_zero(self, worked_corpus):
        t1 = worked_corpus.trees["app1"][0]
        assert pair_distance(A, m("lib.Ops.X"), t1) == 0.0

    def test_adjacent_pair_in_depth_two_tree(self):
        tree = build_tree("a", "s", ("lib.O.a", [("lib.O.b", ["lib.O.c"])]))
        assert pair_distance(m("lib.O.a"), m("lib.O.b"), tree) == pytest.approx(0.75)

    def test_corpus_distance_worked_values(self, worked_corpus):
        assert distance(A, B, worked_corpus) == pytest.approx(19 / 36, abs=TOL)
        assert distance(A, E, worked_corpus) == pytest.approx(1 / 6, abs=TOL)
        assert distance(A, B, worked_corpus) > distance(A, E, worked_corpus)

    def test_single_tree_corpus_equals_pair_distance(self):
        spec = ("lib.O.a", [("lib.O.b", ["lib.O.c"])])
        corpus = build_corpus({"a": [spec]})
        tree = corpus.trees["a"][0]
        assert distance(m("lib.O.a"), m("lib.O.c"), corpus) == \
            pair_distance(m("lib.O.a"), m("lib.O.c"), tree)

    def test_call_dist_worked_value(self, worked_corpus):
        assert call_dist([D, E], worked_corpus) == pytest.approx(4 / 9, abs=TOL)


class TestWeight:
    def test_per_tree_shares(self, worked_corpus):
        t1, _, t3 = worked_corpus.trees["app1"]
        assert pair_weight(D, E, t1) == pytest.approx(0.20, abs=TOL)
        assert pair_weight(D, E, t3) == pytest.approx(1.00, abs=TOL)
        assert pair_weight(A, E, t1) == 0.0  # no direct edge

    def test_mean_over_co_occurring_trees(self, worked_corpus):
        assert weight(D, E, worked_corpus) == pytest.approx(0.60, abs=TOL)

    def test_literal_formula_reproduces_the_overflow(self, worked_corpus):
        config = MetricConfig(weight_formula="literal")
        assert weight(D, E, worked_corpus, config) == pytest.approx(1.2, abs=TOL)

    def test_never_co_occurring_pair_is_zero(self, worked_corpus):
        assert weight(m("lib.Ops.X"), m("lib.Ops.Y"), worked_corpus) == 0.0

    def test_single_tree_pair_equals_tree_share(self, worked_corpus):
        # L co-occurs with D nowhere; with A only in tree 1.
        t1 = worked_corpus.trees["app1"][0]
        assert weight(A, L, worked_corpus) == pytest.approx(
            pair_weight(A, L, t1), abs=TOL)

    def test_zero_edge_tree(self):
        tree = build_tree("a", "s", "lib.O.only")
        assert pair_weight(m("lib.O.only"), m("lib.O.other"), tree) == 0.0

    def test_call_weight_non_co_occurring_triple(self):
        corpus = build_corpus({"a": [("lib.O.a", []), ("lib.O.b", []),
                                     ("lib.O.c", [])]})
        triple = [m("lib.O.a"), m("lib.O.b"), m("lib.O.c")]
        assert call_weight(triple, corpus) == 0.0


class TestQuality:
    def test_projection_on_frequency(self, worked_corpus):
        w = QualityWeights(1.0, 0.0, 0.0)
        assert quality([A, B], worked_corpus, w) == pytest.approx(
            call_freq([A, B], worked_corpus), abs=TOL)

    def test_equal_attributes_are_a_fixed_point(self, monkeypatch):
        engine = CorpusMetrics(build_corpus({"a": [("lib.O.a", ["lib.O.b"])]}))
        monkeypatch.setattr(CorpusMetrics, "set_means", lambda self, ms: (0.42, 0.42, 0.42))
        assert engine.quality([m("lib.O.a"), m("lib.O.b")]) == pytest.approx(0.42)

    def test_one_pass_over_the_set(self, monkeypatch, worked_corpus):
        """``quality`` checks and scores its set once, and blends exactly the
        three set-level attributes."""
        engine = CorpusMetrics(worked_corpus)
        calls = []
        check_set = metrics._check_set
        monkeypatch.setattr(metrics, "_check_set",
                            lambda methods: calls.append(methods) or check_set(methods))
        weights = QualityWeights(0.5, 1.0, 0.25)
        value = engine.quality([E, D, C], weights)
        assert len(calls) == 1
        assert value == weights.blend(engine.call_freq([C, D, E]), engine.call_dist([C, D, E]),
                                      engine.call_weight([C, D, E]))

    def test_worked_value_with_unit_lambdas(self, worked_corpus):
        assert quality([D, E], worked_corpus) == pytest.approx(169 / 270, abs=TOL)

    def test_empty_corpus_scores_nothing(self):
        """Empty in, empty out: no names, no rows, and every pair and set
        scores 0.0."""
        engine = CorpusMetrics(TraceCorpus({}), MetricConfig("literal"))
        assert engine.names == [] and engine.ids == {}
        assert list(engine.rows()) == [] and engine.table == {}
        assert engine.co_occurring_pairs() == []
        assert engine.pair_affinity(A, B) == PairAffinity(0.0, 0.0, 0.0, 0.0)
        assert engine.set_means([A, B, C]) == (0.0, 0.0, 0.0)
        assert quality([A, B], TraceCorpus({})) == 0.0


class TestDistancePairCap:
    """Mean path lengths stay exact however many occurrence pairs a
    (pair, tree) case has."""

    def _bushy_corpus(self):
        # x appears 40 times, y 25 times: 1000 occurrence pairs.
        spec = ("lib.O.root",
                [("lib.O.x", ["lib.O.y"]) for _ in range(25)] +
                ["lib.O.x"] * 15)
        return build_corpus({"a": [spec]})

    def _past_cap_corpus(self):
        # x appears 120 times, y 100 times: 12,000 occurrence pairs, more
        # than the former sampling threshold.
        spec = ("lib.O.root",
                [("lib.O.x", ["lib.O.y"]) for _ in range(100)] +
                ["lib.O.x"] * 20)
        return build_corpus({"a": [spec]})

    def test_cap_is_deterministic(self):
        corpus = self._past_cap_corpus()
        x, y = m("lib.O.x"), m("lib.O.y")
        tree = corpus.trees["a"][0]
        assert 120 * 100 > MetricConfig.distance_pair_cap
        first = distance(x, y, corpus)
        assert first == distance(x, y, corpus)
        assert 0.0 <= first <= 1.0
        assert average_path_length(x, y, tree) == pytest.approx(
            bf.avg_distance(x, y, tree), abs=TOL)

    def test_cap_is_symmetric(self):
        corpus = self._past_cap_corpus()
        x, y = m("lib.O.x"), m("lib.O.y")
        tree = corpus.trees["a"][0]
        assert distance(x, y, corpus) == distance(y, x, corpus)
        assert average_path_length(x, y, tree) == \
            average_path_length(y, x, tree)

    def test_uncapped_matches_oracle(self):
        corpus = self._bushy_corpus()
        tree = corpus.trees["a"][0]
        x, y = m("lib.O.x"), m("lib.O.y")
        assert average_path_length(x, y, tree) == pytest.approx(
            bf.avg_distance(x, y, tree), abs=TOL)

    @given(st.integers(0, 10_000), st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_exact_mean_matches_oracle_with_repeated_methods(self, seed, count):
        # Two or three methods over up to 60 nodes, so each occurs many times.
        pool = [f"lib.R.m{i}" for i in range(count)]
        tree = build_tree("a", "s", random_tree_spec(random.Random(seed), pool, 60))
        present = sorted({node.method for node, _ in bf.node_list(tree)})
        for c, v in itertools.combinations(present, 2):
            expected = bf.avg_distance(c, v, tree)
            assert average_path_length(c, v, tree) == expected
            assert average_path_length(v, c, tree) == expected

    def test_deep_chain_means_are_depth_differences(self):
        # One 3,000-deep chain over 4 methods, far past the recursion limit.
        # On a chain a path length is the depth difference, and pre-order
        # numbers a node by its depth.
        rng = random.Random(3)
        names = [f"lib.Chain.m{rng.randrange(4)}" for _ in range(3_000)]
        node = None
        for name in reversed(names):
            node = CallNode(m(name), Origin.API, [node] if node else [])
        tree = CallTree("a", "s", node)
        depths: dict = {}
        for d, name in enumerate(names):
            depths.setdefault(m(name), []).append(d)
        for c, v in itertools.combinations(sorted(depths), 2):
            occ_c, occ_v = depths[c], depths[v]
            total = len(occ_c) * len(occ_v)
            assert total > 10_000
            exact = sum(abs(i - j) for i in occ_c for j in occ_v) / total
            assert average_path_length(c, v, tree) == exact


# -- properties ----------------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pair_metrics_are_symmetric_and_bounded(seed):
    corpus = random_corpus(seed)
    engine = CorpusMetrics(corpus)
    methods = engine.methods()
    if len(methods) < 2:
        return
    rng = random.Random(seed)
    c, v = rng.sample(methods, 2)
    for fn in (engine.local_freq, engine.global_freq, engine.distance,
               engine.weight):
        assert fn(c, v) == fn(v, c)
        assert 0.0 <= fn(c, v) <= 1.0


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_sibling_order_does_not_matter(seed):
    corpus = random_corpus(seed)
    rng = random.Random(seed + 1)

    def shuffled(node):
        children = [shuffled(c) for c in node.children]
        rng.shuffle(children)
        return type(node)(node.method, node.origin, children, node.pinned)

    permuted = TraceCorpus({
        app: [type(t)(t.app_id, t.scenario_id, shuffled(t.root)) for t in ts]
        for app, ts in corpus.trees.items()})
    engine = CorpusMetrics(corpus)
    engine2 = CorpusMetrics(permuted)
    methods = engine.methods()
    if len(methods) < 2:
        return
    c, v = methods[0], methods[-1]
    assert engine.local_freq(c, v) == pytest.approx(engine2.local_freq(c, v), abs=TOL)
    assert engine.distance(c, v) == pytest.approx(engine2.distance(c, v), abs=TOL)
    assert engine.weight(c, v) == pytest.approx(engine2.weight(c, v), abs=TOL)


def test_global_freq_monotonicity():
    both = ("lib.O.x", ["lib.O.y"])
    neither = ("lib.O.z", [])
    x, y = m("lib.O.x"), m("lib.O.y")
    base = build_corpus({"a": [both], "b": [neither]})
    more = build_corpus({"a": [both], "b": [neither], "c": [both]})
    fewer = build_corpus({"a": [both], "b": [neither], "c": [neither]})
    assert global_freq(x, y, more) >= global_freq(x, y, base)
    assert global_freq(x, y, fewer) < global_freq(x, y, base)


@pytest.mark.parametrize("formula", ["example", "literal"])
def test_engine_matches_bruteforce_on_random_corpora(formula):
    """Oracle equivalence on a sweep of small random corpora."""
    config = MetricConfig(weight_formula=formula)
    for seed in range(25):
        corpus = random_corpus(seed)
        engine = CorpusMetrics(corpus, config)
        methods = engine.methods()
        rng = random.Random(seed)
        pairs = [tuple(rng.sample(methods, 2)) for _ in range(min(6, len(methods)))
                 ] if len(methods) >= 2 else []
        for c, v in pairs:
            assert engine.local_freq(c, v) == pytest.approx(
                bf.lfreq(c, v, corpus), abs=TOL)
            assert engine.global_freq(c, v) == pytest.approx(
                bf.gfreq(c, v, corpus), abs=TOL)
            assert engine.distance(c, v) == pytest.approx(
                bf.distance(c, v, corpus), abs=TOL)
            assert engine.weight(c, v) == pytest.approx(
                bf.weight(c, v, corpus, formula), abs=TOL)
        if len(methods) >= 3:
            group = rng.sample(methods, 3)
            assert engine.quality(group) == pytest.approx(
                bf.quality(group, corpus, formula=formula), abs=TOL)


class TestSaturationAndAbsence:
    def test_call_freq_saturates_at_one(self):
        pair_tree = ("lib.O.x", ["lib.O.y"])
        corpus = build_corpus({"a": [pair_tree, pair_tree], "b": [pair_tree]})
        assert call_freq([m("lib.O.x"), m("lib.O.y")], corpus) == 1.0

    def test_distance_zero_when_pair_absent_everywhere(self, worked_corpus):
        assert distance(m("lib.Ops.X"), m("lib.Ops.Y"), worked_corpus) == 0.0

    def test_call_dist_zero_for_all_absent_pairs(self, worked_corpus):
        absent = [m("lib.Ops.X"), m("lib.Ops.Y"), m("lib.Ops.Z")]
        assert call_dist(absent, worked_corpus) == 0.0


def test_pair_affinity_bundle(worked_corpus):
    engine = CorpusMetrics(worked_corpus)
    affinity = engine.pair_affinity(A, B)
    assert affinity.lfreq == engine.local_freq(A, B)
    assert affinity.gfreq == engine.global_freq(A, B)
    assert affinity.distance == engine.distance(A, B)
    assert affinity.weight == engine.weight(A, B)
    for value in (affinity.lfreq, affinity.gfreq, affinity.distance,
                  affinity.weight):
        assert 0.0 <= value <= 1.0


# -- the pair kernel against the per-pair reduction ----------------------------

_POOL = [m(f"lib.C{i}.m{j}") for i in range(2) for j in range(3)]


@st.composite
def pruned_trees(draw, app_id: str, scenario_id: str):
    """A random pruned-shape tree over six methods, so methods repeat, calls
    to self occur and one-node (depth-0) trees are common; the root may be
    a connector."""
    n = draw(st.integers(1, 12))
    methods: list = [draw(st.sampled_from(_POOL)) for _ in range(n)]
    if draw(st.booleans()):
        methods[0] = None
    nodes = [CallNode(method, Origin.API) for method in methods]
    for child in range(1, n):
        nodes[draw(st.integers(0, child - 1))].children.append(nodes[child])
    return PrunedTree(app_id, scenario_id, nodes[0])


@st.composite
def pruned_corpora(draw):
    trees = {}
    for a in range(draw(st.integers(1, 4))):
        app = f"app{a}"
        trees[app] = [draw(pruned_trees(app, f"s{i}"))
                      for i in range(draw(st.integers(1, 5)))]
    return TraceCorpus(trees)


def per_pair_reduction(corpus: TraceCorpus, formula: str) -> dict:
    """The pair table as a per-pair scan of the brute-force oracle reduces
    it: per app, the list of the pair's ``bf.dis`` in each tree containing
    it, then ``left_sum``; per pair, the list of its nonzero ``bf.wei``
    shares in corpus order, then ``left_sum``. Each per-tree term divides
    the same integers the kernel divides, so it is the same float, but no
    tree walk, path length or edge count is shared with the kernel."""
    names = sorted({n for t in corpus.all_trees() for n in bf.methods_in(t)})
    ids = {name: i for i, name in enumerate(names)}
    apps = len(corpus.trees)
    rows: dict = {}  # pair -> [local, dist, apps, trees, shares]
    for trees in corpus.trees.values():
        in_app: dict = {}
        for tree in trees:
            for c, v in itertools.combinations(sorted(bf.methods_in(tree)), 2):
                pair = (ids[c], ids[v])
                in_app.setdefault(pair, []).append(bf.dis(c, v, tree))
                share = bf.wei(c, v, tree)
                if share:
                    rows.setdefault(pair, [0.0, 0.0, 0, 0, []])[4].append(share)
        for pair, scores in in_app.items():
            row = rows.setdefault(pair, [0.0, 0.0, 0, 0, []])
            row[0] += len(scores) / len(trees)
            row[1] += left_sum(scores) / len(trees)
            row[2] += 1
            row[3] += len(scores)
    literal = formula == "literal"
    return {pair: PairAffinity(local / apps, containing / apps, dist / apps,
                               left_sum(shares) / (apps if literal else count))
            for pair, (local, dist, containing, count, shares) in sorted(rows.items())}


@pytest.mark.parametrize("formula", ["example", "literal"])
@given(corpus=pruned_corpora())
@settings(max_examples=100, deadline=None)
def test_pair_kernel_is_bit_exact_to_the_per_pair_reduction(formula, corpus):
    engine = CorpusMetrics(corpus, MetricConfig(weight_formula=formula))
    reference = per_pair_reduction(corpus, formula)
    assert engine.table == reference
    assert list(engine.table) == list(reference)
    assert all(type(row) is PairAffinity for row in engine.table.values())


@pytest.mark.parametrize("formula", ["example", "literal"])
@given(corpus=pruned_corpora())
@settings(max_examples=50, deadline=None)
def test_rows_are_the_table_row_for_row(formula, corpus):
    engine = CorpusMetrics(corpus, MetricConfig(weight_formula=formula))
    rows = list(engine.rows())
    assert rows == [(c, v, *scores) for (c, v), scores in engine.table.items()]
    assert list(engine.rows()) == rows


@given(corpus=pruned_corpora())
@settings(max_examples=30, deadline=None)
def test_table_is_built_on_first_read_after_build_graph(corpus):
    engines = []

    class Recorded(CorpusMetrics):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            engines.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_builder, "CorpusMetrics", Recorded)
        graph = build_graph(corpus)
    engine, = engines
    assert engine._table is None  # build_graph read only the rows
    assert engine.table == per_pair_reduction(corpus, "example")
    assert list(engine.table) == list(per_pair_reduction(corpus, "example"))
    assert graph.edge_count() == len(engine.table)


@given(tree=pruned_trees("app", "s"))
@settings(max_examples=100, deadline=None)
def test_distance_score_is_the_clamped_closeness(tree):
    """The per-tree functions equal the brute-force oracle exactly, in both
    argument orders, connector roots and repeated methods included."""
    depth = tree.depth()
    for c, v in itertools.permutations(_POOL, 2):
        expected = (min(1.0, max(0.0, 1.0 - average_path_length(c, v, tree) / (2.0 * depth)))
                    if co_occur(c, v, tree) else 0.0)
        assert pair_distance(c, v, tree) == expected
        assert co_occur(c, v, tree) == bf.co_occur(c, v, tree)
        assert pair_distance(c, v, tree) == bf.dis(c, v, tree)
        assert pair_weight(c, v, tree) == bf.wei(c, v, tree)
        assert average_path_length(c, v, tree) == bf.avg_distance(c, v, tree)


# -- the pair-distance kernel against every occurrence pair ------------------

def occurrence_pair_totals(tree: CallTree) -> dict:
    """Per pair of distinct methods c < v, ``(total, pairs)``: the summed BFS
    path length of ``bruteforce`` over every occurrence pair, and their
    number."""
    nodes = bf.node_list(tree)
    adj = bf._adjacency(nodes)
    occ: dict = {}
    for i, (node, _) in enumerate(nodes):
        if node.method is not None:
            occ.setdefault(node.method, []).append(i)
    return {(c, v): (sum(bf.path_length(nodes, adj, a, b) for a in occ[c] for b in occ[v]),
                     len(occ[c]) * len(occ[v]))
            for c, v in itertools.combinations(sorted(occ), 2)}


def kernel_totals(tree: CallTree) -> dict:
    """``_pair_distance_totals`` over the tree's ``_index``, keyed like
    ``occurrence_pair_totals``."""
    names = sorted(bf.methods_in(tree))
    parent, depth, occurrences, _, _ = _index(tree, {name: i for i, name in enumerate(names)})
    return {(names[c], names[v]): (total, pairs)
            for c, v, total, pairs in _pair_distance_totals(parent, depth, occurrences)}


def _tree(methods, parents) -> PrunedTree:
    nodes = [CallNode(method, Origin.API) for method in methods]
    for child, parent in enumerate(parents, start=1):
        nodes[parent].children.append(nodes[child])
    return PrunedTree("app", "s", nodes[0])


@st.composite
def kernel_trees(draw):
    """Up to 40 nodes over one to four methods, so methods repeat heavily;
    the root may be a connector, and a chain, each node the child of the
    one before, fills the lanes nearest their bound."""
    n = draw(st.integers(1, 40))
    pool = _POOL[:draw(st.integers(1, 4))]
    methods: list = [draw(st.sampled_from(pool)) for _ in range(n)]
    if draw(st.booleans()):
        methods[0] = None
    chain = draw(st.booleans())
    return _tree(methods, [child - 1 if chain else draw(st.integers(0, child - 1))
                           for child in range(1, n)])


_RNG = random.Random(15)
# N * N * D = 8 * 8 * 4 = 2**8: the first bound that needs a second lane byte.
_LANE_EDGE = _tree([_POOL[i] for i in (0, 1, 0, 1, 0, 1, 2, 0)], [0, 1, 2, 3, 0, 5, 0])
# One level of 80 distinct methods under a root, and a 150-deep chain over
# 12: small versions of the widest and the deepest shapes.
_WIDE = _tree([_POOL[0]] + [m(f"lib.W.m{i:02d}") for i in range(80)], [0] * 80)
_CHAIN = _tree([m(f"lib.K.m{_RNG.randrange(12)}") for _ in range(150)], range(149))


@example(tree=_tree([_POOL[0]], []))
@example(tree=_tree([None, _POOL[0], _POOL[1]], [0, 0]))
@example(tree=_LANE_EDGE)
@example(tree=_WIDE)
@example(tree=_CHAIN)
@given(tree=kernel_trees())
@settings(max_examples=150, deadline=None)
def test_pair_distance_totals_are_the_sums_over_all_occurrence_pairs(tree):
    assert kernel_totals(tree) == occurrence_pair_totals(tree)


@given(tree=kernel_trees())
@settings(max_examples=100, deadline=None)
def test_lanes_without_a_native_read_give_the_same_totals(tree):
    """Lanes wider than 8 bytes, for N * N * D at 2**64 or more, are read one
    ``int.from_bytes`` at a time. With no native format at all, every lane
    is the fewest whole bytes that hold N * N * D and is read that way."""
    expected = occurrence_pair_totals(tree)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_LANE_FORMATS", {})
        assert kernel_totals(tree) == expected


# -- the call rule: _index counts the calls of trace_model._calls -----------

def assert_index_counts_the_calls(tree: CallTree) -> None:
    """``_index``'s edge total is the number of calls ``_calls`` gives, as
    is ``edge_count``, and its direct pairs count the calls between two
    distinct methods, keyed as ``_index`` keys them."""
    events = tree.events
    ids = {name: i for i, name in enumerate(sorted({e[1] for e in events} - {None}))}
    n = len(ids)
    *_, direct_pairs, edge_total = _index(tree, ids)
    calls = _calls(tree)
    assert edge_total == len(calls) == tree.edge_count()
    ends = (sorted((ids[caller], ids[callee])) for caller, callee in calls if caller != callee)
    assert direct_pairs == Counter(c * n + v for c, v in ends)


_A, _B = _POOL[:2]


@pytest.mark.parametrize("tree, calls", [
    # The connector root's two edges are not calls.
    (_tree([None, _A, _B, _A], [0, 1, 0]), [(_A, _B)]),
    # A call to self is a call, and no direct pair.
    (_tree([_A, _A, _B], [0, 1]), [(_A, _A), (_A, _B)]),
    # A repeated method: by caller in pre-order, then child order.
    (_tree([_A, _B, _A, _B, _B], [0, 1, 0, 3]), [(_A, _B), (_A, _B), (_B, _A), (_B, _B)]),
    # A 5,000-deep chain over seven methods.
    (_tree([m(f"lib.K.m{i % 7}") for i in range(5000)], range(4999)),
     [(m(f"lib.K.m{i % 7}"), m(f"lib.K.m{(i + 1) % 7}")) for i in range(4999)]),
], ids=["connector-root", "call-to-self", "repeated-method", "chain-5000"])
def test_index_counts_the_calls_of_the_call_rule(tree, calls):
    assert _calls(tree) == calls
    assert_index_counts_the_calls(tree)


@given(tree=kernel_trees())
@settings(max_examples=100, deadline=None)
def test_index_counts_the_calls_of_the_call_rule_on_random_trees(tree):
    assert_index_counts_the_calls(tree)


class TestLeftSum:
    def test_adds_left_to_right(self):
        # A compensated sum gives 1.0 here; strict left-to-right addition
        # loses the 1.0 against 1e16.
        assert left_sum([1e16, 1.0, -1e16]) == 0.0

    def test_is_a_float_when_empty(self):
        assert type(left_sum([])) is float

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_running_total(self, seed):
        rng = random.Random(seed)
        values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)
                  for _ in range(rng.randint(0, 60))]
        total = 0.0
        for value in values:
            total += value
        assert left_sum(values) == total
        assert left_sum(iter(values)) == total

    def test_the_3_12_branch_reduces_and_keeps_the_golden_report(self, tmp_path):
        """To run the 3.12 branch on an older interpreter, a fresh one imports
        ``metrics`` with ``sys.version_info`` patched to 3.12, its stdlib
        imports loaded first, and restores it at once; the golden run must
        keep its bytes."""
        assert main([*NOISY, "--out", str(tmp_path / "corpus")]) == 0
        code = (
            "import collections, enum, functools, importlib, itertools, operator, pathlib\n"
            "import sys, typing\n"
            "real, sys.version_info = sys.version_info, (3, 12, 0, 'final', 0)\n"
            "try:\n"
            "    import apicomp.metrics as metrics\n"
            "finally:\n"
            "    sys.version_info = real\n"
            "assert 'reduce' in metrics.left_sum.__code__.co_names\n"
            "assert metrics.left_sum([1e16, 1.0, -1e16]) == 0.0\n"
            "from apicomp.cli import main\n"
            "assert main(['run', '--corpus', 'corpus', '--classifier',"
            " 'corpus/classifier.txt', '--out', 'out']) == 0\n")
        proc = fresh("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = (tmp_path / "out" / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == RUN_DIGEST
