import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from conftest import build_corpus, build_tree, m, random_corpus, random_tree_spec

from apicomp.metrics import (CorpusMetrics, MetricConfig, QualityWeights,
                             average_path_length, call_dist, call_freq,
                             call_weight, co_occur, distance, global_freq,
                             local_freq, pair_distance, pair_weight, quality,
                             weight)
from apicomp.pruner import prune
from apicomp.rng import SplitMix64, derive_seed
from apicomp.trace_model import (ApiClassifier, CallNode, CallTree, Origin,
                                 TraceCorpus)

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
        with pytest.raises(ValueError):
            MetricConfig(distance_pair_cap=0)


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
        assert distance(m("lib.O.a"), m("lib.O.c"), corpus) == pytest.approx(
            pair_distance(m("lib.O.a"), m("lib.O.c"), tree), abs=TOL)

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
        monkeypatch.setattr(CorpusMetrics, "call_freq", lambda self, ms: 0.42)
        monkeypatch.setattr(CorpusMetrics, "call_dist", lambda self, ms: 0.42)
        monkeypatch.setattr(CorpusMetrics, "call_weight", lambda self, ms: 0.42)
        assert engine.quality([m("lib.O.a"), m("lib.O.b")]) == pytest.approx(0.42)

    def test_worked_value_with_unit_lambdas(self, worked_corpus):
        assert quality([D, E], worked_corpus) == pytest.approx(169 / 270, abs=TOL)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            CorpusMetrics(TraceCorpus({}))


class TestDistancePairCap:
    def _bushy_corpus(self):
        # x appears 40 times, y 25 times: 1000 occurrence pairs.
        spec = ("lib.O.root",
                [("lib.O.x", ["lib.O.y"]) for _ in range(25)] +
                ["lib.O.x"] * 15)
        return build_corpus({"a": [spec]})

    def test_cap_is_deterministic(self):
        corpus = self._bushy_corpus()
        config = MetricConfig(distance_pair_cap=50)
        first = distance(m("lib.O.x"), m("lib.O.y"), corpus, config)
        second = distance(m("lib.O.x"), m("lib.O.y"), corpus, config)
        assert first == second
        assert 0.0 <= first <= 1.0

    def test_cap_is_symmetric(self):
        corpus = self._bushy_corpus()
        config = MetricConfig(distance_pair_cap=50)
        assert distance(m("lib.O.x"), m("lib.O.y"), corpus, config) == \
            distance(m("lib.O.y"), m("lib.O.x"), corpus, config)

    def test_uncapped_matches_oracle(self):
        corpus = self._bushy_corpus()
        tree = corpus.trees["a"][0]
        x, y = m("lib.O.x"), m("lib.O.y")
        assert average_path_length(x, y, tree) == pytest.approx(
            bf.avg_distance(x, y, tree), abs=TOL)

    @pytest.mark.parametrize("cap", [1, 7, 50, 999, 1000])
    def test_capped_mean_is_the_oracle_mean_of_the_drawn_pairs(self, cap):
        tree = self._bushy_corpus().trees["a"][0]
        x, y = m("lib.O.x"), m("lib.O.y")
        config = MetricConfig(distance_pair_cap=cap)
        expected = drawn_pairs_oracle_mean(tree, x, y, cap)
        assert average_path_length(x, y, tree, config) == expected
        assert average_path_length(y, x, tree, config) == expected

    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_capped_mean_matches_oracle_on_random_trees(self, seed, cap):
        # Three methods over up to 40 nodes: most pairs repeat past the cap.
        pool = [f"lib.R.m{i}" for i in range(3)]
        tree = build_tree("a", "s", random_tree_spec(random.Random(seed), pool, 40))
        config = MetricConfig(distance_pair_cap=cap)
        present = sorted({node.method for node, _ in bf.node_list(tree)})
        for c, v in itertools.combinations(present, 2):
            assert average_path_length(c, v, tree, config) == \
                drawn_pairs_oracle_mean(tree, c, v, cap)

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
        cap = MetricConfig().distance_pair_cap
        for c, v in itertools.combinations(sorted(depths), 2):
            occ_c, occ_v = depths[c], depths[v]
            total = len(occ_c) * len(occ_v)
            assert total > cap
            exact = sum(abs(i - j) for i in occ_c for j in occ_v) / total
            assert average_path_length(
                c, v, tree, MetricConfig(distance_pair_cap=total + 1)) == exact
            drawn = SplitMix64(derive_seed("a", "s", c.qualified, v.qualified)
                               ).sample_indices(total, cap)
            sampled = sum(abs(occ_c[k // len(occ_v)] - occ_v[k % len(occ_v)])
                          for k in drawn) / cap
            assert average_path_length(c, v, tree) == sampled


def drawn_pairs_oracle_mean(tree, c, v, cap: int) -> float:
    """Mean BFS path length over the occurrence pairs the cap selects: all
    of them up to the cap, else the pairs the seeded splitmix64 draws."""
    if v < c:
        c, v = v, c
    nodes = bf.node_list(tree)
    adj = bf._adjacency(nodes)
    occ_c = [i for i, (n, _) in enumerate(nodes) if n.method == c]
    occ_v = [i for i, (n, _) in enumerate(nodes) if n.method == v]
    total = len(occ_c) * len(occ_v)
    flat = range(total) if total <= cap else SplitMix64(
        derive_seed(tree.app_id, tree.scenario_id, c.qualified, v.qualified)
    ).sample_indices(total, cap)
    lengths = [bf.path_length(nodes, adj, occ_c[k // len(occ_v)], occ_v[k % len(occ_v)])
               for k in flat]
    return sum(lengths) / len(lengths)


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
