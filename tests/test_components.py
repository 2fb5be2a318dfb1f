import copy
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus, m, random_corpus

from apicomp.clusterer import Cluster
from apicomp.components import (CallWitness, Component, RelatednessLabels,
                                assemble, component_stats, precision)


def cluster_of(*names: str) -> Cluster:
    members = frozenset(m(n) for n in names)
    return Cluster(m(names[0]), members)


@pytest.fixture
def chain_corpus():
    # B -> F -> G in one scenario tree (all API).
    return build_corpus({"a": [("lib.X.B", [("lib.X.F", ["lib.X.G"])])]})


class TestAssemble:
    def test_required_interface_is_the_direct_out_edge(self, chain_corpus):
        comp, = assemble([cluster_of("lib.X.B", "lib.X.F")], chain_corpus)
        assert comp.provided_interface == {m("lib.X.B"), m("lib.X.F")}
        assert comp.implementation_classes == {"lib.X"}
        assert comp.required_interface == {m("lib.X.G")}
        witness = comp.required_witnesses[m("lib.X.G")]
        assert witness.caller == m("lib.X.F")
        assert (witness.app_id, witness.scenario_id) == ("a", "s0")

    def test_whole_tree_cluster_requires_nothing(self, chain_corpus):
        comp, = assemble([cluster_of("lib.X.B", "lib.X.F", "lib.X.G")],
                         chain_corpus)
        assert comp.required_interface == frozenset()

    def test_overlapping_clusters_share_method_and_class(self, chain_corpus):
        comps = assemble([cluster_of("lib.X.B", "lib.X.F"),
                          cluster_of("lib.X.F", "lib.X.G")], chain_corpus)
        shared = m("lib.X.F")
        assert all(shared in c.provided_interface for c in comps)
        assert all("lib.X" in c.implementation_classes for c in comps)

    def test_required_and_provided_are_disjoint(self, chain_corpus):
        for comp in assemble([cluster_of("lib.X.B"), cluster_of("lib.X.F")],
                             chain_corpus):
            assert not comp.required_interface & comp.provided_interface

    def test_witnesses_are_real_call_edges(self, worked_corpus):
        clusters = [cluster_of("lib.Ops.A", "lib.Ops.B")]
        comp, = assemble(clusters, worked_corpus)
        edges = set()
        for tree in worked_corpus.all_trees():
            for node in tree.nodes():
                for child in node.children:
                    edges.add((node.method, child.method))
        for method, witness in comp.required_witnesses.items():
            assert (witness.caller, method) in edges

    def test_order_stable(self, chain_corpus):
        clusters = [cluster_of("lib.X.G"), cluster_of("lib.X.B")]
        comps = assemble(clusters, chain_corpus)
        assert [c.center for c in comps] == [m("lib.X.G"), m("lib.X.B")]


def test_a_component_has_one_witness_per_required_method():
    """A required method without a witness, or a witness of no required
    method, is rejected when the component is built, not as a ``KeyError``
    when a report is built from it."""
    a, b = m("x.C.a"), m("x.C.b")
    witness = {b: CallWitness("app", "s0", a)}
    for required, witnesses in ((frozenset([b]), None), (frozenset([b]), {}),
                                (frozenset(), witness)):
        with pytest.raises(ValueError, match="^required_witnesses must hold one witness"):
            Component(a, frozenset([a]), frozenset(["x.C"]), required, witnesses)
    component = Component(a, frozenset([a]), frozenset(["x.C"]), frozenset([b]), witness)
    for clone in (pickle.loads(pickle.dumps(component)), copy.copy(component),
                  copy.deepcopy(component)):
        assert clone == component and type(clone) is Component


def test_a_component_stores_its_witnesses_sorted_by_method():
    """The order the report lists them in, whatever order they come in."""
    a, b, c = m("x.C.a"), m("x.C.b"), m("x.C.c")
    given = {c: CallWitness("app", "s1", a), b: CallWitness("app", "s0", a)}
    component = Component(a, frozenset([a]), frozenset(["x.C"]), frozenset([b, c]), given)
    assert list(component.required_witnesses) == [b, c]
    assert component.required_witnesses == given and list(given) == [c, b]


def test_witness_is_the_first_call_by_caller_in_pre_order():
    """``lib.X.x`` is called by ``lib.M.two`` first in a pre-order walk of
    the children, but ``lib.M.one`` is the earlier caller in pre-order, so
    its call is the witness."""
    corpus = build_corpus({"a": [("lib.R.root", [
        ("lib.M.one", [("lib.M.two", ["lib.X.x"]), "lib.X.x"])])]})
    comp, = assemble([cluster_of("lib.M.one", "lib.M.two")], corpus)
    assert comp.required_witnesses == {m("lib.X.x"): CallWitness("a", "s0", m("lib.M.one"))}


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_witness_is_the_first_call_in_corpus_order(seed):
    """Against a scan of every call edge in corpus order per cluster."""
    corpus = random_corpus(seed, max_trees=6, max_nodes=15)
    methods = sorted({n.method for t in corpus.all_trees() for n in t.method_nodes()})
    rng = random.Random(seed)
    clusters = [Cluster(ms[0], frozenset(ms)) for ms in
                (rng.sample(methods, rng.randint(1, len(methods))) for _ in range(4))]
    for c, comp in zip(clusters, assemble(clusters, corpus)):
        expected: dict = {}
        for app_id, trees in corpus.trees.items():
            for tree in trees:
                for node in tree.method_nodes():
                    for child in node.children:
                        if node.method in c.members and child.method not in c.members:
                            expected.setdefault(child.method, CallWitness(
                                app_id, tree.scenario_id, node.method))
        assert comp.required_witnesses == expected
        assert list(comp.required_witnesses) == sorted(expected)


class TestComponentStats:
    def test_single_component(self):
        comp = Component(m("a.C.x"),
                         frozenset([m("a.C.x"), m("a.C.y"), m("a.D.z"), m("a.D.w")]),
                         frozenset(["a.C", "a.D"]), frozenset())
        stats = component_stats([comp])
        assert (stats.count, stats.avg_interface_methods,
                stats.avg_component_classes) == (1, 4.0, 2.0)

    def test_empty_list(self):
        stats = component_stats([])
        assert (stats.count, stats.avg_interface_methods,
                stats.avg_component_classes) == (0, 0.0, 0.0)

    def test_schema_matches_reported_shape(self):
        comps = [
            Component(m("a.C.x"), frozenset([m("a.C.x"), m("a.C.y")]),
                      frozenset(["a.C"]), frozenset()),
            Component(m("a.D.z"), frozenset([m("a.D.z")]),
                      frozenset(["a.D"]), frozenset()),
        ]
        stats = component_stats(comps)
        assert stats.count == 2
        assert stats.avg_interface_methods == pytest.approx(1.5)
        assert stats.avg_component_classes == pytest.approx(1.0)


class TestLabels:
    def test_symmetric_and_default_unrelated(self):
        labels = RelatednessLabels.from_pairs([(m("a.C.x"), m("a.C.y"))])
        assert labels.related(m("a.C.x"), m("a.C.y"))
        assert labels.related(m("a.C.y"), m("a.C.x"))
        assert not labels.related(m("a.C.x"), m("a.C.z"))
        assert not labels.related(m("a.C.x"), m("a.C.x"))

    def test_load_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# pairs\na.C.x\ta.C.y\n\na.C.y\ta.C.z\n",
                        encoding="utf-8")
        labels = RelatednessLabels.load(path)
        assert labels.related(m("a.C.x"), m("a.C.y"))
        assert labels.related(m("a.C.z"), m("a.C.y"))
        assert not labels.related(m("a.C.x"), m("a.C.z"))

    def test_load_locates_bare_method_name(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# pairs\na.C.x\tabc\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"labels\.txt:2: not a qualified method name: 'abc'"):
            RelatednessLabels.load(path)

    def test_load_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("a.C.x a.C.y\n", encoding="utf-8")
        with pytest.raises(ValueError):
            RelatednessLabels.load(path)


class TestPrecision:
    def _component(self, methods):
        return Component(methods[0], frozenset(methods),
                         frozenset(x.class_name for x in methods), frozenset())

    def test_all_related(self):
        methods = [m("a.C.x"), m("a.C.y"), m("a.D.z")]
        labels = RelatednessLabels.from_pairs(list(combinations(methods, 2)))
        assert precision(self._component(methods), labels) == 1.0

    def test_method_set(self):
        methods = [m("a.C.x"), m("a.C.y"), m("a.D.z")]
        labels = RelatednessLabels.from_pairs([(methods[0], methods[1])])
        assert precision(frozenset(methods), labels) == 2 / 3
        assert precision(methods, labels) == precision(self._component(methods), labels)

    def test_none_related(self):
        methods = [m("a.C.x"), m("a.C.y")]
        labels = RelatednessLabels.from_pairs([])
        assert precision(self._component(methods), labels) == 0.0

    def test_empty_interface_rejected(self):
        comp = Component(m("a.C.x"), frozenset(), frozenset(), frozenset())
        with pytest.raises(ValueError):
            precision(comp, RelatednessLabels.from_pairs([]))

    def test_mixed_interface_hand_count(self):
        """14 methods over 11 classes: the methods of 7 core classes are
        mutually related, 4 helper-class methods are not; 10/14 score."""
        core = [m(f"x.Core{i}.m{j}") for i, j in
                [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
                 (3, 0), (4, 0), (5, 0), (6, 0)]]
        helpers = [m(f"x.Helper{i}.run") for i in range(4)]
        assert len(core) + len(helpers) == 14
        assert len({ref.class_name for ref in core + helpers}) == 11
        labels = RelatednessLabels.from_pairs(list(combinations(core, 2)))
        component = self._component(core + helpers)
        assert precision(component, labels) == pytest.approx(10 / 14, abs=1e-15)
