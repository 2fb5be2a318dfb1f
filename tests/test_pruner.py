from collections import Counter

from hypothesis import given

from conftest import build_tree, m
from test_trace_model import call_trees

from apicomp.pruner import prune, prune_corpus
from apicomp.trace_model import (ApiClassifier, CallNode, CallTree, Origin,
                                 PrunedTree, classify)


def oracle_prune(tree: CallTree) -> PrunedTree:
    """Independent recursive filter: contract every node onto its nearest
    API ancestor (or a connector when the root itself is removed)."""

    def surviving(node: CallNode) -> list[CallNode]:
        kept = []
        for child in node.children:
            if child.origin is Origin.API:
                kept.append(CallNode(child.method, Origin.API,
                                     surviving(child), child.pinned))
            else:
                kept.extend(surviving(child))
        return kept

    root = tree.root
    if not root.is_connector and root.origin is Origin.API:
        new_root = CallNode(root.method, Origin.API, surviving(root), root.pinned)
    else:
        new_root = CallNode(None, Origin.API, surviving(root))
    return PrunedTree(tree.app_id, tree.scenario_id, new_root)


def api_methods(tree: CallTree) -> Counter:
    return Counter(n.method for n in tree.method_nodes()
                   if n.origin is Origin.API)


def test_example_tree_prunes_from_21_to_13_nodes(example_tree):
    assert example_tree.node_count() == 21
    pruned = prune(example_tree)
    assert pruned.node_count() == 13
    assert pruned.root.is_connector
    assert api_methods(pruned) == api_methods(example_tree)


def test_all_api_tree_is_unchanged():
    tree = build_tree("a", "s", ("lib.A.x", ["lib.B.y", ("lib.C.z", ["lib.A.x"])]))
    pruned = prune(tree)
    assert pruned.root == tree.root
    assert not pruned.root.is_connector


def test_application_chain_contracts_to_leaf_under_connector():
    tree = build_tree("a", "s", ("app.M.a", [("app.M.b", ["lib.C.x"])]),
                      ApiClassifier(("lib.",)))
    pruned = prune(tree)
    assert pruned.root.is_connector
    assert len(pruned.root.children) == 1
    leaf = pruned.root.children[0]
    assert leaf.method == m("lib.C.x")
    assert leaf.children == []  # the surviving method subtree has depth 0


def test_tree_without_api_nodes_becomes_empty():
    tree = build_tree("a", "s", ("app.M.a", ["app.M.b"]), ApiClassifier(("lib.",)))
    pruned = prune(tree)
    assert pruned.root.is_connector
    assert pruned.root.children == []
    assert pruned.node_count() == 0


def test_splice_preserves_sibling_order():
    # app frame w sits between API calls; its children must take its place.
    tree = build_tree("a", "s",
                      ("lib.A.root", ["lib.A.left",
                                      ("app.M.w", ["lib.A.m1", "lib.A.m2"]),
                                      "lib.A.right"]),
                      ApiClassifier(("lib.",)))
    pruned = prune(tree)
    names = [c.method.method_name for c in pruned.root.children]
    assert names == ["left", "m1", "m2", "right"]


def test_deep_alternating_chain_prunes_without_recursion():
    # 20,000 frames, far past the recursion limit; every app frame goes.
    node = CallNode(m("lib.A.leaf"), Origin.API)
    for i in range(10_000):
        node = CallNode(m("app.M.f"), Origin.APPLICATION, [node])
        node = CallNode(m(f"lib.A.m{i % 7}"), Origin.API, [node])
    pruned = prune(CallTree("a", "s", node))
    assert pruned.node_count() == 10_001
    assert pruned.depth() == 10_000


@given(call_trees())
def test_prune_matches_recursive_filter_oracle(tree):
    classified = classify(tree, ApiClassifier(("lib.",)))
    assert prune(classified) == oracle_prune(classified)


@given(call_trees())
def test_prune_is_idempotent(tree):
    classified = classify(tree, ApiClassifier(("lib.",)))
    pruned = prune(classified)
    assert prune(pruned) == pruned


@given(call_trees())
def test_prune_keeps_exactly_the_api_nodes(tree):
    classified = classify(tree, ApiClassifier(("lib.",)))
    pruned = prune(classified)
    assert api_methods(pruned) == api_methods(classified)
    api_count = sum(api_methods(classified).values())
    assert pruned.node_count() == api_count


@given(call_trees())
def test_api_ancestor_chains_are_contracted(tree):
    """Every API node's ancestor chain in the pruned tree equals the API
    subsequence of its original ancestor chain (checked as label paths)."""
    classified = classify(tree, ApiClassifier(("lib.",)))
    pruned = prune(classified)

    def api_label_paths(t):
        found = []

        def visit(node, trail):
            if node.method is not None and node.origin is Origin.API:
                trail = trail + (node.method,)
                found.append(trail)
            for child in node.children:
                visit(child, trail)

        visit(t.root, ())
        return sorted(found)

    assert api_label_paths(pruned) == api_label_paths(classified)


def test_prune_corpus_keeps_layout(worked_corpus):
    pruned = prune_corpus(worked_corpus)
    assert list(pruned.trees) == list(worked_corpus.trees)
    assert all(isinstance(t, PrunedTree) for t in pruned.all_trees())
    assert pruned.tree_count() == worked_corpus.tree_count()
