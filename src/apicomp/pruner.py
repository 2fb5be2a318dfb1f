"""Remove application frames from call trees.

Pruning copies every API node under its nearest kept ancestor in one
pre-order pass, so the children of an APPLICATION node take its place in
its parent's child list, preserving invocation order. When the root itself
is an application frame, a synthetic connector root adopts the surviving
top-level API subtrees so a scenario stays a single tree.
"""

from __future__ import annotations

from .trace_model import CallNode, CallTree, Origin, PrunedTree, TraceCorpus


def prune(tree: CallTree) -> PrunedTree:
    """Return the tree with every APPLICATION node removed.

    The result contains exactly the API nodes of the input, each keeping the
    subsequence of API ancestors it had before. A tree with no API nodes
    yields an empty pruned tree (connector root, zero children).
    """
    root = tree.root
    if root.is_connector or root.origin is Origin.API:
        new_root = CallNode(root.method, root.origin, [], root.pinned)
    else:
        new_root = CallNode(None, Origin.API, [])
    # (original node, copy of its nearest kept ancestor); an explicit stack
    # because traces can be far deeper than the recursion limit.
    api = Origin.API
    stack = [(child, new_root) for child in reversed(root.children)]
    while stack:
        node, parent = stack.pop()
        if node.origin is api:
            copy = CallNode(node.method, api, [], node.pinned)
            parent.children.append(copy)
            parent = copy
        for child in reversed(node.children):
            stack.append((child, parent))
    return PrunedTree(tree.app_id, tree.scenario_id, new_root)


# _mapper: passed, and ignored, only by perfbench/traced.py; ROADMAP item 2 removes it.
def prune_corpus(corpus: TraceCorpus, _mapper=None) -> TraceCorpus:
    """Prune every tree of a corpus, in corpus order; an app without trees
    is dropped."""
    return TraceCorpus({app_id: [prune(tree) for tree in ts]
                        for app_id, ts in corpus.trees.items() if ts})
