"""Remove application frames from call trees.

Pruning keeps every API event of a tree's pre-order events in one pass,
one level below its nearest kept ancestor, so the children of an
APPLICATION node take its place in its parent's child list, preserving
invocation order. When the root itself is an application frame, a synthetic
connector root adopts the surviving top-level API subtrees so a scenario
stays a single tree.

``load_pruned`` is the front of the chain, corpus directory to pruned
corpus, which every subcommand that reads a corpus calls; it needs only the
trace model, so a command that stops there loads no scoring stage.
"""

from __future__ import annotations

from pathlib import Path

from .trace_model import (ApiClassifier, CallTree, Origin, PrunedTree, TraceCorpus,
                          load_corpus)


def prune(tree: CallTree) -> PrunedTree:
    """Return the tree with every APPLICATION node removed.

    The result contains exactly the API nodes of the input, each keeping the
    subsequence of API ancestors it had before. A tree with no API nodes
    yields an empty pruned tree (connector root, zero children).
    """
    events = tree.events
    api = Origin.API
    root = events[0]
    kept = [root if root[1] is None or root[2] is api else (0, None, api, None)]
    # below[d]: the pruned depth that a kept descendant of the last event at
    # raw depth d gets.
    below = [1]
    for depth, method, origin, pinned in events[1:]:
        del below[depth:]
        pruned_depth = below[-1]
        if origin is api:
            kept.append((pruned_depth, method, api, pinned))
            pruned_depth += 1
        below.append(pruned_depth)
    return PrunedTree._of_events(tree.app_id, tree.scenario_id, kept)


# _mapper: passed, and ignored, only by perfbench/traced.py; ROADMAP item 2 removes it.
def prune_corpus(corpus: TraceCorpus, _mapper=None) -> TraceCorpus:
    """Prune every tree of a corpus, in corpus order; an app without trees
    is dropped."""
    return TraceCorpus({app_id: [prune(tree) for tree in ts]
                        for app_id, ts in corpus.trees.items() if ts})


def load_pruned(corpus_dir: str | Path, classifier_path: str | Path | None
                ) -> tuple[TraceCorpus, TraceCorpus]:
    """Load and classify a corpus, then prune it: ``(corpus, pruned)``. An
    empty corpus gives an empty ``pruned``. Without a classifier file every
    method is API."""
    classifier = (ApiClassifier.load(classifier_path) if classifier_path
                  else ApiClassifier.match_all())
    corpus = load_corpus(corpus_dir, classifier)
    return corpus, prune_corpus(corpus)
