"""The benchmark's workloads: generated trace corpora and their ground truth.

Every workload is built by ``apicomp.synth.generate`` from the seed the
benchmark is given, so the same seed always yields the same corpus bytes.
The program under test only ever sees the written corpus directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from apicomp.pruner import prune_corpus
from apicomp.rng import SplitMix64
from apicomp.synth import API_PREFIXES, PlantSpec, generate
from apicomp.trace_model import (CallNode, CallTree, MethodRef, Origin,
                                 TraceCorpus, serialize_tree, write_corpus)

# Application frame the deep workload wraps around about half of its API calls.
GLUE = MethodRef("client.Glue", "forward")
GLUE_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    """One benchmark input: how to build its corpus and how to run on it."""

    name: str
    build: Callable[[int], tuple[TraceCorpus, list[frozenset[MethodRef]]]]
    jobs: int
    # Disjoint planted cliques must come back exactly as components.
    exact_recovery: bool = False
    # Wrap about half of the API calls in application frames (see interleave).
    glue: bool = False


def _sparse(seed: int):
    # 10 trees per app, so every component still heads at least two trees.
    return generate(PlantSpec(component_count=80, methods_per_component=(8, 14),
                              inter_call_prob=0.0, trees_per_app=10, app_count=20,
                              tree_depth=(3, 6), noise_prob=0.0, seed=seed))


def _deep(seed: int):
    # Two trees per app and a 450-deep chain keep one run near two seconds,
    # so a timed window holds some twenty runs.
    corpus, truth = generate(PlantSpec(component_count=4, methods_per_component=(6, 10),
                                       inter_call_prob=0.2, trees_per_app=2, app_count=4,
                                       tree_depth=(200, 200), noise_prob=0.2, seed=seed))
    # One more app with a single depth-450 chain over 4 methods: every pair
    # has about 112 x 112 occurrence pairs, above the 10,000 sampling cap.
    chain, (chain_methods,) = generate(PlantSpec(
        component_count=1, methods_per_component=(4, 4), trees_per_app=1,
        app_count=1, tree_depth=(450, 450), seed=seed))
    # Its methods move from plant0 to a class prefix of their own.
    rename = {m: MethodRef(m.class_name.replace("plant0", f"plant{len(truth)}", 1),
                           m.method_name) for m in chain_methods}
    (tree,) = chain.trees["app0"]
    for node in tree.nodes():
        node.method = rename.get(node.method, node.method)
    app_id = f"app{len(corpus.trees)}"
    trees = {**corpus.trees, app_id: [CallTree(app_id, tree.scenario_id, tree.root)]}
    return TraceCorpus(trees), [*truth, frozenset(rename.values())]


def interleave(corpus: TraceCorpus, rng: SplitMix64) -> None:
    """Wrap about ``GLUE_SHARE`` of the non-root API calls in an application
    frame, in place.

    Pruning splices every application frame's children into its parent, so
    the interleaved corpus prunes to exactly the trees the input prunes to;
    only the pruner's work grows. Iterative, because trees are 450 deep.
    """
    for tree in corpus.all_trees():
        for node in list(tree.nodes()):
            node.children = [
                CallNode(GLUE, Origin.APPLICATION, [child])
                if child.origin is Origin.API and rng.random() < GLUE_SHARE else child
                for child in node.children]


def pruned_text(corpus: TraceCorpus) -> list[str]:
    """Every pruned tree of a corpus in the trace file format, corpus order."""
    return [serialize_tree(t) for t in prune_corpus(corpus).all_trees()]


WORKLOADS = {w.name: w for w in (
    Workload("deep", _deep, jobs=1, glue=True),
    Workload("sparse-j2", _sparse, jobs=2, exact_recovery=True),
)}


def write_workload(corpus: TraceCorpus, out_dir: Path) -> None:
    """Write the corpus, and its classifier as ``classifier.txt`` beside the
    app directories, where ``load_corpus`` does not look."""
    write_corpus(corpus, out_dir)
    (out_dir / "classifier.txt").write_text("\n".join(API_PREFIXES) + "\n",
                                            encoding="utf-8")


def api_methods(corpus: TraceCorpus) -> set[MethodRef]:
    """Distinct API methods of a classified corpus."""
    return {n.method for t in corpus.all_trees() for n in t.method_nodes()
            if n.origin is Origin.API}


def event_count(corpus: TraceCorpus) -> int:
    """Call events in the written trace files, application frames included."""
    return sum(t.node_count() for t in corpus.all_trees())
