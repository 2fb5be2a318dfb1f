"""Traced pass: the stages of ``apicomp run`` with a span around each call.

    PYTHONPATH=src python3 perfbench/traced.py --corpus DIR --classifier FILE \
        --out DIR --jobs N --result FILE

Calls the public stage functions ``pipeline.run_pipeline`` calls, in the
same order and with the same mapper, so ``--out`` receives the report bytes
``apicomp run`` writes for the same flags. Parsing and classification, and
the two clustering phases, are called separately so each gets a span.
Spans stay in memory until the pass ends; ``--result`` then receives them,
with the layer counts, as JSON. Counts and the index probe run after the
``run`` span, and ``post_run_s`` says how long they took, so the caller can
compare this process's wall time with an untraced run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import uuid
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from apicomp.clusterer import initial_clusters, refine_clusters
from apicomp.components import assemble
from apicomp.graph_builder import GraphConfig, build_graph
from apicomp.metrics import CorpusMetrics
from apicomp.pipeline import RunConfig
from apicomp.pruner import prune_corpus
from apicomp.report import build_report, write_report
from apicomp.trace_model import (ApiClassifier, Origin, TraceCorpus, classify,
                                 load_corpus)


class Tracer:
    """In-memory spans: name, start, end, parent span index, shared run id."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "run": self.run_id}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(tracer: Tracer, config: RunConfig) -> dict:
    """``run_pipeline`` with spans; returns the stage outputs for counting."""
    with tracer.span("run"):
        classifier = ApiClassifier.load(config.classifier_path)
        graph_config = GraphConfig(weights=config.weights,
                                   edge_threshold=config.edge_threshold,
                                   metrics=config.metric_config)
        pool = (ThreadPoolExecutor(max_workers=config.jobs) if config.jobs > 1
                else nullcontext())
        with pool:
            mapper = pool.map if config.jobs > 1 else map
            with tracer.span("trace_model.parse"):
                raw = load_corpus(config.corpus_dir, None, mapper)
            with tracer.span("trace_model.classify"):
                flat = [(app, t) for app, ts in raw.trees.items() for t in ts]
                trees: dict[str, list] = {}
                for (app, _), tree in zip(flat, mapper(
                        lambda item: classify(item[1], classifier), flat)):
                    trees.setdefault(app, []).append(tree)
                corpus = TraceCorpus(trees)
            with tracer.span("pruner.prune"):
                pruned = prune_corpus(corpus, mapper)
            with tracer.span("graph_builder.build"):
                graph = build_graph(pruned, graph_config, mapper)
            graph_rss = _max_rss_mb()
            with tracer.span("clusterer.cover"):
                state = initial_clusters(graph, config.cluster_config)
            centers = len(state.centers)
            with tracer.span("clusterer.refine"):
                clusters = refine_clusters(graph, state, config.cluster_config)
            with tracer.span("components.assemble"):
                components = assemble(clusters, pruned)
            with tracer.span("report.write"):
                report = build_report(config.config_echo(), corpus, pruned,
                                      graph, components)
                write_report(report, config.out_dir)
    return {"raw": raw, "corpus": corpus, "pruned": pruned, "graph": graph,
            "graph_rss": graph_rss, "centers": centers, "clusters": clusters,
            "components": components}


def layer_counts(out: dict, config: RunConfig) -> dict:
    """Work done by each layer, and the workload properties pair scoring
    depends on; computed outside the ``run`` span from the stage outputs,
    not from the program's own index, so they keep their meaning when the
    index changes."""
    raw, corpus, pruned, graph = out["raw"], out["corpus"], out["pruned"], out["graph"]
    events = sum(t.node_count() for t in raw.all_trees())
    api_events = sum(1 for t in corpus.all_trees() for n in t.method_nodes()
                     if n.origin is Origin.API)
    # A connector root stands in for a pruned application root, so only
    # application frames below the root lower the kept share.
    nodes_out = sum(1 for t in pruned.all_trees() for _ in t.nodes())

    cap = config.metric_config.distance_pair_cap
    pairs: set = set()
    tree_pairs = occurrence_pairs = capped = 0
    for tree in pruned.all_trees():
        counts = Counter(n.method for n in tree.method_nodes())
        methods = sorted(counts)
        for i, c in enumerate(methods):
            for v in methods[i + 1:]:
                pairs.add((c, v))
                product = counts[c] * counts[v]
                occurrence_pairs += product
                capped += product > cap
        tree_pairs += len(methods) * (len(methods) - 1) // 2

    edges = graph.edge_count()
    clusters = len(out["clusters"])
    report_bytes = (config.out_dir / "report.json").stat().st_size
    return {
        "trace_model.parse_events": events,
        "trace_model.parse_bytes": sum(p.stat().st_size
                                       for p in config.corpus_dir.glob("*/*.trace")),
        "trace_model.api_share": api_events / events,
        "pruner.nodes_out": nodes_out,
        "pruner.kept_share": nodes_out / events,
        "graph_builder.pairs_scored": len(pairs),
        "graph_builder.edges": edges,
        "graph_builder.edge_keep_share": edges / len(pairs),
        "graph_builder.rss_mb": out["graph_rss"],
        "graph_builder.pair_tree_scans": len(pairs) * pruned.tree_count(),
        "graph_builder.tree_pairs": tree_pairs,
        "graph_builder.occurrence_pairs": occurrence_pairs,
        "graph_builder.capped_share": capped / tree_pairs,
        "clusterer.centers": out["centers"],
        "clusterer.star_pairs": sum((d + 1) * d // 2
                                    for d in map(graph.degree, graph.vertices)),
        "clusterer.clusters": clusters,
        "clusterer.dissolved": out["centers"] - clusters,
        "components.required_entries": sum(len(c.required_interface)
                                           for c in out["components"]),
        "report.bytes": report_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for flag in ("--corpus", "--classifier", "--out", "--result"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    args = parser.parse_args()
    config = RunConfig(corpus_dir=Path(args.corpus), out_dir=Path(args.out),
                       classifier_path=Path(args.classifier), jobs=args.jobs)
    tracer = Tracer()
    out = traced_run(tracer, config)
    run_end = tracer.spans[0]["end"]
    with tracer.span("metrics.index"):
        CorpusMetrics(out["pruned"], config.metric_config)
    counts = layer_counts(out, config)
    payload = {"spans": tracer.spans, "counts": counts,
               "post_run_s": perf_counter() - run_end}
    Path(args.result).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
