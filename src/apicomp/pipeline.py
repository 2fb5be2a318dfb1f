"""End-to-end orchestration: parse, classify, prune, score, cluster, report.

The front of the chain, corpus to pruned corpus, is ``pruner.load_pruned``.
Every corpus runs one chain: each stage maps empty input to empty output,
so an empty corpus needs no branch here, and only the CLI turns it into an
exit code. Every stage runs serially, in input order: threads never
measured faster on these pure-Python per-tree steps, so there is no pool.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .clusterer import cluster
from .components import assemble
from .config import ClusterConfig, GraphConfig, MetricConfig, QualityWeights
from .graph_builder import build_graph
from .pruner import load_pruned
from .report import build_report, write_report


class RunConfig(NamedTuple):
    corpus_dir: Path
    out_dir: Path
    classifier_path: Path | None = None
    weights: QualityWeights = QualityWeights()
    edge_threshold: float = 0.0
    metric_config: MetricConfig = MetricConfig()
    cluster_config: ClusterConfig = ClusterConfig()
    # Read only by perfbench/traced.py; ROADMAP item 2 removes it.
    jobs: int = 1

    def config_echo(self) -> dict:
        """Analysis configuration recorded in the report: the inputs, the
        edge threshold and every field of the three analysis records, so a
        switch added to a record is echoed without naming it here. Call
        distances have no switch, being always exact. Invocation details
        (output directory, job count) do not influence results and are
        deliberately left out to keep reruns byte-identical."""
        return {"corpus": str(self.corpus_dir),
                "classifier": str(self.classifier_path) if self.classifier_path else None,
                "edge_threshold": self.edge_threshold, **self.weights._asdict(),
                **self.metric_config._asdict(), **self.cluster_config._asdict()}


def run_pipeline(config: RunConfig) -> dict:
    """Run all stages and write the report; returns the report dict.

    Every corpus runs the same chain. An empty one flows through every stage
    to a report with ``corpus.empty`` set and no trees, vertices or
    components; deciding what that means, such as the CLI's exit code 3,
    is left to the caller.
    """
    graph_config = GraphConfig(weights=config.weights,
                               edge_threshold=config.edge_threshold,
                               metrics=config.metric_config)
    corpus, pruned = load_pruned(config.corpus_dir, config.classifier_path)
    graph = build_graph(pruned, graph_config)
    components = assemble(cluster(graph, config.cluster_config), pruned)
    report = build_report(config.config_echo(), corpus, pruned, graph, components)
    write_report(report, config.out_dir)
    return report
