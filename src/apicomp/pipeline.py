"""End-to-end orchestration: parse, classify, prune, score, cluster, report.

Per-file parsing, per-tree pruning and the per-tree pair pass run through
a mapper that may be a thread pool; their outputs are merged in input
order, so the report bytes do not depend on the parallelism degree.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .clusterer import ClusterConfig, cluster
from .components import assemble
from .graph_builder import GraphConfig, build_graph
from .metrics import MetricConfig, QualityWeights
from .pruner import prune_corpus
from .report import build_report, write_report
from .trace_model import ApiClassifier, load_corpus


@dataclass
class RunConfig:
    corpus_dir: Path
    out_dir: Path
    classifier_path: Path | None = None
    weights: QualityWeights = field(default_factory=QualityWeights)
    edge_threshold: float = 0.0
    metric_config: MetricConfig = field(default_factory=MetricConfig)
    cluster_config: ClusterConfig = field(default_factory=ClusterConfig)
    jobs: int = 1

    def config_echo(self) -> dict:
        """Analysis configuration recorded in the report. Invocation details
        (output directory, job count) do not influence results and are
        deliberately left out to keep reruns byte-identical."""
        return {
            "corpus": str(self.corpus_dir),
            "classifier": str(self.classifier_path) if self.classifier_path else None,
            "lambda_freq": self.weights.lambda_freq,
            "lambda_dist": self.weights.lambda_dist,
            "lambda_weight": self.weights.lambda_weight,
            "edge_threshold": self.edge_threshold,
            "weight_formula": self.metric_config.weight_formula,
            "rc_comparison": self.cluster_config.rc_comparison,
            "distance_pair_cap": self.metric_config.distance_pair_cap,
        }


def run_pipeline(config: RunConfig) -> dict:
    """Run all stages and write the report; returns the report dict.

    An empty corpus yields a minimal report with ``corpus.empty`` set, so
    callers can exit distinctly without treating it as a failure.
    """
    classifier = (ApiClassifier.load(config.classifier_path)
                  if config.classifier_path else ApiClassifier.match_all())
    graph_config = GraphConfig(weights=config.weights,
                               edge_threshold=config.edge_threshold,
                               metrics=config.metric_config)

    def stages(mapper) -> dict:
        corpus = load_corpus(config.corpus_dir, classifier, mapper)
        if corpus.is_empty():
            return build_report(config.config_echo(), corpus, None, None, [])
        pruned = prune_corpus(corpus, mapper)
        graph = build_graph(pruned, graph_config, mapper)
        clusters = cluster(graph, config.cluster_config)
        components = assemble(clusters, pruned)
        return build_report(config.config_echo(), corpus, pruned, graph, components)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            report = stages(pool.map)
    else:
        report = stages(map)

    write_report(report, config.out_dir)
    return report
