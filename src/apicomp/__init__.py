"""apicomp: identify reusable components of an object-oriented API from
execution traces of its client applications.

Pipeline: parse trace corpora into call trees, prune application frames,
score method-pair affinity (frequency, distance, weight), build a weighted
method graph, extract overlapping clusters as component provided
interfaces, and report components with their implementation classes and
required interfaces.
"""

import importlib

# Public name -> the submodule that defines it. Names load on first use
# (PEP 562), so ``import apicomp`` or a CLI command loads only the
# submodules it touches; a record of ``config`` loads no analysis stage.
_EXPORTS = {
    **dict.fromkeys(("Cluster", "CoverState", "WsGraph", "cluster", "initial_clusters",
                     "refine_clusters", "relative_compactness", "relative_density",
                     "star", "ws_quality"), "clusterer"),
    **dict.fromkeys(("CallWitness", "Component", "ComponentStats", "RelatednessLabels",
                     "assemble", "component_stats", "precision"), "components"),
    **dict.fromkeys(("ClusterConfig", "GraphConfig", "MetricConfig", "QualityWeights"),
                    "config"),
    **dict.fromkeys(("ApiGraph", "build_graph", "read_edge_list", "write_dot",
                     "write_edge_list"), "graph_builder"),
    **dict.fromkeys(("CorpusMetrics", "PairAffinity", "average_path_length", "call_dist",
                     "call_freq", "call_weight", "co_occur", "distance", "global_freq",
                     "local_freq", "pair_distance", "pair_weight", "quality", "weight"),
                    "metrics"),
    **dict.fromkeys(("RunConfig", "run_pipeline"), "pipeline"),
    **dict.fromkeys(("prune", "prune_corpus"), "pruner"),
    **dict.fromkeys(("build_evaluation", "build_report", "render_report_text"), "report"),
    **dict.fromkeys(("PlantSpec", "generate", "load_ground_truth", "write_generated"),
                    "synth"),
    **dict.fromkeys(("ApiClassifier", "CallNode", "CallTree", "MethodRef", "Origin",
                     "PrunedTree", "TraceCorpus", "TraceParseError", "TraceStats",
                     "classify", "load_corpus", "parse_trace_file", "serialize_tree",
                     "tree_stats", "write_corpus"), "trace_model"),
}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
