"""Command line interface.

Subcommands mirror the pipeline stages and compose through plain text
artifacts:

  generate   write a synthetic corpus with planted components
  prune      strip application frames from a corpus
  metrics    score method sets over a corpus (CSV)
  graph      build the weighted method graph (edge list + DOT)
  cluster    cluster an edge-list graph into overlapping method groups
  run        full pipeline: corpus -> component report
  evaluate   score a report's components against relatedness labels

Exit codes: 0 success, 1 usage or configuration error, 2 trace parse
error, 3 empty corpus.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .clusterer import ClusterConfig, cluster, render_clusters
from .components import RelatednessLabels
from .graph_builder import (GraphConfig, build_graph, read_edge_list,
                            write_dot, write_edge_list)
from .metrics import CorpusMetrics, MetricConfig, QualityWeights
from .pipeline import RunConfig, run_pipeline
from .pruner import prune_corpus
from .report import build_evaluation, render_evaluation_text, write_evaluation
from .synth import PlantSpec, write_generated
from .trace_model import (ApiClassifier, MethodRef, TraceParseError,
                          load_corpus, write_corpus)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_EMPTY = 3


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with exit code 2; this tool reserves 2
    for trace parse errors, so remap usage errors to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--classifier", default=None,
                   help="API prefix file; omitted means every method is API")


def _add_metric_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-freq", type=float, default=1.0,
                   help="weight of call frequency in quality (default 1.0)")
    p.add_argument("--lambda-dist", type=float, default=1.0,
                   help="weight of call distance in quality (default 1.0)")
    p.add_argument("--lambda-weight", type=float, default=1.0,
                   help="weight of call weight in quality (default 1.0)")
    p.add_argument("--weight-formula", choices=["example", "literal"],
                   default="example",
                   help="pair weight aggregation (default example)")
    p.add_argument("--distance-pair-cap", type=int, default=10_000,
                   help="occurrence pairs per pair and tree measured exactly; "
                        "above it, this many are sampled (default 10000)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel workers for parse/prune/edge stages (default 1)")


def _classifier_from(args) -> ApiClassifier:
    if args.classifier:
        return ApiClassifier.load(args.classifier)
    return ApiClassifier.match_all()


def _weights_from(args) -> QualityWeights:
    return QualityWeights(args.lambda_freq, args.lambda_dist, args.lambda_weight)


def _metric_config_from(args) -> MetricConfig:
    return MetricConfig(weight_formula=args.weight_formula,
                        distance_pair_cap=args.distance_pair_cap)


def _load_pruned(args, mapper=map):
    corpus = load_corpus(args.corpus, _classifier_from(args), mapper)
    if corpus.is_empty():
        return None
    return prune_corpus(corpus, mapper)


def _with_mapper(jobs: int, fn):
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return fn(pool.map)
    return fn(map)


def cmd_generate(args) -> int:
    spec = PlantSpec(
        component_count=args.components,
        methods_per_component=tuple(args.methods_per_component),
        inter_call_prob=args.inter_call_prob,
        trees_per_app=args.trees_per_app,
        app_count=args.apps,
        tree_depth=tuple(args.tree_depth),
        noise_prob=args.noise_prob,
        seed=args.seed,
    )
    corpus, truth = write_generated(spec, args.out)
    print(f"generated {corpus.tree_count()} trees for {len(corpus.trees)} apps, "
          f"{len(truth)} planted components -> {args.out}")
    return EXIT_OK


def cmd_prune(args) -> int:
    def run(mapper) -> int:
        corpus = load_corpus(args.corpus, _classifier_from(args), mapper)
        if corpus.is_empty():
            print("empty corpus: nothing to prune", file=sys.stderr)
            return EXIT_EMPTY
        pruned = prune_corpus(corpus, mapper)
        write_corpus(pruned, args.out)
        before = sum(t.node_count() for t in corpus.all_trees())
        after = sum(t.node_count() for t in pruned.all_trees())
        print(f"pruned {corpus.tree_count()} trees: {before} -> {after} nodes "
              f"-> {args.out}")
        return EXIT_OK

    return _with_mapper(args.jobs, run)


def _read_method_sets(path: str) -> list[list[MethodRef]]:
    sets = []
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(),
                                  start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        methods = [MethodRef.from_qualified(part.strip())
                   for part in line.split(",") if part.strip()]
        if len(set(methods)) < 2:
            raise ValueError(f"{path}:{line_no}: a method set needs >= 2 "
                             "distinct methods")
        sets.append(methods)
    return sets


def cmd_metrics(args) -> int:
    pruned = _load_pruned(args)
    if pruned is None:
        print("empty corpus: no metrics to compute", file=sys.stderr)
        return EXIT_EMPTY
    engine = CorpusMetrics(pruned, _metric_config_from(args))
    weights = _weights_from(args)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["set", "call_freq", "call_dist", "call_weight", "quality"])
    for methods in _read_method_sets(args.sets):
        writer.writerow([
            ",".join(m.qualified for m in methods),
            f"{engine.call_freq(methods):.12g}",
            f"{engine.call_dist(methods):.12g}",
            f"{engine.call_weight(methods):.12g}",
            f"{engine.quality(methods, weights):.12g}",
        ])
    if args.out:
        Path(args.out).write_text(buffer.getvalue(), encoding="utf-8")
    else:
        sys.stdout.write(buffer.getvalue())
    return EXIT_OK


def cmd_graph(args) -> int:
    def run(mapper) -> int:
        pruned = _load_pruned(args, mapper)
        if pruned is None:
            print("empty corpus: no graph to build", file=sys.stderr)
            return EXIT_EMPTY
        config = GraphConfig(weights=_weights_from(args),
                             edge_threshold=args.edge_threshold,
                             metrics=_metric_config_from(args))
        graph = build_graph(pruned, config, mapper)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_edge_list(graph, out_dir / "graph.tsv")
        write_dot(graph, out_dir / "graph.dot")
        print(f"graph: {len(graph)} vertices, {graph.edge_count()} edges "
              f"-> {out_dir / 'graph.tsv'}")
        return EXIT_OK

    return _with_mapper(args.jobs, run)


def cmd_cluster(args) -> int:
    graph = read_edge_list(args.graph)
    clusters = cluster(graph, ClusterConfig(rc_comparison=args.rc_comparison))
    text = render_clusters(clusters)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{len(clusters)} clusters -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_run(args) -> int:
    config = RunConfig(
        corpus_dir=Path(args.corpus),
        out_dir=Path(args.out),
        classifier_path=Path(args.classifier) if args.classifier else None,
        weights=_weights_from(args),
        edge_threshold=args.edge_threshold,
        metric_config=_metric_config_from(args),
        cluster_config=ClusterConfig(rc_comparison=args.rc_comparison),
        jobs=args.jobs,
    )
    report = run_pipeline(config)
    if report["corpus"]["empty"]:
        print(f"empty corpus: wrote empty report -> {args.out}", file=sys.stderr)
        return EXIT_EMPTY
    stats = report["component_stats"]
    print(f"analyzed {report['corpus']['trees']} trees from "
          f"{report['corpus']['apps']} apps: "
          f"{report['graph']['vertices']} methods, "
          f"{stats['count']} components -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    report_path = Path(args.report)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    labels = RelatednessLabels.load(args.labels)
    evaluation = build_evaluation(report, labels)
    sys.stdout.write(render_evaluation_text(evaluation))
    out_dir = Path(args.out) if args.out else report_path.parent
    write_evaluation(evaluation, out_dir)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="apicomp",
                     description="Identify reusable API components from "
                                 "client execution traces.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("generate", help="write a synthetic planted corpus")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--methods-per-component", type=int, nargs=2, default=[4, 6],
                   metavar=("MIN", "MAX"))
    p.add_argument("--inter-call-prob", type=float, default=0.0)
    p.add_argument("--trees-per-app", type=int, default=4)
    p.add_argument("--apps", type=int, default=2)
    p.add_argument("--tree-depth", type=int, nargs=2, default=[2, 4],
                   metavar=("MIN", "MAX"))
    p.add_argument("--noise-prob", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="corpus output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("prune", help="strip application frames from a corpus")
    _add_corpus_args(p)
    _add_jobs_arg(p)
    p.add_argument("--out", required=True, help="pruned corpus directory")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("metrics", help="score method sets over a corpus")
    _add_corpus_args(p)
    _add_metric_args(p)
    p.add_argument("--sets", required=True,
                   help="text file, one comma-separated method set per line")
    p.add_argument("--out", default=None, help="CSV output (default stdout)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("graph", help="build the weighted method graph")
    _add_corpus_args(p)
    _add_metric_args(p)
    _add_jobs_arg(p)
    p.add_argument("--edge-threshold", type=float, default=0.0,
                   help="minimum quality for an edge (default 0.0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("cluster", help="cluster an edge-list graph")
    p.add_argument("--graph", required=True, help="edge list file (graph.tsv)")
    p.add_argument("--rc-comparison", choices=["prose", "caption"],
                   default="prose",
                   help="relative compactness comparison (default prose)")
    p.add_argument("--out", default=None, help="clusters file (default stdout)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("run", help="run the full pipeline")
    _add_corpus_args(p)
    _add_metric_args(p)
    _add_jobs_arg(p)
    p.add_argument("--edge-threshold", type=float, default=0.0,
                   help="minimum quality for an edge (default 0.0)")
    p.add_argument("--rc-comparison", choices=["prose", "caption"],
                   default="prose",
                   help="relative compactness comparison (default prose)")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score report components against labels")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--labels", required=True,
                   help="related pairs file: a.b<TAB>c.d per line")
    p.add_argument("--out", default=None,
                   help="evaluation output directory (default: report's)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TraceParseError as exc:
        print(f"apicomp: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"apicomp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
