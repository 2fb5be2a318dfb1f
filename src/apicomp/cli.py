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

``prune``, ``metrics`` and ``graph`` load a corpus through ``_load``, the
one place that turns an empty corpus into exit code 3; ``run`` loads it
inside ``pipeline.run_pipeline``, which writes an empty report first. Both
read it with ``pruner.load_pruned``. The options several commands share
are declared once, as option groups: lists of ``(flag, add_argument
keywords)`` whose defaults and choices are those of the records that
validate them. ``build_parser`` makes every command but ``generate`` in
one loop, from its name, help, function and groups. Each record a command
builds from its options, ``generate``'s ``PlantSpec`` included, is built
by ``_record`` from the options named after its fields, so no command
names a record's fields again.

At module level this imports only ``argparse``, ``io``, ``sys``,
``pathlib`` and ``config``, which holds the records whose defaults and
choices the parser reads. Each command imports the stages it calls inside
its function, so ``--help`` and a usage error load nothing more,
``generate`` adds only the generator and the trace model, and ``prune``,
``metrics`` and ``graph`` stop at the stage they run. This matters
because every process compiles what it imports when no bytecode is kept.

Every stage runs serially; ``--jobs`` is accepted and validated for
compatibility but has no effect.

Exit codes: 0 success, 1 usage or configuration error, 2 trace parse
error, 3 empty corpus.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from .config import (RC_COMPARISONS, WEIGHT_FORMULAS, ClusterConfig, GraphConfig,
                     MetricConfig, QualityWeights)

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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _record(cls, args):
    """A ``cls`` record from the options of ``args`` named after its fields;
    one missing from ``args`` takes the record's default, and a two-value
    option, which arrives as a list, becomes a tuple."""
    return cls(**{name: tuple(value) if isinstance(value, list) else value
                  for name, value in vars(args).items() if name in cls._fields})


def _load(args, nothing: str):
    """The corpus and pruned corpus ``args`` name; an empty corpus ends the
    command with exit code 3, saying there is ``nothing``."""
    from .pruner import load_pruned

    corpus, pruned = load_pruned(args.corpus, args.classifier)
    if corpus.is_empty():
        print(f"empty corpus: {nothing}", file=sys.stderr)
        raise SystemExit(EXIT_EMPTY)
    return corpus, pruned


def _method_set(raw: str) -> list:
    """The methods of one comma-separated method-set line, in line order."""
    from .trace_model import parse_method

    methods = [parse_method(part) for part in raw.split(",") if part.strip()]
    if len(set(methods)) < 2:
        raise ValueError("a method set needs >= 2 distinct methods")
    return methods


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    from .synth import PlantSpec, write_generated

    # ``args`` holds only the options given (see ``build_parser``).
    corpus, truth = write_generated(_record(PlantSpec, args), args.out)
    print(f"generated {corpus.tree_count()} trees for {len(corpus.trees)} apps, "
          f"{len(truth)} planted components -> {args.out}")
    return EXIT_OK


def cmd_prune(args) -> int:
    from .trace_model import write_corpus

    corpus, pruned = _load(args, "nothing to prune")
    write_corpus(pruned, args.out)
    before = sum(t.node_count() for t in corpus.all_trees())
    after = sum(t.node_count() for t in pruned.all_trees())
    print(f"pruned {corpus.tree_count()} trees: {before} -> {after} nodes "
          f"-> {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    import csv

    from .metrics import CorpusMetrics
    from .trace_model import read_lines

    _, pruned = _load(args, "no metrics to compute")
    engine = CorpusMetrics(pruned, _record(MetricConfig, args))
    weights = _record(QualityWeights, args)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["set", "call_freq", "call_dist", "call_weight", "quality"])
    for methods in read_lines(args.sets, _method_set):
        means = engine.set_means(methods)
        writer.writerow([",".join(m.qualified for m in methods),
                         *(f"{x:.12g}" for x in (*means, weights.blend(*means)))])
    _emit(buffer.getvalue(), args.out)
    return EXIT_OK


def cmd_graph(args) -> int:
    from .graph_builder import build_graph, write_dot, write_edge_list

    _, pruned = _load(args, "no graph to build")
    config = GraphConfig(weights=_record(QualityWeights, args),
                         edge_threshold=args.edge_threshold,
                         metrics=_record(MetricConfig, args))
    graph = build_graph(pruned, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, out_dir / "graph.tsv")
    write_dot(graph, out_dir / "graph.dot")
    print(f"graph: {len(graph)} vertices, {graph.edge_count()} edges "
          f"-> {out_dir / 'graph.tsv'}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    from .clusterer import cluster, render_clusters
    from .graph_builder import read_edge_list

    graph = read_edge_list(args.graph)
    clusters = cluster(graph, _record(ClusterConfig, args))
    _emit(render_clusters(clusters), args.out)
    if args.out:
        print(f"{len(clusters)} clusters -> {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    from .pipeline import RunConfig, run_pipeline

    config = RunConfig(
        corpus_dir=Path(args.corpus),
        out_dir=Path(args.out),
        classifier_path=Path(args.classifier) if args.classifier else None,
        weights=_record(QualityWeights, args),
        edge_threshold=args.edge_threshold,
        metric_config=_record(MetricConfig, args),
        cluster_config=_record(ClusterConfig, args),
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
    import json

    from .components import RelatednessLabels
    from .report import build_evaluation, render_evaluation_text, write_evaluation
    from .trace_model import read_utf8

    report_path = Path(args.report)
    try:
        report = json.loads(read_utf8(report_path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{report_path}: not valid JSON "
                         f"(line {exc.lineno} column {exc.colno})") from None
    labels = RelatednessLabels.load(args.labels)
    try:
        evaluation = build_evaluation(report, labels)
    except ValueError as exc:
        raise ValueError(f"{report_path}: {exc}") from None
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

    # Each option's dest is a ``PlantSpec`` field, and an omitted option is
    # left out of the namespace, so ``PlantSpec`` supplies its default.
    p = sub.add_parser("generate", help="write a synthetic planted corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--components", dest="component_count", type=int,
                   metavar="COMPONENTS")
    p.add_argument("--methods-per-component", type=int, nargs=2, metavar=("MIN", "MAX"))
    p.add_argument("--inter-call-prob", type=float)
    p.add_argument("--trees-per-app", type=int)
    p.add_argument("--apps", dest="app_count", type=int, metavar="APPS")
    p.add_argument("--tree-depth", type=int, nargs=2, metavar=("MIN", "MAX"))
    p.add_argument("--noise-prob", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="corpus output directory")
    p.set_defaults(func=cmd_generate)

    # The option groups several commands share, each a list of ``(flag,
    # add_argument keywords)``. Each default and choice list is the one of
    # the record that validates the option.
    weights = QualityWeights()
    corpus = [("--corpus", dict(required=True, help="corpus directory")),
              ("--classifier",
               dict(help="API prefix file; omitted means every method is API"))]
    metric = [(f"--{field.replace('_', '-')}",
               dict(type=float, default=getattr(weights, field),
                    help=f"weight of call {what} in quality (default %(default)s)"))
              for field, what in zip(weights._fields, ("frequency", "distance", "weight"))]
    metric.append(("--weight-formula",
                   dict(choices=WEIGHT_FORMULAS, default=MetricConfig().weight_formula,
                        help="pair weight aggregation (default %(default)s)")))
    jobs = [("--jobs", dict(
        type=_positive_int, default=1,
        help="accepted for compatibility (an integer >= 1); has no effect, "
             "because every stage runs serially"))]
    threshold = [("--edge-threshold", dict(
        type=float, default=GraphConfig().edge_threshold,
        help="minimum quality for an edge (default %(default)s)"))]
    rc = [("--rc-comparison", dict(
        choices=RC_COMPARISONS, default=ClusterConfig().rc_comparison,
        help="relative compactness comparison (default %(default)s)"))]

    # Each command: its name, help and function, then its option groups in
    # the order its options are listed; the last group is its own.
    commands = [
        ("prune", "strip application frames from a corpus", cmd_prune, corpus, jobs,
         [("--out", dict(required=True, help="pruned corpus directory"))]),
        ("metrics", "score method sets over a corpus", cmd_metrics, corpus, metric,
         [("--sets", dict(required=True,
                          help="text file, one comma-separated method set per line")),
          ("--out", dict(default=None, help="CSV output (default stdout)"))]),
        ("graph", "build the weighted method graph", cmd_graph,
         corpus, metric, jobs, threshold,
         [("--out", dict(required=True, help="output directory"))]),
        ("cluster", "cluster an edge-list graph", cmd_cluster,
         [("--graph", dict(required=True, help="edge list file (graph.tsv)"))], rc,
         [("--out", dict(default=None, help="clusters file (default stdout)"))]),
        ("run", "run the full pipeline", cmd_run, corpus, metric, jobs, threshold, rc,
         [("--out", dict(required=True, help="report output directory"))]),
        ("evaluate", "score report components against labels", cmd_evaluate,
         [("--report", dict(required=True, help="path to report.json")),
          ("--labels", dict(required=True,
                            help="related pairs file: a.b<TAB>c.d per line")),
          ("--out", dict(default=None,
                         help="evaluation output directory (default: report's)"))]),
    ]
    for name, summary, func, *groups in commands:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for group in groups:
            for flag, kwargs in group:
                p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # a usage error, --help or an empty corpus
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"apicomp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Only code that has loaded ``trace_model`` raises its parse error.
        from .trace_model import TraceParseError

        if not isinstance(exc, TraceParseError):
            raise
        print(f"apicomp: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
