"""Build and render run reports.

A run produces a machine-readable ``report.json`` and a human-readable
``report.txt``. The JSON layout (schema ``apicomp-report/2``) is documented
in the README; evaluation against relatedness labels adds a separate
``evaluation.json``/``evaluation.txt`` pair (schema ``apicomp-evaluation/1``).
Reports carry no timestamps: identical inputs and configuration must
produce identical bytes. The report formats what the stages found; which
components provide a required method is ``components._provider_ids``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .components import Component, RelatednessLabels, _provider_ids, component_stats, precision
from .graph_builder import ApiGraph
from .trace_model import MethodRef, TraceCorpus, TraceStats, tree_stats

REPORT_SCHEMA = "apicomp-report/2"
# Report schemas evaluation reads: their components have the same layout.
EVALUABLE_SCHEMAS = ("apicomp-report/1", REPORT_SCHEMA)
EVALUATION_SCHEMA = "apicomp-evaluation/1"


# The keys of a tree-stats row, in column order; a report read back from
# ``report.json`` has its keys sorted.
_STATS_KEYS = ("app", "scenario", *TraceStats._fields)


def _stats_rows(corpus: TraceCorpus) -> list[dict]:
    rows = [{"app": tree.app_id, "scenario": tree.scenario_id, **tree_stats(tree)._asdict()}
            for tree in corpus.all_trees()]
    rows.sort(key=lambda r: (r["app"], r["scenario"]))
    return rows


def _component_entries(components: list[Component]) -> list[dict]:
    """The report's entry for each component, in order; a required method's
    ``provided_by`` is its ``_provider_ids`` list, or [] when none provides it."""
    provider_ids = _provider_ids(comp.provided_interface for comp in components)
    entries = []
    for idx, comp in enumerate(components):
        required = []
        for method, witness in comp.required_witnesses.items():
            required.append({
                "method": method.qualified,
                "provided_by": provider_ids.get(method, []),
                "witness": {
                    "app": witness.app_id,
                    "scenario": witness.scenario_id,
                    "caller": witness.caller.qualified,
                },
            })
        entries.append({
            "id": idx,
            "center": comp.center.qualified,
            "provided_interface": sorted(m.qualified for m in comp.provided_interface),
            "implementation_classes": sorted(comp.implementation_classes),
            "required_interface": required,
        })
    return entries


def build_report(config_echo: dict, corpus: TraceCorpus, pruned: TraceCorpus,
                 graph: ApiGraph, components: list[Component]) -> dict:
    """Assemble the full run report from every stage's output; for an empty
    corpus those outputs are empty too."""
    stats = component_stats(components)
    return {
        "schema": REPORT_SCHEMA,
        "config": dict(config_echo),
        "corpus": {
            "apps": len(corpus.trees),
            "trees": corpus.tree_count(),
            "empty": corpus.is_empty(),
        },
        "call_tree_stats": _stats_rows(corpus),
        "pruned_tree_stats": _stats_rows(pruned),
        "graph": {
            "vertices": len(graph),
            "edges": graph.edge_count(),
        },
        "components": _component_entries(components),
        "component_stats": {
            "count": stats.count,
            "avg_interface_methods": stats.avg_interface_methods,
            "avg_component_classes": stats.avg_component_classes,
            "empty": stats.count == 0,
        },
    }


def _stats_table(rows: list[dict]) -> list[str]:
    if not rows:
        return ["  (none)"]
    header = ("app", "scenario", "nodes", "unique_api", "height",
              "min_rep", "max_rep", "avg_rep")
    table = [tuple(str(r[k]) if not isinstance(r[k], float) else f"{r[k]:g}"
                   for k in _STATS_KEYS)
             for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(header)]
    lines = ["  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in table:
        lines.append("  " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return lines


def render_report_text(report: dict) -> str:
    lines = ["API COMPONENT REPORT", "====================", ""]

    lines.append("Configuration")
    for key in sorted(report["config"]):
        lines.append(f"  {key}: {report['config'][key]}")
    lines.append("")

    corpus = report["corpus"]
    lines.append("Corpus")
    lines.append(f"  applications: {corpus['apps']}")
    lines.append(f"  call trees:   {corpus['trees']}")
    if corpus["empty"]:
        lines.append("  (empty corpus: nothing to analyze)")
        lines.append("")
        return "\n".join(lines)
    lines.append("")

    lines.append("Call trees (as recorded)")
    lines.extend(_stats_table(report["call_tree_stats"]))
    lines.append("")
    lines.append("Call trees (pruned)")
    lines.extend(_stats_table(report["pruned_tree_stats"]))
    lines.append("")

    lines.append("Method graph")
    lines.append(f"  vertices: {report['graph']['vertices']}")
    lines.append(f"  edges:    {report['graph']['edges']}")
    lines.append("")

    comps = report["components"]
    lines.append(f"Components ({len(comps)})")
    if not comps:
        lines.append("  (none)")
    for comp in comps:
        lines.append(f"  [{comp['id']}] center: {comp['center']}")
        provided = comp["provided_interface"]
        lines.append(f"      provided ({len(provided)}): {', '.join(provided)}")
        classes = comp["implementation_classes"]
        lines.append(f"      classes ({len(classes)}): {', '.join(classes)}")
        required = comp["required_interface"]
        if required:
            lines.append(f"      required ({len(required)}):")
            for item in required:
                owners = ",".join(str(i) for i in item["provided_by"]) or "-"
                w = item["witness"]
                lines.append(
                    f"        {item['method']} (components [{owners}]; "
                    f"first call by {w['caller']} in {w['app']}/{w['scenario']})")
        else:
            lines.append("      required (0): none")
    lines.append("")

    stats = report["component_stats"]
    lines.append("Component stats")
    if stats["empty"]:
        lines.append("  (no components identified)")
    lines.append(f"  components: {stats['count']}")
    lines.append(f"  avg interface size (methods): {stats['avg_interface_methods']:g}")
    lines.append(f"  avg component size (classes): {stats['avg_component_classes']:g}")
    lines.append("")
    return "\n".join(lines)


def _write_pair(out_dir: str | Path, stem: str, doc: dict, text: str) -> None:
    """Write ``doc`` as ``<stem>.json`` and ``text`` as ``<stem>.txt``. Both
    are written as ``<name>.tmp`` in ``out_dir`` first and only then renamed
    into place, so a write that fails leaves the previous pair as it was."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    contents = {f"{stem}.json": json.dumps(doc, indent=2, sort_keys=True) + "\n",
                f"{stem}.txt": text}
    try:
        for name, content in contents.items():
            (out_dir / f"{name}.tmp").write_text(content, encoding="utf-8")
        for name in contents:
            os.replace(out_dir / f"{name}.tmp", out_dir / name)
    finally:
        for name in contents:
            (out_dir / f"{name}.tmp").unlink(missing_ok=True)


def write_report(report: dict, out_dir: str | Path) -> None:
    _write_pair(out_dir, "report", report, render_report_text(report))


def _check_report(report) -> None:
    """Raise ValueError unless ``report`` has one of the
    ``EVALUABLE_SCHEMAS`` and components that carry what evaluation reads."""
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema not in EVALUABLE_SCHEMAS:
        raise ValueError(f"not an {' or '.join(EVALUABLE_SCHEMAS)} report "
                         f"(schema {schema!r})")
    components = report.get("components")
    if not isinstance(components, list):
        raise ValueError("report has no 'components' list")
    for comp in components:
        if not (isinstance(comp, dict) and "id" in comp
                and isinstance(comp.get("center"), str)
                and isinstance(comp.get("provided_interface"), list)
                and all(isinstance(q, str) for q in comp["provided_interface"])):
            raise ValueError("report component lacks an id, a center or a "
                             "provided_interface list of method names")


def build_evaluation(report: dict, labels: RelatednessLabels) -> dict:
    """Score every reported component against the relatedness labels;
    raises ValueError on anything but an evaluable report."""
    _check_report(report)
    rows = []
    total = 0.0
    for comp in report["components"]:
        try:
            methods = frozenset(MethodRef.from_qualified(q)
                                for q in comp["provided_interface"])
            value = precision(methods, labels)
        except ValueError as exc:
            raise ValueError(f"component {comp['id']!r}: {exc}") from None
        total += value
        rows.append({
            "id": comp["id"],
            "center": comp["center"],
            "methods": len(methods),
            "precision": value,
        })
    mean = total / len(rows) if rows else 0.0
    return {
        "schema": EVALUATION_SCHEMA,
        "components": rows,
        "mean_precision": mean,
    }


def render_evaluation_text(evaluation: dict) -> str:
    lines = ["COMPONENT EVALUATION", "====================", ""]
    if not evaluation["components"]:
        lines.append("(no components to evaluate)")
    for row in evaluation["components"]:
        lines.append(f"  [{row['id']}] center={row['center']} "
                     f"methods={row['methods']} precision={row['precision']:.6f}")
    lines.append("")
    lines.append(f"mean precision: {evaluation['mean_precision']:.6f}")
    lines.append("")
    return "\n".join(lines)


def write_evaluation(evaluation: dict, out_dir: str | Path) -> None:
    _write_pair(out_dir, "evaluation", evaluation, render_evaluation_text(evaluation))
