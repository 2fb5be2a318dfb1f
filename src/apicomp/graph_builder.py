"""Materialize the undirected weighted method graph from a pruned corpus.

Vertices are all distinct methods seen in the pruned trees. Two methods get
an edge when they co-occur in at least one tree and their pairwise quality
reaches the configured threshold; the quality score is the edge weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .metrics import CorpusMetrics, MetricConfig, QualityWeights
from .trace_model import MethodRef, TraceCorpus


@dataclass(frozen=True)
class GraphConfig:
    weights: QualityWeights = field(default_factory=QualityWeights)
    edge_threshold: float = 0.0
    metrics: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.edge_threshold < 1.0:
            raise ValueError(
                f"edge_threshold must be in [0, 1), got {self.edge_threshold}")


class ApiGraph:
    """Undirected weighted graph over methods with deterministic ordering.

    Vertices and adjacency lists are kept sorted by (class, method) so every
    traversal of the same graph yields the same sequence.
    """

    def __init__(self, vertices: Iterable[MethodRef],
                 edges: dict[tuple[MethodRef, MethodRef], float] | None = None) -> None:
        self._adjacency: dict[MethodRef, dict[MethodRef, float]] = {
            v: {} for v in sorted(set(vertices))}
        for (u, v), w in (edges or {}).items():
            self.add_edge(u, v, w)

    def add_edge(self, u: MethodRef, v: MethodRef, weight: float) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u}")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"edge weight must be in [0, 1], got {weight}")
        for end in (u, v):
            if end not in self._adjacency:
                self._adjacency[end] = {}
        self._adjacency[u][v] = weight
        self._adjacency[v][u] = weight

    @property
    def vertices(self) -> tuple[MethodRef, ...]:
        return tuple(sorted(self._adjacency))

    def __contains__(self, v: MethodRef) -> bool:
        return v in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def neighbors(self, v: MethodRef) -> tuple[MethodRef, ...]:
        return tuple(sorted(self._adjacency[v]))

    def degree(self, v: MethodRef) -> int:
        return len(self._adjacency[v])

    def edge_weight(self, u: MethodRef, v: MethodRef) -> float:
        """Weight of the edge u-v, or 0.0 when absent."""
        return self._adjacency.get(u, {}).get(v, 0.0)

    def has_edge(self, u: MethodRef, v: MethodRef) -> bool:
        return v in self._adjacency.get(u, {})

    def edges(self) -> Iterator[tuple[MethodRef, MethodRef, float]]:
        """All edges once, endpoints ordered, sorted."""
        for u in self.vertices:
            for v in self.neighbors(u):
                if u < v:
                    yield u, v, self._adjacency[u][v]

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())


def build_graph(corpus: TraceCorpus, config: GraphConfig | None = None,
                mapper: Callable[..., Iterable] = map) -> ApiGraph:
    """Build the method graph of a pruned corpus.

    Only pairs that actually co-occur are scored (everything else would
    weigh 0 on frequency and weight anyway). ``mapper`` may be a thread
    pool's ``map``; pair order is fixed, so the result is deterministic
    regardless of scheduling.
    """
    config = config or GraphConfig()
    if corpus.is_empty():
        return ApiGraph(())
    engine = CorpusMetrics(corpus, config.metrics)
    vertices = engine.methods()
    pairs = engine.co_occurring_pairs()

    def score(pair: tuple[MethodRef, MethodRef]) -> float:
        return engine.quality(pair, config.weights)

    graph = ApiGraph(vertices)
    for (u, v), w in zip(pairs, mapper(score, pairs)):
        if w >= config.edge_threshold:
            graph.add_edge(u, v, w)
    return graph


def write_edge_list(graph: ApiGraph, path: str | Path) -> None:
    """Write ``u<TAB>v<TAB>weight`` lines, lexicographically sorted.

    Vertices without any surviving edge are written as single-field lines so
    the graph survives a round trip through the file.
    """
    lines = []
    for u, v, w in graph.edges():
        a, b = sorted((u.qualified, v.qualified))
        lines.append(f"{a}\t{b}\t{w!r}")
    for v in graph.vertices:
        if graph.degree(v) == 0:
            lines.append(v.qualified)
    lines.sort()
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def read_edge_list(path: str | Path) -> ApiGraph:
    """Read the edge-list format written by :func:`write_edge_list`.

    An edge may be listed more than once, in either direction, but only
    with the same weight; a conflicting weight raises ``ValueError``.
    """
    vertices: set[MethodRef] = set()
    edges: dict[tuple[MethodRef, MethodRef], float] = {}
    first_line: dict[tuple[MethodRef, MethodRef], int] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(),
                                  start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = raw.split("\t")
        if len(parts) == 1:
            vertices.add(MethodRef.from_qualified(parts[0].strip()))
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_no}: expected 'u<TAB>v<TAB>weight'")
        u = MethodRef.from_qualified(parts[0].strip())
        v = MethodRef.from_qualified(parts[1].strip())
        w = float(parts[2])
        vertices.update((u, v))
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            edges[key], first_line[key] = w, line_no
        elif edges[key] != w:
            raise ValueError(f"{path}:{line_no}: weight {w!r} for {u} -- {v} "
                             f"conflicts with {edges[key]!r} on line {first_line[key]}")
    return ApiGraph(vertices, edges)


def write_dot(graph: ApiGraph, path: str | Path) -> None:
    """Write a Graphviz rendering of the graph."""
    lines = ["graph api_methods {", "  node [shape=box];"]
    for v in graph.vertices:
        if graph.degree(v) == 0:
            lines.append(f'  "{v.qualified}";')
    for u, v, w in graph.edges():
        lines.append(f'  "{u.qualified}" -- "{v.qualified}" [label="{w:.3f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
