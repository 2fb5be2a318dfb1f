"""Materialize the undirected weighted method graph from a pruned corpus.

Vertices are all distinct methods seen in the pruned trees. Two methods get
an edge when they co-occur in at least one tree and their pairwise quality
reaches the configured threshold; the quality score is the edge weight.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .config import GraphConfig  # also importable from here
from .metrics import CorpusMetrics
from .trace_model import MethodRef, TraceCorpus, content_lines, parse_method


class IntView(NamedTuple):
    """An ``ApiGraph`` with its vertices numbered in name order: ``names[i]``
    is vertex i, ``ids`` maps back, ``adjacency[i]`` lists i's neighbors in
    ascending order and ``weights[i]`` maps each neighbor to the edge weight.
    Int order is name order, so sorting ints sorts methods."""

    names: tuple[MethodRef, ...]
    ids: dict[MethodRef, int]
    adjacency: list[list[int]]
    weights: list[dict[int, float]]


class ApiGraph:
    """Undirected weighted graph over methods with deterministic ordering.

    The graph is its ``IntView``: vertices and adjacency lists come in
    (class, method) order, so every traversal of the same graph yields the
    same sequence. The constructor numbers ``vertices`` plus every endpoint
    of ``edges``. ``add_edge`` only records the edge; it takes effect at the
    next read, which renumbers the graph once, in O(V + E), however many
    edges were added since the last one. So building a graph edge by edge
    and then reading it is linear, while reading after every add renumbers
    every time.
    """

    def __init__(self, vertices: Iterable[MethodRef],
                 edges: dict[tuple[MethodRef, MethodRef], float] | None = None) -> None:
        self._view = _numbered(vertices, edges or {})
        self._pending: dict[tuple[MethodRef, MethodRef], float] = {}

    def add_edge(self, u: MethodRef, v: MethodRef, weight: float) -> None:
        _check_edge(u, v, weight)
        self._pending[(u, v) if u < v else (v, u)] = weight

    def int_view(self) -> IntView:
        """The graph numbered in name order, the one read path. Edges added
        since the last read are numbered in first, so a view read before an
        ``add_edge`` is stale after it."""
        if self._pending:
            pending, self._pending = self._pending, {}
            edges = {(u, v): w for u, v, w in self.edges()}
            self._view = _numbered(self._view.names, {**edges, **pending})
        return self._view

    @property
    def vertices(self) -> tuple[MethodRef, ...]:
        return self.int_view().names

    def __contains__(self, v: MethodRef) -> bool:
        return v in self.int_view().ids

    def __len__(self) -> int:
        return len(self.int_view().names)

    def neighbors(self, v: MethodRef) -> tuple[MethodRef, ...]:
        view = self.int_view()
        return tuple(view.names[i] for i in view.adjacency[view.ids[v]])

    def degree(self, v: MethodRef) -> int:
        view = self.int_view()
        return len(view.adjacency[view.ids[v]])

    def edge_weight(self, u: MethodRef, v: MethodRef) -> float:
        """Weight of the edge u-v, or 0.0 when absent."""
        view = self.int_view()
        iu, iv = view.ids.get(u), view.ids.get(v)
        return 0.0 if iu is None or iv is None else view.weights[iu].get(iv, 0.0)

    def edges(self) -> Iterator[tuple[MethodRef, MethodRef, float]]:
        """All edges once, endpoints ordered, sorted."""
        names, _, adjacency, weights = self.int_view()
        for u, neighbors in enumerate(adjacency):
            for v in neighbors:
                if u < v:
                    yield names[u], names[v], weights[u][v]

    def edge_count(self) -> int:
        return sum(map(len, self.int_view().adjacency)) // 2


def _check_edge(u: MethodRef, v: MethodRef, weight: float) -> None:
    if u == v:
        raise ValueError(f"self-loop on {u}")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"edge weight must be in [0, 1], got {weight}")


def _numbered(vertices: Iterable[MethodRef],
              edges: dict[tuple[MethodRef, MethodRef], float]) -> IntView:
    """The view of ``vertices`` plus every endpoint of ``edges``, checked."""
    names = tuple(sorted({*vertices, *(v for pair in edges for v in pair)}))
    ids = {v: i for i, v in enumerate(names)}
    weights: list[dict[int, float]] = [{} for _ in names]
    for (u, v), w in edges.items():
        _check_edge(u, v, w)
        weights[ids[u]][ids[v]] = weights[ids[v]][ids[u]] = w
    return IntView(names, ids, [sorted(ws) for ws in weights], weights)


# _mapper: passed, and ignored, only by perfbench/traced.py; ROADMAP item 2 removes it.
def build_graph(corpus: TraceCorpus, config: GraphConfig | None = None,
                _mapper=None) -> ApiGraph:
    """Build the method graph of a pruned corpus.

    Only pairs that actually co-occur are scored (everything else would
    weigh 0 on frequency and weight anyway). Each scored pair's edge weight
    is its two-method ``quality``, blended from its ``CorpusMetrics`` row:
    over one pair, ``call_freq``, ``call_dist`` and ``call_weight`` are
    exactly ``(lfreq + gfreq) / 2``, ``distance`` and ``weight``.

    The rows go straight into the graph's ``IntView``, with the engine's
    ``names``, ``ids`` and int objects. Rows come in sorted (c, v) order,
    so each vertex receives its smaller neighbours, then its larger ones,
    in ascending order, and the adjacency lists need no sort.

    Raises ``ValueError`` when a kept edge's quality exceeds 1, which only
    the ``literal`` weight formula can cause.
    """
    config = config or GraphConfig()
    graph = ApiGraph(())
    engine = CorpusMetrics(corpus, config.metrics)
    names, blend, threshold = engine.names, config.weights.blend, config.edge_threshold
    adjacency: list[list[int]] = [[] for _ in names]
    weights: list[dict[int, float]] = [{} for _ in names]
    for c, v, lfreq, gfreq, distance, weight in engine.rows():
        w = blend((lfreq + gfreq) / 2.0, distance, weight)
        if w >= threshold:
            if w > 1.0:
                raise ValueError(
                    f"quality {w!r} of {names[c]} -- {names[v]} exceeds 1: the 'literal' "
                    f"weight formula sums weight shares over all trees and divides by "
                    f"the number of applications, so a pair's weight can exceed 1")
            adjacency[c].append(v)
            adjacency[v].append(c)
            weights[c][v] = weights[v][c] = w
    graph._view = IntView(tuple(names), engine.ids, adjacency, weights)
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
    with the same weight. A conflicting weight, a self-loop or a weight
    that is not a number in [0, 1] raises ``ValueError`` naming the file
    and line.
    """
    vertices: set[MethodRef] = set()
    edges: dict[tuple[MethodRef, MethodRef], float] = {}
    first_line: dict[tuple[MethodRef, MethodRef], int] = {}
    for line_no, raw in content_lines(path):
        parts = raw.split("\t")
        try:
            if len(parts) == 1:
                vertices.add(parse_method(parts[0]))
                continue
            if len(parts) != 3:
                raise ValueError("expected 'u<TAB>v<TAB>weight'")
            u, v = parse_method(parts[0]), parse_method(parts[1])
            try:
                w = float(parts[2])
            except ValueError:
                raise ValueError(f"weight {parts[2]!r} is not a number") from None
            _check_edge(u, v, w)
            vertices.update((u, v))
            key = (u, v) if u < v else (v, u)
            if key not in edges:
                edges[key], first_line[key] = w, line_no
            elif edges[key] != w:
                raise ValueError(f"weight {w!r} for {u} -- {v} conflicts with "
                                 f"{edges[key]!r} on line {first_line[key]}")
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return ApiGraph(vertices, edges)


def write_dot(graph: ApiGraph, path: str | Path) -> None:
    """Write a Graphviz rendering of the graph. A name is a quoted ID with
    `\\` written `\\\\` and `"` written `\\"`; other names keep their bytes."""
    def quoted(method: MethodRef) -> str:
        return '"' + method.qualified.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph api_methods {", "  node [shape=box];"]
    for v in graph.vertices:
        if graph.degree(v) == 0:
            lines.append(f'  {quoted(v)};')
    for u, v, w in graph.edges():
        lines.append(f'  {quoted(u)} -- {quoted(v)} [label="{w:.3f}"];')
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
