"""Overlapping method clustering via weighted star subgraphs.

A star (center vertex plus its neighbors as satellites) is the clustering
unit. Clustering runs in two phases:

1. Cover the graph greedily with stars. Vertices are ranked once by
   relative quality, the average of relative density (share of satellites
   not yet covered, 1.0 before anything is covered) and relative
   compactness (share of satellites whose own stars score worse). Scanning
   in rank order, a vertex becomes a center when it is uncovered or still
   has an uncovered satellite.

2. Refine the cover. Centers are visited by decreasing degree; a center u
   found among the satellites of the current star is dissolved when it is
   redundant (it lies inside another chosen star and more than half of its
   satellites are already covered by the other stars), and its satellites
   are absorbed into the current star. Every surviving center emits one
   cluster: the center plus its satellites.

Clusters may overlap and always cover every vertex. Ties are broken by
higher degree and then by method name, so results are deterministic.

Star qualities and the cover run on the graph's ``IntView``, whose vertex
numbers follow name order, so comparing ints breaks ties as names would.
The cover scores each distinct star once: methods always used together
share one closed neighbourhood, hence one star.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, repeat
from typing import NamedTuple, Sequence

from .graph_builder import ApiGraph, IntView
from .metrics import left_sum
from .trace_model import MethodRef

RC_COMPARISONS = ("prose", "caption")


class ClusterConfig(namedtuple("ClusterConfig", "rc_comparison")):
    """rc_comparison picks how relative compactness counts satellites:
    "prose" (default) counts satellites with strictly worse star quality,
    "caption" counts satellites with strictly better star quality."""

    __slots__ = ()

    def __new__(cls, rc_comparison: str = "prose") -> "ClusterConfig":
        if rc_comparison not in RC_COMPARISONS:
            raise ValueError(f"rc_comparison must be one of {RC_COMPARISONS}")
        return tuple.__new__(cls, (rc_comparison,))


class WsGraph(namedtuple("WsGraph", "center satellites")):
    """A weighted star subgraph: a center and its satellite vertices."""

    __slots__ = ()

    def __new__(cls, center: MethodRef, satellites: frozenset[MethodRef]) -> "WsGraph":
        if center in satellites:
            raise ValueError("a star's center cannot be its own satellite")
        return tuple.__new__(cls, (center, satellites))

    @property
    def members(self) -> frozenset[MethodRef]:
        return self.satellites | {self.center}


class CoverState(NamedTuple):
    """Chosen centers (in selection order) and the vertices they cover."""

    centers: list[MethodRef]
    covered: set[MethodRef]


class Cluster(NamedTuple):
    """One output cluster: a final star's center and full member set."""

    center: MethodRef
    members: frozenset[MethodRef]


def star(graph: ApiGraph, v: MethodRef) -> WsGraph:
    return WsGraph(v, frozenset(graph.neighbors(v)))


def _members_quality(members: Sequence[int], view: IntView) -> float:
    """Average edge weight over all pairs of the sorted vertex ints, summed
    in ``combinations`` order, missing edges counting as 0; 0 below two
    members. The one star-quality kernel."""
    k = len(members)
    if k < 2:
        return 0.0
    weights = view.weights
    # Row by row, pair (a, b) for each b after a: combinations order, summed
    # left to right so the float total matches a sum over combinations().
    rows = (map(weights[a].get, members[i + 1:], repeat(0.0))
            for i, a in enumerate(members))
    return left_sum(chain.from_iterable(rows)) / (k * (k - 1) // 2)


def _star_quality(i: int, view: IntView) -> float:
    return _members_quality(sorted((i, *view.adjacency[i])), view)


def ws_quality(ws: WsGraph, graph: ApiGraph) -> float:
    """Average edge weight over all vertex pairs of the star, missing
    edges counting as 0; a satellite-less star scores 0. Every member
    must be a vertex of the graph."""
    view = graph.int_view()
    return _members_quality(sorted(view.ids[m] for m in ws.members), view)


def _uncovered_share(satellites, covered) -> float:
    if not satellites:
        return 0.0
    return sum(1 for s in satellites if s not in covered) / len(satellites)


def _compactness(satellites, qualities, own: float, config: ClusterConfig) -> float:
    if not satellites:
        return 0.0
    if config.rc_comparison == "prose":
        count = sum(1 for s in satellites if qualities[s] < own)
    else:
        count = sum(1 for s in satellites if qualities[s] > own)
    return count / len(satellites)


def relative_density(v: MethodRef, state: CoverState, graph: ApiGraph) -> float:
    """Share of v's satellites not covered yet; 0 for isolated vertices."""
    return _uncovered_share(graph.neighbors(v), state.covered)


def relative_compactness(v: MethodRef, graph: ApiGraph,
                         config: ClusterConfig | None = None) -> float:
    """Share of v's satellites whose own stars compare worse (or better,
    under the "caption" switch) than v's star; 0 for isolated vertices."""
    view = graph.int_view()
    i = view.ids[v]
    satellites = view.adjacency[i]
    qualities = {s: _star_quality(s, view) for s in (i, *satellites)}
    return _compactness(satellites, qualities, qualities[i], config or ClusterConfig())


def initial_clusters(graph: ApiGraph,
                     config: ClusterConfig | None = None) -> CoverState:
    """Greedy star cover of the graph.

    The ranking is computed once up front, against the empty cover, so
    relative density contributes 1.0 for every non-isolated vertex and the
    order is effectively decided by relative compactness. Isolated vertices
    rank last and become their own centers.

    Vertices with the same closed neighbourhood N[v] (twins, such as
    methods always used together) have the same star, so the star quality
    and the rank term are computed once per distinct N[v]. The rank term is
    exact for twins i and j: their stars score the same, so swapping i and
    j between their satellite sets changes no comparison, and the sets
    have the same size.
    """
    config = config or ClusterConfig()
    view = graph.int_view()
    adjacency = view.adjacency
    closed = [tuple(sorted((i, *sats))) for i, sats in enumerate(adjacency)]
    twin = {members: i for i, members in enumerate(closed)}  # one vertex per N[v]
    quality = {members: _members_quality(members, view) for members in twin}
    qualities = [quality[members] for members in closed]
    rank = {members: ((1.0 if adjacency[i] else 0.0)
                      + _compactness(adjacency[i], qualities, qualities[i], config)) / 2.0
            for members, i in twin.items()}
    rq = [rank[members] for members in closed]
    order = sorted(range(len(adjacency)),
                   key=lambda i: (-rq[i], -len(adjacency[i]), i))

    centers: list[int] = []
    covered = [False] * len(adjacency)
    for i in order:
        satellites = adjacency[i]
        if not covered[i] or not all(covered[s] for s in satellites):
            centers.append(i)
            covered[i] = True
            for s in satellites:
                covered[s] = True
    # Each vertex is a center or covered by the time the scan reaches it.
    return CoverState([view.names[i] for i in centers], set(view.names))


def refine_clusters(graph: ApiGraph, state: CoverState,
                    config: ClusterConfig | None = None) -> list[Cluster]:
    """Dissolve redundant stars and emit the final clusters.

    A chosen star is redundant when its center sits inside another chosen
    star and more than half of its satellites lie in the other stars.
    Satellite sets start as the cover-phase snapshots; absorbing a star
    only ever mutates the star currently being emitted. A dissolved center
    stays a member of the absorbing cluster, so the cover is preserved
    while the cluster count can only shrink. ``config`` changes nothing;
    it is accepted so that a caller can pass both phases the same one.
    """
    satellites = {c: set(graph.neighbors(c)) for c in state.centers}
    order = sorted(state.centers, key=lambda v: (-graph.degree(v), v))
    alive = set(state.centers)
    visited: set[MethodRef] = set()
    clusters: list[Cluster] = []

    # How many alive stars ({center} + satellites) contain each vertex.
    # A vertex x inside star(u) is also inside some other star iff its
    # count is >= 2, which keeps the redundancy test O(|satellites|).
    containing = Counter()
    for center in state.centers:
        containing[center] += 1
        containing.update(satellites[center])

    # Only an alive center u inside the star of another alive center v is
    # tested, so u is counted for both stars (containing[u] >= 2), and an
    # empty ``own`` gives 0 > 0, False, with no guard. No center is ever
    # its own satellite: edges have no self-loops, and ``absorbed``
    # subtracts {v}.
    def is_useless(u: MethodRef) -> bool:
        own = satellites[u]
        shared = sum(1 for s in own if containing[s] >= 2)
        return 2 * shared > len(own)

    for v in order:
        if v not in alive:
            continue
        for u in sorted(satellites[v]):
            if u not in alive or u in visited:
                continue
            if is_useless(u):
                containing.subtract(satellites[u])
                containing[u] -= 1
                absorbed = (satellites[u] | {u}) - {v} - satellites[v]
                satellites[v] |= absorbed
                containing.update(absorbed)
                alive.discard(u)
            else:
                visited.add(u)
        clusters.append(Cluster(v, frozenset(satellites[v] | {v})))
        visited.add(v)
    return clusters


def cluster(graph: ApiGraph, config: ClusterConfig | None = None) -> list[Cluster]:
    """Run both phases; an empty graph yields no clusters."""
    return refine_clusters(graph, initial_clusters(graph, config))


def render_clusters(clusters: list[Cluster]) -> str:
    """One cluster per line, center first then sorted satellites, lines
    sorted; the text format consumed by downstream tooling."""
    lines = []
    for c in clusters:
        rest = sorted(m.qualified for m in c.members if m != c.center)
        lines.append(",".join([c.center.qualified, *rest]))
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")
