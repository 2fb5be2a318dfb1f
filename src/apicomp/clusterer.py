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
   are absorbed into the current star. Absorbing keeps every vertex of the
   dissolved star inside the current one, so redundancy never changes
   during the phase and is decided once. Every surviving center emits one
   cluster: the center plus its satellites.

Clusters may overlap and always cover every vertex. Ties are broken by
higher degree and then by method name, so results are deterministic.

Both phases run on the graph's ``IntView``, whose vertex numbers follow
name order, so comparing ints breaks ties as names would; names enter only
the returned ``CoverState`` and ``Cluster``s. Relative density and relative
compactness are one rule, the share of a star's satellites that pass a
test. The cover scores each distinct star once: methods always used
together share one closed neighbourhood, hence one star.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, repeat
from operator import gt, lt
from typing import NamedTuple, Sequence

from .config import RC_COMPARISONS, ClusterConfig  # also importable from here
from .graph_builder import ApiGraph, IntView
from .metrics import left_sum
from .trace_model import MethodRef


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


def _share(satellites, hit) -> float:
    """Share of the satellites for which ``hit`` holds; 0 when there are
    none. Relative density and relative compactness are both this rule."""
    return sum(map(hit, satellites)) / len(satellites) if satellites else 0.0


def _compactness(satellites, qualities, own: float, config: ClusterConfig) -> float:
    beats = lt if config.rc_comparison == "prose" else gt
    return _share(satellites, lambda s: beats(qualities[s], own))


def relative_density(v: MethodRef, state: CoverState, graph: ApiGraph) -> float:
    """Share of v's satellites not covered yet; 0 for isolated vertices."""
    return _share(graph.neighbors(v), lambda s: s not in state.covered)


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
    Centers are visited by decreasing degree, then name. Each center not
    dissolved yet emits its star, plus the stars of the redundant centers
    among its satellites that have emitted none, which dissolve into it.
    Every vertex of a dissolved star stays in the absorbing cluster, so the
    cover is preserved while the cluster count can only shrink. ``config``
    changes nothing; it is accepted so that a caller can pass both phases
    the same one.
    """
    view = graph.int_view()
    adjacency, names = view.adjacency, view.names
    centers = [view.ids[c] for c in state.centers]
    # How many chosen stars ({center} + satellites) contain each vertex: a
    # vertex of star(u) lies in another star iff its count is >= 2. Absorbing
    # a star keeps each of its vertices inside the absorbing star, so the
    # union of the stars other than u, hence whether u is redundant, never
    # changes while u is alive: redundancy is decided once, up front. Only
    # a center inside another star (a count >= 2) can be dissolved into it.
    containing = Counter(chain(centers, *(adjacency[c] for c in centers)))
    redundant = {u for u in centers if containing[u] >= 2
                 and 2 * sum(containing[s] >= 2 for s in adjacency[u]) > len(adjacency[u])}
    dissolved: set[int] = set()
    clusters: list[Cluster] = []
    for v in sorted(centers, key=lambda i: (-len(adjacency[i]), i)):
        if v in dissolved:
            continue
        redundant.discard(v)  # an emitted star is never dissolved
        absorbed = redundant.intersection(adjacency[v])
        redundant -= absorbed
        dissolved |= absorbed
        members = {v}.union(adjacency[v], *(adjacency[u] for u in absorbed))
        clusters.append(Cluster(names[v], frozenset([names[i] for i in members])))
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
