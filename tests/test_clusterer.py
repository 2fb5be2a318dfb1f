import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import m

from apicomp import clusterer
from apicomp.clusterer import (RC_COMPARISONS, Cluster, ClusterConfig, CoverState,
                               WsGraph, cluster, initial_clusters, refine_clusters,
                               relative_compactness, relative_density,
                               render_clusters, star, ws_quality)
from apicomp.graph_builder import ApiGraph
from apicomp.trace_model import MethodRef


def graph_of(edges, isolated=()):
    """edges: (name, name, weight) triples over a shared dummy class."""
    graph = ApiGraph([m(f"g.C.{name}") for name in isolated])
    for u, v, w in edges:
        graph.add_edge(m(f"g.C.{u}"), m(f"g.C.{v}"), w)
    return graph


def member_names(c: Cluster) -> set[str]:
    return {v.method_name for v in c.members}


def random_graph(seed: int, max_vertices: int = 30) -> ApiGraph:
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    vertices = [MethodRef("g.C", f"v{i:02d}") for i in range(n)]
    graph = ApiGraph(vertices)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                graph.add_edge(vertices[i], vertices[j], rng.random())
    return graph


class TestWsQuality:
    def test_two_vertex_star_is_the_edge_weight(self):
        graph = graph_of([("a", "b", 0.7)])
        assert ws_quality(star(graph, m("g.C.a")), graph) == pytest.approx(0.7)

    def test_uniform_triangle(self):
        graph = graph_of([("a", "b", 0.4), ("b", "c", 0.4), ("a", "c", 0.4)])
        assert ws_quality(star(graph, m("g.C.b")), graph) == pytest.approx(0.4)

    def test_missing_satellite_edge_counts_as_zero(self):
        graph = graph_of([("c", "s1", 0.8), ("c", "s2", 0.4)])
        assert ws_quality(star(graph, m("g.C.c")), graph) == pytest.approx(0.4)

    def test_degenerate_star_scores_zero(self):
        graph = graph_of([], isolated=["a"])
        assert ws_quality(star(graph, m("g.C.a")), graph) == 0.0

    def test_center_cannot_be_its_own_satellite(self):
        with pytest.raises(ValueError):
            WsGraph(m("g.C.a"), frozenset([m("g.C.a")]))


class TestRelativeDensity:
    def test_everything_uncovered(self):
        graph = graph_of([("a", "b", 0.5), ("a", "c", 0.5)])
        state = CoverState([], set())
        assert relative_density(m("g.C.a"), state, graph) == 1.0

    def test_everything_covered(self):
        graph = graph_of([("a", "b", 0.5), ("a", "c", 0.5)])
        state = CoverState([], {m("g.C.b"), m("g.C.c")})
        assert relative_density(m("g.C.a"), state, graph) == 0.0

    def test_partial_cover(self):
        edges = [("a", f"s{i}", 0.5) for i in range(5)]
        graph = graph_of(edges)
        state = CoverState([], {m("g.C.s0"), m("g.C.s1")})
        assert relative_density(m("g.C.a"), state, graph) == pytest.approx(0.6)

    def test_isolated_vertex_is_zero(self):
        graph = graph_of([], isolated=["a"])
        assert relative_density(m("g.C.a"), CoverState([], set()), graph) == 0.0


class TestRelativeCompactness:
    def _hub(self):
        # Hub v with satellites s1..s4; s1..s3 carry cheap pendants, which
        # drags their star quality below the hub's, while s4 stays above.
        edges = [("v", f"s{i}", 0.8) for i in range(1, 5)]
        edges += [(f"s{i}", f"p{i}", 0.01) for i in range(1, 4)]
        return graph_of(edges)

    def test_three_of_four_satellites_worse(self):
        graph = self._hub()
        assert relative_compactness(m("g.C.v"), graph) == pytest.approx(0.75)

    def test_strictly_best_star(self):
        graph = graph_of([("v", "s1", 0.9), ("s1", "p1", 0.1)])
        assert relative_compactness(m("g.C.v"), graph) == 1.0

    def test_strictly_worst_star(self):
        # v's star spans both satellites with no satellite-satellite edge.
        graph = graph_of([("v", "s1", 0.3), ("v", "s2", 0.3)])
        assert relative_compactness(m("g.C.v"), graph) == 0.0

    def test_caption_mode_counts_better_stars(self):
        graph = self._hub()
        assert relative_compactness(m("g.C.v"), graph,
                                    ClusterConfig("caption")) == pytest.approx(0.25)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ClusterConfig("both")


class TestInitialClusters:
    def test_path_graph_default_prose_reading(self):
        graph = graph_of([("a", "b", 0.5), ("b", "c", 0.5)])
        state = initial_clusters(graph)
        assert [v.method_name for v in state.centers] == ["a", "c"]
        assert state.covered == set(graph.vertices)

    def test_path_graph_caption_reading_picks_the_middle(self):
        graph = graph_of([("a", "b", 0.5), ("b", "c", 0.5)])
        state = initial_clusters(graph, ClusterConfig("caption"))
        assert [v.method_name for v in state.centers] == ["b"]

    def test_complete_graph_single_center(self):
        names = "abcd"
        graph = graph_of([(u, v, 0.5) for i, u in enumerate(names)
                          for v in names[i + 1:]])
        state = initial_clusters(graph)
        assert [v.method_name for v in state.centers] == ["a"]

    def test_edgeless_graph_every_vertex_is_a_center(self):
        graph = graph_of([], isolated=["a", "b", "c", "d"])
        state = initial_clusters(graph)
        assert [v.method_name for v in state.centers] == ["a", "b", "c", "d"]

    def test_cover_is_complete(self):
        for seed in range(10):
            graph = random_graph(seed)
            state = initial_clusters(graph)
            assert state.covered == set(graph.vertices)


class TestRefineClusters:
    def test_two_disjoint_stars_pass_through(self):
        graph = graph_of([("c1", "a1", 0.5), ("c1", "a2", 0.5),
                          ("c2", "b1", 0.5), ("c2", "b2", 0.5)])
        state = CoverState([m("g.C.c1"), m("g.C.c2")], set(graph.vertices))
        clusters = refine_clusters(graph, state)
        assert [member_names(c) for c in clusters] == [
            {"c1", "a1", "a2"}, {"c2", "b1", "b2"}]

    def test_redundant_star_is_absorbed(self):
        # u's star {u, h, x} sits inside h's coverage; u must dissolve.
        graph = graph_of([("h", "u", 0.5), ("h", "x", 0.5), ("h", "y", 0.5),
                          ("u", "x", 0.5)])
        state = CoverState([m("g.C.h"), m("g.C.u")], set(graph.vertices))
        clusters = refine_clusters(graph, state)
        assert len(clusters) == 1
        assert member_names(clusters[0]) == {"h", "u", "x", "y"}

    def test_half_shared_star_survives(self):
        # u shares exactly half (1 of 2) of its satellites: not useless.
        graph = graph_of([("a", "b", 0.5), ("b", "c", 0.5),
                          ("c", "d", 0.5), ("d", "a", 0.5)])
        state = CoverState([m("g.C.a"), m("g.C.b")], set(graph.vertices))
        clusters = refine_clusters(graph, state)
        assert len(clusters) == 2

    def test_non_adjacent_centers_keep_cluster_count(self):
        graph = graph_of([("c1", "x", 0.5), ("c2", "x", 0.5)])
        state = CoverState([m("g.C.c1"), m("g.C.c2")], set(graph.vertices))
        clusters = refine_clusters(graph, state)
        assert len(clusters) == 2


class TestCluster:
    def test_empty_graph(self):
        assert cluster(ApiGraph([])) == []

    def test_triangle_is_one_cluster(self):
        graph = graph_of([("a", "b", 0.5), ("b", "c", 0.5), ("a", "c", 0.5)])
        clusters = cluster(graph)
        assert [member_names(c) for c in clusters] == [{"a", "b", "c"}]

    def test_two_triangles_overlap_in_the_shared_vertex(self):
        graph = graph_of([("a", "b", 0.5), ("a", "c", 0.5), ("b", "c", 0.5),
                          ("c", "d", 0.5), ("c", "e", 0.5), ("d", "e", 0.5)])
        clusters = cluster(graph)
        assert sorted(member_names(c) for c in clusters) == [
            {"a", "b", "c"}, {"c", "d", "e"}]
        seen: dict[str, int] = {}
        for c in clusters:
            for name in member_names(c):
                seen[name] = seen.get(name, 0) + 1
        assert [name for name, count in seen.items() if count > 1] == ["c"]

    def test_six_cycle_refinement_merges(self):
        graph = graph_of([("a", "b", 0.5), ("b", "c", 0.5), ("c", "d", 0.5),
                          ("d", "e", 0.5), ("e", "f", 0.5), ("f", "a", 0.5)])
        state = initial_clusters(graph)
        clusters = refine_clusters(graph, state)
        assert len(state.centers) == 4
        assert len(clusters) == 3  # one center dissolved during refinement


# -- properties ----------------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_clusters_cover_the_graph(seed):
    graph = random_graph(seed)
    clusters = cluster(graph)
    covered = set().union(*(c.members for c in clusters)) if clusters else set()
    assert covered == set(graph.vertices)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_refinement_never_increases_cluster_count(seed):
    graph = random_graph(seed)
    state = initial_clusters(graph)
    clusters = refine_clusters(graph, state)
    assert len(clusters) <= len(state.centers)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_clustering_is_deterministic(seed):
    graph = random_graph(seed)
    first = cluster(graph)
    second = cluster(graph)
    assert first == second
    assert render_clusters(first) == render_clusters(second)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_every_cluster_is_connected_through_its_center(seed):
    """The subgraph induced by a cluster is connected (singletons are
    isolated vertices), and no member is more than two hops from the
    center: itself, a satellite, or a satellite of an absorbed star."""
    graph = random_graph(seed)
    for c in cluster(graph):
        if len(c.members) == 1:
            member, = c.members
            assert member == c.center
            continue
        near = {c.center} | set(graph.neighbors(c.center))
        two_hops = set(near)
        for v in near:
            two_hops.update(graph.neighbors(v))
        assert c.members <= two_hops

        reached = {c.center}
        frontier = [c.center]
        while frontier:
            at = frontier.pop()
            for nxt in graph.neighbors(at):
                if nxt in c.members and nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert reached == set(c.members)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_ws_quality_is_the_mean_over_sorted_pairs(seed, pick):
    """The int kernel sums in ``combinations(sorted(members))`` order, so it
    equals the plain mean over methods bit for bit, for stars and for any
    member set."""
    graph = random_graph(seed)
    vertices = graph.vertices
    rng = random.Random(pick)
    center = rng.choice(vertices)
    others = [v for v in vertices if v != center]
    for ws in (star(graph, center),
               WsGraph(center, frozenset(rng.sample(others, rng.randint(0, len(others)))))):
        pairs = list(itertools.combinations(sorted(ws.members), 2))
        expected = (sum(graph.edge_weight(a, b) for a, b in pairs) / len(pairs)
                    if pairs else 0.0)
        assert ws_quality(ws, graph) == expected


def per_vertex_cover(graph: ApiGraph, config: ClusterConfig) -> CoverState:
    """The cover with every vertex's star scored on its own: each star's
    quality a running total over ``combinations`` of its sorted closed
    neighbourhood, then each vertex's rank from its own satellites."""
    view = graph.int_view()
    adjacency, weights = view.adjacency, view.weights

    def star_quality(i):
        pairs = list(itertools.combinations(sorted((i, *adjacency[i])), 2))
        total = 0.0
        for a, b in pairs:
            total += weights[a].get(b, 0.0)
        return total / len(pairs) if pairs else 0.0

    qualities = [star_quality(i) for i in range(len(adjacency))]

    def rank(i):
        satellites = adjacency[i]
        if not satellites:
            return 0.0
        if config.rc_comparison == "prose":
            count = sum(1 for s in satellites if qualities[s] < qualities[i])
        else:
            count = sum(1 for s in satellites if qualities[s] > qualities[i])
        return (1.0 + count / len(satellites)) / 2.0

    order = sorted(range(len(adjacency)), key=lambda i: (-rank(i), -len(adjacency[i]), i))
    centers, covered = [], set()
    for i in order:
        if i not in covered or not covered.issuperset(adjacency[i]):
            centers.append(view.names[i])
            covered.add(i)
            covered.update(adjacency[i])
    return CoverState(centers, set(view.names))


@st.composite
def twin_graphs(draw):
    """Random graphs, plus planted cliques and vertices that copy another
    vertex's closed neighbourhood (both make twins), plus isolated vertices.
    Weights repeat often, so star qualities tie."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def weight():
        return rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()])

    n = draw(st.integers(0, 10))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    edges = {(i, j): weight() for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    for _ in range(draw(st.integers(0, 3))):
        size, base = rng.randint(2, 5), n
        n += size
        edges.update(((base + a, base + b), weight())
                     for a in range(size) for b in range(a + 1, size))
    for _ in range(draw(st.integers(0, 3))):
        if n:
            u, v = rng.randrange(n), n
            n += 1
            for x in {u} | {a if b == u else b for a, b in edges if u in (a, b)}:
                edges[(x, v)] = weight()
    n += draw(st.integers(0, 2))
    vertices = [MethodRef("g.C", f"v{i:02d}") for i in range(n)]
    graph = ApiGraph(vertices)
    for (a, b), w in edges.items():
        graph.add_edge(vertices[a], vertices[b], w)
    return graph


@pytest.mark.parametrize("rc_comparison", RC_COMPARISONS)
@given(graph=twin_graphs())
@settings(max_examples=150, deadline=None)
def test_cover_equals_the_per_vertex_reference(rc_comparison, graph):
    config = ClusterConfig(rc_comparison)
    assert initial_clusters(graph, config) == per_vertex_cover(graph, config)


def test_cover_equals_the_per_vertex_reference_on_twin_free_graphs():
    twin_free = []
    for seed in range(40):
        graph = random_graph(seed)
        closed = {tuple(sorted((i, *sats)))
                  for i, sats in enumerate(graph.int_view().adjacency)}
        if len(closed) == len(graph):
            twin_free.append(graph)
    assert len(twin_free) >= 10
    for graph in twin_free:
        for rc_comparison in RC_COMPARISONS:
            config = ClusterConfig(rc_comparison)
            assert initial_clusters(graph, config) == per_vertex_cover(graph, config)


def test_each_distinct_star_is_scored_once(monkeypatch):
    """k disjoint cliques have k distinct closed neighbourhoods, so the
    star kernel runs k times, not once per vertex."""
    sizes = [3, 5, 4, 6]
    graph = graph_of([(f"k{k}_{a}", f"k{k}_{b}", 0.5)
                      for k, size in enumerate(sizes)
                      for a in range(size) for b in range(a + 1, size)])
    calls = []
    kernel = clusterer._members_quality
    monkeypatch.setattr(clusterer, "_members_quality",
                        lambda members, view: calls.append(members) or kernel(members, view))
    state = initial_clusters(graph)
    assert len(calls) == len(sizes)
    assert len(state.centers) == len(sizes)


@st.composite
def hub_graphs(draw):
    """Cliques at partial edge density plus hubs joined to every other
    vertex, the names shuffled so that hubs fall anywhere in name order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 6))
    n = size * draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.5, 0.8, 1.0]))
    edges = [(base + a, base + b) for base in range(0, n, size)
             for a in range(size) for b in range(a + 1, size) if rng.random() < density]
    hubs = range(n, n + draw(st.integers(1, 3)))
    edges += [(i, h) for h in hubs for i in range(h)]
    vertices = [MethodRef("g.C", f"v{i:02d}") for i in range(hubs.stop)]
    rng.shuffle(vertices)
    graph = ApiGraph(vertices)
    for a, b in edges:
        graph.add_edge(vertices[a], vertices[b], rng.choice([0.25, 0.5, 1.0, rng.random()]))
    return graph


def name_level_refine(graph: ApiGraph, state: CoverState) -> list[Cluster]:
    """The refinement written over names: ``graph.neighbors``,
    ``graph.degree`` and ``MethodRef`` sets, with the redundancy test
    counted from scratch over the alive stars each time."""
    satellites = {c: set(graph.neighbors(c)) for c in state.centers}
    order = sorted(state.centers, key=lambda v: (-graph.degree(v), v))
    alive, visited, clusters = set(state.centers), set(), []
    for v in order:
        if v not in alive:
            continue
        for u in sorted(satellites[v]):
            if u not in alive or u in visited:
                continue
            others = set().union(*(satellites[c] | {c} for c in alive if c != u))
            if 2 * len(satellites[u] & others) > len(satellites[u]):
                satellites[v] |= (satellites[u] | {u}) - {v}
                alive.discard(u)
            else:
                visited.add(u)
        clusters.append(Cluster(v, frozenset(satellites[v] | {v})))
        visited.add(v)
    return clusters


@pytest.mark.parametrize("rc_comparison", RC_COMPARISONS)
@given(graph=st.one_of(twin_graphs(), hub_graphs()), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_refinement_equals_the_name_level_reference(rc_comparison, graph, seed):
    """On the cover's own state and on a random list of distinct centers
    that claims every vertex covered."""
    config = ClusterConfig(rc_comparison)
    vertices = graph.vertices
    rng = random.Random(seed)
    for state in (initial_clusters(graph, config),
                  CoverState(rng.sample(vertices, rng.randint(0, len(vertices))),
                             set(vertices))):
        assert refine_clusters(graph, state, config) == name_level_refine(graph, state)


def test_render_clusters_sorted_center_first():
    clusters = [Cluster(m("g.C.z"), frozenset([m("g.C.z"), m("g.C.a")])),
                Cluster(m("g.C.b"), frozenset([m("g.C.b")]))]
    text = render_clusters(clusters)
    assert text.splitlines() == ["g.C.b", "g.C.z,g.C.a"]
