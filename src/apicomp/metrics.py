"""Pairwise affinity metrics over a pruned trace corpus.

Three attributes score how strongly API methods belong together:

* call frequency: how often two methods co-occur in scenario trees,
  averaged per application (local) and across applications (global);
* call distance: how near their occurrences sit inside the trees,
  normalized by tree depth so 1.0 means adjacent and 0.0 means absent;
* call weight: the share of a tree's invocation edges that directly
  connect the two methods.

Set-level variants average the pairwise values over all unordered pairs,
and ``quality`` blends the three set-level attributes with configurable
lambda weights. All results lie in [0, 1], except under the ``literal``
weight formula: its call weight sums shares over all trees and divides by
the number of applications, so it, and a quality blended from it, can
exceed 1.

``CorpusMetrics`` scores every co-occurring pair once, at construction, and
is the one place a pair score is computed: the corpus-level functions build
one over their corpus, and the per-tree ``co_occur``, ``pair_distance`` and
``pair_weight`` read one built over a one-tree corpus. Prefer it when
evaluating many pairs over the same corpus. It numbers the distinct methods
in name order, so every pair inside it is a pair of ints whose order is the
order of the names; while scoring, a pair c < v of n methods is the one int
``c * n + v``, which sorts the same way. A tree's distance totals, all its
pairs at once, come from one ``_pair_distance_totals``; ``average_path_length``
returns the exact mean path, not a score, from the same totals.
"""

from __future__ import annotations

import itertools
import sys
from functools import reduce
from operator import add
from typing import Iterator, NamedTuple

from .config import WEIGHT_FORMULAS, MetricConfig, QualityWeights  # also importable from here
from .trace_model import CallTree, MethodRef, TraceCorpus, _parents


class PairAffinity(NamedTuple):
    """The four pairwise scores for one method pair."""

    lfreq: float
    gfreq: float
    distance: float
    weight: float


if sys.version_info < (3, 12):
    def left_sum(values) -> float:
        """The floats added strictly left to right from 0.0, as ``+=`` adds
        them: the builtin ``sum()`` below 3.12, ``reduce`` from 3.12 on, where
        ``sum()`` compensates; so totals do not depend on the Python version."""
        return sum(values, 0.0)
else:
    def left_sum(values) -> float:
        return reduce(add, values, 0.0)


def _check_pair(c: MethodRef, v: MethodRef) -> None:
    if c == v:
        raise ValueError(f"pair metrics need two distinct methods, got {c} twice")


def _check_set(methods) -> list[MethodRef]:
    unique = sorted(set(methods))
    if len(unique) < 2:
        raise ValueError("set metrics need at least 2 distinct methods")
    return unique


def _index(tree: CallTree, ids: dict[MethodRef, int]):
    """``(parent, depth, occurrences, direct_pairs, edge_total)`` of one tree
    numbered in pre-order: each node's parent and depth, each method id's
    nodes, the direct calls between each pair c < v of distinct methods by
    key ``c * n + v`` (n = ``len(ids)``), and all invocation edges, calls to
    self included. A connector root is a node, so paths step through it,
    but never an occurrence, and its edges are not invocations. The
    invocations are the calls of ``trace_model._calls``, whose rule this
    loop applies inline, as routing it through ``_calls`` measured slower;
    a test holds the two to the same counts.
    """
    n = len(ids)
    events = tree.events
    parent = _parents(events)
    depth = [event[0] for event in events]
    # A connector root's label is -1.
    labels = [-1 if method is None else ids[method] for _, method, _, _ in events]
    occurrences: dict[int, list[int]] = {}
    direct_pairs: dict[int, int] = {}
    edge_total = 0
    for idx, label in enumerate(labels):
        if label >= 0:
            occurrences.setdefault(label, []).append(idx)
            parent_label = labels[parent[idx]] if idx else -1
            if parent_label >= 0:
                edge_total += 1
                if parent_label != label:
                    key = (parent_label * n + label if parent_label < label
                           else label * n + parent_label)
                    direct_pairs[key] = direct_pairs.get(key, 0) + 1
    return parent, depth, occurrences, direct_pairs, edge_total


# memoryview formats that read one lane natively, by lane width in bytes.
_LANE_FORMATS = {memoryview(bytes(8)).cast(code).itemsize: code for code in "BHIQ"}


def _pair_distance_totals(parent: list[int], depth: list[int],
                          occurrences: dict[int, list[int]]):
    """Yield ``(c, v, total, pairs)`` for every pair c < v of the methods in
    ``occurrences``, in sorted order: the exact integer sum of the path
    lengths over all ``pairs`` occurrence pairs, so the mean is one division.

    dist(a, b) = depth(a) + depth(b) - 2 * depth(lca(a, b)). Each node's int
    packs a count per method into lanes that hold N * N * D (N nodes, depth
    D), so no lane carries into the next. Bottom-up over the pre-order
    ``parent``, they are subtree counts; top-down, with the root reset to 0,
    sums over the node's non-root ancestors and itself. Lane v of the sum
    over c's nodes is then the pair's summed depth(lca), read with c's other
    lanes from one ``to_bytes``. A tree costs O(nodes) big-int adds and O(1)
    per pair.
    """
    methods = sorted(occurrences)
    k = len(methods)
    if k < 2:
        return
    n = len(parent)
    # The fewest whole bytes that hold N * N * D, rounded up to a native width.
    needed = ((n * n * max(depth)).bit_length() + 7) // 8
    lane_bytes = next((width for width in _LANE_FORMATS if width >= needed), needed)
    code = _LANE_FORMATS.get(lane_bytes)
    packed = [0] * n
    unit = 1
    for method in methods:
        for node in occurrences[method]:
            packed[node] = unit
        unit <<= 8 * lane_bytes
    for y in range(n - 1, 0, -1):
        packed[parent[y]] += packed[y]
    packed[0] = 0
    for y in range(1, n):
        packed[y] += packed[parent[y]]
    occ = [occurrences[method] for method in methods]
    sizes = list(map(len, occ))
    depth_sums = [sum(map(depth.__getitem__, nodes)) for nodes in occ]
    span, order, node_lanes = k * lane_bytes, sys.byteorder, packed.__getitem__
    for i in range(k - 1):
        c, size_c, depth_c = methods[i], sizes[i], depth_sums[i]
        data = sum(map(node_lanes, occ[i])).to_bytes(span, order)
        lcas = (memoryview(data).cast(code).tolist() if code else
                [int.from_bytes(data[at:at + lane_bytes], order)
                 for at in range(0, span, lane_bytes)])
        for v, size_v, depth_v, lca in zip(methods[i + 1:], sizes[i + 1:],
                                           depth_sums[i + 1:], lcas[i + 1:]):
            yield c, v, size_v * depth_c + size_c * depth_v - 2 * lca, size_c * size_v


class CorpusMetrics:
    """Affinity evaluator over one pruned corpus.

    ``names`` holds the distinct methods in sorted order and ``ids`` their
    positions. ``rows()`` yields each co-occurring pair of ids c < v once,
    in sorted pair order, with its four scores; ``table`` maps the same
    pairs ``(c, v)`` to ``PairAffinity`` values, in the same order, built
    from ``rows()`` the first time it is read.

    Construction walks the trees twice: once to number the methods, then
    once, apps in corpus order and trees in order, to score each tree from
    its ``_index`` and ``_pair_distance_totals``: each pair c < v's tree
    count and distance score, ``1 - total / pairs / (2 * depth)``, into two
    flat per-app dicts, tree counts and summed scores, keyed by the int
    ``c * n + v``, and each direct-call pair's weight share into a
    corpus-wide total. An app's entries fold into one accumulator row per
    pair, ``[local, dist, apps, trees]``, when the app ends. Every float
    total is a running ``+=`` in tree then app order, starting from its
    first term (``0.0 + x == x``):
    the float CPython 3.11's ``sum()`` gives over the terms a per-pair scan
    would add, less the exact 0.0 terms of trees without the pair. So the
    accessors are table lookups; a pair that never co-occurs scores 0.0 on
    all four. Over a one-tree corpus each total is its one term divided by
    1, so the scores are that tree's own, as the per-tree functions return
    them. An empty corpus has no names and no rows, so every pair scores
    0.0.
    """

    _ABSENT = PairAffinity(0.0, 0.0, 0.0, 0.0)

    def __init__(self, corpus: TraceCorpus, config: MetricConfig | None = None) -> None:
        self.config = config or MetricConfig()
        self.names: list[MethodRef] = sorted({event[1] for tree in corpus.all_trees()
                                              for event in tree.events} - {None})
        self.ids: dict[MethodRef, int] = {m: i for i, m in enumerate(self.names)}
        self._apps = len(corpus.trees)
        self._table: dict[tuple[int, int], PairAffinity] | None = None
        n = len(self.names)
        # Per pair key: the sums over apps of the app's share of trees
        # containing the pair and of its mean distance score, and the apps
        # and trees containing it; separately, its summed weight shares.
        acc: dict[int, list] = {}
        shares: dict[int, float] = {}
        for trees in corpus.trees.values():
            in_trees: dict[int, int] = {}  # per pair key: this app's trees containing it
            scores: dict[int, float] = {}  # and the sum of their distance scores
            for tree in trees:
                parent, depth, occurrences, direct_pairs, edge_total = _index(tree, self.ids)
                scale = 2.0 * max(depth)
                for c, v, total, pairs in _pair_distance_totals(parent, depth, occurrences):
                    # Unclamped: c != v lie 1..2D edges apart; int / int rounds correctly.
                    score = 1.0 - total / pairs / scale
                    key = c * n + v
                    in_trees[key] = in_trees.get(key, 0) + 1
                    scores[key] = scores.get(key, 0.0) + score
                for key, count in direct_pairs.items():
                    shares[key] = shares.get(key, 0.0) + count / edge_total
            size = len(trees)
            for key, count in in_trees.items():
                app_dist = scores[key]
                row = acc.get(key)
                if row is None:
                    acc[key] = [count / size, app_dist / size, 1, count]
                else:
                    row[0] += count / size
                    row[1] += app_dist / size
                    row[2] += 1
                    row[3] += count
        self._acc, self._shares = acc, shares

    def rows(self) -> Iterator[tuple[int, int, float, float, float, float]]:
        """``(c, v, lfreq, gfreq, distance, weight)`` for every co-occurring
        pair of ids c < v, in sorted pair order; the ints are the objects
        held in ``ids``. The one place the pair scores are finished."""
        apps, shares, acc = self._apps, self._shares, self._acc
        literal = self.config.weight_formula == "literal"
        vertex = list(self.ids.values())
        n = len(vertex)
        for key in sorted(acc):
            local, dist, app_count, tree_count = acc[key]
            c, v = divmod(key, n)
            yield (vertex[c], vertex[v], local / apps, app_count / apps, dist / apps,
                   shares.get(key, 0.0) / (apps if literal else tree_count))

    @property
    def table(self) -> dict[tuple[int, int], PairAffinity]:
        """Pair of ids ``(c, v)``, c < v, to its scores, in ``rows()`` order."""
        if self._table is None:
            self._table = {(c, v): PairAffinity(*scores) for c, v, *scores in self.rows()}
        return self._table

    def methods(self) -> list[MethodRef]:
        """All distinct methods occurring anywhere, in stable sorted order."""
        return list(self.names)

    def co_occurring_pairs(self) -> list[tuple[MethodRef, MethodRef]]:
        """Sorted distinct pairs that share at least one tree."""
        return [(self.names[c], self.names[v]) for c, v in self.table]

    # -- pairwise attributes -------------------------------------------------

    def pair_affinity(self, c: MethodRef, v: MethodRef) -> PairAffinity:
        _check_pair(c, v)
        ic, iv = self.ids.get(c), self.ids.get(v)
        if ic is None or iv is None:
            return self._ABSENT
        return self.table.get((ic, iv) if ic < iv else (iv, ic), self._ABSENT)

    def local_freq(self, c: MethodRef, v: MethodRef) -> float:
        """Per-app share of trees containing both methods, averaged over apps."""
        return self.pair_affinity(c, v).lfreq

    def global_freq(self, c: MethodRef, v: MethodRef) -> float:
        """Share of applications with at least one tree containing both."""
        return self.pair_affinity(c, v).gfreq

    def distance(self, c: MethodRef, v: MethodRef) -> float:
        """Per-tree distance scores averaged per app, then over apps."""
        return self.pair_affinity(c, v).distance

    def weight(self, c: MethodRef, v: MethodRef) -> float:
        """Direct-call share for the pair, aggregated per the configured formula."""
        return self.pair_affinity(c, v).weight

    # -- set-level attributes ------------------------------------------------

    def set_means(self, methods) -> tuple[float, float, float]:
        """``call_freq``, ``call_dist`` and ``call_weight`` of a method set,
        from one pass over its pairs in ``combinations`` order of the sorted
        distinct members."""
        rows = [self.pair_affinity(c, v)
                for c, v in itertools.combinations(_check_set(methods), 2)]
        return (left_sum((row.lfreq + row.gfreq) / 2.0 for row in rows) / len(rows),
                left_sum(row.distance for row in rows) / len(rows),
                left_sum(row.weight for row in rows) / len(rows))

    def call_freq(self, methods) -> float:
        """Mean of (local + global) / 2 over all unordered pairs."""
        return self.set_means(methods)[0]

    def call_dist(self, methods) -> float:
        """Mean pairwise distance over all unordered pairs."""
        return self.set_means(methods)[1]

    def call_weight(self, methods) -> float:
        """Mean pairwise weight over all unordered pairs."""
        return self.set_means(methods)[2]

    def quality(self, methods, weights: QualityWeights | None = None) -> float:
        """Normalized lambda blend of the three set-level attributes, from one
        ``set_means`` pass."""
        return (weights or QualityWeights()).blend(*self.set_means(methods))


# -- per-tree operations -----------------------------------------------------
# A one-tree corpus has one app of one tree, so each of its totals is one
# term divided by 1 (``0.0 + x == x``, ``x / 1 == x``): its pair scores are
# the tree's own, bit for bit.

def _tree_affinity(c: MethodRef, v: MethodRef, tree: CallTree) -> PairAffinity:
    return CorpusMetrics(TraceCorpus({tree.app_id: [tree]})).pair_affinity(c, v)


def co_occur(c: MethodRef, v: MethodRef, tree: CallTree) -> int:
    """1 iff both methods label at least one node each of the tree."""
    return int(_tree_affinity(c, v, tree).gfreq)


def average_path_length(c: MethodRef, v: MethodRef, tree: CallTree) -> float:
    """Mean tree path length in edges over all occurrence pairs of c and v;
    twice the tree depth, which scores 0, when either is absent."""
    _check_pair(c, v)
    ids = {name: i for i, name in enumerate(sorted({e[1] for e in tree.events} - {None}))}
    parent, depth, occurrences, _, _ = _index(tree, ids)
    if c not in ids or v not in ids:
        return 2.0 * max(depth)
    (_, _, total, pairs), = _pair_distance_totals(
        parent, depth, {ids[c]: occurrences[ids[c]], ids[v]: occurrences[ids[v]]})
    return total / pairs


def pair_distance(c: MethodRef, v: MethodRef, tree: CallTree) -> float:
    """1 - mean path length / (2 * tree depth) in one tree, in [0, 1]; 0 when
    either method is absent."""
    return _tree_affinity(c, v, tree).distance


def pair_weight(c: MethodRef, v: MethodRef, tree: CallTree) -> float:
    """Share of the tree's invocation edges directly linking c and v."""
    return _tree_affinity(c, v, tree).weight


# -- corpus-level convenience wrappers ---------------------------------------

def local_freq(c: MethodRef, v: MethodRef, corpus: TraceCorpus) -> float:
    return CorpusMetrics(corpus).local_freq(c, v)


def global_freq(c: MethodRef, v: MethodRef, corpus: TraceCorpus) -> float:
    return CorpusMetrics(corpus).global_freq(c, v)


def distance(c: MethodRef, v: MethodRef, corpus: TraceCorpus,
             config: MetricConfig | None = None) -> float:
    return CorpusMetrics(corpus, config).distance(c, v)


def weight(c: MethodRef, v: MethodRef, corpus: TraceCorpus,
           config: MetricConfig | None = None) -> float:
    return CorpusMetrics(corpus, config).weight(c, v)


def call_freq(methods, corpus: TraceCorpus) -> float:
    return CorpusMetrics(corpus).call_freq(methods)


def call_dist(methods, corpus: TraceCorpus,
              config: MetricConfig | None = None) -> float:
    return CorpusMetrics(corpus, config).call_dist(methods)


def call_weight(methods, corpus: TraceCorpus,
                config: MetricConfig | None = None) -> float:
    return CorpusMetrics(corpus, config).call_weight(methods)


def quality(methods, corpus: TraceCorpus, weights: QualityWeights | None = None,
            config: MetricConfig | None = None) -> float:
    return CorpusMetrics(corpus, config).quality(methods, weights)
