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
lambda weights. All results lie in [0, 1].

``CorpusMetrics`` scores every co-occurring pair once, at construction, and
is the implementation behind the module-level convenience functions; prefer
it when evaluating many pairs over the same corpus.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass

from .rng import SplitMix64, derive_seed
from .trace_model import CallNode, CallTree, MethodRef, TraceCorpus

WEIGHT_FORMULAS = ("example", "literal")


@dataclass(frozen=True)
class QualityWeights:
    """Lambda weights blending frequency, distance and weight into quality."""

    lambda_freq: float = 1.0
    lambda_dist: float = 1.0
    lambda_weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("lambda_freq", "lambda_dist", "lambda_weight"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.total() <= 0.0:
            raise ValueError("at least one lambda must be positive")

    def total(self) -> float:
        return self.lambda_freq + self.lambda_dist + self.lambda_weight


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation switches.

    weight_formula:
        "example" (default) averages a pair's per-tree weight over the trees
        where the pair co-occurs; "literal" sums it over all trees and
        divides by the number of applications, which can exceed 1.
    distance_pair_cap:
        Upper bound on occurrence pairs enumerated per (pair, tree) when
        averaging path lengths; beyond it a deterministic uniform subsample
        of exactly this size is used.
    """

    weight_formula: str = "example"
    distance_pair_cap: int = 10_000

    def __post_init__(self) -> None:
        if self.weight_formula not in WEIGHT_FORMULAS:
            raise ValueError(f"weight_formula must be one of {WEIGHT_FORMULAS}")
        if self.distance_pair_cap < 1:
            raise ValueError("distance_pair_cap must be >= 1")


@dataclass(frozen=True)
class PairAffinity:
    """The four pairwise scores for one method pair."""

    lfreq: float
    gfreq: float
    distance: float
    weight: float


def _check_pair(c: MethodRef, v: MethodRef) -> None:
    if c == v:
        raise ValueError(f"pair metrics need two distinct methods, got {c} twice")


def _check_set(methods) -> list[MethodRef]:
    unique = sorted(set(methods))
    if len(unique) < 2:
        raise ValueError("set metrics need at least 2 distinct methods")
    return unique


class _TreeIndex:
    """Flat arrays over one tree: parents, depths and method occurrences.

    The connector root, when present, is indexed like any node so paths
    between subtrees step through it, but it is never an occurrence and
    its edges do not count as invocations.
    """

    __slots__ = ("app_id", "scenario_id", "methods", "occurrences", "parent",
                 "depth", "tree_depth", "edge_total", "direct_pairs")

    def __init__(self, tree: CallTree) -> None:
        self.app_id = tree.app_id
        self.scenario_id = tree.scenario_id
        self.parent: list[int] = []
        self.depth: list[int] = []
        self.occurrences: dict[MethodRef, list[int]] = {}
        self.direct_pairs: Counter = Counter()
        self.edge_total = 0

        labels: list[MethodRef | None] = []
        stack: list[tuple[CallNode, int, int]] = [(tree.root, -1, 0)]
        while stack:
            node, parent_idx, d = stack.pop()
            idx = len(labels)
            labels.append(node.method)
            self.parent.append(parent_idx)
            self.depth.append(d)
            if node.method is not None:
                self.occurrences.setdefault(node.method, []).append(idx)
                parent_label = labels[parent_idx] if parent_idx >= 0 else None
                if parent_label is not None:
                    key = (min(parent_label, node.method), max(parent_label, node.method))
                    self.direct_pairs[key] += 1
                    self.edge_total += 1
            for child in reversed(node.children):
                stack.append((child, idx, d + 1))

        self.methods = frozenset(self.occurrences)
        self.tree_depth = max(self.depth) if self.depth else 0

    def co_occur(self, c: MethodRef, v: MethodRef) -> int:
        return int(c in self.methods and v in self.methods)

    def _path_length(self, i: int, j: int) -> int:
        steps = 0
        while self.depth[i] > self.depth[j]:
            i = self.parent[i]
            steps += 1
        while self.depth[j] > self.depth[i]:
            j = self.parent[j]
            steps += 1
        while i != j:
            i = self.parent[i]
            j = self.parent[j]
            steps += 2
        return steps

    def average_path_length(self, c: MethodRef, v: MethodRef, cap: int) -> float:
        """Mean path length (in edges) over occurrence pairs of c and v.

        Falls back to twice the tree depth when either method is absent,
        which drives the distance score to zero.
        """
        if not self.co_occur(c, v):
            return 2.0 * self.tree_depth
        if v < c:
            c, v = v, c
        occ_c = self.occurrences[c]
        occ_v = self.occurrences[v]
        total_pairs = len(occ_c) * len(occ_v)
        if total_pairs <= cap:
            pairs = ((i, j) for i in occ_c for j in occ_v)
            count = total_pairs
        else:
            rng = SplitMix64(derive_seed(self.app_id, self.scenario_id,
                                         c.qualified, v.qualified))
            flat = rng.sample_indices(total_pairs, cap)
            pairs = ((occ_c[k // len(occ_v)], occ_v[k % len(occ_v)]) for k in flat)
            count = cap
        return sum(self._path_length(i, j) for i, j in pairs) / count

    def distance_score(self, c: MethodRef, v: MethodRef, cap: int) -> float:
        """1 - avg path / (2 * depth), clamped to [0, 1]; 0 when absent."""
        if self.tree_depth == 0:
            return 0.0
        if not self.co_occur(c, v):
            return 0.0
        score = 1.0 - self.average_path_length(c, v, cap) / (2.0 * self.tree_depth)
        return min(1.0, max(0.0, score))

    def weight_share(self, c: MethodRef, v: MethodRef) -> float:
        """Direct parent-child calls between c and v over all invocation edges."""
        if self.edge_total == 0:
            return 0.0
        key = (min(c, v), max(c, v))
        return self.direct_pairs.get(key, 0) / self.edge_total


class CorpusMetrics:
    """Affinity evaluator over one pruned corpus.

    Construction is the only walk over the trees: apps in corpus order,
    trees in order, each tree adding its co-occurring pairs to a per-pair
    row. Rows are reduced in the order and form a per-pair scan would use,
    less the exact 0.0 terms of trees without the pair, so the accessors
    are table lookups; a pair that never co-occurs scores 0.0 on all four.
    """

    _ABSENT = PairAffinity(0.0, 0.0, 0.0, 0.0)

    def __init__(self, corpus: TraceCorpus, config: MetricConfig | None = None) -> None:
        if corpus.is_empty():
            raise ValueError("cannot evaluate metrics over an empty corpus")
        self.config = config or MetricConfig()
        cap = self.config.distance_pair_cap
        apps = len(corpus.trees)
        self._methods: set[MethodRef] = set()
        # Per pair: [local total, distance total, apps containing it, trees
        # containing it, their nonzero weight shares in corpus order].
        rows: defaultdict = defaultdict(lambda: [0.0, 0.0, 0, 0, []])
        for trees in corpus.trees.values():
            # Per pair: distance scores in this app's trees.
            in_app: dict[tuple[MethodRef, MethodRef], list[float]] = {}
            for tree in trees:
                ix = _TreeIndex(tree)
                self._methods.update(ix.methods)
                for c, v in itertools.combinations(sorted(ix.methods), 2):
                    in_app.setdefault((c, v), []).append(ix.distance_score(c, v, cap))
                    share = ix.weight_share(c, v)
                    if share:
                        rows[c, v][4].append(share)
            for pair, scores in in_app.items():
                row = rows[pair]
                row[0] += len(scores) / len(trees)
                row[1] += sum(scores) / len(trees)
                row[2] += 1
                row[3] += len(scores)
        literal = self.config.weight_formula == "literal"
        self._table: dict[tuple[MethodRef, MethodRef], PairAffinity] = {
            pair: PairAffinity(local / apps, containing / apps, dist / apps,
                               sum(shares) / (apps if literal else count))
            for pair, (local, dist, containing, count, shares) in rows.items()}

    def methods(self) -> list[MethodRef]:
        """All distinct methods occurring anywhere, in stable sorted order."""
        return sorted(self._methods)

    def co_occurring_pairs(self) -> list[tuple[MethodRef, MethodRef]]:
        """Sorted distinct pairs that share at least one tree."""
        return sorted(self._table)

    # -- pairwise attributes -------------------------------------------------

    def pair_affinity(self, c: MethodRef, v: MethodRef) -> PairAffinity:
        _check_pair(c, v)
        return self._table.get((c, v) if c < v else (v, c), self._ABSENT)

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

    def call_freq(self, methods) -> float:
        """Mean of (local + global) / 2 over all unordered pairs."""
        members = _check_set(methods)
        pairs = list(itertools.combinations(members, 2))
        total = sum((self.local_freq(c, v) + self.global_freq(c, v)) / 2.0
                    for c, v in pairs)
        return total / len(pairs)

    def call_dist(self, methods) -> float:
        """Mean pairwise distance over all unordered pairs."""
        members = _check_set(methods)
        pairs = list(itertools.combinations(members, 2))
        return sum(self.distance(c, v) for c, v in pairs) / len(pairs)

    def call_weight(self, methods) -> float:
        """Mean pairwise weight over all unordered pairs."""
        members = _check_set(methods)
        pairs = list(itertools.combinations(members, 2))
        return sum(self.weight(c, v) for c, v in pairs) / len(pairs)

    def quality(self, methods, weights: QualityWeights | None = None) -> float:
        """Normalized lambda blend of the three set-level attributes."""
        w = weights or QualityWeights()
        blended = (w.lambda_freq * self.call_freq(methods)
                   + w.lambda_dist * self.call_dist(methods)
                   + w.lambda_weight * self.call_weight(methods))
        return blended / w.total()


# -- per-tree operations -----------------------------------------------------

def co_occur(c: MethodRef, v: MethodRef, tree: CallTree) -> int:
    """1 iff both methods label at least one node each of the tree."""
    _check_pair(c, v)
    return _TreeIndex(tree).co_occur(c, v)


def average_path_length(c: MethodRef, v: MethodRef, tree: CallTree,
                        config: MetricConfig | None = None) -> float:
    """Mean tree path length in edges over all occurrence pairs of c and v."""
    _check_pair(c, v)
    cap = (config or MetricConfig()).distance_pair_cap
    return _TreeIndex(tree).average_path_length(c, v, cap)


def pair_distance(c: MethodRef, v: MethodRef, tree: CallTree,
                  config: MetricConfig | None = None) -> float:
    """Depth-normalized closeness of the pair in one tree, in [0, 1]."""
    _check_pair(c, v)
    cap = (config or MetricConfig()).distance_pair_cap
    return _TreeIndex(tree).distance_score(c, v, cap)


def pair_weight(c: MethodRef, v: MethodRef, tree: CallTree) -> float:
    """Share of the tree's invocation edges directly linking c and v."""
    _check_pair(c, v)
    return _TreeIndex(tree).weight_share(c, v)


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
