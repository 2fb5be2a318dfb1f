"""The analysis records: the switches of the metrics, the graph builder
and the clusterer, and the choices they accept.

This module imports nothing from ``apicomp``, so the CLI's parser reads its
defaults and choices here without loading any analysis stage. ``metrics``,
``graph_builder`` and ``clusterer`` import the records back, so their old
paths name the same objects.
"""

from __future__ import annotations

from collections import namedtuple

WEIGHT_FORMULAS = ("example", "literal")


class QualityWeights(namedtuple("QualityWeights", "lambda_freq lambda_dist lambda_weight")):
    """Lambda weights blending frequency, distance and weight into quality."""

    __slots__ = ()

    def __new__(cls, lambda_freq: float = 1.0, lambda_dist: float = 1.0,
                lambda_weight: float = 1.0) -> "QualityWeights":
        self = tuple.__new__(cls, (lambda_freq, lambda_dist, lambda_weight))
        for name, value in zip(cls._fields, self):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.total() <= 0.0:
            raise ValueError("at least one lambda must be positive")
        return self

    def total(self) -> float:
        return self.lambda_freq + self.lambda_dist + self.lambda_weight

    def blend(self, freq: float, dist: float, weight: float) -> float:
        """Quality from the three attribute values, normalized to [0, 1]."""
        return (self.lambda_freq * freq + self.lambda_dist * dist
                + self.lambda_weight * weight) / self.total()


class MetricConfig(namedtuple("MetricConfig", "weight_formula")):
    """Evaluation switches.

    weight_formula:
        "example" (default) averages a pair's per-tree weight over the trees
        where the pair co-occurs; "literal" sums it over all trees and
        divides by the number of applications, which can exceed 1.

    Call distances have no switch: every mean path length is exact, over
    all occurrence pairs.
    """

    __slots__ = ()
    # Read only by perfbench's capped_share; ROADMAP item 2 removes it.
    distance_pair_cap = 10_000

    def __new__(cls, weight_formula: str = "example") -> "MetricConfig":
        if weight_formula not in WEIGHT_FORMULAS:
            raise ValueError(f"weight_formula must be one of {WEIGHT_FORMULAS}")
        return tuple.__new__(cls, (weight_formula,))


class GraphConfig(namedtuple("GraphConfig", "weights edge_threshold metrics")):
    __slots__ = ()

    def __new__(cls, weights: QualityWeights = QualityWeights(),
                edge_threshold: float = 0.0,
                metrics: MetricConfig = MetricConfig()) -> "GraphConfig":
        if not 0.0 <= edge_threshold < 1.0:
            raise ValueError(f"edge_threshold must be in [0, 1), got {edge_threshold}")
        return tuple.__new__(cls, (weights, edge_threshold, metrics))


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
