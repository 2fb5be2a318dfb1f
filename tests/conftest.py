"""Shared fixtures: hand-encoded example trees and corpus builders, and a
fresh interpreter to run ``apicomp`` in."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from apicomp.trace_model import (ApiClassifier, CallNode, CallTree, MethodRef,
                                 TraceCorpus, classify, parse_trace_file)


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(*args, cwd=None, **env) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports ``apicomp`` from
    this tree, with ``env`` set on top of the environment: nothing in it is
    loaded beforehand."""
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env),
                          capture_output=True, text=True, timeout=60)


def m(qualified: str) -> MethodRef:
    return MethodRef.from_qualified(qualified)


def build_node(spec) -> CallNode:
    """spec: "cls.meth" or ("cls.meth", [child_spec, ...])."""
    if isinstance(spec, str):
        return CallNode(m(spec))
    name, children = spec
    return CallNode(m(name), children=[build_node(c) for c in children])


def build_tree(app_id: str, scenario_id: str, spec,
               classifier: ApiClassifier | None = None) -> CallTree:
    tree = CallTree(app_id, scenario_id, build_node(spec))
    return classify(tree, classifier or ApiClassifier.match_all())


def build_corpus(spec: dict, classifier: ApiClassifier | None = None) -> TraceCorpus:
    """spec: {app_id: [tree_spec, ...]}; scenarios are numbered s0, s1, ..."""
    trees = {
        app_id: [build_tree(app_id, f"s{i}", tree_spec, classifier)
                 for i, tree_spec in enumerate(tree_specs)]
        for app_id, tree_specs in spec.items()
    }
    return TraceCorpus(trees)


# A 21-node scenario tree: application frames client.Main.{A,C,D,E} wrap 13
# API call events over the six methods lib.Core.{B,F,G,H,K,L}. Pruning must
# keep exactly the 13 API nodes.
FIG_TREE_TEXT = """\
0\tclient.Main.A
1\tlib.Core.B
2\tlib.Core.F
2\tlib.Core.G
3\tlib.Core.H
3\tlib.Core.K
1\tclient.Main.C
2\tlib.Core.F
2\tclient.Main.E
3\tlib.Core.F
3\tlib.Core.B
4\tlib.Core.G
5\tlib.Core.H
5\tlib.Core.K
2\tclient.Main.E
3\tlib.Core.B
1\tclient.Main.C
2\tclient.Main.E
1\tclient.Main.D
2\tlib.Core.L
1\tclient.Main.D
"""

API_CLASSIFIER = ApiClassifier(("lib.",))


@pytest.fixture
def example_tree() -> CallTree:
    """The 21-node tree, classified (8 application frames, 13 API calls)."""
    tree = parse_trace_file(FIG_TREE_TEXT, "demo", "s0")
    return classify(tree, API_CLASSIFIER)


# Three single-app scenario trees exercising every worked metric example:
# A and B co-occur in trees 1-2 (A and L only in tree 1); tree 1 puts A one
# step from B and three from E; D-E is 1 direct call of 5 edges in tree 1
# and the only edge of tree 3.
WORKED_TREES = [
    ("lib.Ops.A", [("lib.Ops.B", [("lib.Ops.D", ["lib.Ops.E"])]),
                   "lib.Ops.L",
                   "lib.Ops.C"]),
    ("lib.Ops.A", [("lib.Ops.B", ["lib.Ops.C"])]),
    ("lib.Ops.D", ["lib.Ops.E"]),
]


@pytest.fixture
def worked_corpus() -> TraceCorpus:
    return build_corpus({"app1": WORKED_TREES})


def write_corpus_dir(tmp_path, files: dict[str, dict[str, str]]):
    """files: {app_id: {scenario_id: trace_text}} -> corpus directory."""
    corpus_dir = tmp_path / "corpus"
    for app_id, scenarios in files.items():
        app_dir = corpus_dir / app_id
        app_dir.mkdir(parents=True, exist_ok=True)
        for scenario_id, text in scenarios.items():
            (app_dir / f"{scenario_id}.trace").write_text(text, encoding="utf-8")
    return corpus_dir


def random_tree_spec(rng: random.Random, methods: list[str], max_nodes: int = 12):
    """Random nested tree spec over the given method pool."""
    count = rng.randint(1, max_nodes)
    children: dict[int, list[int]] = {i: [] for i in range(count)}
    for i in range(1, count):
        children[rng.randrange(i)].append(i)
    labels = [rng.choice(methods) for _ in range(count)]

    def to_spec(i: int):
        if not children[i]:
            return labels[i]
        return (labels[i], [to_spec(c) for c in children[i]])

    return to_spec(0)


def random_corpus(seed: int, methods: list[str] | None = None,
                  max_trees: int = 5, max_nodes: int = 12) -> TraceCorpus:
    """Small random corpus (at most max_trees trees in total, spread over
    1-3 applications); used for oracle-equivalence sweeps."""
    rng = random.Random(seed)
    pool = methods or [f"lib.R.m{i}" for i in range(6)]
    total = rng.randint(1, max_trees)
    apps = rng.randint(1, min(3, total))
    per_app = [1] * apps
    for _ in range(total - apps):
        per_app[rng.randrange(apps)] += 1
    spec = {
        f"app{a}": [random_tree_spec(rng, pool, max_nodes)
                    for _ in range(per_app[a])]
        for a in range(apps)
    }
    return build_corpus(spec)
