"""Generate trace corpora with planted component structure.

Every generated scenario tree is rooted at an application frame and filled
with the methods of one "home" component (all of them, so the component's
methods form a clique in the resulting graph), plus optional cross
component calls and noise methods. Generation is driven entirely by a
splitmix64 stream, so a seed pins the corpus byte for byte.

Class naming: component ``i`` owns classes ``plant<i>.C<j>`` (three methods
per class), noise methods live under ``noise.Helpers`` and scenario roots
under ``client.App<a>``; the matching classifier prefixes are ``plant`` and
``noise``.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

from .rng import SplitMix64
from .trace_model import (ApiClassifier, CallNode, CallTree, MethodRef, TraceCorpus,
                          classify, parse_method, read_lines, write_corpus)

API_PREFIXES = ("plant", "noise")


class PlantSpec(namedtuple("PlantSpec", "component_count methods_per_component "
                           "inter_call_prob trees_per_app app_count tree_depth "
                           "noise_prob seed",
                           defaults=(2, (4, 6), 0.0, 4, 2, (2, 4), 0.0, 0))):
    """Shape of a synthetic corpus; the same spec always yields the same corpus."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "PlantSpec":
        self = super().__new__(cls, *args, **kwargs)
        if self.component_count < 1 or self.trees_per_app < 1 or self.app_count < 1:
            raise ValueError("component, tree and app counts must be >= 1")
        lo, hi = self.methods_per_component
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid methods_per_component range ({lo}, {hi})")
        lo, hi = self.tree_depth
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid tree_depth range ({lo}, {hi}); "
                             "depth 1 is the minimum for a planted call")
        for name in ("inter_call_prob", "noise_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        return self


def _component_methods(spec: PlantSpec, rng: SplitMix64) -> list[list[MethodRef]]:
    pools = []
    for i in range(spec.component_count):
        count = rng.randint(*spec.methods_per_component)
        pools.append([
            MethodRef(f"plant{i}.C{k // 3}", f"m{k}") for k in range(count)])
    return pools


def generate(spec: PlantSpec) -> tuple[TraceCorpus, list[frozenset[MethodRef]]]:
    """Build the corpus and its planted ground truth.

    Returns the classified corpus and one method set per planted component.
    Home components rotate round-robin over the generated trees, so every
    component is exercised; each tree contains every method of its home
    component at least once.
    """
    rng = SplitMix64(spec.seed)
    pools = _component_methods(spec, rng)
    noise_pool = [MethodRef("noise.Helpers", f"h{j}")
                  for j in range(3 * spec.component_count)]
    classifier = ApiClassifier(API_PREFIXES)

    trees: dict[str, list[CallTree]] = {}
    tree_counter = 0
    for a in range(spec.app_count):
        app_id = f"app{a}"
        app_trees = []
        for t in range(spec.trees_per_app):
            home = tree_counter % spec.component_count
            tree_counter += 1
            app_trees.append(_build_tree(spec, rng, app_id, f"scenario{t}",
                                         pools, home, noise_pool))
        trees[app_id] = app_trees

    corpus = TraceCorpus({app: [classify(t, classifier) for t in ts]
                          for app, ts in trees.items()})
    return corpus, [frozenset(pool) for pool in pools]


def _build_tree(spec: PlantSpec, rng: SplitMix64, app_id: str, scenario_id: str,
                pools: list[list[MethodRef]], home: int,
                noise_pool: list[MethodRef]) -> CallTree:
    depth = rng.randint(*spec.tree_depth)
    methods = list(pools[home])
    rng.shuffle(methods)

    root = CallNode(MethodRef("client.Main", f"{app_id}_{scenario_id}"))
    # Spine guarantees the target depth; methods repeat if there are too few.
    spine = [methods[i % len(methods)] for i in range(depth)]
    nodes = [(root, 0)]
    parent = root
    for level, method in enumerate(spine, start=1):
        node = CallNode(method)
        parent.children.append(node)
        nodes.append((node, level))
        parent = node
    for method in methods[depth:]:
        host, host_depth = rng.choice([n for n in nodes if n[1] <= depth - 1])
        node = CallNode(method)
        host.children.append(node)
        nodes.append((node, host_depth + 1))

    attachable = [n for n in nodes if n[1] <= depth - 1 and n[0] is not root]
    for host, host_depth in list(attachable):
        if spec.component_count > 1 and rng.random() < spec.inter_call_prob:
            other = rng.below(spec.component_count - 1)
            if other >= home:
                other += 1
            host.children.append(CallNode(rng.choice(pools[other])))
        if rng.random() < spec.noise_prob:
            host.children.append(CallNode(rng.choice(noise_pool)))
    return CallTree(app_id, scenario_id, root)


def write_generated(spec: PlantSpec, out_dir: str | Path) -> tuple[TraceCorpus, list[frozenset[MethodRef]]]:
    """Generate and write a corpus directory plus ground truth and classifier.

    Layout: ``<out>/appN/scenarioM.trace``, ``<out>/ground_truth.txt`` (one
    planted component per line, comma-separated sorted methods) and
    ``<out>/classifier.txt``.
    """
    out_dir = Path(out_dir)
    corpus, truth = generate(spec)
    write_corpus(corpus, out_dir)
    lines = sorted(",".join(sorted(m.qualified for m in comp)) for comp in truth)
    (out_dir / "ground_truth.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "classifier.txt").write_text(
        "\n".join(API_PREFIXES) + "\n", encoding="utf-8")
    return corpus, truth


def load_ground_truth(path: str | Path) -> list[frozenset[MethodRef]]:
    """One method set per content line, comma-separated, each name stripped;
    a name that is not qualified raises ``ValueError`` naming ``path:line``."""
    return read_lines(path, lambda raw: frozenset(map(parse_method, raw.split(","))))
