"""Turn method clusters into components and score them against labels.

A component's provided interface is a cluster's method set; its
implementation classes are the owners of those methods; its required
interface is every outside method directly invoked by a provided method
somewhere in the pruned corpus, each with one witness: its first call from
any provided method, in corpus order, by caller in pre-order within a tree,
then in child order. What a call is, and that order, is
``trace_model._calls``; which components provide a method is
``_provider_ids``, shared by ``assemble`` and the report. Precision of a
component is the share of provided methods related (per externally
supplied labels) to at least one other provided method.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path
from typing import Iterable, NamedTuple

from .clusterer import Cluster
from .trace_model import MethodRef, TraceCorpus, _calls, parse_method, read_lines


class CallWitness(NamedTuple):
    """One concrete invocation backing a required-interface entry."""

    app_id: str
    scenario_id: str
    caller: MethodRef


class Component(namedtuple("Component", "center provided_interface implementation_classes "
                                        "required_interface required_witnesses")):
    """A cluster as a component; ``required_witnesses`` maps each required
    method to the first call of it from a provided method, for
    auditability. It is stored as a fresh dict sorted by method, the order
    the report lists it in. Its keys must be ``required_interface``, so a
    component with required methods is built with their witnesses."""

    __slots__ = ()

    def __new__(cls, center: MethodRef, provided_interface: frozenset[MethodRef],
                implementation_classes: frozenset[str],
                required_interface: frozenset[MethodRef],
                required_witnesses: dict[MethodRef, CallWitness] | None = None
                ) -> "Component":
        witnesses = dict(sorted((required_witnesses or {}).items()))
        if witnesses.keys() != required_interface:
            raise ValueError("required_witnesses must hold one witness per "
                             "required_interface method, and no other")
        return tuple.__new__(cls, (center, provided_interface, implementation_classes,
                                   required_interface, witnesses))


class ComponentStats(NamedTuple):
    count: int
    avg_interface_methods: float
    avg_component_classes: float


class RelatednessLabels(NamedTuple):
    """Symmetric 'functionally related' judgments; absent pairs are unrelated."""

    pairs: frozenset[frozenset[MethodRef]]

    def related(self, a: MethodRef, b: MethodRef) -> bool:
        return a != b and frozenset((a, b)) in self.pairs

    @classmethod
    def from_pairs(cls, pairs) -> "RelatednessLabels":
        collected = set()
        for a, b in pairs:
            if a != b:
                collected.add(frozenset((a, b)))
        return cls(frozenset(collected))

    @classmethod
    def load(cls, path: str | Path) -> "RelatednessLabels":
        """Read one related pair per line: ``a.b<TAB>c.d``; ``#`` comments."""
        def pair(raw: str) -> tuple[MethodRef, MethodRef]:
            parts = raw.split("\t")
            if len(parts) != 2:
                raise ValueError("expected two tab-separated methods")
            return parse_method(parts[0]), parse_method(parts[1])

        return cls.from_pairs(read_lines(path, pair))


def _first_calls(corpus: TraceCorpus) -> dict[tuple[MethodRef, MethodRef], CallWitness]:
    """Each distinct call, ``(caller, callee)``, and its first witness, in
    the order first seen: trees in corpus order, each in the order of
    ``trace_model._calls``, which decides what a call is."""
    first: dict[tuple[MethodRef, MethodRef], CallWitness] = {}
    for app_id, trees in corpus.trees.items():
        for tree in trees:
            for call in _calls(tree):
                if call not in first:
                    first[call] = CallWitness(app_id, tree.scenario_id, call[0])
    return first


def _provider_ids(interfaces: Iterable[Iterable[MethodRef]]) -> dict[MethodRef, list[int]]:
    """Each method to the ascending positions of the ``interfaces`` that
    hold it: who provides what, for ``assemble`` and the report alike."""
    ids: dict[MethodRef, list[int]] = {}
    for i, interface in enumerate(interfaces):
        for method in interface:
            ids.setdefault(method, []).append(i)
    return ids


def assemble(clusters: list[Cluster], corpus: TraceCorpus) -> list[Component]:
    """Build one component per cluster, preserving cluster order. A required
    method's witness is its first call from any provided method, in the
    order of ``_first_calls``."""
    provided = [frozenset(c.members) for c in clusters]
    providers = _provider_ids(provided)
    witnesses: list[dict[MethodRef, CallWitness]] = [{} for _ in clusters]
    for (caller, callee), witness in _first_calls(corpus).items():
        for i in providers.get(caller, ()):
            if callee not in provided[i]:
                witnesses[i].setdefault(callee, witness)
    return [Component(center=c.center, provided_interface=members,
                      implementation_classes=frozenset(m.class_name for m in members),
                      required_interface=frozenset(found),
                      required_witnesses=found)
            for c, members, found in zip(clusters, provided, witnesses)]


def component_stats(components: list[Component]) -> ComponentStats:
    if not components:
        return ComponentStats(0, 0.0, 0.0)
    n = len(components)
    return ComponentStats(
        count=n,
        avg_interface_methods=sum(len(c.provided_interface) for c in components) / n,
        avg_component_classes=sum(len(c.implementation_classes) for c in components) / n,
    )


def precision(provided: Iterable[MethodRef] | Component,
              labels: RelatednessLabels) -> float:
    """Share of the provided methods related to another of them; raises on
    an empty set. A component stands for its provided interface."""
    if isinstance(provided, Component):
        provided = provided.provided_interface
    provided = sorted(set(provided))
    if not provided:
        raise ValueError("cannot score a component with an empty interface")
    related = sum(
        1 for m in provided
        if any(labels.related(m, other) for other in provided if other != m))
    return related / len(provided)
