"""Call-tree trace model: data types, parsing, classification, statistics.

Trace files are UTF-8 text with one call event per line:

    <depth><TAB><class_name>.<method_name>[<TAB>API|APP]

Depths form a pre-order depth-first walk: the first event is the root at
depth 0 and every other event is at most one level deeper than the event
before it. The last ``.``-separated segment of the qualified name is the
method name; everything before it is the class name. The optional third
column pins a node's origin regardless of any classifier. Lines starting
with ``#`` and blank lines are ignored.

A corpus directory holds one subdirectory per application (the directory
name is the application id); every ``*.trace`` file inside is one recorded
usage scenario (the file stem is the scenario id).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

# Root marker used when serializing trees whose original root was removed
# by pruning. Recognized by the parser only at depth 0; it cannot collide
# with a real method because it contains no ".".
CONNECTOR_TOKEN = "<connector>"


class TraceParseError(Exception):
    """Malformed trace or classifier input."""

    def __init__(self, message: str, *, path: str | None = None,
                 line_no: int | None = None) -> None:
        self.path = path
        self.line_no = line_no
        where = ""
        if path is not None:
            where = str(path)
        if line_no is not None:
            where = f"{where}:{line_no}" if where else f"line {line_no}"
        super().__init__(f"{where}: {message}" if where else message)


class Origin(enum.Enum):
    """Whether a call event belongs to the client application or the API."""

    APPLICATION = "APP"
    API = "API"


class MethodRef(namedtuple("MethodRef", "class_name method_name")):
    """Fully qualified method identity: the qualified name split at its last
    ``.``. A named tuple, so hashing, equality and ordering are the tuple's,
    class first."""

    __slots__ = ()

    def __new__(cls, class_name: str, method_name: str) -> "MethodRef":
        if not class_name or not method_name:
            raise ValueError("class_name and method_name must be non-empty")
        return tuple.__new__(cls, (class_name, method_name))

    @property
    def qualified(self) -> str:
        return f"{self[0]}.{self[1]}"

    @classmethod
    def from_qualified(cls, text: str) -> "MethodRef":
        class_part, sep, method = text.rpartition(".")
        if not sep or not class_part or not method:
            raise ValueError(f"not a qualified method name: {text!r}")
        return cls(class_part, method)

    def __str__(self) -> str:
        return self.qualified


class Record:
    """Base of the mutable record classes: field-wise ``==`` and a ``repr``
    over ``_fields``, which a subclass sets to its ``__slots__``, and no
    hash, since the fields can change."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class CallNode(Record):
    """One call event. ``method is None`` marks the synthetic connector root.

    ``pinned`` carries a per-line API/APP override from the trace file;
    classification never changes a pinned node.

    Two nodes compare equal when their subtrees give the same pre-order
    ``(depth, method, origin, pinned)`` events; ``copy`` (shallow or deep)
    and ``pickle`` rebuild the whole subtree from those events, so none of
    the three recurses, at any depth. ``repr`` shows the node's own fields
    and its child count, not its children.
    """

    __slots__ = _fields = ("method", "origin", "children", "pinned")

    def __init__(self, method: MethodRef | None, origin: Origin = Origin.APPLICATION,
                 children: list[CallNode] | None = None,
                 pinned: Origin | None = None) -> None:
        self.method = method
        self.origin = origin
        self.children = [] if children is None else children
        self.pinned = pinned

    @property
    def is_connector(self) -> bool:
        return self.method is None

    def _values(self) -> list[tuple[int, MethodRef | None, Origin, Origin | None]]:
        return [(depth, node.method, node.origin, node.pinned)
                for depth, node in _walk(self)]

    def __reduce__(self):
        return _build, (self._values(),)

    def __repr__(self) -> str:
        return (f"CallNode(method={self.method!r}, origin={self.origin!r}, "
                f"pinned={self.pinned!r}, len(children)={len(self.children)})")


def _walk(root: CallNode) -> Iterator[tuple[int, CallNode]]:
    """``(depth, node)`` of every node of the subtree at ``root``, in
    pre-order, with ``root`` at depth 0; an explicit stack, because traces
    can be far deeper than the recursion limit."""
    stack = [(0, root)]
    while stack:
        depth, node = item = stack.pop()
        yield item
        for child in reversed(node.children):
            stack.append((depth + 1, child))


def _parents(events) -> list[int]:
    """Each pre-order ``(depth, ...)`` event's parent index: the last event
    before it one level up, or -1 for the root; the one reading of the tree
    structure that the events hold."""
    parents: list[int] = []
    # chain[d + 1]: the index of the last event at depth d. Entries below
    # the current event's child level are stale; as a depth rises one level
    # at a time, each is overwritten before it is read again.
    chain = [-1] * (len(events) + 1)
    for index, event in enumerate(events):
        depth = event[0]
        parents.append(chain[depth])
        chain[depth + 1] = index
    return parents


def _calls(tree: CallTree) -> list[tuple[MethodRef, MethodRef]]:
    """The ``(caller, callee)`` methods of each call in ``tree``, by caller
    in pre-order, then in child order; the one call rule. A call is a
    parent-child edge whose parent is a method: a connector root's edges
    are not calls, and a call to self is one."""
    # Sorted (parent, child) index pairs are in that order; the root's
    # (-1, 0) comes first and goes.
    events = tree.events
    return [(events[parent][1], events[child][1])
            for parent, child in sorted(zip(_parents(events), range(len(events))))[1:]
            if events[parent][1] is not None]


def _build(events: list) -> CallNode:
    """The root of the tree whose pre-order ``(depth, method, origin,
    pinned)`` events these are: the first at depth 0, each other one at
    depth 1 to one more than the event before it, as ``_parse`` checks."""
    nodes = [CallNode(method, origin, [], pinned) for _, method, origin, pinned in events]
    for node, parent in zip(nodes[1:], _parents(events)[1:]):
        nodes[parent].children.append(node)
    return nodes[0]


class CallTree(Record):
    """Rooted ordered tree of call events for one usage scenario.

    A tree holds one form at a time. One from ``parse_trace_file``,
    ``load_corpus``, ``classify`` or ``prune`` holds its pre-order ``(depth,
    method, origin, pinned)`` events until ``root`` is first read or set;
    that read builds the ``CallNode``s once and drops the events. ``events``
    gives whichever form the tree holds as events, so it sees a change made
    through ``root``. Two trees compare by ids and ``events``, so ``==``
    builds no node; ``repr`` shows ``root``.
    """

    __slots__ = ("app_id", "scenario_id", "_root", "_events")
    _fields = ("app_id", "scenario_id", "root")

    def __init__(self, app_id: str, scenario_id: str, root: CallNode) -> None:
        self.app_id = app_id
        self.scenario_id = scenario_id
        self.root = root

    def _values(self) -> tuple:
        return self.app_id, self.scenario_id, self.events

    @classmethod
    def _of_events(cls, app_id: str, scenario_id: str, events: list) -> "CallTree":
        tree = cls(app_id, scenario_id, None)
        tree._events = events
        return tree

    @property
    def root(self) -> CallNode:
        """The root ``CallNode``; the first read builds the nodes from the
        held events and drops them."""
        if self._root is None:
            self._root, self._events = _build(self._events), None
        return self._root

    @root.setter
    def root(self, root: CallNode) -> None:
        self._root, self._events = root, None

    @property
    def events(self) -> list[tuple[int, MethodRef | None, Origin, Origin | None]]:
        """The tree's pre-order ``(depth, method, origin, pinned)`` events,
        the root first at depth 0. The list can be the one the tree holds:
        change the tree through ``root``, never through this list."""
        return self._root._values() if self._events is None else self._events

    def nodes(self) -> Iterator[CallNode]:
        """All nodes in pre-order, including a connector root if present."""
        for _, node in _walk(self.root):
            yield node

    def method_nodes(self) -> Iterator[CallNode]:
        """Pre-order nodes that carry a method (connector excluded)."""
        return (node for node in self.nodes() if node.method is not None)

    def node_count(self) -> int:
        return sum(1 for event in self.events if event[1] is not None)

    def edge_count(self) -> int:
        """Method-to-method invocation edges, the calls of ``_calls``;
        connector edges do not count."""
        return len(_calls(self))

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path (connector root included)."""
        return max(event[0] for event in self.events)


class PrunedTree(CallTree):
    """A call tree whose application frames have been removed (see pruner)."""

    __slots__ = ()


class TraceCorpus(Record):
    """All call trees of all applications; the universe the metrics average over."""

    __slots__ = _fields = ("trees",)

    def __init__(self, trees: dict[str, list[CallTree]]) -> None:
        self.trees = trees
        for app_id, app_trees in trees.items():
            for tree in app_trees:
                if tree.app_id != app_id:
                    raise ValueError(
                        f"tree app_id {tree.app_id!r} filed under {app_id!r}")

    @property
    def apps(self) -> list[str]:
        return list(self.trees)

    def all_trees(self) -> Iterator[CallTree]:
        for app_trees in self.trees.values():
            yield from app_trees

    def tree_count(self) -> int:
        return sum(len(ts) for ts in self.trees.values())

    def is_empty(self) -> bool:
        return not self.trees


class ApiClassifier(NamedTuple):
    """Prefix list deciding which classes belong to the API under study.

    A method is API iff its class name starts with any listed prefix
    (plain text prefix comparison). An empty prefix matches everything, an
    empty tuple nothing; the prefixes must be a tuple, as ``str.startswith``
    takes them.
    """

    api_prefixes: tuple[str, ...]

    def is_api(self, class_name: str) -> bool:
        return class_name.startswith(self.api_prefixes)

    @classmethod
    def match_all(cls) -> "ApiClassifier":
        return cls(("",))

    @classmethod
    def load(cls, path: str | Path) -> "ApiClassifier":
        return cls(tuple(read_lines(path, str.strip)))


class _Verdicts(dict):
    """Class name to the ``Origin`` a classifier gives it: a miss runs
    ``is_api`` once and keeps the verdict, a hit is a plain dict read."""

    def __init__(self, classifier: ApiClassifier) -> None:
        self.is_api = classifier.is_api

    def __missing__(self, class_name: str) -> Origin:
        api = self.is_api(class_name)
        origin = self[class_name] = Origin.API if api else Origin.APPLICATION
        return origin


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file, less one leading byte order mark; one that
    is not UTF-8 raises ``ValueError`` naming it, with the byte offset
    counted from the start of the file."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                         ) from None


def content_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 text file that are neither blank nor
    ``#`` comments, as ``(line_no, raw)`` with ``raw`` unstripped; a file
    that is not UTF-8 raises ``ValueError`` naming it. The content-line rule
    of every input file; ``_parse`` applies it to traces inline."""
    for line_no, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, raw


def read_lines(path: str | Path, parse: Callable[[str], object]) -> list:
    """``parse(raw)`` of each content line of ``path`` (see
    ``content_lines``), in file order. A ``ValueError`` from ``parse`` is
    raised again as ``<path>:<line>: <message>``; one from reading the file
    names the file alone."""
    parsed = []
    for line_no, raw in content_lines(path):
        try:
            parsed.append(parse(raw))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return parsed


def parse_method(name: str) -> MethodRef:
    """``MethodRef.from_qualified`` of ``name`` stripped, as a line reader
    finds it between its separators."""
    return MethodRef.from_qualified(name.strip())


class TraceStats(NamedTuple):
    """Per-tree summary: size, distinct API methods, height, repetitions."""

    nodes: int
    unique_api_methods: int
    height: int
    min_repetition: int
    max_repetition: int
    avg_repetition: float


def parse_trace_file(text: str, app_id: str, scenario_id: str, *,
                     path: str | None = None) -> CallTree:
    """Parse one trace file into a call tree.

    A connector root is API, and nodes without an explicit API/APP column
    are APPLICATION until ``classify`` is applied.

    Raises:
        TraceParseError: empty input, bad depth sequence, unparsable names.
    """
    return CallTree._of_events(app_id, scenario_id,
                               list(_parse(text, path, {}, _Verdicts(ApiClassifier(())))))


def _parse(text: str, path: str | None, methods: dict[str, MethodRef],
           verdicts: _Verdicts) -> Iterator[tuple[int, MethodRef | None, Origin, Origin | None]]:
    """The ``(depth, method, origin, pinned)`` event of each line of a trace
    file, checked as it is read and classified by the rule of ``classify``
    over ``verdicts``. Callers that share ``methods`` (qualified name to
    ``MethodRef``) and ``verdicts`` share one ``MethodRef`` per name and one
    verdict per class name."""
    last = -1  # the depth of the previous event
    line_no = 0

    def fail(message: str) -> TraceParseError:
        return TraceParseError(message, path=path, line_no=line_no)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("\t")
        token = parts[0].strip()
        # ASCII digits only: int() would also take "1_0", "+1" and "٠". A
        # line whose depth is digits is neither blank nor a comment.
        digits = token.isascii() and token.isdigit()
        if not digits:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
        if len(parts) < 2:
            raise fail("expected <depth><TAB><class.method>")
        if not digits:
            raise fail(f"invalid depth {token!r}")
        depth = int(token)

        name = parts[1].strip()
        pinned: Origin | None = None
        if len(parts) >= 3:
            token = parts[2].strip()
            if token not in ("", "API", "APP"):
                raise fail(f"unknown origin override {token!r}")
            pinned = Origin(token) if token else None
            if len(parts) > 3 and any(p.strip() for p in parts[3:]):
                raise fail("unexpected trailing fields")

        # The origin rule of ``classify``: a connector root is API and
        # unpinned, a pinned origin wins, else the class's verdict
        # (``Origin`` members are true).
        if name == CONNECTOR_TOKEN:
            if depth != 0 or last >= 0:
                raise fail("connector marker is only valid as the root event")
            method, origin, pinned = None, Origin.API, None
        else:
            method = methods.get(name)
            if method is None:
                try:
                    method = methods[name] = MethodRef.from_qualified(name)
                except ValueError as exc:
                    raise fail(str(exc)) from None
            origin = pinned or verdicts[method[0]]

        if last < 0:
            if depth != 0:
                raise fail(f"first event must have depth 0, got {depth}")
        elif depth == 0:
            raise fail("second depth-0 event; a scenario has a single root")
        elif depth > last + 1:
            raise fail(f"depth jump to {depth} with no open parent at depth {depth - 1}")
        last = depth
        yield depth, method, origin, pinned

    if last < 0:
        raise TraceParseError("no call events in trace", path=path)


def serialize_tree(tree: CallTree) -> str:
    """Render a call tree back to the trace file format (pre-order)."""
    lines: list[str] = []
    for depth, method, _, pinned in tree.events:
        if method is None:
            lines.append(f"{depth}\t{CONNECTOR_TOKEN}")
        elif pinned is not None:
            lines.append(f"{depth}\t{method.qualified}\t{pinned.value}")
        else:
            lines.append(f"{depth}\t{method.qualified}")
    return "\n".join(lines) + "\n"


def classify(tree: CallTree, classifier: ApiClassifier) -> CallTree:
    """Return a copy with every node's origin recomputed from the classifier.

    The rule: a connector root is API, a pinned node keeps its pinned
    origin, and any other node takes its class's verdict, matched once per
    class name per tree. ``load_corpus`` applies the same rule, through the
    same verdict cache, while parsing. The copy holds the tree's pre-order
    events with only their origins replaced, so its shape is the input's,
    and the operation is idempotent.
    """
    verdicts = _Verdicts(classifier)
    return type(tree)._of_events(tree.app_id, tree.scenario_id, [
        (depth, method, Origin.API if method is None else pinned or verdicts[method[0]], pinned)
        for depth, method, _, pinned in tree.events])


def tree_stats(tree: CallTree) -> TraceStats:
    """Summarize a classified tree, in one pass over its events.

    ``nodes`` counts method nodes only. ``height`` is the longest chain of
    method invocations, so a synthetic connector root does not add a level.
    Repetition counts cover distinct API-origin methods; a tree without API
    nodes reports zero repetitions.
    """
    events = tree.events
    repetitions: dict[MethodRef, int] = {}
    nodes, height, api = 0, 0, Origin.API
    for depth, method, origin, _ in events:
        if depth > height:
            height = depth
        if method is not None:
            nodes += 1
            if origin is api:
                repetitions[method] = repetitions.get(method, 0) + 1
    if events[0][1] is None and height > 0:
        height -= 1
    if not repetitions:
        return TraceStats(nodes, 0, height, 0, 0, 0.0)
    counts = repetitions.values()
    return TraceStats(
        nodes=nodes,
        unique_api_methods=len(repetitions),
        height=height,
        min_repetition=min(counts),
        max_repetition=max(counts),
        avg_repetition=sum(counts) / len(repetitions),
    )


# _mapper: passed, and ignored, only by perfbench/traced.py; ROADMAP item 2 removes it.
def load_corpus(corpus_dir: str | Path, classifier: ApiClassifier | None = None,
                _mapper=None) -> TraceCorpus:
    """Load a corpus directory; one subdirectory per app, ``*.trace`` scenarios.

    Each node is classified as it is parsed (see ``classify``); without a
    classifier only connector roots and pinned nodes are API. Apps and
    scenarios are read in sorted directory order; an app directory without
    trace files is left out. All trees share one ``MethodRef`` per name.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {corpus_dir}")

    trees: dict[str, list[CallTree]] = {}
    methods: dict[str, MethodRef] = {}
    verdicts = _Verdicts(classifier or ApiClassifier(()))
    for app_dir in sorted(p for p in corpus_dir.iterdir() if p.is_dir()):
        for trace_path in sorted(app_dir.glob("*.trace")):
            try:
                text = read_utf8(trace_path)
            except ValueError as exc:
                raise TraceParseError(str(exc).removeprefix(f"{trace_path}: "),
                                      path=str(trace_path)) from None
            events = list(_parse(text, str(trace_path), methods, verdicts))
            trees.setdefault(app_dir.name, []).append(
                CallTree._of_events(app_dir.name, trace_path.stem, events))
    return TraceCorpus(trees)


def write_corpus(corpus: TraceCorpus, out_dir: str | Path) -> None:
    """Write a corpus as a directory tree in the trace file format."""
    out_dir = Path(out_dir)
    for app_id, app_trees in corpus.trees.items():
        app_dir = out_dir / app_id
        app_dir.mkdir(parents=True, exist_ok=True)
        for tree in app_trees:
            (app_dir / f"{tree.scenario_id}.trace").write_text(
                serialize_tree(tree), encoding="utf-8")
