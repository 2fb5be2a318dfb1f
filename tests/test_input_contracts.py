"""Input contracts under fuzz: every bad input maps to its documented exit
code, and no exception escapes ``cli.main``.

Each example starts from one small valid input set (two traces, a
classifier, method sets, relatedness labels, and the edge list and report
that the valid corpus gives), mutates one input of one of ``run``,
``prune``, ``metrics``, ``graph``, ``cluster`` and ``evaluate``, and runs the
command in process. Byte, token and line edits reach every reader; the
report is also edited as JSON, so a well-formed report of the wrong shape
reaches ``_check_report``, and a corpus may lose trace files, down to none.
The contract, as the code keeps it:

* the exit code is 0, 1, 2 or 3, and no exception escapes;
* 2 comes only from a mutated trace;
* 0 leaves the outputs the command documents;
* 1 writes a line ``apicomp: error:`` naming the mutated file;
* 2 writes a line ``apicomp: parse error:`` naming the mutated trace;
* 3 writes a line starting ``empty corpus:``.

The arguments are always well formed, so no example meets a usage error
(``apicomp <cmd>: error:``, exit 1); ``test_cli.py`` pins those.
"""

import contextlib
import functools
import io
import json
import operator
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIG_TREE_TEXT

from apicomp.cli import main

TRACES = {"app1/s0.trace": FIG_TREE_TEXT,
          "app2/s0.trace": "0\tlib.Core.B\n1\tlib.Core.F\n2\tlib.Core.G\n1\tlib.Core.L\n"}
TEXTS = {**{f"corpus/{name}": text for name, text in TRACES.items()},
         "classifier.txt": "lib.\n",
         "sets.txt": "lib.Core.B,lib.Core.F\nlib.Core.G,lib.Core.H,lib.Core.K\n",
         "labels.txt": "lib.Core.B\tlib.Core.F\nlib.Core.G\tlib.Core.H\n"}
CORPUS = ["--corpus", "corpus", "--classifier", "classifier.txt"]
# Each command's arguments (relative to the input directory), the inputs
# that may be mutated and the outputs that exit 0 leaves; ``prune`` leaves
# a pruned copy of each trace, which ``expected`` adds.
COMMANDS = {
    "run": ([*CORPUS, "--out", "out"], ("corpus", "classifier.txt"),
            ("out/report.json", "out/report.txt")),
    "prune": ([*CORPUS, "--out", "out"], ("corpus", "classifier.txt"), ()),
    "metrics": ([*CORPUS, "--sets", "sets.txt", "--out", "out.csv"],
                ("corpus", "classifier.txt", "sets.txt"), ("out.csv",)),
    "graph": ([*CORPUS, "--out", "out"], ("corpus", "classifier.txt"),
              ("out/graph.tsv", "out/graph.dot")),
    "cluster": (["--graph", "graph.tsv", "--out", "out.txt"], ("graph.tsv",), ("out.txt",)),
    "evaluate": (["--report", "report.json", "--labels", "labels.txt", "--out", "out"],
                 ("report.json", "labels.txt"), ("out/evaluation.json", "out/evaluation.txt")),
}

BYTES = [b"\t", b"\n", b" ", b".", b",", b"#", b"-", b"0", b"1", b"9", b"e", b"x",
         b"\xff", b"\xc3", b"\x00", b"\xef\xbb\xbf", b"\"", b"{", b"]"]
TOKENS = ["", " ", "0", "1", "3", "-1", "99", "+1", "1_0", "\u0663", "0.5", "1.5", "-0.25",
          "nan", "inf", "1e400", "API", "APP", "BOTH", "<connector>", "x", ".", "lib.",
          ".m", "lib.Core.", "lib.Core.B", "lib.Core.B\tlib.Core.B", "client.Main.A", "#",
          "\ufeff", "é.è.ü", "null", "[]", "{}", "\"s\""]
JSON_VALUES = [None, True, 0, -1, 0.5, 1e300, "", "x", "lib.Core.B", "apicomp-report/2",
               [], [None], ["lib.Core.B"], {}, {"id": 0}, {"center": "lib.Core.B"},
               {"id": 0, "center": "lib.Core.B", "provided_interface": ["lib.Core.B", 1]}]


def edit_bytes(rng: random.Random, raw: bytes) -> bytes:
    """``raw`` after one byte edit, one field (between tabs, commas and line
    ends) replaced by one of ``TOKENS``, or one line edit."""
    kind = rng.choice(("byte", "field", "line"))
    if kind == "byte":
        at, op = rng.randrange(len(raw) + 1), rng.choice(("replace", "insert", "delete"))
        if op == "delete":
            return raw[:at] + raw[at + rng.randint(1, 8):]
        return raw[:at] + rng.choice(BYTES) + raw[at + (op == "replace"):]
    if kind == "field":
        parts = re.split(rb"([\t,\n])", raw)  # each field, then its separator
        parts[rng.randrange(0, len(parts), 2)] = rng.choice(TOKENS).encode()
        return b"".join(parts)
    lines = raw.split(b"\n")
    at, other = rng.randrange(len(lines)), rng.randrange(len(lines))
    op = rng.choice(("drop", "copy", "swap"))
    if op == "drop":
        del lines[at]
    elif op == "copy":
        lines.insert(other, lines[at])
    else:
        lines[at], lines[other] = lines[other], lines[at]
    return b"\n".join(lines)


def json_paths(node, path: tuple = ()):
    """The path of ``node`` and of every value inside it, as key tuples."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, (*path, key))


def edit_json(rng: random.Random, raw: bytes) -> bytes:
    """The JSON document ``raw`` with the value at one of its paths replaced
    by one of ``JSON_VALUES``, or deleted."""
    doc = json.loads(raw)
    path, value = rng.choice(list(json_paths(doc))), rng.choice(JSON_VALUES)
    if not path:
        return json.dumps(value).encode()
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if rng.random() < 0.25:
        del parent[last]
    else:
        parent[last] = value
    return json.dumps(doc).encode()


EDITS = {"report.json": (edit_bytes, edit_json)}  # the others take edit_bytes


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, bytes]:
    """The valid inputs by path, with the edge list and the report that the
    valid corpus gives."""
    root = tmp_path_factory.mktemp("valid")
    write(root, {name: text.encode() for name, text in TEXTS.items()})
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["graph", *paths(root, CORPUS), "--out", str(root / "g")]) == 0
        assert main(["run", *paths(root, CORPUS), "--out", str(root / "r")]) == 0
    return {**{name: text.encode() for name, text in TEXTS.items()},
            "graph.tsv": (root / "g" / "graph.tsv").read_bytes(),
            "report.json": (root / "r" / "report.json").read_bytes()}


def write(root: Path, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)


def paths(root: Path, args: list[str]) -> list[str]:
    """``args`` with each value that is not an option made a path under
    ``root``."""
    return [arg if arg.startswith("--") else str(root / arg) for arg in args]


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_every_mutated_input_maps_to_its_exit_code(valid, command, seed):
    rng = random.Random(seed)  # uniform edits, where hypothesis favours simple draws
    args, targets, outputs = COMMANDS[command]
    target = rng.choice(targets)
    files = dict(valid)
    traces = [f"corpus/{name}" for name in TRACES]
    if target == "corpus" and rng.random() < 0.125:
        for name in traces[rng.randrange(2):]:  # every trace or the last
            del files[name]
    else:
        if target == "corpus":
            target = rng.choice(traces)
        edit = rng.choice(EDITS.get(target, (edit_bytes,)))
        for _ in range(rng.randint(1, 3)):
            files[target] = edit(rng, files[target])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus").mkdir()  # which may stay empty
        write(root, files)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, *paths(root, args)])
        lines = stderr.getvalue().splitlines()
        mutated = str(root / target)
        if code == 0:
            expected = [*outputs, *(f"out/{name}" for name in TRACES
                                    if command == "prune" and f"corpus/{name}" in files)]
            assert all((root / name).is_file() for name in expected), expected
        elif code == 1:
            assert any(line.startswith("apicomp: error:") and mutated in line
                       for line in lines), lines
        elif code == 2:
            assert target.startswith("corpus/"), (target, lines)
            assert any(line.startswith("apicomp: parse error:") and mutated in line
                       for line in lines), lines
        else:
            assert code == 3, (code, lines)
            assert any(line.startswith("empty corpus:") for line in lines), lines
