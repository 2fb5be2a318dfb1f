"""Exact bytes of ``apicomp graph``, ``cluster``, ``run``, ``prune`` and
``metrics`` on small generated corpora.

The oracle tests compare scores to within 1e-12, so a change in the order
or form of a float reduction would pass them while still moving the last
bit of an edge weight. These sha256s pin ``graph.tsv``, the cluster text,
``report.json``, the pruned traces and the metrics CSV exactly. They were
recorded with CPython 3.11. Every float total is added left to right, by
``metrics.left_sum`` or a running ``+=``. ``left_sum`` is the builtin
``sum()`` only below 3.12, where it adds left to right; from 3.12 on, where
``sum()`` is compensated, it is ``functools.reduce``.
"""

import hashlib

import pytest

from conftest import fresh

from apicomp.cli import main

GENERATE = ["generate", "--components", "3", "--methods-per-component", "4", "6",
            "--inter-call-prob", "0.3", "--trees-per-app", "3", "--apps", "3",
            "--tree-depth", "4", "7", "--noise-prob", "0.3", "--seed", "7"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "corpus"
    assert main([*GENERATE, "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("flags, digest", [
    ([], "4fa650157e0bd4792c652d103e5a57f5908ca1b616158af9583afc25c7e8d14e"),
    (["--weight-formula", "literal"],
     "affa86f438cd2542dfb2213d97cceace10c363de1772d3bcd4a7271a5ebcb304"),
], ids=["default", "literal-weight"])
def test_graph_tsv_bytes(corpus_dir, tmp_path, flags, digest):
    out = tmp_path / "graph"
    assert main(["graph", "--corpus", str(corpus_dir), "--classifier",
                 str(corpus_dir / "classifier.txt"), *flags, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "graph.tsv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("comparison, digest", [
    ("prose", "a3b00c5e9c6e5e6a2b1903662005c0b832c8b306220e206a69723d1a4b7b4674"),
    ("caption", "bbda81dd97f6c99fdf5e43fe89e8c5cd3e5445a54ec9ce0fd0bbc24e7008cce6"),
])
def test_cluster_bytes(corpus_dir, tmp_path, comparison, digest):
    graph = tmp_path / "graph"
    assert main(["graph", "--corpus", str(corpus_dir), "--classifier",
                 str(corpus_dir / "classifier.txt"), "--out", str(graph)]) == 0
    out = tmp_path / "clusters.txt"
    assert main(["cluster", "--graph", str(graph / "graph.tsv"),
                 "--rc-comparison", comparison, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# 24 methods and 164 of 276 possible edges: rank ties that only the degree
# and the name break, dissolved stars, and 56 required-interface entries.
NOISY = ["generate", "--components", "4", "--methods-per-component", "3", "5",
         "--inter-call-prob", "0.3", "--trees-per-app", "4", "--apps", "4",
         "--tree-depth", "3", "6", "--noise-prob", "0.4", "--seed", "11"]
RUN_DIGEST = "f177303a51236697754bee93bd80915e373593d7e9d4a55dd55f02b0ce4b351b"


def test_run_report_bytes(tmp_path, monkeypatch):
    # The report echoes the corpus path, so every path is relative.
    monkeypatch.chdir(tmp_path)
    assert main([*NOISY, "--out", "corpus"]) == 0
    assert main(["run", "--corpus", "corpus", "--classifier",
                 "corpus/classifier.txt", "--out", "out"]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == RUN_DIGEST


def test_run_report_bytes_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    """``apicomp run`` in fresh interpreters under ``PYTHONHASHSEED`` 0 and 1
    writes ``RUN_DIGEST`` both times, and the same ``report.txt``."""
    monkeypatch.chdir(tmp_path)
    assert main([*NOISY, "--out", "corpus"]) == 0
    texts = []
    for seed in ("0", "1"):
        proc = fresh("-m", "apicomp.cli", "run", "--corpus", "corpus", "--classifier",
                     "corpus/classifier.txt", "--out", f"out{seed}", PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / f"out{seed}"
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == RUN_DIGEST
        texts.append((out / "report.txt").read_bytes())
    assert texts[0] == texts[1]


def test_prune_bytes(corpus_dir, tmp_path):
    out = tmp_path / "pruned"
    assert main(["prune", "--corpus", str(corpus_dir), "--classifier",
                 str(corpus_dir / "classifier.txt"), "--out", str(out)]) == 0
    # The pruned trace files, concatenated in sorted path order.
    text = b"".join(p.read_bytes() for p in sorted(out.rglob("*.trace")))
    assert hashlib.sha256(text).hexdigest() == "33210709d52b90466e01340f44ac5f0529fee64242417c30dd64161305996aea"


# Sets of four and five methods, given out of name order and with a repeat;
# a pair that shares no tree; a method the corpus does not contain.
METHOD_SETS = """\
# golden method sets
plant0.C1.m3,plant0.C0.m0,plant0.C0.m2,plant0.C0.m1
noise.Helpers.h0,noise.Helpers.h1

plant1.C0.m0, plant1.C0.m1 ,plant1.C0.m2,plant1.C1.m3,noise.Helpers.h3,plant1.C0.m0
plant2.C0.m1,plant2.C0.m0
plant2.C0.m0,absent.Api.call,noise.Helpers.h2
"""


@pytest.mark.parametrize("flags, digest", [
    ([], "6c8e598bc601f03725e86127334d9696fb15da97c0483b8fdd18644f6714a092"),
    (["--weight-formula", "literal", "--lambda-freq", "0.25", "--lambda-dist", "0.5"],
     "97205b35e20c5e3e241b9fa834416335318e7e28e4da4a2933304d377e754fa0"),
], ids=["default", "literal-lambdas"])
def test_metrics_csv_bytes(corpus_dir, tmp_path, flags, digest):
    sets = tmp_path / "sets.txt"
    sets.write_text(METHOD_SETS, encoding="utf-8")
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--corpus", str(corpus_dir), "--classifier",
                 str(corpus_dir / "classifier.txt"), *flags, "--sets", str(sets),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# A hand-written corpus: pinned API/APP columns that override the classifier,
# an application root that prunes to a connector, a root-only tree, and
# methods repeated at several depths of deep trees.
HAND_CORPUS = {
    "alpha/s1.trace": """\
0\tapp.Main.run
1\tlib.io.Reader.open
2\tlib.io.Buffer.fill
3\tlib.io.Buffer.fill
4\tapp.Main.callback
5\tlib.io.Reader.read
6\tlib.io.Buffer.fill
7\tlib.io.Reader.close
1\tapp.Main.step
2\tlib.io.Reader.read
3\tlib.io.Buffer.fill
2\tlib.io.Reader.close
1\tlib.io.Reader.open
""",
    "alpha/s2.trace": """\
0\tlib.io.Reader.open
1\tlib.io.Buffer.fill\tAPP
2\tlib.io.Reader.read
1\tapp.Glue.bridge\tAPI
2\tlib.io.Reader.close
3\tlib.io.Reader.open
""",
    "beta/s1.trace": """\
0\tlib.net.Socket.connect
1\tlib.net.Socket.send
2\tlib.net.Socket.send
3\tlib.io.Buffer.fill
4\tlib.net.Socket.send
5\tlib.io.Buffer.fill
6\tlib.net.Socket.recv
7\tlib.net.Socket.send
8\tlib.net.Socket.recv
9\tlib.net.Socket.close
1\tlib.net.Socket.close
""",
    "beta/s2.trace": "0\tlib.net.Socket.connect\n",
    "gamma/s1.trace": """\
0\tapp.Cli.main
1\tlib.net.Socket.connect
2\tlib.net.Socket.send
1\tapp.Cli.loop\tAPP
2\tlib.io.Reader.open
3\tlib.io.Reader.read
4\tlib.net.Socket.send
2\tlib.net.Socket.recv
1\tlib.net.Socket.close
""",
}


def test_hand_written_run_report_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in HAND_CORPUS.items():
        path = tmp_path / "corpus" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (tmp_path / "api.txt").write_text("lib.\n", encoding="utf-8")
    assert main(["run", "--corpus", "corpus", "--classifier", "api.txt",
                 "--out", "out"]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == "abd529879e870209a7759cda26232a42b8ff20deb0f72f5529ad49bb25c0e841"
