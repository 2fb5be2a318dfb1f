"""Exact bytes of ``apicomp graph`` on a small generated corpus.

The oracle tests compare scores to within 1e-12, so a change in the order
or form of a float reduction would pass them while still moving the last
bit of an edge weight. These sha256s pin ``graph.tsv`` exactly. They were
recorded with CPython 3.11; ``sum()`` of floats is compensated from 3.12
on, which may move a last bit there.
"""

import hashlib

import pytest

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
    (["--distance-pair-cap", "3"],
     "9a107056ded45c9078670412672f0c3634c6bfdf7b9d2060c3d57ed7aaef05c5"),
    (["--weight-formula", "literal"],
     "affa86f438cd2542dfb2213d97cceace10c363de1772d3bcd4a7271a5ebcb304"),
], ids=["default", "distance-pair-cap-3", "literal-weight"])
def test_graph_tsv_bytes(corpus_dir, tmp_path, flags, digest):
    out = tmp_path / "graph"
    assert main(["graph", "--corpus", str(corpus_dir), "--classifier",
                 str(corpus_dir / "classifier.txt"), *flags, "--out", str(out)]) == 0
    assert hashlib.sha256((out / "graph.tsv").read_bytes()).hexdigest() == digest
