"""Which components a report says provide each required method."""

from conftest import build_corpus, m

from apicomp.clusterer import Cluster
from apicomp.components import assemble
from apicomp.graph_builder import build_graph
from apicomp.report import build_report, render_report_text


def test_provided_by_lists_every_provider_in_ascending_id_order():
    """``lib.K.a`` calls ``lib.K.x``, which components 0 and 2 provide, and
    ``lib.K.y``, which none provides: their ``provided_by`` are ``[0, 2]``
    and ``[]``, and the text names the same ids."""
    corpus = build_corpus({"app": [("lib.K.a", ["lib.K.x", "lib.K.y"])]})
    clusters = [Cluster(m("lib.K.x"), frozenset([m("lib.K.x")])),
                Cluster(m("lib.K.a"), frozenset([m("lib.K.a"), m("lib.K.b")])),
                Cluster(m("lib.K.b"), frozenset([m("lib.K.b"), m("lib.K.x")]))]
    report = build_report({}, corpus, corpus, build_graph(corpus),
                          assemble(clusters, corpus))
    required = report["components"][1]["required_interface"]
    assert [(entry["method"], entry["provided_by"]) for entry in required] == [
        ("lib.K.x", [0, 2]), ("lib.K.y", [])]
    text = render_report_text(report)
    assert "lib.K.x (components [0,2]; first call by lib.K.a in app/s0)" in text
    assert "lib.K.y (components [-]; first call by lib.K.a in app/s0)" in text
