import filecmp
import re

import pytest

from apicomp.clusterer import cluster
from apicomp.graph_builder import build_graph
from apicomp.pruner import prune_corpus
from apicomp.rng import SplitMix64
from apicomp.synth import (PlantSpec, generate, load_ground_truth,
                           write_generated)
from apicomp.trace_model import ApiClassifier, MethodRef, Origin, load_corpus


class TestSplitMix64:
    def test_known_stream(self):
        # Published splitmix64 outputs for seed 0.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_bounds(self):
        rng = SplitMix64(42)
        assert all(0 <= rng.below(7) < 7 for _ in range(100))
        assert all(3 <= rng.randint(3, 5) <= 5 for _ in range(100))
        assert all(0.0 <= rng.random() < 1.0 for _ in range(100))

    def test_empty_ranges_are_rejected(self):
        rng = SplitMix64(0)
        with pytest.raises(ValueError, match=r"^below\(\) needs n >= 1$"):
            rng.below(0)
        with pytest.raises(ValueError, match=r"^empty range \[5, 4\]$"):
            rng.randint(5, 4)


class TestPlantSpecValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            PlantSpec(methods_per_component=(5, 2))
        with pytest.raises(ValueError):
            PlantSpec(tree_depth=(0, 3))
        with pytest.raises(ValueError):
            PlantSpec(component_count=0)
        with pytest.raises(ValueError):
            PlantSpec(noise_prob=1.5)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(trees_per_app=0), "component, tree and app counts must be >= 1"),
        (dict(methods_per_component=(5, 2)), "invalid methods_per_component range (5, 2)"),
        (dict(tree_depth=(0, 3)), "invalid tree_depth range (0, 3); depth 1 is the "
                                  "minimum for a planted call"),
        (dict(inter_call_prob=-0.5), "inter_call_prob must be in [0, 1], got -0.5"),
    ])
    def test_messages_name_the_bad_field(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PlantSpec(**kwargs)
        with pytest.raises(ValueError, match=re.escape(message)):
            PlantSpec(*PlantSpec()._replace(**kwargs))

    def test_repr_and_positional_fields(self):
        spec = PlantSpec(3, (2, 5), 0.25, seed=9)
        assert spec == PlantSpec(component_count=3, methods_per_component=(2, 5),
                                 inter_call_prob=0.25, seed=9)
        assert repr(spec) == (
            "PlantSpec(component_count=3, methods_per_component=(2, 5), "
            "inter_call_prob=0.25, trees_per_app=4, app_count=2, tree_depth=(2, 4), "
            "noise_prob=0.0, seed=9)")


class TestGenerate:
    def test_deterministic_directories(self, tmp_path):
        spec = PlantSpec(component_count=3, seed=99, noise_prob=0.3,
                         inter_call_prob=0.2)
        write_generated(spec, tmp_path / "one")
        write_generated(spec, tmp_path / "two")
        comparison = filecmp.dircmp(tmp_path / "one", tmp_path / "two")

        def assert_same(cmp):
            assert not cmp.diff_files and not cmp.left_only and not cmp.right_only
            for sub in cmp.subdirs.values():
                assert_same(sub)

        assert_same(comparison)
        one = sorted(p.relative_to(tmp_path / "one")
                     for p in (tmp_path / "one").rglob("*.trace"))
        assert one  # non-trivial corpus

    def test_different_seeds_differ(self, tmp_path):
        write_generated(PlantSpec(seed=1), tmp_path / "one")
        write_generated(PlantSpec(seed=2), tmp_path / "two")
        files = sorted(p.relative_to(tmp_path / "one")
                       for p in (tmp_path / "one").rglob("*.trace"))
        assert any((tmp_path / "one" / f).read_text()
                   != (tmp_path / "two" / f).read_text() for f in files)

    def test_generated_files_round_trip_through_the_parser(self, tmp_path):
        spec = PlantSpec(component_count=2, seed=5, noise_prob=0.4,
                         inter_call_prob=0.3, tree_depth=(2, 5))
        corpus, truth = write_generated(spec, tmp_path / "corpus")
        classifier = ApiClassifier.load(tmp_path / "corpus" / "classifier.txt")
        loaded = load_corpus(tmp_path / "corpus", classifier)
        assert loaded == corpus
        assert load_ground_truth(tmp_path / "corpus" / "ground_truth.txt") == truth

    def test_ground_truth_reader_skips_comments_and_names_the_line(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("# planted\n\n lib.A.a , lib.A.b\nlib.B.c\n", encoding="utf-8")
        assert load_ground_truth(path) == [
            frozenset({MethodRef("lib.A", "a"), MethodRef("lib.A", "b")}),
            frozenset({MethodRef("lib.B", "c")})]
        path.write_text("# planted\n\nlib.A.a,nodot\n", encoding="utf-8")
        where = re.escape(str(path))
        bad_name = f"^{where}:3: not a qualified method name: 'nodot'$"
        with pytest.raises(ValueError, match=bad_name):
            load_ground_truth(path)
        path.write_bytes(b"lib.A.a,lib.A.\xff\n")
        with pytest.raises(ValueError, match=f"^{where}: not UTF-8 text"):
            load_ground_truth(path)

    def test_roots_are_application_and_methods_api(self):
        corpus, _ = generate(PlantSpec(seed=3))
        for tree in corpus.all_trees():
            assert tree.root.origin is Origin.APPLICATION
            assert all(n.origin is Origin.API
                       for n in tree.method_nodes() if n is not tree.root)

    def test_each_tree_contains_its_whole_home_component(self):
        spec = PlantSpec(component_count=3, seed=11)
        corpus, truth = generate(spec)
        for tree in corpus.all_trees():
            methods = {n.method for n in tree.method_nodes()
                       if n.origin is Origin.API}
            assert any(comp <= methods for comp in truth)

    def test_depth_stays_in_range(self):
        spec = PlantSpec(seed=17, tree_depth=(3, 4), noise_prob=0.5,
                         inter_call_prob=0.5, component_count=2)
        corpus, _ = generate(spec)
        for tree in corpus.all_trees():
            assert 3 <= tree.depth() <= 4

    def test_disjoint_plants_give_disjoint_graph(self):
        spec = PlantSpec(component_count=2, seed=23,
                         inter_call_prob=0.0, noise_prob=0.0)
        corpus, truth = generate(spec)
        graph = build_graph(prune_corpus(corpus))
        lookup = {}
        for idx, comp in enumerate(truth):
            for method in comp:
                lookup[method] = idx
        for u, v, _ in graph.edges():
            assert lookup[u] == lookup[v]

    def test_single_plant_recovers_exactly(self):
        spec = PlantSpec(component_count=1, seed=31, noise_prob=0.0)
        corpus, truth = generate(spec)
        clusters = cluster(build_graph(prune_corpus(corpus)))
        assert [c.members for c in clusters] == [truth[0]]
