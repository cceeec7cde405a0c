"""Instance generators behind the verification harness."""

import hashlib
import random

import pytest

from hyperconn import generators
from hyperconn.generators import (
    all_graphs,
    chordal_graphs,
    is_chordal,
    random_hypergraph,
    random_triangulated_uniform,
    random_uniform_hypergraph,
)
from hyperconn import Hypergraph, ValidationError, is_properly_connected, is_triangulated
from hyperconn.fixtures import cycle_hypergraph, path_hypergraph


class TestExhaustive:
    def test_graph_counts_up_to_iso(self):
        # unlabeled simple graph counts on 1..7 vertices
        expect = [1, 2, 4, 11, 34, 156, 1044]  # OEIS A000088
        got = [sum(1 for _ in all_graphs(n)) for n in range(1, 8)]
        assert got == expect

    def test_chordal_counts(self):
        expect = [1, 2, 4, 10, 27, 94, 393]  # OEIS A048192
        got = [sum(1 for _ in chordal_graphs(n)) for n in range(1, 8)]
        assert got == expect
        # the triangulated-homotopy suite starts from these 531 graphs
        assert sum(got) == 531

    def test_repeated_enumeration_is_identical(self):
        first = list(all_graphs(6))
        assert list(all_graphs(6)) == first

    def test_no_vertices_rejected_on_iteration(self):
        stream = all_graphs(0)
        with pytest.raises(ValidationError):
            list(stream)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_graph_per_isomorphism_class(self, n):
        nx = pytest.importorskip("networkx")
        ours = []
        for G in all_graphs(n):
            g = nx.empty_graph(range(1, n + 1))
            g.add_edges_from(tuple(e) for e in G.edges)
            ours.append(g)
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]
        for g in atlas:
            assert sum(nx.is_isomorphic(g, h) for h in ours) == 1
        assert len(ours) == len(atlas)

    def test_all_yielded_are_valid(self):
        for G in all_graphs(5):
            assert isinstance(G, Hypergraph)
            assert G.order == 5

    def test_chordality_checker(self):
        assert is_chordal(path_hypergraph(5))
        assert is_chordal(Hypergraph(range(1, 5), []))
        assert not is_chordal(cycle_hypergraph(4))
        assert not is_chordal(cycle_hypergraph(6))
        tri_fan = Hypergraph(range(1, 5), [{1, 2}, {2, 3}, {1, 3}, {1, 4}, {3, 4}])
        assert is_chordal(tri_fan)


class TestRandomModels:
    def test_mixed_model_validity(self):
        rng = random.Random(71)
        for _ in range(80):
            H = random_hypergraph(rng, 8)
            assert isinstance(H, Hypergraph)
            assert 1 <= H.order <= 8
            for e in H.edges:
                assert len(e) in (2, 3)

    def test_mixed_model_deterministic(self):
        a = [random_hypergraph(random.Random(5), 8) for _ in range(10)]
        b = [random_hypergraph(random.Random(5), 8) for _ in range(10)]
        assert a == b
        # the verify suites and their replay payloads draw from this stream,
        # so the draws and the generator state after them are pinned
        rng = random.Random(5)
        draws = [random_hypergraph(rng, 8) for _ in range(200)]
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()
        assert digest == "f4a5c24586e5c35b98e47f1f4f93f48aeb235a34d3b66edc406f64846f67729b"
        assert rng.random() == 0.11611682418568314

    def test_mixed_model_rejects_no_vertices(self):
        with pytest.raises(ValidationError):
            random_hypergraph(random.Random(0), 0)

    def test_uniform_model(self):
        rng = random.Random(72)
        for _ in range(40):
            H = random_uniform_hypergraph(rng, 8, 3, max_edges=12)
            assert H.uniform_size() in (3, None)
            assert len(H.edges) <= 12
            assert H.order <= 8

    def test_uniform_model_needs_d_vertices(self):
        with pytest.raises(ValidationError):
            random_uniform_hypergraph(random.Random(0), 2, 3)

    def test_triangulated_construction(self):
        rng = random.Random(73)
        sizes = set()
        for _ in range(10):
            H = random_triangulated_uniform(rng, 3, 8)
            assert H.uniform_size() == 3
            assert is_properly_connected(H)
            assert is_triangulated(H)
            sizes.add((H.order, len(H.edges)))
        # the construction explores varied shapes
        assert len(sizes) >= 3

    def test_each_hypergraph_recognized_once(self, monkeypatch):
        seen = []
        real = generators.is_triangulated

        def recorder(H, *args, **kwargs):
            seen.append(H)
            return real(H, *args, **kwargs)

        monkeypatch.setattr(generators, "is_triangulated", recorder)
        rng = random.Random(73)
        for _ in range(10):
            seen.clear()
            random_triangulated_uniform(rng, 3, 8)
            assert seen and len(set(seen)) == len(seen)
