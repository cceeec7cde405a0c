"""Hypergraph construction, validation, and the two reduction operations."""

import itertools
import random

import pytest

from hyperconn import (
    ComparableEdges,
    EdgeOutsideVertexSet,
    EdgeTooSmall,
    Hypergraph,
    ValidationError,
    d_complete,
    d_complete_on,
    disjoint_union,
    OverlappingVertexSets,
)
from hyperconn.generators import random_hypergraph
from hyperconn.hypergraph import _bitsets


def c5():
    return Hypergraph(range(1, 6), [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}])


class TestValidation:
    def test_vertices_must_be_ints(self):
        with pytest.raises(ValidationError):
            Hypergraph(["a", "b"], [{"a", "b"}])

    def test_edge_size_at_least_two(self):
        with pytest.raises(EdgeTooSmall):
            Hypergraph([1, 2], [{1}])

    def test_edges_incomparable(self):
        with pytest.raises(ComparableEdges):
            Hypergraph([1, 2, 3], [{1, 2}, {1, 2, 3}])

    def test_first_comparable_pair_is_named(self):
        # several comparable pairs across three sizes: the message names
        # the first edge in canonical order that lies in a later one, and
        # the first such later edge
        edges = [{1, 2, 3, 4}, {5, 6}, {1, 2}, {5, 6, 7}, {2, 3, 4}, {3, 4, 5, 6, 7}]
        with pytest.raises(ComparableEdges) as err:
            Hypergraph(range(1, 8), edges)
        assert str(err.value) == "edges [1, 2] and [1, 2, 3, 4] are comparable"
        rng = random.Random(7)
        subsets = [
            frozenset(s) for k in (2, 3, 4) for s in itertools.combinations(range(6), k)
        ]
        raised = 0
        for _ in range(200):
            es = sorted(set(rng.sample(subsets, 6)), key=lambda e: (len(e), sorted(e)))
            pairs = ((e, f) for i, e in enumerate(es) for f in es[i + 1 :])
            first = next(((e, f) for e, f in pairs if e < f or f < e), None)
            if first is None:
                Hypergraph(range(6), es)
                continue
            with pytest.raises(ComparableEdges) as err:
                Hypergraph(range(6), reversed(es))
            e, f = first
            assert str(err.value) == f"edges {sorted(e)} and {sorted(f)} are comparable"
            raised += 1
        assert raised > 0

    def test_edge_inside_vertex_set(self):
        with pytest.raises(EdgeOutsideVertexSet):
            Hypergraph([1, 2], [{1, 3}])

    def test_duplicate_edges_collapse(self):
        H = Hypergraph([1, 2, 3], [{1, 2}, {2, 1}])
        assert len(H.edges) == 1

    def test_empty_is_legal(self):
        H = Hypergraph([], [])
        assert H.order == 0 and H.edges == ()


class TestAccessors:
    def test_neighbor_set_cycle(self):
        assert c5().neighbor_set({2, 3}) == {1, 4}

    def test_neighbor_set_requires_edge_diff_one(self):
        H = Hypergraph(range(1, 5), [{1, 2, 3}, {2, 3, 4}])
        # {1}: only {2,3,4} differs by one element, namely 4
        assert H.neighbor_set({2, 3}) == {1, 4}
        assert H.neighbor_set({1, 4}) == frozenset()

    def test_max_degree(self):
        assert c5().max_degree() == 2
        assert Hypergraph([1], []).max_degree() == 0

    def test_uniform_size(self):
        assert c5().uniform_size() == 2
        assert d_complete(4, 3).uniform_size() == 3
        mixed = Hypergraph(range(1, 5), [{1, 2}, {2, 3, 4}])
        assert mixed.uniform_size() is None

    def test_isolated_vertices(self):
        H = Hypergraph(range(1, 5), [{1, 2}])
        assert H.isolated_vertices() == {3, 4}


class TestOperations:
    def test_delete_edge_keeps_vertices(self):
        H = c5().delete_edge({1, 2})
        assert H.vertices == frozenset(range(1, 6))
        assert len(H.edges) == 4

    def test_contract_cycle_edge(self):
        # contracting an edge of the 5-cycle leaves one far vertex, edgeless
        H = c5().contract({2, 3})
        assert H.vertices == frozenset({5})
        assert H.edges == ()

    def test_contract_path_middle(self):
        P = Hypergraph(range(1, 7), [{i, i + 1} for i in range(1, 6)])
        H = P.contract({3, 4})
        assert H.vertices == {1, 6}
        assert H.edges == ()

    def test_contract_keeps_far_edges(self):
        P = Hypergraph(range(1, 8), [{i, i + 1} for i in range(1, 7)])
        H = P.contract({1, 2})
        assert H.vertices == {4, 5, 6, 7}
        assert set(H.edges) == {frozenset({4, 5}), frozenset({5, 6}), frozenset({6, 7})}

    def test_contract_takes_minimal_differences(self):
        H = Hypergraph(range(1, 7), [{1, 2}, {3, 4, 5}, {4, 5, 6}, {3, 6}])
        K = H.contract({1, 2})
        assert K.vertices == {3, 4, 5, 6}
        assert set(K.edges) == {
            frozenset({3, 4, 5}), frozenset({4, 5, 6}), frozenset({3, 6})
        }

    def test_induced(self):
        H = c5().induced({1, 2, 3})
        assert H.vertices == {1, 2, 3}
        assert set(H.edges) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_complete_counts(self):
        assert len(d_complete(5, 2).edges) == 10
        assert len(d_complete(5, 3).edges) == 10
        assert d_complete_on([3, 7, 9], 2).vertices == {3, 7, 9}

    def test_disjoint_union(self):
        A = Hypergraph([1, 2], [{1, 2}])
        B = Hypergraph([3, 4], [{3, 4}])
        U = disjoint_union(A, B)
        assert U.order == 4 and len(U.edges) == 2
        with pytest.raises(OverlappingVertexSets):
            disjoint_union(A, Hypergraph([2, 3], [{2, 3}]))

    def test_equality_and_hash(self):
        A = Hypergraph([1, 2, 3], [{1, 2}])
        B = Hypergraph({3, 2, 1}, [frozenset({2, 1})])
        assert A == B and hash(A) == hash(B)
        assert A != Hypergraph([1, 2], [{1, 2}])


class TestRandomizedInvariants:
    def test_contract_drops_neighborhood(self):
        rng = random.Random(41)
        for _ in range(60):
            H = random_hypergraph(rng, 8)
            if not H.edges:
                continue
            F = H.edges[rng.randrange(len(H.edges))]
            K = H.contract(F)
            gone = F | H.neighbor_set(F)
            assert K.vertices == H.vertices - gone
            assert all(e <= K.vertices for e in K.edges)

    def test_delete_is_one_edge_smaller(self):
        rng = random.Random(42)
        for _ in range(60):
            H = random_hypergraph(rng, 8)
            if not H.edges:
                continue
            F = H.edges[rng.randrange(len(H.edges))]
            assert len(H.delete_edge(F).edges) == len(H.edges) - 1


class TestBitsets:
    def test_small_family(self):
        order, masks, occ = _bitsets({9, 3, 5, 1}, [{1, 3}, {3, 9}, {5}, set()])
        assert order == [1, 3, 5, 9]
        assert masks == [0b0011, 0b1010, 0b0100, 0]
        assert occ == [0b0001, 0b0011, 0b0100, 0b0010]

    def test_empty_family(self):
        assert _bitsets({2, 1}, []) == ([1, 2], [], [0, 0])

    def test_empty_ground(self):
        assert _bitsets(frozenset(), []) == ([], [], [])
        assert _bitsets(frozenset(), [frozenset()]) == ([], [0], [])
