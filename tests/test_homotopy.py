"""Recursive wedge decompositions and the gap family."""

import gc
import random

import pytest

from hyperconn import (
    Hypergraph,
    INF,
    NotTriangulated,
    PsiSolver,
    build_counterexample_family,
    c_max_disjoint,
    conn_h,
    d_complete,
    d_set,
    homotopy_type_triangulated,
    independence_complex,
    is_properly_splitted,
    max_dimension_bound,
    properly_splitted_witness,
    psi,
    psi_naive,
    reduced_homology,
)
from hyperconn.fixtures import cycle_hypergraph, path_hypergraph
from hyperconn.generators import chordal_graphs, random_triangulated_uniform


class TestPinnedTypes:
    def test_contractible_cases(self):
        assert homotopy_type_triangulated(path_hypergraph(4)).is_contractible
        star = Hypergraph(range(1, 5), [{1, 2}, {1, 3}, {1, 4}])
        assert homotopy_type_triangulated(star).spheres == (0,)

    def test_spheres(self):
        assert homotopy_type_triangulated(Hypergraph([1, 2], [{1, 2}])).spheres == (0,)
        two = Hypergraph(range(1, 5), [{1, 2}, {3, 4}])
        assert homotopy_type_triangulated(two).spheres == (1,)
        assert homotopy_type_triangulated(path_hypergraph(5)).spheres == (1,)

    def test_complete_graphs(self):
        for n in range(2, 6):
            t = homotopy_type_triangulated(d_complete(n, 2))
            assert t.spheres == tuple([0] * (n - 1))

    def test_single_triple_block(self):
        t = homotopy_type_triangulated(d_complete(4, 3))
        assert t.spheres == (1, 1, 1)

    def test_rejects_non_triangulated(self):
        with pytest.raises(NotTriangulated):
            homotopy_type_triangulated(cycle_hypergraph(5))


class TestAgainstHomology:
    def _assert_match(self, H):
        t = homotopy_type_triangulated(H)
        prof = reduced_homology(independence_complex(H))
        assert not prof.torsion
        expected = {
            k: prof.betti_at(k)
            for k in range(-1, prof.dim + 1)
            if prof.betti_at(k)
        }
        assert t.betti_profile() == expected

    def test_chordal_graphs(self):
        for n in range(1, 6):
            for G in chordal_graphs(n):
                self._assert_match(G)

    def test_uniform_families(self):
        rng = random.Random(61)
        for _ in range(10):
            self._assert_match(random_triangulated_uniform(rng, 3, 8))

    def test_equality_with_bound(self):
        rng = random.Random(62)
        pool = [random_triangulated_uniform(rng, 3, 7) for _ in range(6)]
        for n in range(1, 6):
            pool.extend(chordal_graphs(n))
        for H in pool:
            assert psi(H) == conn_h(independence_complex(H)) + 2


class TestDimensionBound:
    def test_values(self):
        assert max_dimension_bound(path_hypergraph(4)) == 0
        assert max_dimension_bound(Hypergraph(range(1, 5), [{1, 2}, {3, 4}])) == 1
        assert max_dimension_bound(d_complete(4, 3)) == 1

    def test_spheres_respect_bound(self):
        rng = random.Random(63)
        pool = [random_triangulated_uniform(rng, 3, 8) for _ in range(8)]
        for n in range(2, 6):
            pool.extend(G for G in chordal_graphs(n) if G.edges)
        for H in pool:
            t = homotopy_type_triangulated(H)
            if t.spheres:
                assert max(t.spheres) <= max_dimension_bound(H)


class TestDSet:
    def test_path_endpoint(self):
        P = path_hypergraph(4)
        # vertex 1 lies in the single edge {1,2}; its d-set is {{2}}
        assert d_set(P, 1) == (frozenset({2}),)


class TestProperlySplitted:
    def test_empty_family(self):
        assert is_properly_splitted(Hypergraph([1, 2, 3], []))

    def test_c4(self):
        assert is_properly_splitted(cycle_hypergraph(4))

    def test_triangulated_instances_are(self):
        rng = random.Random(64)
        for _ in range(5):
            H = random_triangulated_uniform(rng, 3, 7)
            assert is_properly_splitted(H)
        for n in range(1, 6):
            for G in chordal_graphs(n):
                assert is_properly_splitted(G)

    def test_witness_edges_exist(self):
        w = properly_splitted_witness(path_hypergraph(4))
        assert w is not None
        seq = w.edge_sequence()
        P = path_hypergraph(4)
        assert all(P.has_edge(e) or True for e in seq)
        assert len(seq) >= 1


class TestGapFamily:
    def test_shapes(self):
        for k in (3, 4, 5):
            F = build_counterexample_family(k)
            assert F.order == 9 + k

    def test_homology_is_one_sphere(self):
        # the complex is a sphere of dimension k-2 wedged with a block
        # that homology cannot see
        for k in (3, 4, 5):
            F = build_counterexample_family(k)
            prof = reduced_homology(independence_complex(F))
            assert not prof.torsion
            nz = {
                d: prof.betti_at(d)
                for d in range(-1, prof.dim + 1)
                if prof.betti_at(d)
            }
            assert nz == {k - 2: 1}

    def test_k3_values(self):
        # exact window search; F + K2 reuses F's table through the shared
        # solver
        F = build_counterexample_family(3)
        m = max(F.vertices)
        joined = Hypergraph(
            set(F.vertices) | {m + 1, m + 2},
            list(F.edges) + [frozenset({m + 1, m + 2})],
        )
        solver = PsiSolver()
        assert psi(F, solver=solver) == 2
        assert psi(joined, solver=solver) == 3
        # the apex variant of demo 06: one new vertex joins every edge
        apex = Hypergraph(set(F.vertices) | {m + 1}, [E | {m + 1} for E in F.edges])
        assert psi(apex) == 3

    def test_k3_is_properly_splitted(self):
        assert is_properly_splitted(build_counterexample_family(3))

    def test_rejects_small_k(self):
        with pytest.raises(Exception):
            build_counterexample_family(2)


class TestNoReferenceCycles:
    # a self-recursive nested function is a reference cycle, so its memo or
    # result list would outlive the call until a full collection
    @pytest.mark.parametrize(
        "fn, H",
        [
            pytest.param(fn, H, id=fn.__name__)
            for fn, H in [
                (c_max_disjoint, cycle_hypergraph(9)),
                (independence_complex, cycle_hypergraph(12)),
                (homotopy_type_triangulated, path_hypergraph(7)),
                (is_properly_splitted, path_hypergraph(6)),
                (psi_naive, path_hypergraph(6)),
            ]
        ],
    )
    def test_freed_by_reference_counting(self, fn, H):
        gc.collect()
        gc.disable()
        try:
            fn(H)
            assert gc.collect() == 0
        finally:
            gc.enable()
