"""Exact reduced homology through integer Smith normal form."""

import random

from hyperconn import (
    INF,
    SimplicialComplex,
    conn_h,
    full_simplex,
    independence_complex,
    reduced_homology,
    simplex_boundary,
    smith_diagonal,
)
from hyperconn.fixtures import lutz_acyclic_complex
from hyperconn.generators import random_hypergraph

import oracles

# Minimal 6-vertex triangulation of the real projective plane: every edge
# lies in exactly two of the ten triangles, Euler characteristic 1.
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def sparse(mat):
    """The {col: value} rows of a dense matrix, zero entries omitted."""
    return [{j: a for j, a in enumerate(row) if a} for row in mat]


class TestSmith:
    def test_diagonal_divisibility(self):
        d = smith_diagonal([{0: 2}, {1: 3}])
        assert d == [1, 6]

    def test_zero_matrix(self):
        assert smith_diagonal([{}, {}]) == []

    def test_identity(self):
        assert smith_diagonal([{0: 1}, {1: 1}]) == [1, 1]

    def test_known_torsion(self):
        # the matrix [[2]] presents Z/2
        assert smith_diagonal([{0: 2}]) == [2]

    def test_matches_determinantal_divisors(self):
        # [[2, 3]] leaves a remainder in the pivot row once it is reduced
        # mod p, [[2], [3]] one in the pivot column; each must be pivoted on
        assert smith_diagonal([{0: 2, 1: 3}]) == [1]
        assert smith_diagonal([{0: 2}, {0: 3}]) == [1]
        rng = random.Random(19)
        entries = [0, 0, 1, -1, 2, -2, 3, 4, 6]
        mats = [[[2, 3]], [[2], [3]], [[4, 6], [6, 9]]]
        for _ in range(300):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            mats.append([[rng.choice(entries) for _ in range(c)] for _ in range(r)])
        for mat in mats:
            expect = oracles.invariant_factors(mat)
            rows = sparse(mat)
            before = [dict(row) for row in rows]
            assert smith_diagonal(rows) == expect, mat
            assert rows == before
            # the dense reduction behind oracles.torsion agrees as well
            assert oracles.invariant_factors_by_elimination(mat) == expect, mat


class TestKnownSpaces:
    def test_spheres(self):
        for n in range(2, 6):
            prof = reduced_homology(simplex_boundary(range(1, n + 2)))
            for k in range(-1, prof.dim + 1):
                expect = 1 if k == n - 1 else 0
                assert prof.betti_at(k) == expect
                assert prof.torsion_at(k) == ()

    def test_full_simplex_acyclic(self):
        prof = reduced_homology(full_simplex(range(1, 6)))
        assert prof.is_trivial()

    def test_point_only_complex(self):
        prof = reduced_homology(SimplicialComplex([]))
        assert prof.betti_at(-1) == 1
        assert conn_h(SimplicialComplex([])) == -2

    def test_projective_plane_torsion(self):
        d = SimplicialComplex(RP2_FACETS)
        prof = reduced_homology(d)
        assert all(prof.betti_at(k) == 0 for k in range(-1, 3))
        assert prof.torsion_at(1) == (2,)
        assert prof.torsion_at(0) == () and prof.torsion_at(2) == ()
        assert prof.torsion == oracles.torsion(d.faces())

    def test_acyclic_fixture(self):
        prof = reduced_homology(lutz_acyclic_complex())
        assert prof.is_trivial()

    def test_two_points(self):
        prof = reduced_homology(SimplicialComplex([{1}, {2}]))
        assert prof.betti_at(0) == 1 and prof.betti_at(-1) == 0


class TestConnectivity:
    def test_values(self):
        assert conn_h(SimplicialComplex([{1}, {2}])) == -1
        assert conn_h(full_simplex([1, 2, 3])) == INF
        assert conn_h(simplex_boundary([1, 2, 3])) == 0
        assert conn_h(simplex_boundary([1, 2, 3, 4])) == 1


class TestAgainstRationalOracle:
    def test_betti_numbers_match(self):
        rng = random.Random(17)
        for _ in range(35):
            H = random_hypergraph(rng, 7)
            d = independence_complex(H)
            prof = reduced_homology(d)
            expect = oracles.betti_numbers(d.faces())
            for k, b in expect.items():
                assert prof.betti_at(k) == b, (H, k)
            assert prof.torsion == oracles.torsion(d.faces()), H

    def test_random_subcomplexes(self):
        # non-independence complexes: random facet families
        rng = random.Random(18)
        for _ in range(35):
            n = rng.randint(1, 6)
            pool = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                for _ in range(rng.randint(1, 7))
            ]
            d = SimplicialComplex(pool)
            prof = reduced_homology(d)
            expect = oracles.betti_numbers(d.faces())
            for k, b in expect.items():
                assert prof.betti_at(k) == b
            assert prof.torsion == oracles.torsion(d.faces()), pool
