"""Exact reduced homology through integer Smith normal form."""

import itertools
import json
import pathlib
import random

import pytest

from hyperconn import (
    INF,
    CapacityExceeded,
    Hypergraph,
    SimplicialComplex,
    conn_h,
    fixture,
    full_simplex,
    independence_complex,
    psi,
    reduced_homology,
    simplex_boundary,
    smith_diagonal,
)
from hyperconn.extnat import fmt
from hyperconn.fixtures import cycle_hypergraph, lutz_acyclic_complex, path_hypergraph
from hyperconn.generators import random_hypergraph
from hyperconn import homology
from hyperconn.homology import _matching_tree, _morse_rows

import oracles

# Minimal 6-vertex triangulation of the real projective plane: every edge
# lies in exactly two of the ten triangles, Euler characteristic 1.
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def connected_sum(A, B):
    """A # B of two triangulated surfaces: B's first facet is glued onto
    A's first facet, both are removed, and B's other vertices are moved
    past A's."""
    off = max(map(max, A))
    image = {v: v + off for f in B for v in f}
    image.update(zip(B[0], A[0]))
    return A[1:] + [tuple(image[v] for v in f) for f in B[1:]]


def suspension(A):
    """The facets of A joined with each of two new apex vertices."""
    n = max(map(max, A))
    return [f + (a,) for f in A for a in (n + 1, n + 2)]


def moore_space(m):
    """A disk whose boundary wraps m times around the triangle 1 2 3, so
    H_1 = Z/m: a 3m-gon, an annulus to an inner 3m-cycle, a cone on vertex 4."""
    k = 3 * m
    ring = [i % 3 + 1 for i in range(k)]
    inner = [5 + i for i in range(k)]
    facets = []
    for i in range(k):
        j = (i + 1) % k
        facets += [
            (ring[i], ring[j], inner[i]),
            (ring[j], inner[i], inner[j]),
            (inner[i], inner[j], 4),
        ]
    return facets


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
        assert smith_diagonal([{0: 3, 1: -2}]) == [1]
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

    def test_unit_after_a_non_unit_pivot(self):
        # A = (2, 3)^T and B = (3, -2) satisfy BA = 0.  Eliminating A pivots
        # on 2 and then on the remainder 1 in row 1; B keeps its full image Z
        # only with both columns, since B without column 1 has image 3Z
        assert smith_diagonal([{0: 2}, {0: 3}]) == [1]
        assert smith_diagonal([{0: 3, 1: -2}]) == [1]
        assert smith_diagonal([{0: 3}]) == [3]


def torsion_pool():
    """(facets, torsion) pairs: the Klein bottle, RP^2 # RP^2 # RP^2, the
    suspension of RP^2 (Z/2 in dimension 2), Moore spaces for Z/3 and Z/4,
    and seeded unions of RP^2 or the Z/3 space with random triangles on
    vertices 1..9 that keep some torsion (torsion None: read the oracle)."""
    klein = connected_sum(RP2_FACETS, RP2_FACETS)
    pool = [
        (klein, {1: (2,)}),
        (connected_sum(klein, RP2_FACETS), {1: (2,)}),
        (suspension(RP2_FACETS), {2: (2,)}),
        (moore_space(3), {1: (3,)}),
        (moore_space(4), {1: (4,)}),
    ]
    rng = random.Random(19)
    triangles = list(itertools.combinations(range(1, 10), 3))
    bases = [RP2_FACETS, moore_space(3)]
    for _ in range(24):
        facets = rng.choice(bases) + rng.sample(triangles, rng.randint(1, 6))
        faces = SimplicialComplex(facets).faces()
        if oracles.torsion(faces):
            pool.append((facets, None))
    return pool


def random_complexes(seed):
    """35 seeded complexes of random facets on at most 6 vertices."""
    rng = random.Random(seed)
    out = []
    for _ in range(35):
        n = rng.randint(1, 6)
        pool = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 7))
        ]
        out.append(SimplicialComplex(pool))
    return out


def ind_3_uniform(seed):
    """Ind of six seeded 3-uniform hypergraphs, one on each of 8..13
    vertices, with 6n to 8n edges (every triple when there are fewer)."""
    rng = random.Random(seed)
    out = []
    for n in range(8, 14):
        cand = list(itertools.combinations(range(1, n + 1), 3))
        m = min(len(cand), rng.randint(6 * n, 8 * n))
        out.append(independence_complex(Hypergraph(range(1, n + 1), rng.sample(cand, m))))
    return out


def cones():
    """Cones over RP^2 with the apex at the lowest (0), a middle (4) and the
    highest (7) label, and over the acyclic Lutz complex at 0."""
    middle = {v: v + (v >= 4) for v in range(1, 7)}
    out = [SimplicialComplex(f + (apex,) for f in RP2_FACETS) for apex in (0, 7)]
    out.append(SimplicialComplex((4,) + tuple(middle[v] for v in f) for f in RP2_FACETS))
    out.append(SimplicialComplex(f | {0} for f in lutz_acyclic_complex().facets))
    return out


# RP^2 wedged at vertex 6 with the boundary of the simplex 6 7 8 9: torsion
# in dimension 1 beside a free class in dimension 2
RP2_WEDGE_SPHERE = RP2_FACETS + [(6, 7, 8), (6, 7, 9), (6, 8, 9), (7, 8, 9)]


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
        for d in random_complexes(18):
            prof = reduced_homology(d)
            expect = oracles.betti_numbers(d.faces())
            for k, b in expect.items():
                assert prof.betti_at(k) == b
            assert prof.torsion == oracles.torsion(d.faces()), d.facets

    def test_complexes_with_torsion(self):
        pool = torsion_pool()
        assert len(pool) >= 15
        for facets, torsion in pool:
            d = SimplicialComplex(facets)
            prof = reduced_homology(d)
            expect = oracles.torsion(d.faces())
            assert expect == (torsion or expect), facets
            assert prof.torsion == expect, facets
            for k, b in oracles.betti_numbers(d.faces()).items():
                assert prof.betti_at(k) == b, (facets, k)


def pools():
    """The torsion pool, random_complexes(17) and (18), and Ind of 35
    seeded random hypergraphs on 7 vertices."""
    rng = random.Random(17)
    complexes = [SimplicialComplex(f) for f, _ in torsion_pool()]
    complexes += random_complexes(17) + random_complexes(18)
    complexes += [independence_complex(random_hypergraph(rng, 7)) for _ in range(35)]
    return complexes


class TestFaces:
    def test_faces_match_oracle(self):
        for d in pools():
            assert d.faces() == oracles.faces_of(d.facets), d.facets

    def test_cap_on_every_call(self, monkeypatch):
        # a first call without the cap must not let a later capped call through
        d = simplex_boundary(range(5))
        assert len(d.faces()) == 31
        with pytest.raises(CapacityExceeded):
            d.faces(cap=3)
        monkeypatch.setenv("HYPERCONN_VERTEX_CAP", "3")
        with pytest.raises(CapacityExceeded):
            d.faces()


class TestBoundarySmith:
    def test_boundary_maps_match_oracle(self):
        # the dense textbook reduction stands in for the determinantal
        # divisors of oracles.invariant_factors, which are out of reach
        # beyond about 5 x 5 (it is checked against them in TestSmith)
        for d in pools():
            faces = d.faces()
            for k in range(d.dim + 1):
                mat = oracles.boundary_matrix(faces, k)
                expect = oracles.invariant_factors_by_elimination(mat)
                assert smith_diagonal(sparse(mat)) == expect, (d.facets, k)

    def test_torsion_pivot(self):
        # in M(Z/3, 1) the top boundary has 26 unit pivots and one of 3
        d = SimplicialComplex(moore_space(3))
        diag = smith_diagonal(sparse(oracles.boundary_matrix(d.faces(), 2)))
        assert diag == [1] * 26 + [3]
        assert reduced_homology(d).torsion == {1: (3,)}

    def test_reduced_homology_calls_smith_diagonal(self, monkeypatch):
        # one call per boundary map d_0, ..., d_dim, through the module's
        # public name, and the profile is the same
        d = SimplicialComplex(RP2_FACETS)
        before = reduced_homology(d)
        calls = []

        def counted(rows):
            calls.append(len(rows))
            return smith_diagonal(rows)

        monkeypatch.setattr(homology, "smith_diagonal", counted)
        assert reduced_homology(d) == before
        assert len(calls) == d.dim + 1

    def test_skeleton_closed_form(self):
        # the 3-skeleton of the 12-simplex (all 4-subsets of 13 vertices,
        # 1,093 faces) is a wedge of C(12, 4) 3-spheres
        d = SimplicialComplex(itertools.combinations(range(1, 14), 4))
        assert len(d.faces()) == 1093
        prof = reduced_homology(d)
        assert prof.betti == {k: 495 if k == 3 else 0 for k in range(-1, 4)}
        assert prof.torsion == {}


def critical_counts(d):
    """The number of critical cells of d with k vertices, k = 0..dim + 1."""
    cells = _matching_tree(d)[1]
    return [sum(c.bit_count() == k for c in cells) for k in range(d.dim + 2)]


# the homology-large benchmark pool: 63 Ind(H) profiles and the Lutz one,
# read only
RECORDED = pathlib.Path(__file__).resolve().parents[1] / "bench/expected/homology-large.json"


class TestCoreduction:
    """The reduction of a complex to the critical cells of its matching
    tree, whose matched pairs are eliminated as coreduction pairs are."""

    def test_vertex_cap_before_enumeration(self, monkeypatch):
        # 2^30 faces would never finish: the cap must be checked first
        with pytest.raises(CapacityExceeded):
            reduced_homology(full_simplex(range(30)))
        with pytest.raises(CapacityExceeded):
            reduced_homology(simplex_boundary(range(5)), cap=4)
        assert reduced_homology(simplex_boundary(range(5)), cap=5).betti_at(3) == 1
        # a cap above the default also reaches the search for minimal non-faces
        ring = SimplicialComplex((i, i % 26 + 1) for i in range(1, 27))
        assert reduced_homology(ring, cap=26).betti_at(1) == 1
        # and the facets that an independence complex derives for its dim:
        # Ind(C_26) = S^8 (Kozlov), as the environment's cap of 26 gives
        by_cap = reduced_homology(independence_complex(cycle_hypergraph(26)), cap=26)
        assert by_cap.connectivity() == 7 and by_cap.betti_at(8) == 1
        monkeypatch.setenv("HYPERCONN_VERTEX_CAP", "26")
        assert reduced_homology(independence_complex(cycle_hypergraph(26))) == by_cap
        monkeypatch.setenv("HYPERCONN_VERTEX_CAP", "4")
        with pytest.raises(CapacityExceeded):
            reduced_homology(simplex_boundary(range(5)))
        with pytest.raises(CapacityExceeded):
            conn_h(simplex_boundary(range(5)))

    def test_profiles_match_oracles(self):
        # the torsion pool, random_complexes(18) and the Ind draws of pools()
        # are compared in TestAgainstRationalOracle
        complexes = [
            SimplicialComplex([]),
            full_simplex([4]),
            full_simplex(range(1, 7)),
            SimplicialComplex(RP2_FACETS),
            SimplicialComplex(RP2_WEDGE_SPHERE),
            lutz_acyclic_complex(),
        ]
        complexes += cones() + random_complexes(17) + random_complexes(24) + ind_3_uniform(24)
        for d in complexes:
            prof = reduced_homology(d)
            faces = d.faces()
            assert prof.dim == d.dim
            assert prof.betti == oracles.betti_numbers(faces), d.facets
            assert prof.torsion == oracles.torsion(faces), d.facets

    def test_profiles_match_recorded_pool(self):
        recorded = json.loads(RECORDED.read_text())
        assert len(recorded["pool"]) == 63
        for entry in recorded["pool"]:
            d = independence_complex(Hypergraph(entry["vertices"], entry["edges"]))
            prof = reduced_homology(d)
            assert prof.describe() == entry["profile"], entry["edges"]
            assert fmt(prof.connectivity()) == entry["conn"], entry["edges"]
        lutz = reduced_homology(lutz_acyclic_complex()).describe()
        assert lutz == recorded["lutz-acyclic"]

    def test_critical_cell_counts(self):
        # a full simplex and every cone: no critical cell; {empty}: its
        # empty face; a simplex boundary: one top cell; RP^2 keeps cells
        for d in [full_simplex([1]), full_simplex(range(1, 8))] + cones():
            assert _matching_tree(d)[1] == [], d.facets
        assert _matching_tree(SimplicialComplex([]))[1] == [0]
        for n in range(2, 8):
            assert critical_counts(simplex_boundary(range(n))) == [0] * (n - 1) + [1]
        assert sum(critical_counts(SimplicialComplex(RP2_FACETS))) > 0
        # Ind(C_3k): two cells of k vertices, Kozlov's S^(k-1) v S^(k-1)
        for k in range(1, 9):
            counts = critical_counts(independence_complex(cycle_hypergraph(3 * k)))
            assert counts[k] == sum(counts) == 2, k

    def test_faces_left_on_a_3_uniform_instance(self):
        # Ind of the 13-vertex draw: 442 faces, reduced Betti numbers 8 in
        # dimension 2 and 4 in dimension 3; one more critical cell in each
        # of the two, which the Morse boundary between them cancels
        d = ind_3_uniform(24)[-1]
        assert len(d.faces()) == 442
        assert critical_counts(d) == [0, 0, 0, 9, 5, 0]
        assert reduced_homology(d).betti == {-1: 0, 0: 0, 1: 0, 2: 8, 3: 4, 4: 0}

    def test_assertion_catches_what_is_not_a_chain_complex(self, monkeypatch):
        # a tree on the triangle abc (bits 1, 2, 4) that leaves a, c, ab,
        # bc and abc critical and matches b and ac down: d_1 d_2 (abc) =
        # d_1 (ab + bc) = c - a, so reduced_homology must refuse it
        tree = (2, (1, (4, 0, 0), (4, 0, 4)), (1, (4, 2, 0), (4, 0, 0)))
        monkeypatch.setattr(homology, "_matching_tree", lambda d, cap: (tree, [1, 4, 3, 6, 7]))
        with pytest.raises(AssertionError):
            reduced_homology(full_simplex([1, 2, 3]))

    def test_morse_complex_is_a_chain_complex(self):
        # the matching-tree lemma: the Morse boundaries satisfy BA = 0
        complexes = [SimplicialComplex(f) for f, _ in torsion_pool()]
        complexes += random_complexes(18) + [lutz_acyclic_complex()]
        complexes += [SimplicialComplex(RP2_WEDGE_SPHERE)] + ind_3_uniform(24)
        adjacent = 0
        for d in complexes:
            tree, cells = _matching_tree(d)
            live = [[c for c in cells if c.bit_count() == k] for k in range(d.dim + 2)]
            for k in range(1, len(live) - 1):
                B = _morse_rows(tree, live[k - 1], live[k])
                A = _morse_rows(tree, live[k], live[k + 1])
                adjacent += any(A)
                for row in B:
                    for j in range(len(live[k + 1])):
                        assert sum(a * A[i].get(j, 0) for i, a in row.items()) == 0
        assert adjacent > 0

    def test_independence_complex_at_scale(self):
        # Ind of all 5-subsets of 14 vertices is the 3-skeleton of the
        # 13-simplex, a wedge of C(13, 4) = 715 3-spheres: the tree leaves
        # exactly 715 top cells
        d = independence_complex(fixture("complete(14,5)"))
        assert critical_counts(d) == [0, 0, 0, 0, 715]
        prof = reduced_homology(d)
        assert prof.betti == {k: 715 if k == 3 else 0 for k in range(-1, 4)}
        assert prof.torsion == {}


class TestKozlovClosedForms:
    """Ind(C_n) and Ind(P_n) (Kozlov, "Complexes of directed trees", JCTA
    88, 1999): Ind(C_n) is S^(k-1) v S^(k-1) for n = 3k, S^(k-1) for
    n = 3k + 1 and S^k for n = 3k + 2; Ind(P_n) is S^(k-1) for n = 3k - 1
    and n = 3k, and contractible for n = 3k + 1.  Up to the vertex cap,
    with conn_h = psi - 2 on each."""

    @pytest.mark.parametrize("n", range(3, 26))
    def test_cycles(self, n):
        k, r = divmod(n, 3)
        d = independence_complex(cycle_hypergraph(n))
        prof = reduced_homology(d)
        dim = k if r == 2 else k - 1
        assert prof.betti == {j: (2 if r == 0 else 1) * (j == dim) for j in range(-1, d.dim + 1)}
        assert prof.torsion == {}
        assert prof.connectivity() == dim - 1 == psi(cycle_hypergraph(n)) - 2

    @pytest.mark.parametrize("n", range(3, 26))
    def test_paths(self, n):
        k, r = divmod(n + 1, 3)
        d = independence_complex(path_hypergraph(n))
        prof = reduced_homology(d)
        if r == 2:
            assert prof.is_trivial()
            assert prof.connectivity() == INF == psi(path_hypergraph(n)) - 2
        else:
            assert prof.betti == {j: int(j == k - 1) for j in range(-1, d.dim + 1)}
            assert prof.torsion == {}
            assert prof.connectivity() == k - 2 == psi(path_hypergraph(n)) - 2
