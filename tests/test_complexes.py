"""Simplicial complexes and the independence-complex construction."""

import itertools
import random

import pytest

from hyperconn import (
    CapacityExceeded,
    Hypergraph,
    NotAFace,
    SimplicialComplex,
    build_counterexample_family,
    complex_union,
    conn_h,
    deletion,
    fixture,
    full_simplex,
    gamma_tilde,
    independence_complex,
    induced_subcomplex,
    join,
    link,
    minimal_nonfaces,
    reduced_homology,
    simplex_boundary,
)
from hyperconn.complexes import _minimal_nonfaces, _minimal_transversals
from hyperconn.hypergraph import _bitsets
from hyperconn.fixtures import lutz_acyclic_complex
from hyperconn.generators import random_hypergraph

import oracles


def transversals(ground, family):
    """_minimal_transversals of family as sets of vertices, in its order."""
    verts = sorted(ground)
    return [frozenset(verts[i] for i in t) for t in _minimal_transversals(_bitsets(ground, family))]


class TestComplexBasics:
    def test_nonmaximal_faces_dropped(self):
        d = SimplicialComplex([{1, 2}, {1}, {2, 3}, {3}])
        assert set(d.facets) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_facets_are_the_maximal_candidates(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(1, 7)
            cand = [
                frozenset(rng.sample(range(n), rng.randint(0, n)))
                for _ in range(rng.randint(0, 9))
            ]
            assert set(SimplicialComplex(cand).facets) == oracles.facets_of(cand)

    def test_point_only(self):
        d = SimplicialComplex([])
        assert d.is_point_only and d.dim == -1 and d.faces() == {frozenset()}

    def test_faces_cached_and_complete(self):
        d = SimplicialComplex([{1, 2, 3}])
        assert len(d.faces()) == 8
        assert d.has_face({1, 3}) and not d.has_face({1, 4})

    def test_immutable(self):
        d = SimplicialComplex([{1, 2}])
        with pytest.raises(AttributeError):
            d.facets = ()

    def test_capacity(self):
        big = full_simplex(range(30))
        with pytest.raises(CapacityExceeded):
            big.faces()

    def test_capacity_through_faces(self, monkeypatch):
        # minimal_nonfaces meets the cap in the minimal-transversal search,
        # gamma_tilde in the face enumeration
        monkeypatch.setenv("HYPERCONN_VERTEX_CAP", "3")
        with pytest.raises(CapacityExceeded):
            minimal_nonfaces(simplex_boundary(range(5)))
        with pytest.raises(CapacityExceeded):
            gamma_tilde(simplex_boundary(range(5)))

    def test_sphere_shapes(self):
        s0 = simplex_boundary([1, 2])
        assert set(s0.facets) == {frozenset({1}), frozenset({2})}
        s1 = simplex_boundary([1, 2, 3])
        assert len(s1.facets) == 3 and s1.dim == 1


class TestIndependenceComplex:
    def test_matches_subset_scan(self):
        rng = random.Random(7)
        for _ in range(40):
            H = random_hypergraph(rng, 7)
            ind = independence_complex(H)
            faces = oracles.independent_subsets(H.vertices, H.edges)
            assert ind.faces() == faces

    def test_minimal_transversals_match_oracle(self):
        # dense seeded families, comparable members and vertices in no
        # member included, so a missed, repeated or non-minimal set shows
        rng = random.Random(11)
        pool = [([], []), ([1, 2], []), ([1, 2], [set()]), ([1, 2, 3], [{1}, set()])]
        for _ in range(500):
            ground = range(1, rng.randint(1, 8) + 1)
            p = rng.uniform(0.2, 0.8)
            family = [
                {v for v in ground if rng.random() < p}
                for _ in range(rng.randint(1, 8))
            ]
            pool.append((ground, [frozenset(e) for e in family if e]))
        for ground, family in pool:
            got = transversals(frozenset(ground), family)
            assert len(got) == len(set(got)), family
            assert set(got) == oracles.minimal_transversals(ground, family), family
            assert got == oracles.mmcs_transversals(ground, family), family
        assert transversals(frozenset(), []) == [frozenset()]
        assert transversals(frozenset({1}), [frozenset()]) == []

    def test_minimal_transversals_match_set_mmcs_at_scale(self):
        # the same list in the same order as MMCS on Python sets, on the
        # gap family, all 5-subsets of 14 vertices (2,002 members) and
        # seeded 3-uniform draws on 12-13 vertices
        pool = [build_counterexample_family(3), fixture("complete(14,5)")]
        rng = random.Random(21)
        for n in (12, 13, 12, 13):
            triples = list(itertools.combinations(range(1, n + 1), 3))
            edges = rng.sample(triples, rng.randint(n, 2 * n))
            pool.append(Hypergraph(range(1, n + 1), edges))
        for H in pool:
            got = transversals(H.vertices, H.edges)
            assert got == oracles.mmcs_transversals(H.vertices, H.edges), H

    def test_edgeless_gives_full_simplex(self):
        H = Hypergraph(range(1, 5), [])
        assert independence_complex(H) == full_simplex(range(1, 5))

    def test_empty_hypergraph(self):
        assert independence_complex(Hypergraph([], [])).is_point_only

    def test_minimal_nonfaces_round_trip(self):
        rng = random.Random(8)
        for _ in range(40):
            H = random_hypergraph(rng, 7)
            assert minimal_nonfaces(independence_complex(H)) == H

    def test_kept_nonfaces_match_mmcs_of_the_facets(self):
        # independence_complex keeps the edges as the minimal non-faces;
        # MMCS on the facet complements of the same complex, built anew
        # from its facets, finds the same vertex masks
        rng = random.Random(7)
        pool = [random_hypergraph(rng, 7) for _ in range(60)]
        pool += [fixture(name) for name in ("c4", "c5", "path(9)", "complete(6,3)")]
        pool += [Hypergraph([], []), Hypergraph(range(1, 4), [])]
        for H in pool:
            ind = independence_complex(H)
            assert minimal_nonfaces(ind) == H
            verts, masks, _ = _minimal_nonfaces(SimplicialComplex(ind.facets))
            assert verts == _minimal_nonfaces(ind)[0]
            assert sorted(masks) == sorted(_minimal_nonfaces(ind)[1]), H

    def test_minimal_nonfaces_matches_oracle(self):
        # complexes that independence_complex did not build, so the
        # round trip above cannot hide a shared fault
        rng = random.Random(9)
        pool = [
            lutz_acyclic_complex(),
            SimplicialComplex([]),
            full_simplex([1]),
            full_simplex(range(4)),
            simplex_boundary([1, 2]),
            simplex_boundary(range(5)),
        ]
        for _ in range(15):
            a = independence_complex(random_hypergraph(rng, 4))
            b = independence_complex(random_hypergraph(rng, 4))
            shifted = SimplicialComplex({v + 10 for v in f} for f in b.facets)
            pool.append(join(a, shifted))
            c = independence_complex(random_hypergraph(rng, 7))
            v = rng.choice(sorted(c.vertices))
            pool.append(link(c, {v}))
        for delta in pool:
            got = minimal_nonfaces(delta)
            assert got.vertices == delta.vertices
            expect = oracles.minimal_nonfaces(delta.vertices, delta.faces())
            assert set(got.edges) == expect


class TestLazyFacets:
    """independence_complex keeps the edges and derives the facets on first
    use; the complex must be the one SimplicialComplex builds from them."""

    def test_same_complex_as_from_the_oracle_facets(self):
        rng = random.Random(29)
        pool = [random_hypergraph(rng, 7) for _ in range(60)]
        pool += [fixture(name) for name in ("c4", "c5", "path(9)", "complete(6,3)")]
        pool += [
            Hypergraph([], []),
            Hypergraph([4], []),
            Hypergraph(range(1, 4), []),
            Hypergraph(range(1, 7), [{1, 2}, {2, 3, 4}]),
        ]
        for H in pool:
            faces = oracles.independent_subsets(H.vertices, H.edges)
            eager = SimplicialComplex(oracles.facets_of(faces))
            assert independence_complex(H).facets == eager.facets, H
            assert independence_complex(H).vertices == eager.vertices
            assert independence_complex(H).dim == eager.dim
            assert repr(independence_complex(H)) == repr(eager)
            assert independence_complex(H) == eager and eager == independence_complex(H)
            assert hash(independence_complex(H)) == hash(eager)

    def test_constructs_above_the_cap(self):
        # path(30) has 30 vertices, over the default cap of 25: the complex
        # and its minimal non-faces come without a search, and each call
        # that needs one raises the one cap message
        H = fixture("path(30)")
        assert minimal_nonfaces(independence_complex(H)) == H
        for read in (lambda d: d.facets, reduced_homology, conn_h):
            with pytest.raises(CapacityExceeded) as exc:
                read(independence_complex(H))
            assert str(exc.value) == "30 vertices exceeds the enumeration cap"


class TestOperations:
    def _random_complex(self, rng):
        H = random_hypergraph(rng, 7)
        return independence_complex(H)

    def test_link_definition(self):
        rng = random.Random(9)
        for _ in range(30):
            d = self._random_complex(rng)
            faces = d.faces()
            sigma = rng.choice(sorted(faces, key=sorted))
            lk = link(d, sigma)
            expect = {f - sigma for f in faces if sigma <= f}
            assert lk.faces() == expect

    def test_link_requires_face(self):
        d = SimplicialComplex([{1, 2}, {3}])
        with pytest.raises(NotAFace):
            link(d, {1, 3})

    def test_deletion_definition(self):
        rng = random.Random(10)
        for _ in range(30):
            d = self._random_complex(rng)
            faces = [f for f in d.faces() if f]
            if not faces:
                continue
            sigma = rng.choice(sorted(faces, key=sorted))
            de = deletion(d, sigma)
            expect = {f for f in d.faces() if not sigma <= f}
            assert de.faces() == expect

    def test_induced_subcomplex(self):
        d = SimplicialComplex([{1, 2, 3}, {3, 4}])
        r = induced_subcomplex(d, {1, 2, 4})
        assert r.faces() == {
            frozenset(), frozenset({1}), frozenset({2}), frozenset({4}),
            frozenset({1, 2}),
        }

    def test_join_faces_are_unions(self):
        a = SimplicialComplex([{1, 2}])
        b = SimplicialComplex([{3}, {4}])
        j = join(a, b)
        assert j.faces() == {
            fa | fb for fa in a.faces() for fb in b.faces()
        }

    def test_join_identity(self):
        a = SimplicialComplex([{1, 2}])
        assert join(a, SimplicialComplex([])) == a

    def test_union(self):
        a = SimplicialComplex([{1, 2}])
        b = SimplicialComplex([{2, 3}])
        u = complex_union(a, b)
        assert u.faces() == a.faces() | b.faces()
