"""Domination-style invariants of independence complexes."""

import random

import pytest

from hyperconn import (
    INF,
    CapacityExceeded,
    Hypergraph,
    SimplicialComplex,
    conn_h,
    d_complete,
    epsilon,
    epsilon_witness,
    fixture,
    full_simplex,
    gamma_tilde,
    gamma_tilde_witness,
    independence_complex,
    is_edgewise_dominant,
    k_bound,
    minimal_nonfaces,
    psi,
    reduced_homology,
    simplex_boundary,
    sp_tilde,
)
from hyperconn import complexes, domination
from hyperconn.fixtures import cycle_hypergraph, lutz_acyclic_complex, path_hypergraph
from hyperconn.generators import all_graphs, random_hypergraph

import oracles


PINNED = [
    (cycle_hypergraph(4), 2, 1, 1),
    (cycle_hypergraph(5), 3, 2, 2),
    (path_hypergraph(4), 2, 1, 1),
    (Hypergraph([1, 2], [{1, 2}]), 2, 1, 1),
    (d_complete(4, 2), 2, 1, 1),
    (Hypergraph([1, 2, 3], []), INF, INF, 0),
]

# the minimal 6-vertex real projective plane
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def complexes_beyond_graphs():
    """RP^2, the acyclic Lutz complex, cones over both, {empty}, a full
    simplex and 40 seeded lists of random facets on at most 7 vertices:
    complexes that need not be independence complexes of graphs."""
    lutz = lutz_acyclic_complex()
    pool = [
        SimplicialComplex(RP2_FACETS),
        lutz,
        SimplicialComplex(f + (7,) for f in RP2_FACETS),
        SimplicialComplex(f | {0} for f in lutz.facets),
        SimplicialComplex([]),
        full_simplex([1, 2, 3]),
    ]
    rng = random.Random(36)
    for _ in range(40):
        n = rng.randint(1, 7)
        pool.append(SimplicialComplex(
            rng.sample(range(1, n + 1), rng.randint(1, n))
            for _ in range(rng.randint(1, 7))
        ))
    return pool


class TestPinned:
    @pytest.mark.parametrize("H,g,k,e", PINNED)
    def test_values(self, H, g, k, e):
        assert gamma_tilde(independence_complex(H)) == g
        assert k_bound(H) == k
        assert epsilon(H) == e


class TestGammaTilde:
    def test_capped_before_the_subset_search(self, monkeypatch):
        # the kept non-faces need no search, so the cap must stop the 2^30
        # subsets of path(30) before the first kill-mask test
        def no_search(*args):
            raise AssertionError("the subset search ran")

        monkeypatch.setattr(domination, "_killed", no_search)
        H = fixture("path(30)")
        with pytest.raises(CapacityExceeded, match="30 vertices exceeds the enumeration cap"):
            k_bound(H)
        with pytest.raises(CapacityExceeded, match="30 vertices exceeds the enumeration cap"):
            gamma_tilde(independence_complex(H))

    def test_matches_definition_oracle(self):
        rng = random.Random(31)
        for _ in range(40):
            H = random_hypergraph(rng, 6)
            ind = independence_complex(H)
            expect = oracles.strong_dominating_number(H.vertices, ind.faces())
            assert gamma_tilde(ind) == expect

    def test_graphs_match_total_domination(self):
        for n in range(1, 6):
            for G in all_graphs(n):
                g = gamma_tilde(independence_complex(G))
                assert g == oracles.total_domination(G.vertices, G.edges)

    def test_witness_dominates(self):
        rng = random.Random(32)
        for _ in range(30):
            H = random_hypergraph(rng, 6)
            ind = independence_complex(H)
            size, A = gamma_tilde_witness(ind)
            if size == INF:
                continue
            assert len(A) == size
            assert sp_tilde(ind, A) == ind.vertices | frozenset()
            # also confirm it's covered by the package's own closure
            assert sp_tilde(ind, A) >= frozenset(H.vertices)

    def test_sp_tilde_matches_oracle(self):
        rng = random.Random(33)
        pool = [lutz_acyclic_complex(), simplex_boundary(range(4)), full_simplex([1, 2])]
        pool += [independence_complex(random_hypergraph(rng, 6)) for _ in range(40)]
        for delta in pool:
            vs = sorted(delta.vertices)
            half = [v for v in vs if rng.random() < 0.5]
            for A in ([], vs, half):
                expect = oracles.covered(vs, delta.faces(), A)
                assert sp_tilde(delta, A) == expect

    def test_sp_tilde_matches_oracle_beyond_graphs(self):
        # kill pairs come from minimal non-faces of any size: the first four
        # have a minimal non-face of three or more vertices, so none is the
        # independence complex of a graph
        pool = complexes_beyond_graphs()
        for delta in pool[:4]:
            assert max(map(len, minimal_nonfaces(delta).edges)) >= 3
        rng = random.Random(37)
        for delta in pool:
            vs = sorted(delta.vertices)
            faces = delta.faces()
            halves = [[v for v in vs if rng.random() < 0.5] for _ in range(8)]
            for A in ([], vs, *halves):
                assert sp_tilde(delta, A) == oracles.covered(vs, faces, A)
            if len(vs) <= 6:
                expect = oracles.strong_dominating_number(vs, faces)
                assert gamma_tilde(delta) == expect, delta

    @pytest.mark.parametrize("n", range(3, 21))
    def test_cycles_match_total_domination_closed_form(self, n):
        # the total domination number of C_n; Ind(C_18) took 45 s when the
        # kill pairs were read off every face
        expect = n // 2 + -(-n // 4) - n // 4
        assert gamma_tilde(independence_complex(cycle_hypergraph(n))) == expect


class TestOneMMCS:
    def test_one_transversal_search_per_bound(self, monkeypatch):
        # independence_complex keeps the edges as the minimal non-faces and
        # runs no search; k_bound, gamma_tilde and conn_h read only those,
        # and reduced_homology runs MMCS once, for the facets behind dim
        calls = []
        real = complexes._minimal_transversals

        def counted(bits, cap=None):
            calls.append(len(bits[1]))
            return real(bits, cap)

        monkeypatch.setattr(complexes, "_minimal_transversals", counted)
        rng = random.Random(37)
        pool = [H for H, *_ in PINNED] + [random_hypergraph(rng, 7) for _ in range(20)]
        for H in pool:
            calls.clear()
            k_bound(H)
            gamma_tilde(independence_complex(H))
            conn_h(independence_complex(H))
            assert calls == [], H
            reduced_homology(independence_complex(H))
            assert len(calls) == 1, H


class TestEpsilon:
    def test_witness_is_dominant_family(self):
        rng = random.Random(33)
        for _ in range(30):
            H = random_hypergraph(rng, 7)
            size, fam = epsilon_witness(H)
            assert len(fam) == size
            assert is_edgewise_dominant(H, fam)
            # minimality: no smaller family works
            if size > 0:
                import itertools

                smaller_works = any(
                    is_edgewise_dominant(H, sub)
                    for sub in itertools.combinations(H.edges, size - 1)
                )
                assert not smaller_works

    def test_edgeless_is_zero(self):
        assert epsilon(Hypergraph([1, 2], [])) == 0


class TestBoundsAgainstPsi:
    def test_k_and_epsilon_below_psi(self):
        rng = random.Random(34)
        for _ in range(50):
            H = random_hypergraph(rng, 7)
            p = psi(H)
            assert k_bound(H) <= p
            assert epsilon(H) <= p

    def test_degree_times_gamma_covers_order(self):
        rng = random.Random(35)
        for _ in range(50):
            H = random_hypergraph(rng, 7)
            if not H.edges:
                continue
            g = gamma_tilde(independence_complex(H))
            assert g * H.max_degree() >= H.order
