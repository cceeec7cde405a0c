"""Proper chains: distance, connectivity, triangulation, contraction laws."""

import itertools
import random
import sys

import pytest

from hyperconn import (
    INF,
    ComparableEdges,
    Hypergraph,
    NotProperlyConnected,
    ProperChain,
    ValidationError,
    c_max_disjoint,
    d_complete,
    edge_distance,
    find_decomposition_vertex,
    find_splitting_vertex,
    hypergraph_geq,
    is_irredundant,
    is_proper_chain,
    is_properly_connected,
    is_splitting_edge,
    is_triangulated,
    shortest_chain,
)
from hyperconn.chains import (
    _chain_occurrences_ok,
    _is_decomposition_vertex,
    _redundant,
    _StepTable,
    _walk,
)
from hyperconn.fixtures import cycle_hypergraph, path_hypergraph
from hyperconn.generators import (
    all_graphs,
    is_chordal,
    random_hypergraph,
    random_triangulated_uniform,
    random_uniform_hypergraph,
)

import oracles


def fs(*xs):
    return frozenset(xs)


def masks(edges):
    """Vertex masks of edges on small nonnegative vertex ids."""
    return [sum(1 << v for v in e) for e in edges]


def is_decomposition_vertex(H, v, d, A=None):
    """_is_decomposition_vertex on the part of H induced on A (default: all
    of H), read off H's step table."""
    T = _StepTable(H)
    A = H.vertices if A is None else A
    part = T.inside(sum(1 << i for i, u in enumerate(T.vertex) if u in A))
    return _is_decomposition_vertex(T, part, T.vertex.index(v), d)


def occurrences_ok(H, v):
    T = _StepTable(H)
    return _chain_occurrences_ok(T, (1 << len(H.edges)) - 1, T.vertex.index(v))


def walked_sequences(H, start, cap):
    """Every edge sequence _walk visits from start, as edge tuples."""
    out = []

    def visit(seq):
        out.append(tuple(H.edges[j] for j in seq))

    _walk(_StepTable(H), H.edges.index(start), cap, visit)
    return out


def chain_draws(seed):
    """Seeded 3-uniform, 4-uniform and mixed-size inputs on at most 7
    vertices, small enough for the pivot-enumerating oracle."""
    rng = random.Random(seed)
    draws = []
    for i in range(36):
        if i % 3 < 2:
            draws.append(random_uniform_hypergraph(rng, 7, 3 + i % 3, max_edges=9))
        else:
            H = random_hypergraph(rng, 7)
            while len(H.edges) > 9:
                H = random_hypergraph(rng, 7)
            draws.append(H)
    return draws


def proper_chains(edges):
    """Every edge sequence that some distinct pivots make a proper chain,
    grown from proper prefixes and checked by the oracle."""
    out = []
    stack = [[e] for e in edges]
    while stack:
        seq = stack.pop()
        out.append(seq)
        for e in edges:
            if e not in seq and oracles.has_pivots([*seq, e]):
                stack.append([*seq, e])
    return out


class TestProperChain:
    def test_valid_chain(self):
        C = cycle_hypergraph(5)
        ch = ProperChain(edges=(fs(1, 2), fs(2, 3), fs(3, 4)), pivots=(2, 3))
        assert is_proper_chain(C, ch)
        assert ch.length == 2
        assert ch.describe() == "{1 2} -[2]- {2 3} -[3]- {3 4}"

    def test_repeated_pivot_rejected(self):
        C = d_complete(4, 2)  # vertices 0..3
        ch = ProperChain(edges=(fs(0, 1), fs(1, 2), fs(1, 3)), pivots=(1, 1))
        assert not is_proper_chain(C, ch)

    def test_pivot_must_lie_in_both_edges(self):
        C = d_complete(4, 2)
        ch = ProperChain(edges=(fs(0, 1), fs(1, 2)), pivots=(0,))
        assert not is_proper_chain(C, ch)

    def test_intersection_law(self):
        C = Hypergraph(range(1, 6), [{1, 2}, {4, 5}])
        ch = ProperChain(edges=(fs(1, 2), fs(4, 5)), pivots=(1,))
        assert not is_proper_chain(C, ch)

    def test_irredundant(self):
        C = cycle_hypergraph(6)
        ch = ProperChain(
            edges=(fs(1, 2), fs(2, 3), fs(3, 4), fs(4, 5)), pivots=(2, 3, 4)
        )
        assert is_proper_chain(C, ch)
        assert is_irredundant(C, ch)
        # {0 1} and {0 2} meet in the pivot 0, so the middle edge is a detour
        K = d_complete(3, 2)
        ch = ProperChain(edges=(fs(0, 1), fs(1, 2), fs(0, 2)), pivots=(1, 2))
        assert is_proper_chain(K, ch)
        assert not is_irredundant(K, ch)

    def test_irredundant_rejects_improper_chain(self):
        C = d_complete(4, 2)
        ch = ProperChain(edges=(fs(0, 1), fs(1, 2), fs(1, 3)), pivots=(1, 1))
        with pytest.raises(ValidationError):
            is_irredundant(C, ch)

    def test_irredundant_matches_oracle(self):
        # random proper chains of up to six pivots on small uniform inputs
        rng = random.Random(61)
        seen = set()
        for i in range(300):
            H = random_uniform_hypergraph(rng, 7, (2, 3, 3, 4)[i % 4], max_edges=10)
            seq, pivots = [rng.choice(H.edges)], []
            while len(pivots) < 6:
                steps = [
                    (e, x)
                    for e in H.edges
                    if e not in seq and len(seq[-1] & e) == len(e) - 1
                    for x in sorted(seq[-1] & e)
                    if x not in pivots
                ]
                if not steps:
                    break
                e, x = rng.choice(steps)
                seq.append(e)
                pivots.append(x)
                ch = ProperChain(edges=tuple(seq), pivots=tuple(pivots))
                ok = oracles.irredundant(seq)
                assert is_irredundant(H, ch) == ok, ch.describe()
                seen.add(ok)
        assert seen == {True, False}

    def test_chord_lemma_needs_an_antichain(self):
        # irredundant although (0, 2) is a chord: the last edge {2 3} lies
        # inside the first, where the lemma's proof needs an antichain, and
        # a Hypergraph refuses such edges, so no chord test meets this chain
        seq = [fs(0, 2, 3), fs(1, 2), fs(0, 1), fs(0, 3), fs(2, 3)]
        assert oracles.irredundant(seq)
        assert _redundant(masks(seq))
        with pytest.raises(ComparableEdges):
            Hypergraph(range(4), seq)

    def test_chord_lemma_on_every_proper_chain(self):
        # redundant exactly when some E_p, E_q with q - p >= 2 meet in
        # |E_q| - 1 vertices, on every proper chain of seeded 3-uniform,
        # 4-uniform and mixed-size inputs
        rng = random.Random(65)
        inputs = [random_hypergraph(rng, 7).edges for _ in range(20)]
        for d, n in ((3, 6), (4, 7)):
            sets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), d)]
            inputs += [rng.sample(sets, rng.randint(6, 9)) for _ in range(8)]
        seen = set()
        for edges in inputs:
            for seq in proper_chains(edges):
                chordless = not any(
                    len(seq[p] & seq[q]) == len(seq[q]) - 1
                    for q in range(len(seq))
                    for p in range(q - 1)
                )
                assert oracles.irredundant(seq) == chordless, seq
                seen.add(chordless)
        assert seen == {True, False}


class TestDistance:
    def test_matches_enumeration_oracle(self):
        rng = random.Random(51)
        done = 0
        while done < 45:
            H = random_hypergraph(rng, 7)
            if len(H.edges) < 2 or len(H.edges) > 7:
                continue
            done += 1
            F, G = rng.sample(list(H.edges), 2)
            assert edge_distance(H, F, G) == oracles.chain_distance(H.edges, F, G)

    def test_same_edge_distance_zero(self):
        C = cycle_hypergraph(4)
        assert edge_distance(C, {1, 2}, {1, 2}) == 0

    def test_disconnected_is_infinite(self):
        C = Hypergraph(range(1, 5), [{1, 2}, {3, 4}])
        assert edge_distance(C, {1, 2}, {3, 4}) == INF
        assert shortest_chain(C, {1, 2}, {3, 4}) is None

    def test_shortest_chain_is_proper_and_minimal(self):
        rng = random.Random(52)
        done = 0
        while done < 30:
            H = random_hypergraph(rng, 7)
            if len(H.edges) < 2 or len(H.edges) > 7:
                continue
            done += 1
            F, G = rng.sample(list(H.edges), 2)
            ch = shortest_chain(H, F, G)
            d = oracles.chain_distance(H.edges, F, G)
            if ch is None:
                assert d == INF
            else:
                assert is_proper_chain(H, ch)
                assert ch.length == d
                assert is_irredundant(H, ch)


class TestEdgeSequenceWalk:
    def test_visits_each_proper_edge_sequence_once(self):
        # the edge sequences of the pivot-enumerating oracle's chains are
        # exactly the ones the walk visits, and the walk repeats none
        repeated = 0
        for H in chain_draws(66):
            cap = len(H.edges) - 1
            for F in H.edges:
                walked = walked_sequences(H, F, cap)
                chains = oracles.chain_walk(H.edges, F, cap)
                assert len(walked) == len(set(walked)), H
                assert set(walked) == {edges for edges, _ in chains}, (H, F)
                repeated += len(chains) - len(walked)
        assert repeated > 0

    def test_shortest_chain_is_the_oracles_first(self):
        # edges and pivots of the first least-length chain that the
        # (edge, pivot) depth-first search meets, on every edge pair
        found = 0
        for H in chain_draws(67):
            for F in H.edges:
                firsts = oracles.first_shortest_chains(H.edges, F)
                for G in H.edges:
                    want = firsts.get(G)
                    got = shortest_chain(H, F, G)
                    if want is None:
                        assert got is None, (H, F, G)
                    else:
                        assert (got.edges, got.pivots) == want, (H, F, G)
                        found += F != G
        assert found > 0

    def test_pinned_four_uniform_witness(self):
        # the least edge sequence of length 5 with its least pivots ends
        # {2 4 5 6} -[6]- {1 2 4 6} -[4]- {1 3 4 6}, which is not the first
        # chain; the self-reduction fixes (edge, pivot) pairs together
        rows = ["1 2 3 7", "1 2 4 6", "1 2 5 7", "1 3 4 6", "1 3 5 7",
                "2 3 4 6", "2 4 5 6", "2 4 5 7", "2 5 6 7", "3 5 6 7"]
        H = Hypergraph(range(1, 8), [map(int, r.split()) for r in rows])
        ch = shortest_chain(H, {1, 2, 3, 7}, {1, 3, 4, 6})
        assert ch.describe() == (
            "{1 2 3 7} -[1]- {1 2 5 7} -[2]- {2 4 5 7} -[4]- {2 4 5 6}"
            " -[6]- {2 3 4 6} -[3]- {1 3 4 6}"
        )
        firsts = oracles.first_shortest_chains(H.edges, {1, 2, 3, 7})
        assert (ch.edges, ch.pivots) == firsts[frozenset({1, 3, 4, 6})]

    def test_fan_has_no_three_distinct_pivots(self):
        # every two fan edges meet in {1 2}, so every sequence is a walk of
        # steps, but a third step finds no pivot the first two left free
        H = Hypergraph(range(1, 7), [{1, 2, 3}, {1, 2, 4}, {1, 2, 5}, {1, 2, 6}])
        for F in H.edges:
            assert max(map(len, walked_sequences(H, F, 3))) == 3

    def test_long_chain_needs_no_recursion(self):
        # 397 steps along the 3-uniform tight path under a recursion limit
        # far below the chain length
        n = 400
        H = Hypergraph(range(1, n + 1), [{i, i + 1, i + 2} for i in range(1, n - 1)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            ch = shortest_chain(H, {1, 2, 3}, {n - 2, n - 1, n})
        finally:
            sys.setrecursionlimit(limit)
        assert ch.length == n - 3
        assert ch.pivots == tuple(range(2, n - 1))


class TestProperlyConnected:
    def test_every_graph_is(self):
        # 2-uniform: intersecting edges share a vertex, giving a direct
        # length-1 chain, and disjoint pairs are unconstrained
        for n in range(2, 6):
            for G in all_graphs(n):
                if G.edges:
                    assert is_properly_connected(G)

    def test_distance_law_oracle(self):
        # definition check: properly connected iff every intersecting
        # pair attains distance d - |overlap|; the 3- and 4-uniform draws
        # exercise the local swap test on both verdicts
        rng = random.Random(56)
        pool = []
        while len(pool) < 25:
            H = random_hypergraph(rng, 7)
            d = H.uniform_size()
            if d is None or len(H.edges) < 2 or len(H.edges) > 7:
                continue
            pool.append(H)
        for d in (3, 4):
            pool += [
                random_uniform_hypergraph(rng, 7, d, min_edges=2, max_edges=7)
                for _ in range(15)
            ]
        seen = set()
        for H in pool:
            d = H.uniform_size()
            expect = all(
                oracles.chain_distance(H.edges, F, G) == d - len(F & G)
                for F in H.edges
                for G in H.edges
                if F != G and F & G
            )
            assert is_properly_connected(H) == expect
            seen.add((d, expect))
        assert {(d, v) for d in (3, 4) for v in (True, False)} <= seen

    def test_triple_overlap_two(self):
        C = Hypergraph(range(1, 5), [{1, 2, 3}, {1, 2, 4}])
        assert is_properly_connected(C)

    def test_triples_sharing_one_vertex_are_not(self):
        C = Hypergraph(range(1, 6), [{1, 2, 3}, {1, 4, 5}])
        assert not is_properly_connected(C)

    def test_constructed_families(self):
        rng = random.Random(53)
        for _ in range(8):
            H = random_triangulated_uniform(rng, 3, 8)
            assert is_properly_connected(H)


class TestDisjointChains:
    def test_values(self):
        assert c_max_disjoint(path_hypergraph(4)) == 1
        assert c_max_disjoint(Hypergraph(range(1, 5), [{1, 2}, {3, 4}])) == 2
        assert c_max_disjoint(cycle_hypergraph(6)) == 2
        assert c_max_disjoint(d_complete(4, 2)) == 1
        assert c_max_disjoint(Hypergraph([1, 2], [])) == 0

    def test_paths_and_cycles_closed_forms(self):
        # edges i and j of a path or cycle are at distance |i - j| (around
        # the cycle), so every third edge is the most pairwise >= 3 apart;
        # long paths took minutes when every candidate was branched on
        for n in [*range(3, 61), 100, 200, 299, 300]:
            assert c_max_disjoint(path_hypergraph(n)) == -(-(n - 1) // 3), n
            assert c_max_disjoint(cycle_hypergraph(n)) == n // 3, n

    def test_matches_oracle(self):
        rng = random.Random(61)
        for d in (2, 3, 4):
            for _ in range(30):
                H = random_uniform_hypergraph(rng, d + 6, d, min_edges=4, max_edges=8)
                expect = oracles.max_far_apart(H.edges, d)
                assert c_max_disjoint(H) == expect, H


class TestTriangulated:
    def test_agrees_with_chordality_on_all_small_graphs(self):
        for n in range(1, 7):
            for G in all_graphs(n):
                assert is_triangulated(G) == is_chordal(G), G

    def test_single_triple_block(self):
        assert is_triangulated(d_complete(4, 3))
        # d-complete on d+2 vertices has an irredundant 3-chain reusing a
        # vertex three times, so the occurrence condition fails
        assert not is_triangulated(d_complete(5, 3))

    @staticmethod
    def by_definition(H):
        # every nonempty induced part has a decomposition vertex, checked
        # subset by subset with no shortcut
        return all(
            find_decomposition_vertex(H.induced(A)) is not None
            for r in range(1, H.order + 1)
            for A in itertools.combinations(sorted(H.vertices), r)
        )

    def test_matches_definition_on_random_3_uniform(self):
        rng = random.Random(60)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(3, 7)
            p = rng.uniform(0.1, 0.6)
            triples = itertools.combinations(range(1, n + 1), 3)
            H = Hypergraph(range(1, n + 1), [e for e in triples if rng.random() < p])
            literal = self.by_definition(H)
            assert is_triangulated(H) == literal, H
            verdicts.add(literal)
        assert verdicts == {True, False}

    def test_matches_definition_on_random_4_uniform(self):
        rng = random.Random(63)
        verdicts = set()
        for _ in range(200):
            n = rng.randint(4, 7)
            p = rng.uniform(0.1, 0.6)
            quads = itertools.combinations(range(1, n + 1), 4)
            H = Hypergraph(range(1, n + 1), [e for e in quads if rng.random() < p])
            literal = self.by_definition(H)
            assert is_triangulated(H) == literal, H
            verdicts.add(literal)
        assert verdicts == {True, False}

    def test_decomposition_vertices_are_hereditary(self):
        # the lemma is_triangulated eliminates by: a decomposition vertex
        # of C stays one in every induced part that keeps it; unchecked
        # growth-model draws with one extra triple give decomposition
        # vertices of degree three and more, which random triples rarely do
        rng = random.Random(64)
        chain_tested = 0
        for _ in range(60):
            G = random_triangulated_uniform(rng, 3, rng.randint(4, 7), verify=False)
            extra = frozenset(rng.sample(sorted(G.vertices), 3))
            H = Hypergraph(G.vertices, set(G.edges) | {extra})
            for v in sorted(H.vertices):
                if not is_decomposition_vertex(H, v, 3):
                    continue
                rest = sorted(H.vertices - {v})
                for r in range(len(rest) + 1):
                    for B in itertools.combinations(rest, r):
                        sub = H.induced({v, *B})
                        assert is_decomposition_vertex(sub, v, 3), (H, v, B)
                        # the same part read off the whole hypergraph's table
                        assert is_decomposition_vertex(H, v, 3, {v, *B}), (H, v, B)
                        chain_tested += sub.degree(v) > 2
        assert chain_tested > 0

    def test_four_uniform_growth_instance(self):
        for seed, n in ((4001, 7), (4000, 8)):
            H = random_triangulated_uniform(random.Random(seed), 4, n)
            assert H.uniform_size() == 4
            assert is_properly_connected(H) and is_triangulated(H)

    def test_constructed_families(self):
        rng = random.Random(54)
        for _ in range(8):
            H = random_triangulated_uniform(rng, 3, 8)
            assert is_triangulated(H)

    def test_occurrence_condition_matches_oracle(self):
        # dense 3-uniform instances on 6 vertices, where the occurrence
        # condition both holds and fails
        rng = random.Random(58)
        triples = list(itertools.combinations(range(1, 7), 3))
        seen = set()
        for _ in range(20):
            H = Hypergraph(range(1, 7), rng.sample(triples, rng.randint(4, 7)))
            for v in sorted(H.vertices):
                if H.degree(v) < 3:
                    continue
                ok = oracles.max_irredundant_occurrences(H.edges, v) <= 2
                assert occurrences_ok(H, v) == ok, (H, v)
                seen.add(ok)
        assert seen == {True, False}
        # each has an irredundant chain of three edges holding v, such as
        # {1 5 6} {1 3 6} {3 4 6}, whose end edges meet in v alone: a chord
        # needs |E_p & E_q| = |E_q| - 1, not a shared vertex, and a walk from
        # an edge holding v must report the chain at its third edge
        for edges, v in (
            ([(1, 2, 3), (1, 3, 6), (1, 4, 6), (1, 5, 6), (3, 4, 6)], 6),
            ([(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5)], 3),
        ):
            H = Hypergraph(range(1, 7), edges)
            assert oracles.max_irredundant_occurrences(H.edges, v) == 3
            assert not occurrences_ok(H, v)


class TestSplitting:
    def test_path_edge(self):
        P = path_hypergraph(4)
        assert is_splitting_edge(P, {1, 2})
        assert find_splitting_vertex(P, {1, 2}) == 1

    def test_triangle_edge(self):
        K = d_complete(3, 2)
        assert is_splitting_edge(K, {1, 2})

    def test_cycle_edge_is_not(self):
        C = cycle_hypergraph(5)
        assert not is_splitting_edge(C, {1, 2})
        assert find_splitting_vertex(C, {1, 2}) is None


class TestContractionLaw:
    def test_geq_equals_contract_when_properly_connected(self):
        pools = []
        for n in range(2, 6):
            pools.extend(G for G in all_graphs(n) if G.edges)
        rng = random.Random(55)
        pools.extend(random_triangulated_uniform(rng, 3, 7) for _ in range(6))
        for H in pools:
            if not is_properly_connected(H):
                continue
            for F in H.edges:
                away = H.induced(H.vertices - F - H.neighbor_set(F))
                assert hypergraph_geq(H, F) == H.contract(F) == away

    def test_geq_requires_properly_connected(self):
        C = Hypergraph(range(1, 6), [{1, 2, 3}, {1, 4, 5}])
        with pytest.raises(NotProperlyConnected):
            hypergraph_geq(C, {1, 2, 3})
