"""The recursive connectivity bound: ground truths, solver agreement,
structural laws, and resource limits."""

import gc
import random
import sys
import weakref

import pytest

from hyperconn import (
    BudgetExceeded,
    DepthExceeded,
    Hypergraph,
    INF,
    PsiSolver,
    ValidationError,
    build_counterexample_family,
    d_complete,
    degree_bound,
    disjoint_union,
    psi,
    psi_naive,
    psi_witness,
)
from hyperconn.fixtures import cycle_hypergraph, path_hypergraph
from hyperconn.generators import random_hypergraph
from hyperconn.psi import _encode, _relabelled


def small_pool(seed, count, max_vertices=7, max_edges=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        H = random_hypergraph(rng, max_vertices)
        if len(H.edges) <= max_edges:
            out.append(H)
    return out


PINNED = [
    (Hypergraph([], []), 0),
    (Hypergraph([1, 2, 3], []), INF),
    (Hypergraph([1, 2], [{1, 2}]), 1),
    (Hypergraph(range(1, 5), [{1, 2}, {3, 4}]), 2),
    (cycle_hypergraph(4), 1),
    (cycle_hypergraph(5), 2),
    (cycle_hypergraph(6), 2),
    (path_hypergraph(4), INF),
    (path_hypergraph(5), 2),
    (path_hypergraph(6), 2),
    (d_complete(3, 2), 1),
    (d_complete(4, 2), 1),
    (d_complete(4, 3), 2),
    (Hypergraph(range(1, 5), [{1, 2}, {1, 3}, {1, 4}]), 1),
    (Hypergraph(range(1, 4), [{1, 2, 3}]), 2),
    (Hypergraph(range(1, 7), [{1, 2, 3}, {4, 5, 6}]), 4),
]

PINNED_LARGE = [
    (d_complete(5, 2), 1),
    (d_complete(6, 2), 1),
    (d_complete(5, 3), 2),
    (d_complete(6, 3), 2),
    (Hypergraph(range(1, 6), [{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 5}, {3, 5}]), 1),
    # closed forms: ceil((n - 1) / 3) on the cycle C_n; on the path P_n,
    # inf when n = 1 mod 3, else ceil(n / 3)
    (cycle_hypergraph(18), 6),
    (cycle_hypergraph(30), 10),
    (path_hypergraph(22), INF),
    (path_hypergraph(37), INF),
    (path_hypergraph(48), 16),
    (path_hypergraph(150), 50),
    (cycle_hypergraph(42), 14),
]


class TestPinnedValues:
    @pytest.mark.parametrize("H,expect", PINNED)
    def test_all_three_solvers(self, H, expect):
        # the window search with and without the component split, and
        # the plain recursion
        assert psi(H) == expect
        assert psi(H, solver=PsiSolver(decompose_components=False)) == expect
        assert psi_naive(H) == expect

    @pytest.mark.parametrize("H,expect", PINNED_LARGE)
    def test_two_solvers_large(self, H, expect):
        # the exact search, and the window probes at and above the value
        assert psi(H) == expect
        s = PsiSolver()
        assert s.at_least(H, expect)
        assert expect == INF or not s.at_least(H, expect + 1)


class TestClosedForms:
    def test_cycles(self):
        # conn_h(Ind(C_n)) + 2, from Kozlov's homotopy types of Ind(C_n)
        # ("Complexes of directed trees", J. Combin. Theory A 88, 1999)
        for n in (*range(3, 25), 60, 90, 120):
            assert psi(cycle_hypergraph(n)) == -(-(n - 1) // 3), n

    def test_paths(self):
        for n in range(2, 34):
            assert psi(path_hypergraph(n)) == (INF if n % 3 == 1 else -(-n // 3)), n


class ResidualRecorder(PsiSolver):
    """Records the state each contraction hands on instead of solving it."""

    def __init__(self):
        super().__init__()
        self.passed = []

    def _val(self, vmask, edges):
        self.passed.append((vmask, edges))
        return 0


def random_antichain(rng):
    n = rng.randint(4, 10)
    edges = []
    for _ in range(rng.randint(1, 12)):
        e = frozenset(rng.sample(range(n), rng.randint(2, min(5, n))))
        if all(not (e <= g or g <= e) for g in edges):
            edges.append(e)
    return Hypergraph(range(n), edges)


class TestContractionKernel:
    @staticmethod
    def check(H):
        # the oracle: Hypergraph.contract, encoded as a root is
        vlist = sorted(H.vertices)
        vmask, edges, _ = _encode(H)
        for i, f in enumerate(edges):
            F = frozenset(v for b, v in enumerate(vlist) if f >> b & 1)
            rec = ResidualRecorder()
            rec._contract_value(vmask, edges, i)
            assert rec.passed == [_encode(H.contract(F))[:2]]

    def test_matches_contract_on_random_antichains(self):
        rng = random.Random(31)
        for _ in range(300):
            self.check(random_antichain(rng))

    def test_knocked_out_untouched_edge(self):
        # {3, 4} = {1, 3, 4} - F lies inside the untouched edge {3, 4, 5}
        H = Hypergraph(range(1, 6), [{1, 2}, {1, 3, 4}, {3, 4, 5}])
        K = H.contract({1, 2})
        assert K.vertices == {3, 4, 5} and K.edges == (frozenset({3, 4}),)
        self.check(H)


def tight_cycle(n):
    return Hypergraph(range(1, n + 1), [{i, i % n + 1, (i + 1) % n + 1} for i in range(1, n + 1)])


class TestCompactKeys:
    def test_every_key_is_an_encoded_root(self):
        # each state is keyed exactly as _encode keys the hypergraph it
        # stands for: vertices on bits 0..k-1, edges sorted
        s = PsiSolver()
        for H in small_pool(23, 150):
            psi(H, solver=s)
        for n in (18, 30, 42):
            psi(cycle_hypergraph(n), solver=s)
        for n in (22, 37, 48):
            psi(path_hypergraph(n), solver=s)
        for n in (12, 14, 16):
            psi(tight_cycle(n), solver=s)
        for vmask, edges in s.table:
            k = vmask.bit_length()
            assert vmask == (1 << k) - 1
            K = Hypergraph(range(k), [[b for b in range(k) if e >> b & 1] for e in edges])
            assert _encode(K)[:2] == (vmask, edges)

    def test_translated_copies_share_entries(self):
        s = PsiSolver()
        assert psi(path_hypergraph(21), solver=s) == 7
        nodes = s.nodes
        H = disjoint_union(
            Hypergraph(range(101, 122), [{i, i + 1} for i in range(101, 121)]),
            Hypergraph(range(201, 222), [{i, i + 1} for i in range(201, 221)]),
        )
        assert psi(H, solver=s) == 14
        assert s.nodes == nodes


def beside(A, B):
    """The disjoint union of A and a copy of B on labels above A's."""
    off = max(A.vertices, default=0) + 1 - min(B.vertices, default=1)
    return disjoint_union(A, Hypergraph(
        (v + off for v in B.vertices),
        [frozenset(v + off for v in e) for e in B.edges],
    ))


def relabel(H, rng):
    """H on its vertices permuted at random."""
    vs = sorted(H.vertices)
    image = dict(zip(vs, rng.sample(vs, len(vs))))
    return Hypergraph(vs, [{image[v] for v in e} for e in H.edges])


def isomorphic(k, A, B):
    """Whether a permutation of bits 0..k-1 maps the edge masks A onto B."""
    def degrees(E):
        return [sum(e >> v & 1 for e in E) for v in range(k)]

    da, db, target = degrees(A), degrees(B), set(B)

    def extend(p):
        if len(p) == k:
            return {sum(1 << p[b] for b in range(k) if e >> b & 1) for e in A} == target
        return any(
            extend(p + [j]) for j in range(k) if j not in p and db[j] == da[len(p)]
        )

    return len(A) == len(B) and extend([])


class TestIsomorphicSharing:
    def test_shuffled_path_adds_no_nodes(self):
        s = PsiSolver()
        assert psi(path_hypergraph(30), solver=s) == 10
        nodes = s.nodes
        order = list(range(1, 31))
        random.Random(41).shuffle(order)
        H = Hypergraph(order, [{a, b} for a, b in zip(order, order[1:])])
        assert psi(H, solver=s) == 10
        assert s.nodes == nodes

    def test_relabelled_is_a_bijection(self):
        pool = small_pool(23, 150)
        parts = small_pool(42, 40, max_vertices=4, max_edges=3)
        pool += [beside(A, B) for A, B in zip(parts[::2], parts[1::2])]
        for H in pool:
            vmask, edges = _encode(H)[:2]
            out_mask, out = _relabelled(vmask, edges)
            assert out_mask == vmask
            assert list(out) == sorted(out)
            assert sorted(map(int.bit_count, out)) == sorted(map(int.bit_count, edges))
            assert isomorphic(vmask.bit_length(), edges, out)

    @pytest.mark.parametrize("decompose", [True, False])
    def test_relabelled_copies_agree_with_naive(self, decompose):
        rng = random.Random(43)
        s = PsiSolver(decompose_components=decompose)
        for H in small_pool(23, 150):
            v = psi_naive(H)
            assert psi(relabel(H, rng), solver=s) == v
            assert psi(H, solver=s) == v


class TestSolverAgreement:
    def test_matches_naive_on_small_pool(self):
        for H in small_pool(23, 150):
            assert psi(H) == psi_naive(H)

    @pytest.mark.parametrize("decompose", [True, False])
    def test_at_least_matches_naive(self, decompose):
        pool = small_pool(31, 80)
        parts = small_pool(32, 40, max_vertices=5, max_edges=3)
        pool += [beside(A, B) for A, B in zip(parts[::2], parts[1::2])]
        for H in pool:
            v = psi_naive(H)
            s = PsiSolver(decompose_components=decompose)
            assert s.at_least(H, v)
            assert v == INF or not s.at_least(H, v + 1)
            assert psi(H, solver=s) == v

    def test_no_decomposition_matches(self):
        for H in small_pool(24, 60):
            assert psi(H, solver=PsiSolver(decompose_components=False)) == psi(H)


class TestStructuralLaws:
    def test_isolated_vertex_forces_infinity(self):
        for H in small_pool(25, 40):
            extra = max(H.vertices, default=0) + 1
            K = Hypergraph(set(H.vertices) | {extra}, H.edges)
            assert psi(K) == INF

    def test_component_additivity(self):
        pool = small_pool(26, 60, max_vertices=5, max_edges=3)
        rng = random.Random(27)
        for _ in range(30):
            A = rng.choice(pool)
            B = rng.choice(pool)
            assert psi(beside(A, B)) == psi(A) + psi(B)

    def test_value_bounded_by_order_when_finite(self):
        for H in small_pool(28, 80):
            v = psi(H)
            if v != INF and H.edges:
                assert v <= H.order - 1


class TestWitness:
    def test_witness_achieves_value(self):
        for H in small_pool(29, 60):
            v, F = psi_witness(H)
            if F is None:
                # base case: no outer maximization happened
                assert v == 0 or v == INF
                continue
            # the witness is the first edge in canonical order attaining v
            for E in H.edges:
                inner = min(psi_naive(H.delete_edge(E)), psi_naive(H.contract(E)) + len(E) - 1)
                if E == F:
                    assert inner == v
                    break
                assert inner != v

    def test_witness_deterministic(self):
        H = cycle_hypergraph(5)
        assert psi_witness(H) == psi_witness(H)


class TestSolverLifetime:
    @pytest.mark.parametrize("decompose", [False, True])
    def test_freed_by_reference_counting(self, decompose):
        # a solver holding a reference to itself would outlive its last
        # name, table included, until a full collection; split entries
        # hold their components' keys, not their entries
        gc.disable()
        try:
            s = PsiSolver(decompose_components=decompose)
            psi_witness(beside(cycle_hypergraph(9), path_hypergraph(5)), solver=s)
            ref = weakref.ref(s)
            del s
            assert ref() is None
        finally:
            gc.enable()


class TestSplitWindow:
    def test_family_plus_an_edge_within_budget(self):
        # F + K2 splits at the root and at each deletion child that the
        # witness probes with the window (2, 3): K2 is solved exactly and
        # the F side is searched with the window shifted by 1, where an
        # exact solve of every F - e would exhaust the budget
        F = build_counterexample_family(3)
        m = max(F.vertices)
        joined = Hypergraph(
            set(F.vertices) | {m + 1, m + 2},
            list(F.edges) + [frozenset({m + 1, m + 2})],
        )
        assert psi_witness(joined, solver=PsiSolver(budget=5_000)) == (3, {2, 9})

    def test_descent_mode_is_refused(self):
        H = cycle_hypergraph(5)
        with pytest.raises(ValidationError, match="descent mode was removed"):
            psi(H, None, None, True)
        with pytest.raises(ValidationError, match="descent mode was removed"):
            psi_witness(H, cap_preservation=True)
        with pytest.raises(ValidationError, match="descent mode was removed"):
            PsiSolver(cap_preservation=True)
        assert psi(H, None, None, False) == 2


class TestResources:
    def test_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            psi(d_complete(6, 2), budget=2)

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("HYPERCONN_PSI_BUDGET", "2")
        with pytest.raises(BudgetExceeded):
            psi(d_complete(6, 2))

    def test_budget_cutoff_carries_root_bounds(self):
        with pytest.raises(BudgetExceeded) as info:
            psi(d_complete(6, 2), budget=2)
        assert info.value.bounds == (0, INF)
        # on the tight cycle T_14 (value 7) the first root child proves the
        # value as a lower bound after 383 of the search's 675 nodes
        H = tight_cycle(14)
        s = PsiSolver(budget=500)
        with pytest.raises(BudgetExceeded) as info:
            psi_witness(H, solver=s)
        assert info.value.bounds == (7, INF)
        assert s.table[_encode(H)[:2]] == [7, INF]

    def test_deep_recursion_raises_resource_error(self):
        H = path_hypergraph(400)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        s = PsiSolver()
        sys.setrecursionlimit(depth + 200)
        try:
            for query in (s.value, s.argmax_edge):
                with pytest.raises(DepthExceeded, match="^recursion depth exceeded$"):
                    query(H)
        finally:
            sys.setrecursionlimit(limit)
        # the table keeps only proven bounds, so the solver stays usable
        assert psi(H, solver=s) == INF


class TestDegreeBound:
    def test_values(self):
        assert degree_bound(Hypergraph([], [])) == 0
        assert degree_bound(Hypergraph([1, 2], [])) == INF
        assert degree_bound(cycle_hypergraph(5)) == 2
        assert degree_bound(path_hypergraph(4)) == 1

    def test_below_psi(self):
        for H in small_pool(30, 60):
            assert degree_bound(H) <= psi(H)
