"""Domination-style invariants of complexes and hypergraphs.

sp_tilde(delta, A) collects the vertices v for which some face sigma
inside A stops being a face when v is added.  A set A with sp_tilde(A)
equal to the whole vertex set is a dominating set of the complex;
gamma_tilde is the least size of one.  For the independence complex of a
graph this recovers the classical total domination number.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex, _minimal_nonfaces, independence_complex
from .errors import CapacityExceeded, NotASubset, NotSubfamily
from .extnat import INF, ExtNat, ceil_half
from .hypergraph import Hypergraph, _bitsets, _ones
from .limits import DEFAULT_COMBINATION_CAP, _check_vertex_cap

__all__ = [
    "sp_tilde",
    "gamma_tilde",
    "gamma_tilde_witness",
    "k_bound",
    "is_edgewise_dominant",
    "epsilon",
    "epsilon_witness",
]


def sp_tilde(delta: SimplicialComplex, A) -> frozenset:
    """Vertices v admitting a face sigma <= A with sigma + {v} not a face.

    sigma ranges over all faces inside A, the empty face included.  A
    vertex already in sigma never qualifies through that sigma, since
    sigma + {v} is then sigma itself.
    """
    A = frozenset(A)
    if not A <= delta.vertices:
        raise NotASubset(f"{sorted(A)} is not a subset of the vertex set")
    verts, pairs = _sp_masks(delta)
    amask = _bitsets(delta.vertices, [A])[1][0]
    sp = _killed(pairs, amask, (1 << len(verts)) - 1)
    return frozenset(verts[i] for i in _ones(sp))


def _sp_masks(delta: SimplicialComplex) -> tuple:
    """Sorted vertices and the kill pairs of delta, as the vertex masks of
    _bitsets: each N - v, for N a minimal non-face and v in N, with the
    OR of the v it comes from.  Each N - v is a face, so by the lemma v
    is in sp_tilde(A) exactly when some N - v lies in A.

    Lemma.  v kills a face sigma (sigma + v is not a face) exactly when
    sigma contains N - v for some minimal non-face N holding v.
    Proof.  (<=) sigma + v holds N.  (=>) sigma + v holds some minimal
    non-face N; N is not inside the face sigma, so v is in N and N - v
    lies in sigma."""
    verts, nonfaces, _ = _minimal_nonfaces(delta)
    kills: dict[int, int] = {}
    for N in nonfaces:
        for i in _ones(N):
            kills[N ^ 1 << i] = kills.get(N ^ 1 << i, 0) | 1 << i
    return verts, list(kills.items())


def _killed(pairs: list, amask: int, full: int) -> int:
    """OR of the kill masks of the pairs inside amask, stopping at full."""
    sp = 0
    for smask, kmask in pairs:
        if smask & ~amask == 0:
            sp |= kmask
            if sp == full:
                break
    return sp


def gamma_tilde_witness(delta: SimplicialComplex) -> tuple[ExtNat, frozenset | None]:
    """(gamma_tilde, a smallest dominating set or None when none exists).

    Search order: increasing size, lexicographic within a size, so the
    witness is deterministic.  INF when even the full vertex set fails,
    as for a full simplex.  Over the vertex cap, CapacityExceeded at once.
    """
    verts, pairs = _sp_masks(delta)
    n = len(verts)
    _check_vertex_cap(n, None)
    full = (1 << n) - 1
    bits = [1 << i for i in range(n)]
    for size in range(0, n + 1):
        for combo in combinations(bits, size):
            if _killed(pairs, sum(combo), full) == full:
                return (size, frozenset(verts[b.bit_length() - 1] for b in combo))
    return (INF, None)


def gamma_tilde(delta: SimplicialComplex) -> ExtNat:
    """Least size of a set A with sp_tilde(A) covering every vertex."""
    return gamma_tilde_witness(delta)[0]


def k_bound(C: Hypergraph) -> ExtNat:
    """Half the domination number of the independence complex, rounded up."""
    return ceil_half(gamma_tilde(independence_complex(C)))


def is_edgewise_dominant(C: Hypergraph, family) -> bool:
    """Every non-isolated vertex is in or next to a vertex covered by the family.

    The family must consist of edges of C (NotSubfamily otherwise).
    """
    fam = [frozenset(e) for e in family]
    for e in fam:
        if not C.has_edge(e):
            raise NotSubfamily(f"{sorted(e)} is not an edge of the hypergraph")
    cover: set = set()
    for e in fam:
        cover |= e
    for v in C.vertices - C.isolated_vertices():
        if v in cover or C.vertex_neighborhood(v) & cover:
            continue
        return False
    return True


def epsilon_witness(C: Hypergraph) -> tuple[int, tuple]:
    """(epsilon, a smallest edgewise dominant subfamily).

    0 with the empty family when every vertex is isolated.  The full edge
    family always dominates, so the value is finite.
    """
    if not (C.vertices - C.isolated_vertices()):
        return (0, ())
    m = len(C.edges)
    budget = DEFAULT_COMBINATION_CAP
    seen = 0
    for size in range(1, m + 1):
        for fam in combinations(C.edges, size):
            seen += 1
            if seen > budget:
                raise CapacityExceeded("edgewise dominance search too large")
            if is_edgewise_dominant(C, fam):
                return (size, fam)
    raise AssertionError("full family must dominate")


def epsilon(C: Hypergraph) -> int:
    """Least size of an edgewise dominant subfamily of edges."""
    return epsilon_witness(C)[0]
