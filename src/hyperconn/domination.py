"""Domination-style invariants of complexes and hypergraphs.

sp_tilde(delta, A) collects the vertices v for which some face sigma
inside A stops being a face when v is added.  A set A with sp_tilde(A)
equal to the whole vertex set is a dominating set of the complex;
gamma_tilde is the least size of one.  For the independence complex of a
graph this recovers the classical total domination number.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex, _face_levels, independence_complex
from .errors import CapacityExceeded, NotASubset, NotSubfamily
from .extnat import INF, ExtNat, ceil_half
from .hypergraph import Hypergraph
from .limits import DEFAULT_COMBINATION_CAP

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
    verts, faces = _sp_masks(delta)
    amask = sum(1 << i for i, v in enumerate(verts) if v in A)
    sp = _killed(faces, amask, (1 << len(verts)) - 1)
    return frozenset(v for i, v in enumerate(verts) if sp >> i & 1)


def _sp_masks(delta: SimplicialComplex) -> tuple:
    """Sorted vertices and (face mask, kill mask) pairs, the masks those of
    _face_levels.

    v kills sigma (sigma + {v} is not a face) exactly when v is outside
    sigma and sigma + {v} is missing from the level above; faces that kill
    nothing are left out."""
    verts = sorted(delta.vertices)
    full = (1 << len(verts)) - 1
    levels = _face_levels(delta, None)
    faces = []
    for level, above in zip(levels, levels[1:] + [set()]):
        for smask in level:
            kmask = rest = full & ~smask
            while rest:
                low = rest & -rest
                rest ^= low
                if (smask | low) in above:
                    kmask ^= low
            if kmask:
                faces.append((smask, kmask))
    return verts, faces


def _killed(faces: list, amask: int, full: int) -> int:
    """OR of the kill masks of the faces inside amask, stopping at full."""
    sp = 0
    for smask, kmask in faces:
        if smask & ~amask == 0:
            sp |= kmask
            if sp == full:
                break
    return sp


def gamma_tilde_witness(delta: SimplicialComplex) -> tuple[ExtNat, frozenset | None]:
    """(gamma_tilde, a smallest dominating set or None when none exists).

    Search order: increasing size, lexicographic within a size, so the
    witness is deterministic.  INF when even the full vertex set fails,
    as for a full simplex.
    """
    verts, faces = _sp_masks(delta)
    n = len(verts)
    full = (1 << n) - 1
    for size in range(0, n + 1):
        for combo in combinations(range(n), size):
            amask = 0
            for i in combo:
                amask |= 1 << i
            if _killed(faces, amask, full) == full:
                return (size, frozenset(verts[i] for i in combo))
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
