"""Finite hypergraphs given by pairwise incomparable edges of size >= 2.

Invariants
----------
* vertices is a frozenset of ints; edges is a tuple of frozensets.
* Every edge has at least two vertices and is contained in the vertex set.
* No edge contains another (so the family is an antichain).
* Edges are kept in canonical order: sorted by (size, sorted vertex tuple).
  Two hypergraphs are equal iff they have the same vertex set and edge set.

A graph is exactly the 2-uniform case.  Vertices that lie in no edge are
allowed; they matter for the independence complex (cone points) and for the
recursive invariants.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable

from .errors import (
    ComparableEdges,
    EdgeNotPresent,
    EdgeOutsideVertexSet,
    EdgeTooSmall,
    NotASubset,
    OverlappingVertexSets,
    ValidationError,
    VertexNotPresent,
)

Edge = frozenset

__all__ = [
    "Edge",
    "Hypergraph",
    "d_complete",
    "d_complete_on",
    "disjoint_union",
]


def _edge_key(e: frozenset) -> tuple:
    return (len(e), tuple(sorted(e)))


def _bitsets(ground, family) -> tuple[list, list[int], list[int]]:
    """(order, masks, occ), the bitset encoding every kernel reads: order
    is sorted(ground), vertex order[i] is bit i of a vertex mask, masks[j]
    is family[j] as a vertex mask, and occ[i] has bit j set when family[j]
    holds order[i].  Every set of family must lie in ground."""
    order = sorted(ground)
    index = {v: i for i, v in enumerate(order)}
    masks = []
    occ = [0] * len(order)
    for j, e in enumerate(family):
        m, bit = 0, 1 << j
        for v in e:
            i = index[v]
            m |= 1 << i
            occ[i] |= bit
        masks.append(m)
    return order, masks, occ


def _ones(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Hypergraph:
    """A vertex set together with an antichain of edges of size >= 2."""

    __slots__ = ("vertices", "edges", "_edge_set", "_hash")

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]]):
        vset = frozenset(vertices)
        for v in vset:
            if not isinstance(v, int):
                raise ValidationError(f"vertex {v!r} is not an int")
        eset = {frozenset(e) for e in edges}
        for e in eset:
            if len(e) < 2:
                raise EdgeTooSmall(f"edge {sorted(e)} has fewer than 2 vertices")
            if not e <= vset:
                raise EdgeOutsideVertexSet(
                    f"edge {sorted(e)} is not inside the vertex set"
                )
        elist = sorted(eset, key=_edge_key)
        # only a strictly larger edge can contain e, and those come after it
        sizes = [len(e) for e in elist]
        for i, e in enumerate(elist):
            for j in range(bisect_right(sizes, sizes[i]), len(elist)):
                if e < elist[j]:
                    raise ComparableEdges(
                        f"edges {sorted(e)} and {sorted(elist[j])} are comparable"
                    )
        self._init_fields(vset, tuple(elist))

    def _init_fields(self, vset: frozenset, etup: tuple) -> None:
        object.__setattr__(self, "vertices", vset)
        object.__setattr__(self, "edges", etup)
        object.__setattr__(self, "_edge_set", frozenset(etup))
        object.__setattr__(self, "_hash", hash((vset, self._edge_set)))

    @classmethod
    def _trusted(cls, vset: frozenset, etup: tuple) -> "Hypergraph":
        # Internal fast path for results derived from an already valid
        # hypergraph, where the invariants hold by construction.
        self = object.__new__(cls)
        self._init_fields(vset, etup)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.vertices == other.vertices and self._edge_set == other._edge_set

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        es = ", ".join("{" + ",".join(map(str, sorted(e))) + "}" for e in self.edges)
        return f"Hypergraph(V={sorted(self.vertices)}, E=[{es}])"

    # basic queries ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.vertices)

    def has_edge(self, F: Iterable[int]) -> bool:
        return frozenset(F) in self._edge_set

    def uniform_size(self) -> int | None:
        """The common edge size d, or None if edges have mixed sizes.

        An edgeless hypergraph is vacuously uniform; returns None there too,
        since no d is determined.
        """
        sizes = {len(e) for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def degree(self, v: int) -> int:
        if v not in self.vertices:
            raise VertexNotPresent(f"vertex {v} not in the vertex set")
        return sum(1 for e in self.edges if v in e)

    def max_degree(self) -> int:
        """Largest vertex degree.

        Convention: 1 on the empty vertex set, 0 for a nonempty edgeless
        hypergraph.
        """
        if not self.vertices:
            return 1
        if not self.edges:
            return 0
        return max(self.degree(v) for v in self.vertices)

    def vertex_neighborhood(self, v: int) -> frozenset:
        """Vertices sharing at least one edge with v (v itself excluded)."""
        if v not in self.vertices:
            raise VertexNotPresent(f"vertex {v} not in the vertex set")
        out: set = set()
        for e in self.edges:
            if v in e:
                out |= e
        out.discard(v)
        return frozenset(out)

    def isolated_vertices(self) -> frozenset:
        covered: set = set()
        for e in self.edges:
            covered |= e
        return self.vertices - covered

    @property
    def has_isolated_vertex(self) -> bool:
        return bool(self.isolated_vertices())

    # structural operations ---------------------------------------------

    def delete_edge(self, F: Iterable[int]) -> "Hypergraph":
        """Remove the edge F; the vertex set is unchanged."""
        F = frozenset(F)
        if F not in self._edge_set:
            raise EdgeNotPresent(f"edge {sorted(F)} is not an edge")
        return Hypergraph._trusted(
            self.vertices, tuple(e for e in self.edges if e != F)
        )

    def neighbor_set(self, F: Iterable[int]) -> frozenset:
        """Union of the singleton differences E - F over edges E with |E - F| = 1."""
        F = frozenset(F)
        if not F <= self.vertices:
            raise NotASubset(f"{sorted(F)} is not a subset of the vertex set")
        out: set = set()
        for e in self.edges:
            d = e - F
            if len(d) == 1:
                out |= d
        return frozenset(out)

    def contract(self, F: Iterable[int]) -> "Hypergraph":
        """The residual hypergraph after the edge F.

        Vertex set: V minus F and minus the neighbor set of F.  Edges: the
        inclusion-minimal sets among {E - F : E an edge, E != F}, keeping
        only those of size >= 2.  Minimality is computed before the size
        filter, so singleton differences (the neighbor set) knock out their
        supersets first.
        """
        F = frozenset(F)
        if F not in self._edge_set:
            raise EdgeNotPresent(f"edge {sorted(F)} is not an edge")
        diffs = {e - F for e in self.edges if e != F}
        minimal = [s for s in diffs if not any(t < s for t in diffs)]
        new_edges = sorted((s for s in minimal if len(s) >= 2), key=_edge_key)
        new_vertices = self.vertices - F - self.neighbor_set(F)
        return Hypergraph._trusted(new_vertices, tuple(new_edges))

    def induced(self, A: Iterable[int]) -> "Hypergraph":
        """The induced subhypergraph on A: edges entirely inside A."""
        A = frozenset(A)
        if not A <= self.vertices:
            raise NotASubset(f"{sorted(A)} is not a subset of the vertex set")
        return Hypergraph._trusted(A, tuple(e for e in self.edges if e <= A))


def d_complete_on(vertices: Iterable[int], d: int) -> Hypergraph:
    """Complete d-uniform hypergraph on the given vertices.

    When there are fewer than d vertices this is the edgeless hypergraph on
    them (the below-order convention).
    """
    from itertools import combinations

    if d < 2:
        raise ValidationError(f"edge size d must be >= 2, got {d}")
    vset = frozenset(vertices)
    edges = [frozenset(c) for c in combinations(sorted(vset), d)]
    return Hypergraph(vset, edges)


def d_complete(n: int, d: int) -> Hypergraph:
    """Complete d-uniform hypergraph of order n on vertices 0..n-1."""
    if n < 0:
        raise ValidationError(f"order must be >= 0, got {n}")
    return d_complete_on(range(n), d)


def disjoint_union(C1: Hypergraph, C2: Hypergraph) -> Hypergraph:
    """Union of two hypergraphs on disjoint vertex sets."""
    if C1.vertices & C2.vertices:
        raise OverlappingVertexSets(
            f"shared vertices {sorted(C1.vertices & C2.vertices)}"
        )
    return Hypergraph(C1.vertices | C2.vertices, list(C1.edges) + list(C2.edges))
