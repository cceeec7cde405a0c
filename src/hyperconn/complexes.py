"""Finite abstract simplicial complexes, stored by their facets or, from
independence_complex, by their minimal non-faces; MMCS derives each from
the other once, on first use.

A complex is the downward closure of its facet list.  The empty face belongs
to every complex here; the complex {empty} alone has an empty facet tuple.
The void complex (no faces at all) is not representable.  The vertex set is
always exactly the union of the facets, so every vertex is a face.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import NotAFace, NotASubset, OverlappingVertexSets, ValidationError
from .hypergraph import Hypergraph, _bitsets, _edge_key, _ones
from .limits import _check_vertex_cap

__all__ = [
    "SimplicialComplex",
    "full_simplex",
    "simplex_boundary",
    "independence_complex",
    "minimal_nonfaces",
    "link",
    "deletion",
    "induced_subcomplex",
    "join",
    "complex_union",
]


class SimplicialComplex:
    """Downward-closed set system, by its facets or its minimal non-faces."""

    __slots__ = ("vertices", "_facets", "_nonfaces")

    def __init__(self, faces: Iterable[Iterable[int]]):
        """Build the complex generated by the given faces.

        Non-maximal entries are dropped; the empty face never appears in the
        facet list (an empty list means the complex {empty}).
        """
        cand = {frozenset(f) for f in faces}
        for f in cand:
            for v in f:
                if not isinstance(v, int):
                    raise ValidationError(f"vertex {v!r} is not an int")
        # a proper superset is larger, and each lies in a maximal one, so
        # each size is tested against the larger maximal faces only
        by_size: dict[int, list] = {}
        for f in cand:
            by_size.setdefault(len(f), []).append(f)
        maximal: list = []
        for k in sorted(by_size, reverse=True):
            if k:
                maximal += [f for f in by_size[k] if not any(f < g for g in maximal)]
        facets = tuple(sorted(maximal, key=_edge_key))
        self.__setstate__((frozenset().union(*facets), facets, None))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        fs = ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets)
        return f"SimplicialComplex([{fs}])"

    def __reduce__(self):
        return object.__new__, (type(self),), (self.vertices, self._facets, self._nonfaces)

    def __setstate__(self, slots: tuple) -> None:
        """The one writer of vertices, _facets and _nonfaces; unchecked."""
        for name, value in zip(self.__slots__, slots):
            object.__setattr__(self, name, value)

    def _facets_under(self, cap: int | None = None) -> tuple:
        """Maximal faces, sorted by size, then vertices; from kept non-faces,
        the nonempty complements of their minimal transversals, under cap."""
        if self._facets is None:
            verts = self._nonfaces[0]
            found = [
                self.vertices.difference(verts[i] for i in t)
                for t in _minimal_transversals(self._nonfaces, cap)
            ]
            found.sort(key=_edge_key)
            object.__setattr__(self, "_facets", tuple(f for f in found if f))
        return self._facets

    facets = property(_facets_under)

    @property
    def dim(self) -> int:
        """Dimension: largest face size minus one; -1 for the complex {empty}."""
        return max(map(len, self.facets), default=0) - 1

    @property
    def is_point_only(self) -> bool:
        """True for the complex {empty} (the (-1)-sphere)."""
        return not self.vertices

    def has_face(self, sigma: Iterable[int]) -> bool:
        s = frozenset(sigma)
        if not s:
            return True
        return any(s <= f for f in self.facets)

    def faces(self, cap: int | None = None) -> frozenset:
        """All faces, the empty face included.

        Raises CapacityExceeded when the vertex count is over the cap
        (default 25), since the face list can be exponential in it.  Level k
        holds the k-vertex facets and the boundary faces of level k + 1.
        """
        _check_vertex_cap(len(self.vertices), cap)
        verts, masks, _ = _bitsets(self.vertices, _facets_with_empty(self))
        levels: list[set[int]] = [set() for _ in range(self.dim + 2)]
        for g in masks:
            levels[g.bit_count()].add(g)
        for k in range(len(levels) - 1, 0, -1):
            below = levels[k - 1]
            for f in levels[k]:
                rest = f
                while rest:
                    low = rest & -rest
                    rest ^= low
                    below.add(f ^ low)
        return frozenset(
            frozenset(verts[i] for i in _ones(f)) for level in levels for f in level
        )


def full_simplex(vertices: Iterable[int]) -> SimplicialComplex:
    """The simplex on the given vertices; {empty} when none are given."""
    return SimplicialComplex([frozenset(vertices)])


def simplex_boundary(vertices: Iterable[int]) -> SimplicialComplex:
    """Boundary of the simplex on n vertices, a sphere of dimension n - 2."""
    vs = sorted(frozenset(vertices))
    if not vs:
        raise ValidationError("the empty simplex has no boundary complex")
    return SimplicialComplex(frozenset(vs) - {v} for v in vs)


def _minimal_transversals(bits: tuple, cap: int | None = None) -> list:
    """Inclusion-minimal sets meeting every member of a family, each once,
    as tuples of vertex indices, for the family's _bitsets triple bits, by
    MMCS (Murakami and Uno, Discrete Appl. Math. 170, 2014): branch on the
    candidates of the missed member with fewest, first in family order on
    ties, in ascending order, keeping a choice while each chosen vertex
    alone meets some member; a branched vertex is a candidate again in
    later branches only.  Raises CapacityExceeded above the vertex cap.

    Each step keeps three edge masks: occ[v], the members holding v;
    crit[u] for each chosen u, the members that u alone of the chosen
    vertices meets; uncov, the members no chosen vertex meets.  Adding v
    leaves crit[u] & ~occ[v] for each chosen u and gives crit[v] = uncov &
    occ[v], so the choice stays minimal exactly when every crit[u] &
    ~occ[v] is nonzero."""
    verts, members, occ = bits
    _check_vertex_cap(len(verts), cap)
    found: list = []
    _mmcs(members, occ, (), [], (1 << len(members)) - 1, (1 << len(verts)) - 1, found)
    return found


def _mmcs(members, occ, chosen: tuple, crit: list, uncov: int, cand: int, out: list) -> None:
    """One MMCS step: append to out, as a tuple of vertex indices, every
    minimal transversal that holds the chosen vertices, whose crit masks
    crit lists in the same order, and otherwise only candidate vertices."""
    if not uncov:
        out.append(chosen)
        return
    # the missed member with fewest candidates, first in family order on ties;
    # at one the scan stops, as a later member with none leaves no output
    best, fewest = 0, cand.bit_count() + 1
    rest = uncov
    while rest:
        low = rest & -rest
        rest ^= low
        branch = members[low.bit_length() - 1] & cand
        if branch.bit_count() < fewest:
            best, fewest = branch, branch.bit_count()
            if fewest < 2:
                break
    cand &= ~best
    while best:
        low = best & -best
        best ^= low
        v = low.bit_length() - 1
        kept = [c & ~occ[v] for c in crit]
        if all(kept):
            kept.append(uncov & occ[v])
            _mmcs(members, occ, (*chosen, v), kept, uncov & ~occ[v], cand, out)
        cand |= low


def independence_complex(C: Hypergraph) -> SimplicialComplex:
    """Faces are the subsets of V(C) containing no edge of C.

    The edges of C, an antichain, are its minimal non-faces, and the
    complex keeps their _bitsets triple; it runs no search.  The facets,
    found on first use, are the complements of the minimal transversals of
    the edges: the full simplex on V for an edgeless hypergraph, {empty}
    on the empty vertex set.
    """
    delta = object.__new__(SimplicialComplex)
    delta.__setstate__((C.vertices, None, _bitsets(C.vertices, C.edges)))
    return delta


def minimal_nonfaces(delta: SimplicialComplex) -> Hypergraph:
    """Inclusion-minimal non-faces, as a hypergraph on the complex's vertices.

    The dual of independence_complex: a set is a non-face exactly when it
    meets every facet's complement (V itself for {empty}), so these are the
    minimal transversals of the complements.  Each vertex lies in a facet,
    so every one has size >= 2 and the result validates.
    """
    verts, masks, _ = _minimal_nonfaces(delta)
    return Hypergraph(delta.vertices, [[verts[i] for i in _ones(m)] for m in masks])


def _minimal_nonfaces(delta: SimplicialComplex, cap: int | None = None) -> tuple:
    """The _bitsets triple (vertices, masks, occ) of the minimal non-faces
    of delta: the edges independence_complex kept, or else the minimal
    transversals of the facet complements, found once (under the vertex
    cap) and kept."""
    if delta._nonfaces is None:
        verts, masks, occ = _bitsets(delta.vertices, _facets_with_empty(delta))
        full, every = (1 << len(verts)) - 1, (1 << len(masks)) - 1
        complements = (verts, [full ^ m for m in masks], [every ^ o for o in occ])
        found = _minimal_transversals(complements, cap)
        object.__setattr__(delta, "_nonfaces", (verts, *_bitsets(range(len(verts)), found)[1:]))
    return delta._nonfaces


def link(delta: SimplicialComplex, sigma: Iterable[int]) -> SimplicialComplex:
    """Faces tau disjoint from sigma with tau | sigma a face."""
    s = frozenset(sigma)
    if not delta.has_face(s):
        raise NotAFace(f"{sorted(s)} is not a face")
    return SimplicialComplex(f - s for f in delta.facets if s <= f)


def deletion(delta: SimplicialComplex, sigma: Iterable[int]) -> SimplicialComplex:
    """Faces that do not contain sigma."""
    s = frozenset(sigma)
    if not s:
        raise ValidationError("deleting the empty face would leave the void complex")
    if not delta.has_face(s):
        raise NotAFace(f"{sorted(s)} is not a face")
    out = []
    for f in delta.facets:
        if s <= f:
            out.extend(f - {v} for v in s)
        else:
            out.append(f)
    return SimplicialComplex(out)


def induced_subcomplex(delta: SimplicialComplex, U: Iterable[int]) -> SimplicialComplex:
    """Faces contained in U."""
    U = frozenset(U)
    if not U <= delta.vertices:
        raise NotASubset(f"{sorted(U)} is not a subset of the vertex set")
    return SimplicialComplex(f & U for f in delta.facets)


def _facets_with_empty(delta: SimplicialComplex) -> tuple:
    return delta.facets if delta.facets else (frozenset(),)


def join(d1: SimplicialComplex, d2: SimplicialComplex) -> SimplicialComplex:
    """Join of complexes on disjoint vertex sets; {empty} is the identity."""
    if d1.vertices & d2.vertices:
        raise OverlappingVertexSets(
            f"shared vertices {sorted(d1.vertices & d2.vertices)}"
        )
    return SimplicialComplex(
        f1 | f2 for f1 in _facets_with_empty(d1) for f2 in _facets_with_empty(d2)
    )


def complex_union(d1: SimplicialComplex, d2: SimplicialComplex) -> SimplicialComplex:
    """Union of the two face sets (vertex sets may overlap)."""
    return SimplicialComplex(list(d1.facets) + list(d2.facets))
