"""Wedge-of-spheres homotopy types for triangulated hypergraphs.

For a d-uniform triangulated hypergraph the independence complex is, up to
homotopy, a wedge of spheres.  The synthesis picks a decomposition vertex
v and rewrites

    Ind(C)  ~  wedge over I in D(C, v) of  susp( S^(|I|-2) * Ind(C : I+v) )

where D(C, v) collects the independent sets I with I + {v} an edge.  Each
I has size d - 1, the join with the sphere shifts every summand dimension
by d - 2 and the suspension adds one more, so a sphere of dimension t in
the residual type contributes one of dimension t + d - 1.  Contractible
residuals contribute nothing; an empty wedge is contractible; the base
cases are the (-1)-sphere on the empty vertex set and a contractible full
simplex when edges run out.  This route is independent of the boundary
matrix homology and the two are pinned against each other in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import independence_complex, minimal_nonfaces
from .errors import NotTriangulated, NotUniform, ValidationError, VertexNotPresent
from .extnat import ExtNat
from .chains import c_max_disjoint, find_decomposition_vertex
from .fixtures import lutz_acyclic_complex
from .homology import conn_h
from .hypergraph import Hypergraph

__all__ = [
    "HomotopyType",
    "d_set",
    "homotopy_type_triangulated",
    "max_dimension_bound",
    "is_properly_splitted",
    "properly_splitted_witness",
    "SplitWitness",
    "build_counterexample_family",
]


@dataclass(frozen=True)
class HomotopyType:
    """Either contractible or a finite wedge of spheres.

    spheres is None for the contractible type, otherwise a sorted tuple of
    sphere dimensions with multiplicity.  The lone (-1)-sphere (the complex
    {empty}) is representable and is not contractible.  In a wedge with
    more than one summand every dimension is >= 0.
    """

    spheres: tuple | None

    def __post_init__(self):
        if self.spheres is not None:
            if tuple(sorted(self.spheres)) != self.spheres:
                raise ValidationError("sphere dimensions must be sorted")
            if any(s < -1 for s in self.spheres):
                raise ValidationError("sphere dimension below -1")
            if -1 in self.spheres and len(self.spheres) != 1:
                raise ValidationError("the (-1)-sphere only appears alone")

    @classmethod
    def contractible(cls) -> "HomotopyType":
        return cls(spheres=None)

    @classmethod
    def wedge(cls, dims) -> "HomotopyType":
        """Wedge of spheres; an empty collection gives the contractible type."""
        dims = tuple(sorted(dims))
        if not dims:
            return cls(spheres=None)
        return cls(spheres=dims)

    @property
    def is_contractible(self) -> bool:
        return self.spheres is None

    def betti_profile(self) -> dict:
        """Expected reduced Betti numbers: count of summands per dimension."""
        out: dict = {}
        if self.spheres:
            for s in self.spheres:
                out[s] = out.get(s, 0) + 1
        return out

    def describe(self) -> str:
        if self.spheres is None:
            return "contractible"
        parts = []
        for s in sorted(set(self.spheres)):
            c = self.spheres.count(s)
            parts.append(f"S^{s}" + (f" x{c}" if c > 1 else ""))
        return "wedge: " + " v ".join(parts)


def d_set(C: Hypergraph, v: int) -> tuple:
    """Independent sets I with I + {v} an edge; these are E - v over edges
    E containing v, each automatically independent of size |E| - 1."""
    if v not in C.vertices:
        raise VertexNotPresent(f"vertex {v} not in the vertex set")
    out = [e - {v} for e in C.edges if v in e]
    return tuple(sorted(out, key=lambda s: tuple(sorted(s))))


def homotopy_type_triangulated(C: Hypergraph) -> HomotopyType:
    """Wedge-of-spheres type of the independence complex.

    Preconditions are checked lazily: each recursion step must find a
    decomposition vertex, else NotTriangulated.
    """
    return _homotopy_type(C, {})


def _homotopy_type(H: Hypergraph, memo: dict) -> HomotopyType:
    """homotopy_type_triangulated of H; memo maps each hypergraph reached
    so far to its type."""
    got = memo.get(H)
    if got is not None:
        return got
    if not H.vertices:
        t = HomotopyType.wedge((-1,))
    elif not H.edges:
        t = HomotopyType.contractible()
    else:
        d = H.uniform_size()
        if d is None:
            raise NotUniform("homotopy synthesis needs a d-uniform hypergraph")
        v = find_decomposition_vertex(H)
        if v is None:
            raise NotTriangulated(f"no decomposition vertex in {H!r}")
        dims: list = []
        for I in d_set(H, v):
            assert len(I) == d - 1, "independent set size must be d - 1"
            sub = _homotopy_type(H.contract(I | {v}), memo)
            if sub.is_contractible:
                continue
            dims.extend(s + len(I) for s in sub.spheres)
        t = HomotopyType.wedge(dims)
    memo[H] = t
    return t


def max_dimension_bound(C: Hypergraph) -> int:
    """Upper bound (d - 1) * c - 1 on sphere dimensions in the type, where
    c is the most edges pairwise at distance >= d + 1."""
    d = C.uniform_size()
    if d is None:
        raise NotUniform("the dimension bound needs at least one edge size d")
    return (d - 1) * c_max_disjoint(C) - 1


@dataclass(frozen=True)
class SplitWitness:
    """Choice tree for the splitting recursion: the chosen edge plus the
    witnesses of the deletion branch and the contraction branch."""

    edge: frozenset
    on_delete: "SplitWitness | None"
    on_contract: "SplitWitness | None"

    def edge_sequence(self) -> list:
        out = [self.edge]
        for sub in (self.on_delete, self.on_contract):
            if sub is not None:
                out.extend(sub.edge_sequence())
        return out


def _conn(H: Hypergraph, conn_memo: dict) -> ExtNat:
    got = conn_memo.get(H)
    if got is None:
        got = conn_memo[H] = conn_h(independence_complex(H))
    return got


def _properly_splitted(H: Hypergraph, memo: dict, conn_memo: dict) -> tuple:
    """(verdict, witness) for H; memo holds the pairs and conn_memo the
    homological connectivities found so far."""
    got = memo.get(H)
    if got is not None:
        return got
    if not H.edges:
        out = (True, None)
    else:
        out = (False, None)
        target = _conn(H, conn_memo)
        for F in H.edges:
            cf = H.contract(F)
            if _conn(cf, conn_memo) < target - len(F) + 1:
                continue
            ok_d, w_d = _properly_splitted(H.delete_edge(F), memo, conn_memo)
            if not ok_d:
                continue
            ok_c, w_c = _properly_splitted(cf, memo, conn_memo)
            if ok_c:
                out = (True, SplitWitness(F, w_d, w_c))
                break
    memo[H] = out
    return out


def is_properly_splitted(C: Hypergraph) -> bool:
    """Edgeless, or some edge F has a contraction losing at most |F| - 1
    connectivity while both branches are again properly splitted."""
    return _properly_splitted(C, {}, {})[0]


def properly_splitted_witness(C: Hypergraph) -> SplitWitness | None:
    """The edge-choice tree behind a positive answer, None otherwise."""
    return _properly_splitted(C, {}, {})[1]


def build_counterexample_family(k: int) -> Hypergraph:
    """Gap family: an acyclic-complex block wedged to one big edge.

    Take the minimal non-faces of the 10-vertex acyclic fixture, a fresh
    edge F of size k through its vertex 1 and k - 1 new vertices, and all
    pairs between the other nine old vertices and the new ones.  The
    independence complex is then the acyclic fixture wedged with the
    boundary of a (k-1)-simplex, while the recursive invariant stays at 2
    however large k grows.
    """
    if k < 3:
        raise ValidationError(f"the construction needs k >= 3, got {k}")
    delta = lutz_acyclic_complex()
    base = minimal_nonfaces(delta)
    z = 1
    fresh = list(range(11, 11 + (k - 1)))
    big = frozenset([z] + fresh)
    pairs = [
        frozenset({x, y}) for x in sorted(delta.vertices - {z}) for y in fresh
    ]
    return Hypergraph(
        base.vertices | frozenset(fresh), list(base.edges) + [big] + pairs
    )
