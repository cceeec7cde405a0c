"""Proper chains between edges and the structure they induce.

A proper chain from F to G is an alternating sequence

    E_0 = F, x_1, E_1, x_2, ..., x_n, E_n = G

of pairwise distinct edges E_i and pairwise distinct vertices x_k with
x_k in E_{k-1} & E_k for every k and |E_i & E_{i+1}| = |E_{i+1}| - 1 for
every i.  (The pivot conditions here are equivalent to the usual phrasing
x_1 in E_0, x_n in E_n, x_k and x_{k+1} both in E_k.)  Its length is n.
A chain is irredundant when no strict subsequence of its edges, first and
last kept, carries pivots making it a proper chain again.  The distance
between two edges is the minimum length of a proper chain between them;
a shortest proper chain is automatically irredundant, because a proper
subsequence chain would be strictly shorter.

On top of the metric: a d-uniform hypergraph is properly connected when
every two intersecting edges F, G satisfy dist(F, G) = d - |F & G|; a
vertex v is a decomposition vertex when its neighborhood induces a
d-complete hypergraph and v lies in at most two edges of any proper
irredundant chain; a hypergraph is triangulated when every nonempty
induced subhypergraph has a decomposition vertex.  Recognition does not
search each induced part: a decomposition vertex stays one in every induced
part that keeps it, so is_triangulated removes one decomposition vertex per
level, as perfect elimination does for chordal graphs, memoized on the
vertex set.

Every search over proper chains runs through one depth-first walk,
_walk, which extends a chain edge by edge in canonical edge and pivot
order and hands each chain it reaches to a visit callback: True stops the
search, False skips that chain's extensions, None extends it.  Distance
queries visit until the target edge appears, under iterative deepening;
the decomposition-vertex check visits until it meets an irredundant chain
with v in three of its edges.

Irredundance needs no search.  A chord of a chain is a pair E_p, E_q with
q - p >= 2 and |E_p & E_q| = |E_q| - 1.

Chord lemma.  A proper chain whose edges form an antichain, as the edges
of every Hypergraph do, is redundant exactly when it has a chord.

Proof.  Write S_k = E_{k-1} & E_k; the step condition makes E_k = S_k + b_k
for one vertex b_k outside E_{k-1}.  (=>) A strict subsequence that keeps
E_0 and E_n skips an edge, so one of its steps jumps from E_i to E_j with
j - i >= 2, and that step's condition makes (i, j) a chord.  (<=) Take a
chord (p, q) inside no other chord (p', q'), p' <= p and q <= q'; let
T = E_p & E_q and w the one vertex of E_q outside E_p.  The subsequence
E_0..E_p, E_q..E_n meets every step condition and frees the pivots
x_{p+1}..x_q; it needs a pivot in T for the jump from E_p to E_q.  If x_q
lies in T it serves.  Otherwise x_q = w, and:
  - q < n.  (p, q+1) is no chord.  If w left at step q + 1, S_{q+1} would
    lie in T, and no chord would force b_{q+1} into E_p, hence E_{q+1}
    into E_p: two comparable edges.  So w lies in S_{q+1}; the jump takes
    x_{q+1}, which lies in E_q - w = T, and step q + 1 takes w.
  - q = n, p = 0.  The jump takes any vertex of T, which is not empty as
    E_n holds x_n and b_n.
  - q = n, p >= 1.  (p-1, n) is no chord.  E_{p-1} meets E_n in
    |T| - [b_p in T] + [w in E_{p-1}] vertices, so b_p outside T would
    put w in E_{p-1} and E_n = T + w inside E_{p-1}: comparable again.
    So b_p lies in T.  No pivot of E_0..E_p uses f = x_{p+1}, a vertex of
    E_p.  If f lies in T the jump takes it.  Otherwise f != b_p and the
    jump takes b_p: if some x_k is b_p, the claim below moves pivots so
    that f is used and b_p is free.
  Claim: in a proper chain E_0..E_m, let f be a vertex of E_m - b_m that
  no pivot uses.  Every step k is reached by an alternating path: f in
  S_{k_1}, x_{k_1} in S_{k_2}, ..., k_r = k, and letting each step k_i take
  the vertex before x_{k_i} on the path frees x_k.  If not, let j be the
  last step not reached and R the set of f and every pivot of a reached
  step.  A vertex of R in S_j would reach j, so R & E_j lies in {b_j},
  and each later step adds at most b_k: R & E_k lies in {b_j, ..., b_k}.
  Every x_k with k > j lies in R & E_{k-1}, so these m - j distinct
  pivots fill {b_j, ..., b_{m-1}}.  Then f, in R & E_m and no pivot, is
  b_m, a contradiction.

So every segment of an irredundant proper chain is irredundant, since a
chord of the segment is one of the chain, and a chain that has a chord
passes it to every extension.  The antichain is needed: the chain
{0 2 3} {1 2} {0 1} {0 3} {2 3} has the chord (0, 2) and is irredundant,
and its last edge lies in its first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    CapacityExceeded,
    EdgeNotPresent,
    NotProperlyConnected,
    NotUniform,
    ValidationError,
)
from .extnat import INF, ExtNat
from .hypergraph import Hypergraph
from .limits import triangulated_cap

__all__ = [
    "ProperChain",
    "is_proper_chain",
    "is_irredundant",
    "edge_distance",
    "shortest_chain",
    "is_properly_connected",
    "c_max_disjoint",
    "is_splitting_edge",
    "find_splitting_vertex",
    "find_decomposition_vertex",
    "is_triangulated",
    "hypergraph_geq",
]


@dataclass(frozen=True)
class ProperChain:
    """Edge sequence with its pivot vertices; length = number of pivots."""

    edges: tuple
    pivots: tuple

    @property
    def length(self) -> int:
        return len(self.pivots)

    def describe(self) -> str:
        parts = ["{" + " ".join(map(str, sorted(self.edges[0]))) + "}"]
        for x, e in zip(self.pivots, self.edges[1:]):
            parts.append(f"-[{x}]-")
            parts.append("{" + " ".join(map(str, sorted(e))) + "}")
        return " ".join(parts)


def is_proper_chain(C: Hypergraph, chain: ProperChain) -> bool:
    """Validate the chain conditions inside C.

    Raises EdgeNotPresent when a listed edge is not an edge of C; any
    other violation returns False.
    """
    edges = [frozenset(e) for e in chain.edges]
    pivots = list(chain.pivots)
    for e in edges:
        if not C.has_edge(e):
            raise EdgeNotPresent(f"chain edge {sorted(e)} is not an edge")
    if not edges or len(pivots) != len(edges) - 1:
        return False
    if len(set(edges)) != len(edges) or len(set(pivots)) != len(pivots):
        return False
    for k, x in enumerate(pivots, start=1):
        if x not in edges[k - 1] or x not in edges[k]:
            return False
    for i in range(len(edges) - 1):
        if len(edges[i] & edges[i + 1]) != len(edges[i + 1]) - 1:
            return False
    return True


def _walk(all_edges, seq: list, pivots: list, used: set, cap: int, visit) -> bool:
    """Depth-first search over the proper chains that extend seq.

    Calls visit(seq, pivots) on seq and then on every extension of at most
    cap pivots, in canonical edge and pivot order.  True from visit stops
    the whole search and is returned with seq and pivots left holding the
    chain it stopped at; False skips that chain's extensions; None extends
    it.  Returns False, with seq and pivots restored, when nothing stopped.
    """
    verdict = visit(seq, pivots)
    if verdict is not None:
        return verdict
    if len(pivots) >= cap:
        return False
    last = seq[-1]
    for e in all_edges:
        if e in seq or len(last & e) != len(e) - 1:
            continue
        for x in sorted(last & e):
            if x in used:
                continue
            seq.append(e)
            pivots.append(x)
            used.add(x)
            if _walk(all_edges, seq, pivots, used, cap, visit):
                return True
            used.discard(x)
            pivots.pop()
            seq.pop()
    return False


def _closes_chord(seq: list, q: int) -> bool:
    """Whether E_q and an edge E_p with p <= q - 2 form a chord."""
    last = seq[q]
    need = len(last) - 1
    return any(len(seq[p] & last) == need for p in range(q - 1))


def _redundant(edges: list) -> bool:
    """Whether the proper chain has a chord: by the chord lemma, whether a
    strict subsequence of its edges, first and last kept and order
    preserved, carries pivots making it proper."""
    return any(_closes_chord(edges, q) for q in range(2, len(edges)))


def is_irredundant(C: Hypergraph, chain: ProperChain) -> bool:
    """True when no strict edge subsequence is again a proper chain.

    The candidate subsequences keep the first and last edge and preserve
    order; by the chord lemma one exists exactly when the chain has a
    chord.  Raises ValidationError if the input is not a proper chain of C.
    """
    if not is_proper_chain(C, chain):
        raise ValidationError("not a proper chain")
    return not _redundant([frozenset(e) for e in chain.edges])


def shortest_chain(
    C: Hypergraph, F, G, max_length: int | None = None
) -> ProperChain | None:
    """A shortest proper chain from F to G within the length bound.

    None when no proper chain of length <= max_length exists.  The default
    bound, one less than the edge count, is exhaustive since chain edges
    are distinct.  Deterministic: iterative deepening with canonical edge
    and pivot order.
    """
    F = frozenset(F)
    G = frozenset(G)
    for e in (F, G):
        if not C.has_edge(e):
            raise EdgeNotPresent(f"{sorted(e)} is not an edge")
    if F == G:
        return ProperChain(edges=(F,), pivots=())
    limit = len(C.edges) - 1 if max_length is None else max_length
    seq: list = [F]
    pivots: list = []

    def at_g(seq: list, pivots: list) -> bool | None:
        # a chain reaching G below the current depth would have been found
        # at a smaller deepening level, so G is only ever met at full depth
        return True if seq[-1] == G else None

    for depth in range(1, limit + 1):
        if _walk(C.edges, seq, pivots, set(), depth, at_g):
            return ProperChain(edges=tuple(seq), pivots=tuple(pivots))
    return None


def edge_distance(C: Hypergraph, F, G) -> ExtNat:
    """Minimum proper chain length from F to G; INF when none exists."""
    chain = shortest_chain(C, F, G)
    return INF if chain is None else chain.length


def is_properly_connected(C: Hypergraph) -> bool:
    """Every intersecting edge pair at distance exactly d - |F & G|.

    False exactly when some edges F, G with 1 <= |F & G| <= d - 2 have no
    a in F - G, b in G - F making F - a + b an edge.  Proof, k = d - |F & G|:
    a step swaps one vertex, so a chain of length k gains a vertex of G at
    every step, and its first step is such a swap.  Conversely a k-step
    walk gaining G vertex by vertex is a proper chain: each edge is nearer
    G than the last, and the pivots, x_1 in F & G and then the vertex
    gained one step earlier, are distinct.  Induction on k, as F - a + b
    meets G in |F & G| + 1 vertices, gives the walk.  Vacuously true when
    edgeless; mixed edge sizes raise NotUniform.
    """
    if not C.edges:
        return True
    d = C.uniform_size()
    if d is None:
        raise NotUniform("properly connected is defined for d-uniform input")
    for F, G in combinations(C.edges, 2):
        if 1 <= len(F & G) <= d - 2 and not any(
            C.has_edge(F - {a} | {b}) for a in F - G for b in G - F
        ):
            return False
    return True


def c_max_disjoint(C: Hypergraph) -> int:
    """Largest number of edges of a d-uniform hypergraph pairwise at
    distance >= d + 1, the threshold of the contraction identities.

    Uses the conflict graph (edges at distance <= d adjacent) and a simple
    exact branch and bound for its maximum independent set.  0 for an
    edgeless hypergraph; mixed edge sizes raise NotUniform.
    """
    if not C.edges:
        return 0
    d = C.uniform_size()
    if d is None:
        raise NotUniform("c_max_disjoint needs a d-uniform hypergraph")
    m = len(C.edges)
    conflict = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if shortest_chain(C, C.edges[i], C.edges[j], max_length=d) is not None:
                conflict[i].add(j)
                conflict[j].add(i)
    return _grow(conflict, 0, list(range(m)), 0)


def _grow(conflict: list, chosen: int, cand: list, best: int) -> int:
    """The larger of best and chosen plus a largest independent subset of
    cand in the conflict graph, branching on cand[0] in, then out."""
    if chosen + len(cand) <= best:
        return best
    if not cand:
        return chosen
    v, rest = cand[0], cand[1:]
    best = _grow(conflict, chosen + 1, [u for u in rest if u not in conflict[v]], best)
    return _grow(conflict, chosen, rest, best)


def find_splitting_vertex(C: Hypergraph, F) -> int | None:
    """A vertex z in F with (F - z) + {x} an edge for every neighbor x."""
    F = frozenset(F)
    if not C.has_edge(F):
        raise EdgeNotPresent(f"{sorted(F)} is not an edge")
    nbrs = C.neighbor_set(F)
    for z in sorted(F):
        base = F - {z}
        if all(C.has_edge(base | {x}) for x in nbrs):
            return z
    return None


def is_splitting_edge(C: Hypergraph, F) -> bool:
    """True when some z in F swaps with every neighbor of F inside C.

    Vacuously true when F has no neighbors.
    """
    return find_splitting_vertex(C, F) is not None


def _chain_occurrences_ok(C: Hypergraph, v: int) -> bool:
    """No proper irredundant chain of C carries v in more than two edges.

    A violating chain has a violating segment, from its first to its third
    edge holding v, which is irredundant by the chord lemma.  So walks
    start only at edges holding v, skip the extensions of every chain that
    closes a chord, and stop at the first chordless chain with three edges
    holding v.  The count of those edges is kept per depth along the walk.
    """
    if C.degree(v) <= 2:
        return True
    counts = [0] * (len(C.edges) + 1)  # counts[k]: edges of seq[:k] holding v

    def violates(seq: list, pivots: list) -> bool | None:
        k = len(seq)
        if _closes_chord(seq, k - 1):
            return False
        counts[k] = counts[k - 1] + (v in seq[-1])
        return True if counts[k] > 2 else None

    cap = len(C.edges) - 1
    return not any(
        _walk(C.edges, [start], [], set(), cap, violates)
        for start in C.edges
        if v in start
    )


def _neighborhood_complete(C: Hypergraph, v: int, d: int) -> bool:
    nbrs = C.vertex_neighborhood(v)
    if len(nbrs) < d:
        return True  # below order: the induced hypergraph is edgeless
    return all(C.has_edge(frozenset(s)) for s in combinations(sorted(nbrs), d))


def _is_decomposition_vertex(C: Hypergraph, v: int, d: int) -> bool:
    """Whether v is a decomposition vertex of C, which has edges of size d.

    For graphs (d = 2) the chain condition holds automatically: a third
    edge membership always yields a proper subsequence chain shortcut, so
    the irredundant chains never show one.
    """
    return _neighborhood_complete(C, v, d) and (d == 2 or _chain_occurrences_ok(C, v))


def find_decomposition_vertex(C: Hypergraph) -> int | None:
    """Smallest vertex whose neighborhood induces a d-complete hypergraph
    and which sits in at most two edges of every proper irredundant chain.

    A decomposition vertex of a graph is exactly a simplicial vertex.
    Raises NotUniform on mixed edge sizes; every vertex qualifies in an
    edgeless hypergraph.
    """
    d = C.uniform_size()
    if d is None and C.edges:
        raise NotUniform("decomposition vertices need a d-uniform hypergraph")
    for v in sorted(C.vertices):
        if not C.edges or _is_decomposition_vertex(C, v, d):
            return v
    return None


def _triangulated_part(C: Hypergraph, d: int, A: frozenset, memo: dict) -> bool:
    """Whether C[A] is triangulated, by is_triangulated's elimination;
    memo maps every vertex set decided so far to its verdict."""
    if A in memo:
        return memo[A]
    sub = C.induced(A)
    isolated = sub.isolated_vertices()
    if not sub.edges:
        ok = True
    elif isolated:
        ok = _triangulated_part(C, d, A - isolated, memo)
    else:
        ok = False
        for v in sorted(A):
            if not _neighborhood_complete(sub, v, d):
                continue
            if not _triangulated_part(C, d, A - {v}, memo):
                break
            if _is_decomposition_vertex(sub, v, d):
                ok = True
                break
    memo[A] = ok
    return ok


def is_triangulated(C: Hypergraph) -> bool:
    """Every nonempty induced subhypergraph has a decomposition vertex.

    Decided by eliminating one decomposition vertex per level, memoized
    on the vertex set A of the induced part C[A].  It rests on a lemma:

    (i) A decomposition vertex v of C[A] is one of C[B] for every B with
        v in B and B inside A.  Chains of C[B] are chains of C[A], and
        irredundance depends only on a chain's own edges, so v still lies
        in at most two edges of each irredundant one.  The neighborhood
        of v in C[B] lies inside its neighborhood in C[A], so every
        d-subset of it is an edge of C[A] inside B, hence of C[B].
    (ii) Induced parts of C[A - v] are induced parts of C[A], so if
        C[A - v] is not triangulated for some v, neither is C[A].  If v is
        a decomposition vertex of C[A], then C[A] is triangulated exactly
        when C[A - v] is, since by (i) every induced part containing v
        has v as a decomposition vertex.

    An edgeless part is triangulated and its isolated vertices qualify, so
    they are dropped at once.  Otherwise each vertex with a d-complete
    neighborhood, in sorted order, first has C[A - v] decided and then
    its chain condition tested; the first that passes settles C[A].
    Exponential in the vertex count in the worst case; raises
    CapacityExceeded above the cap (default 16, set by
    HYPERCONN_TRIANGULATED_CAP).
    """
    d = C.uniform_size()
    if d is None and C.edges:
        raise NotUniform("triangulated is defined for d-uniform input")
    n = C.order
    if n > triangulated_cap():
        raise CapacityExceeded(f"{n} vertices exceeds the triangulated check cap")
    return _triangulated_part(C, d, C.vertices, {})


def hypergraph_geq(C: Hypergraph, F) -> Hypergraph:
    """Edges at distance >= d + 1 from F, on V minus F and its neighbors.

    Requires a properly connected input (NotProperlyConnected otherwise);
    F must be an edge.
    """
    F = frozenset(F)
    if not C.has_edge(F):
        raise EdgeNotPresent(f"{sorted(F)} is not an edge")
    if not is_properly_connected(C):
        raise NotProperlyConnected("input is not properly connected")
    d = C.uniform_size()
    far = [
        G
        for G in C.edges
        if G != F and shortest_chain(C, F, G, max_length=d) is None
    ]
    return Hypergraph(C.vertices - F - C.neighbor_set(F), far)
