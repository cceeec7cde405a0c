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
_walk, over edge sequences on bitmasks.  Vertices are bits in sorted-id
order and edges are vertex masks in C.edges order.  A step table, built
once per call (its steps at the first walk) and dropped when the call
returns, lists for each edge E_i, in edge order, every edge E_j with
|E_i & E_j| = |E_j| - 1 together with S = E_i & E_j, the pivot
candidates of a step from E_i to E_j.  The walk
appends E_j to a sequence ending at E_i when E_j is new and the candidate
sets S_1, ..., S_k of its steps still have a system of distinct
representatives.  The representatives are kept as a matching of steps to
pivots; a new step gets its pivot by one augmenting path (Kuhn), and on
backtrack the popped step frees its pivot, leaving distinct
representatives of the prefix.  The walk runs on explicit stacks, so a
chain may be as long as the edge count allows.  It hands each sequence
to a visit callback: True stops the search, False skips that sequence's
extensions, None extends it.

Why this loses nothing.  Distinct pivots x_k in S_k are exactly a system
of distinct representatives of S_1, ..., S_k (Hall, "On representatives
of subsets", J. London Math. Soc. 10, 1935), so the edge sequences of
proper chains are exactly the sequences of distinct edges whose steps
meet the size condition and whose candidate sets have one.  Every prefix
of such a sequence is one, since representatives of S_1..S_k restrict to
S_1..S_j.  So the walk, which grows only such sequences, visits the edge
sequence of every proper chain, each once, and never the same sequence
under two pivot choices.  Distance, irredundance (by the chord lemma
below) and the occurrences of a vertex depend on the edges alone.
Distance queries visit until the target edge appears, under iterative
deepening; the decomposition-vertex check visits until it meets an
irredundant chain with v in three of its edges; hypergraph_geq and
c_max_disjoint collect every edge a walk of at most d steps reaches.

The witness of shortest_chain is found by self-reduction.  With the
length n known, it fixes at each step the least pair (E, x), edges in
C.edges order and then pivots in ascending order, from which a completion
to G in the remaining steps exists: the walk from E, with the fixed edges
and pivots removed, reaches G.  A completion never takes fewer steps, as
that would give a chain shorter than n.  So the pairs fixed are those of
the least chain of length n in the order that compares (edge, pivot)
pairs step by step, which is the first chain a depth-first search over
edges and then pivots meets under iterative deepening.

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
from math import comb

from .errors import (
    CapacityExceeded,
    EdgeNotPresent,
    NotProperlyConnected,
    NotUniform,
    ValidationError,
)
from .extnat import INF, ExtNat
from .hypergraph import Hypergraph, _bitsets, _ones
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


class _StepTable:
    """The _bitsets encoding of C.edges (vertex, masks, and incident[x],
    the edges holding x), and for each edge E_i the steps (j, S) out of
    it, in edge order: every j with |E_i & E_j| = |E_j| - 1, S = E_i & E_j,
    listed on the first walk, as many callers need none."""

    __slots__ = ("vertex", "masks", "incident", "_steps")

    def __init__(self, C: Hypergraph):
        self.vertex, self.masks, self.incident = _bitsets(C.vertices, C.edges)
        self._steps = None

    def steps(self) -> list:
        if self._steps is None:
            masks = self.masks
            self._steps = []
            for e in masks:
                near = 0
                for x in _ones(e):
                    near |= self.incident[x]
                self._steps.append([
                    (j, e & masks[j])
                    for j in _ones(near)
                    if (e & masks[j]).bit_count() == masks[j].bit_count() - 1
                ])
        return self._steps

    def inside(self, A: int) -> int:
        """The edges inside the vertex mask A, as a mask of edge indices."""
        return sum(1 << j for j, e in enumerate(self.masks) if not e & ~A)


class _Pivots:
    """Distinct representatives of the pivot candidates of a sequence of
    steps: pivot[k] is the vertex bit step k takes, owner maps each taken
    bit back to its step, and no step may take a banned vertex."""

    __slots__ = ("cand", "pivot", "owner", "taken", "banned")

    def __init__(self, banned: int = 0):
        self.cand: list = []
        self.pivot: list = []
        self.owner: dict = {}
        self.taken = 0
        self.banned = banned

    def push(self, S: int) -> bool:
        """Add a step with candidates S and give it a pivot by a shortest
        augmenting path, moving earlier pivots inside their candidates.
        False, with nothing changed, when no distinct representatives
        exist."""
        S &= ~self.banned
        free = S & ~self.taken
        if free:  # the augmenting path of one edge
            x = free & -free
            self.owner[x] = len(self.cand)
            self.cand.append(S)
            self.pivot.append(x)
            self.taken |= x
            return True
        t = len(self.cand)
        self.cand.append(S)
        self.pivot.append(0)
        came: dict = {}  # vertex bit -> the step the search reached it from
        seen = 0
        queue = [t]
        for s in queue:
            reach = self.cand[s] & ~seen
            free = reach & ~self.taken
            if free:
                x = free & -free
                self.taken |= x
                while x:  # each step on the path takes the bit it reached
                    self.owner[x] = s
                    x, self.pivot[s] = self.pivot[s], x
                    s = came.get(x)
                return True
            seen |= reach
            while reach:
                x = reach & -reach
                reach ^= x
                came[x] = s
                queue.append(self.owner[x])
        self.cand.pop()
        self.pivot.pop()
        return False

    def pop(self) -> None:
        x = self.pivot.pop()
        self.cand.pop()
        del self.owner[x]
        self.taken ^= x


def _walk(
    T: _StepTable, start: int, cap: int, visit, avail: int = -1, banned: int = 0
) -> list | None:
    """Depth-first search over the edge sequences of the proper chains
    that start at edge index start.

    Calls visit(seq), seq the list of edge indices, on [start] and then on
    every extension of at most cap steps by edges in the mask avail, in
    edge order, whose steps have distinct pivots outside the vertex mask
    banned.  True from visit stops the search and returns the sequence it
    stopped at; False skips that sequence's extensions; None extends it.
    Returns None when nothing stopped.
    """
    seq = [start]
    verdict = visit(seq)
    if verdict is not None or cap <= 0:
        return seq if verdict else None
    avail &= ~(1 << start)
    steps = T.steps()
    pivots = _Pivots(banned)
    frames = [iter(steps[start])]  # frames[k]: steps not yet tried out of seq[k]
    while frames:
        for j, S in frames[-1]:
            if avail >> j & 1 and pivots.push(S):
                seq.append(j)
                avail ^= 1 << j
                verdict = visit(seq)
                if verdict:
                    return seq
                if verdict is None and len(seq) <= cap:
                    frames.append(iter(steps[j]))
                    break
                pivots.pop()
                avail |= 1 << seq.pop()
        else:
            frames.pop()
            if frames:
                pivots.pop()
                avail |= 1 << seq.pop()
    return None


def _reach(T: _StepTable, start: int, cap: int) -> int:
    """The edges that end a proper chain from edge index start of at most
    cap steps, start itself included, as a mask of edge indices."""
    reached = 0

    def mark(seq: list) -> None:
        nonlocal reached
        reached |= 1 << seq[-1]

    _walk(T, start, cap, mark)
    return reached


def _closes_chord(chain: list, q: int) -> bool:
    """Whether chain[q] and a chain[p] with p <= q - 2, vertex masks, form
    a chord."""
    last = chain[q]
    need = last.bit_count() - 1
    for p in range(q - 1):
        if (chain[p] & last).bit_count() == need:
            return True
    return False


def _redundant(chain: list) -> bool:
    """Whether the proper chain, given by the vertex masks of its edges,
    has a chord: by the chord lemma, whether a strict subsequence of its
    edges, first and last kept and order preserved, carries pivots making
    it proper."""
    return any(_closes_chord(chain, q) for q in range(2, len(chain)))


def is_irredundant(C: Hypergraph, chain: ProperChain) -> bool:
    """True when no strict edge subsequence is again a proper chain.

    The candidate subsequences keep the first and last edge and preserve
    order; by the chord lemma one exists exactly when the chain has a
    chord.  Raises ValidationError if the input is not a proper chain of C.
    """
    if not is_proper_chain(C, chain):
        raise ValidationError("not a proper chain")
    return not _redundant(_bitsets(C.vertices, chain.edges)[1])


def _ends_at(g: int):
    """The visit that stops at a sequence ending at edge index g."""
    return lambda seq: True if seq[-1] == g else None


def _distance(T: _StepTable, f: int, g: int, limit: int) -> int | None:
    """Least n <= limit with a proper chain of n steps from edge index f to
    g, by iterative deepening over edge sequences; None when there is none.
    A chain reaching g below the current depth would have been found at a
    smaller one, so g is only ever met at full depth."""
    at_g = _ends_at(g)
    for depth in range(1, limit + 1):
        if _walk(T, f, depth, at_g) is not None:
            return depth
    return None


def shortest_chain(
    C: Hypergraph, F, G, max_length: int | None = None
) -> ProperChain | None:
    """A shortest proper chain from F to G within the length bound.

    None when no proper chain of length <= max_length exists.  The default
    bound, one less than the edge count, is exhaustive since chain edges
    are distinct.  Deterministic: the first chain of the canonical edge
    and pivot order, rebuilt by the self-reduction of the module docstring.
    """
    F = frozenset(F)
    G = frozenset(G)
    for e in (F, G):
        if not C.has_edge(e):
            raise EdgeNotPresent(f"{sorted(e)} is not an edge")
    if F == G:
        return ProperChain(edges=(F,), pivots=())
    f, g = C.edges.index(F), C.edges.index(G)
    T = _StepTable(C)
    limit = len(C.edges) - 1 if max_length is None else max_length
    n = _distance(T, f, g, limit)
    if n is None:
        return None
    at_g = _ends_at(g)
    seq, pivots = [f], []
    avail, banned = ~(1 << f), 0
    for left in range(n - 1, -1, -1):
        j, x = next(
            (j, x)
            for j, S in T.steps()[seq[-1]]
            if avail >> j & 1
            for x in _ones(S & ~banned)
            if _walk(T, j, left, at_g, avail, banned | 1 << x) is not None
        )
        seq.append(j)
        pivots.append(x)
        avail &= ~(1 << j)
        banned |= 1 << x
    return ProperChain(
        edges=tuple(C.edges[j] for j in seq),
        pivots=tuple(T.vertex[x] for x in pivots),
    )


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

    Uses the conflict graph (edges at distance <= d adjacent), read off
    one walk of at most d steps from each edge, and an exact branch and
    bound for its maximum independent set.  Distance is symmetric on
    equal-size edges, since a reversed proper chain is one.  0 for an
    edgeless hypergraph; mixed edge sizes raise NotUniform.
    """
    if not C.edges:
        return 0
    d = C.uniform_size()
    if d is None:
        raise NotUniform("c_max_disjoint needs a d-uniform hypergraph")
    T = _StepTable(C)
    conflict = [_reach(T, i, d) for i in range(len(C.edges))]
    return _grow(conflict, 0, (1 << len(C.edges)) - 1, 0)


def _grow(conflict: list, chosen: int, cand: int, best: int) -> int:
    """The larger of best and chosen plus a largest independent subset of
    the candidates cand in the conflict graph, conflict[i] the edges in
    conflict with edge i, i included, all masks of edge indices.

    A candidate whose conflicting candidates all conflict with each other
    is taken without branching: a largest independent subset holds at
    most one of them, and swapping it for the candidate keeps the subset
    independent.  Otherwise the lowest one is branched on, in, then out."""
    while cand:
        if chosen + cand.bit_count() <= best:
            return best
        for v in _ones(cand):
            near = conflict[v] & cand
            if all(not near & ~conflict[u] for u in _ones(near)):
                chosen += 1
                cand &= ~near
                break
        else:
            v = (cand & -cand).bit_length() - 1
            best = _grow(conflict, chosen + 1, cand & ~conflict[v], best)
            cand ^= 1 << v
    return max(best, chosen)


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


def _chain_occurrences_ok(T: _StepTable, part: int, v: int) -> bool:
    """No proper irredundant chain of the part, the edges in the mask
    part, carries the vertex of bit v in more than two edges.

    A violating chain has a violating segment, from its first to its third
    edge holding v, which is irredundant by the chord lemma.  So walks
    start only at edges holding v, skip the extensions of every chain that
    closes a chord, and stop at the first chordless chain with three edges
    holding v.  The edges' masks and the count of those holding v are
    kept per depth along the walk.
    """
    holding = T.incident[v] & part
    if holding.bit_count() <= 2:
        return True
    chain: list = []  # chain[k]: vertex mask of seq[k]
    counts = [0] * (part.bit_count() + 1)  # counts[k]: edges of seq[:k] holding v

    def violates(seq: list) -> bool | None:
        k = len(seq)
        del chain[k - 1 :]
        chain.append(T.masks[seq[-1]])
        if _closes_chord(chain, k - 1):
            return False
        counts[k] = counts[k - 1] + (chain[-1] >> v & 1)
        return True if counts[k] > 2 else None

    cap = part.bit_count() - 1
    return all(_walk(T, start, cap, violates, part) is None for start in _ones(holding))


def _neighborhood_complete(T: _StepTable, part: int, v: int, d: int) -> bool:
    """Whether the neighborhood N of bit v in the part induces a
    d-complete hypergraph: C(|N|, d) edges inside N, none below order."""
    N = 0
    for j in _ones(T.incident[v] & part):
        N |= T.masks[j]
    N &= ~(1 << v)
    return T.inside(N).bit_count() == comb(N.bit_count(), d)


def _is_decomposition_vertex(T: _StepTable, part: int, v: int, d: int) -> bool:
    """Whether bit v is a decomposition vertex of the part, the edges in
    the mask part, all of size d.

    For graphs (d = 2) the chain condition holds automatically: a third
    edge membership always yields a proper subsequence chain shortcut, so
    the irredundant chains never show one.
    """
    return _neighborhood_complete(T, part, v, d) and (
        d == 2 or _chain_occurrences_ok(T, part, v)
    )


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
    T = _StepTable(C)
    part = (1 << len(C.edges)) - 1
    for v in range(len(T.vertex)):
        if not part or _is_decomposition_vertex(T, part, v, d):
            return T.vertex[v]
    return None


def _triangulated_part(T: _StepTable, d: int, A: int, memo: dict) -> bool:
    """Whether C[A], A a vertex mask, is triangulated, by is_triangulated's
    elimination; memo maps every vertex mask decided so far to its verdict."""
    if A in memo:
        return memo[A]
    part = T.inside(A)
    covered = 0
    for j in _ones(part):
        covered |= T.masks[j]
    if not part:
        ok = True
    elif A & ~covered:
        ok = _triangulated_part(T, d, covered, memo)
    else:
        ok = False
        for v in _ones(A):
            if not _neighborhood_complete(T, part, v, d):
                continue
            if not _triangulated_part(T, d, A & ~(1 << v), memo):
                break
            if d == 2 or _chain_occurrences_ok(T, part, v):
                ok = True
                break
    memo[A] = ok
    return ok


def is_triangulated(C: Hypergraph) -> bool:
    """Every nonempty induced subhypergraph has a decomposition vertex.

    Decided by eliminating one decomposition vertex per level, memoized
    on the vertex set A of the induced part C[A], over one step table that
    every part shares.  It rests on a lemma:

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
    return _triangulated_part(_StepTable(C), d, (1 << n) - 1, {})


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
    near = _reach(_StepTable(C), C.edges.index(F), C.uniform_size())
    far = [G for j, G in enumerate(C.edges) if not near >> j & 1]
    return Hypergraph(C.vertices - F - C.neighbor_set(F), far)
