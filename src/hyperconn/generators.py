"""Instance sources for the verification harness and the demos.

Randomized generation follows one documented model: draw the vertex count
uniformly, then include each candidate edge of the allowed sizes
independently with probability p and reduce the result to inclusion-minimal
form.  Exhaustive generation enumerates graphs up to isomorphism by orbit
marking over edge bitmasks.  The triangulated constructions are verified
against the real recognizers before being returned, so a construction bug
cannot silently feed the harness mislabeled instances.
"""

from __future__ import annotations

import functools
import itertools
from random import Random

from .chains import is_properly_connected, is_triangulated
from .errors import ValidationError
from .hypergraph import Hypergraph

__all__ = [
    "random_hypergraph",
    "random_uniform_hypergraph",
    "all_graphs",
    "is_chordal",
    "chordal_graphs",
    "random_triangulated_uniform",
]


def random_hypergraph(rng: Random, max_vertices: int) -> Hypergraph:
    """One random hypergraph on vertices 1..n: n uniform in [1, max_vertices],
    a probability p drawn uniformly from [0.08, 0.55] so pools mix sparse
    and dense cases, each candidate edge of size 2, then of size 3, kept
    independently with probability p, and the result reduced to
    inclusion-minimal form."""
    if max_vertices < 1:
        raise ValidationError(f"max_vertices {max_vertices} below 1")
    n = rng.randint(1, max_vertices)
    p = rng.uniform(0.08, 0.55)
    chosen = []
    for d in (2, 3):
        if d > n:
            continue
        for c in itertools.combinations(range(1, n + 1), d):
            if rng.random() < p:
                chosen.append(frozenset(c))
    minimal = [e for e in chosen if not any(o is not e and o < e for o in chosen)]
    return Hypergraph(range(1, n + 1), set(minimal))


def random_uniform_hypergraph(
    rng: Random,
    max_vertices: int,
    d: int,
    min_edges: int = 1,
    max_edges: int | None = None,
) -> Hypergraph:
    """One random d-uniform hypergraph with an edge count drawn uniformly
    from [min_edges, max_edges], edges sampled without replacement."""
    if d < 2:
        raise ValidationError(f"edge size d must be >= 2, got {d}")
    if max_vertices < d:
        raise ValidationError(f"need at least {d} vertices for d = {d}")
    n = rng.randint(d, max_vertices)
    cand = list(itertools.combinations(range(1, n + 1), d))
    cap = len(cand) if max_edges is None else min(max_edges, len(cand))
    m = rng.randint(min(min_edges, cap), cap)
    edges = rng.sample(cand, m)
    return Hypergraph(range(1, n + 1), [frozenset(e) for e in edges])


def all_graphs(n: int):
    """Yield every graph on vertices 1..n exactly once up to isomorphism
    (the edgeless graph included), as 2-uniform hypergraphs.

    Orbit marking: masks are visited in increasing order and the whole
    isomorphism orbit of each representative is marked, so the cost is
    orbits x permutations, not masks x permutations.  A mask's image is
    the sum of the image bits of its set bits.  The representatives
    depend on n alone, so they are found once per process and shared.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    yield from _graph_classes(n)


@functools.cache
def _graph_classes(n: int) -> tuple:
    pairs = list(itertools.combinations(range(n), 2))
    bit = {}
    for i, (a, b) in enumerate(pairs):
        bit[a, b] = bit[b, a] = 1 << i
    images = [
        [bit[perm[a], perm[b]] for a, b in pairs]
        for perm in itertools.permutations(range(n))
    ]
    seen = bytearray(1 << len(pairs))
    out = []
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        for image in images:
            seen[sum(map(image.__getitem__, bits))] = 1
        edges = [(pairs[i][0] + 1, pairs[i][1] + 1) for i in bits]
        out.append(Hypergraph(range(1, n + 1), edges))
    return tuple(out)


def is_chordal(G: Hypergraph) -> bool:
    """Simplicial-vertex elimination; complete for graphs.  Vertices whose
    neighborhood is a clique are removed greedily until none remain."""
    adj = {v: set() for v in G.vertices}
    for e in G.edges:
        if len(e) != 2:
            raise ValidationError("chordality is defined here for graphs only")
        a, b = sorted(e)
        adj[a].add(b)
        adj[b].add(a)
    live = set(adj)
    while live:
        pick = None
        for v in sorted(live):
            nb = adj[v] & live
            if all(b in adj[a] for a, b in itertools.combinations(sorted(nb), 2)):
                pick = v
                break
        if pick is None:
            return False
        live.discard(pick)
    return True


def chordal_graphs(n: int):
    """All chordal graphs on vertices 1..n up to isomorphism."""
    for G in all_graphs(n):
        if is_chordal(G):
            yield G


def random_triangulated_uniform(
    rng: Random, d: int, max_vertices: int, verify: bool = True
) -> Hypergraph:
    """One connected d-uniform properly-connected triangulated instance.

    Growth model: start from the d-complete hypergraph on a seed set, then
    repeatedly attach a fresh vertex v to a d-complete subset T of the
    current vertex set by adding every edge {v} union S for S a
    (d-1)-subset of T.  With verify, the seed and each trial step are
    checked once with the real recognizers and a step that breaks either
    property is rolled back, so the postcondition holds by construction."""
    if d < 2:
        raise ValidationError(f"edge size d must be >= 2, got {d}")
    if max_vertices < d:
        raise ValidationError(f"need at least {d} vertices for d = {d}")

    def accept(H: Hypergraph) -> bool:
        return not verify or (is_properly_connected(H) and is_triangulated(H))

    # the d-complete seed must stay small: on d + 2 or more vertices a
    # complete d-uniform hypergraph (d >= 3) carries a proper irredundant
    # chain visiting one vertex three times, so it is not triangulated
    seed = rng.randint(d, min(d + 1, max_vertices))
    H = Hypergraph(range(1, seed + 1), itertools.combinations(range(1, seed + 1), d))
    if not accept(H):
        raise AssertionError("the d-complete seed failed the recognizers")
    target = rng.randint(seed, max_vertices)
    while H.order < target:
        v = H.order + 1
        refused = set()
        for _attempt in range(6):
            t = rng.randint(d - 1, min(v - 1, d + 1))
            T = tuple(sorted(rng.sample(range(1, v), t)))
            if T in refused:
                continue  # the same trial was already checked and refused
            new_edges = [(*S, v) for S in itertools.combinations(T, d - 1)]
            trial = Hypergraph(range(1, v + 1), [*H.edges, *new_edges])
            if accept(trial):
                H = trial
                break
            refused.add(T)
        else:
            break
    return H
