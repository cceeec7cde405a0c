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


def random_hypergraph(
    rng: Random,
    max_vertices: int,
    dims: tuple = (2, 3),
    p: float | None = None,
    min_vertices: int = 1,
) -> Hypergraph:
    """One random hypergraph: n uniform in [min, max], each candidate edge
    of a size in dims kept independently with probability p, then reduced
    to inclusion-minimal form.  p defaults to a fresh draw per instance so
    pools mix sparse and dense cases."""
    if max_vertices < min_vertices:
        raise ValidationError(
            f"max_vertices {max_vertices} below min_vertices {min_vertices}"
        )
    n = rng.randint(min_vertices, max_vertices)
    prob = rng.uniform(0.08, 0.55) if p is None else p
    chosen = []
    for d in dims:
        if d < 2 or d > n:
            continue
        for c in itertools.combinations(range(1, n + 1), d):
            if rng.random() < prob:
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


def _pair_index(n: int) -> dict:
    return {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}


def _perm_tables(n: int) -> list:
    """For each permutation of range(n), the map from pair-bit position to
    its image position."""
    idx = _pair_index(n)
    pairs = list(itertools.combinations(range(n), 2))
    tables = []
    for perm in itertools.permutations(range(n)):
        tables.append(
            [idx[tuple(sorted((perm[a], perm[b])))] for (a, b) in pairs]
        )
    return tables


def all_graphs(n: int):
    """Yield every graph on vertices 1..n exactly once up to isomorphism
    (the edgeless graph included), as 2-uniform hypergraphs.

    Orbit marking: masks are visited in increasing order and the whole
    isomorphism orbit of each representative is marked, so the cost is
    orbits x permutations, not masks x permutations.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if n == 1:
        yield Hypergraph([1], [])
        return
    pairs = list(itertools.combinations(range(n), 2))
    nbits = len(pairs)
    tables = _perm_tables(n)
    seen = bytearray(1 << nbits)
    for mask in range(1 << nbits):
        if seen[mask]:
            continue
        for table in tables:
            img = 0
            rem = mask
            while rem:
                low = rem & -rem
                img |= 1 << table[low.bit_length() - 1]
                rem ^= low
            seen[img] = 1
        edges = [
            frozenset((pairs[i][0] + 1, pairs[i][1] + 1))
            for i in range(nbits)
            if mask >> i & 1
        ]
        yield Hypergraph(range(1, n + 1), edges)


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
    (d-1)-subset of T.  Each step is checked with the real recognizers and
    rolled back if either property breaks, so the postcondition holds by
    construction."""
    if d < 2:
        raise ValidationError(f"edge size d must be >= 2, got {d}")
    if max_vertices < d:
        raise ValidationError(f"need at least {d} vertices for d = {d}")
    # the d-complete seed must stay small: on d + 2 or more vertices a
    # complete d-uniform hypergraph (d >= 3) carries a proper irredundant
    # chain visiting one vertex three times, so it is not triangulated
    seed = rng.randint(d, min(d + 1, max_vertices))
    verts = list(range(1, seed + 1))
    edges = {frozenset(c) for c in itertools.combinations(verts, d)}
    target = rng.randint(seed, max_vertices)
    while len(verts) < target:
        v = len(verts) + 1
        accepted = False
        for _attempt in range(6):
            t = rng.randint(d - 1, min(len(verts), d + 1))
            T = rng.sample(verts, t)
            new_edges = {
                frozenset(S) | {v} for S in itertools.combinations(sorted(T), d - 1)
            }
            trial = edges | new_edges
            H = Hypergraph(range(1, v + 1), trial)
            if not verify or (is_properly_connected(H) and is_triangulated(H)):
                verts.append(v)
                edges = trial
                accepted = True
                break
        if not accepted:
            break
    H = Hypergraph(range(1, len(verts) + 1), edges)
    if verify:
        if not is_properly_connected(H):
            raise AssertionError("construction produced a non-properly-connected instance")
        if not is_triangulated(H):
            raise AssertionError("construction produced a non-triangulated instance")
    return H
