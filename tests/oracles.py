"""Independent brute-force implementations used to cross-check the package.

Everything here is written directly from the definitions, in the slowest
obviously-correct way, and shares no code with the package internals.
Inputs are plain vertex iterables and collections of edge sets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

INF = float("inf")


def independent_subsets(vertices, edges) -> set:
    """All subsets of the vertex set containing no edge, by full scan."""
    vs = sorted(vertices)
    es = [frozenset(e) for e in edges]
    out = set()
    for r in range(len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            s = frozenset(sub)
            if not any(e <= s for e in es):
                out.add(s)
    return out


def contraction(vertices, edges, F) -> tuple:
    """(vertices, edges) of the contraction by the edge F, by definition:
    V - F - N(F), where N(F) holds each x with E - F = {x} for an edge E,
    and as edges the diffs E - F (E != F) of size >= 2 that contain no
    other diff, every pair compared."""
    F = frozenset(F)
    diffs = [frozenset(E) - F for E in edges if frozenset(E) != F]
    nbrs = {x for d in diffs if len(d) == 1 for x in d}
    kept = {d for d in diffs if len(d) >= 2 and not any(t < d for t in diffs)}
    return frozenset(vertices) - F - nbrs, kept


def minimal_nonfaces(vertices, faces) -> set:
    """Subsets of the vertex set outside the face set all of whose
    one-smaller subsets are faces, by full scan."""
    vs = sorted(vertices)
    fs = set(faces)
    return {
        frozenset(sub)
        for r in range(len(vs) + 1)
        for sub in itertools.combinations(vs, r)
        if frozenset(sub) not in fs
        and all(frozenset(sub) - {v} in fs for v in sub)
    }


def minimal_transversals(vertices, family) -> set:
    """Subsets of the vertex set meeting every member of family none of
    whose one-smaller subsets does, by full scan."""
    vs = sorted(vertices)
    fam = [frozenset(e) for e in family]

    def hits(s):
        return all(s & e for e in fam)

    return {
        frozenset(sub)
        for r in range(len(vs) + 1)
        for sub in itertools.combinations(vs, r)
        if hits(frozenset(sub)) and not any(hits(frozenset(sub) - {v}) for v in sub)
    }


def mmcs_transversals(ground, family) -> list:
    """Inclusion-minimal transversals of family in the order of MMCS
    (Murakami and Uno, Discrete Appl. Math. 170, 2014) on Python sets:
    branch on the candidates of the missed member with fewest, first in
    family order on ties, in ascending order, keeping a choice while each
    chosen vertex alone meets some member, which is tested by scanning the
    whole family."""
    transversals = []
    _mmcs(family, frozenset(), list(family), set(ground), transversals)
    return transversals


def _mmcs(family, chosen: frozenset, missed: list, cand: set, out: list) -> None:
    if not missed:
        out.append(chosen)
        return
    F = min(missed, key=lambda e: len(e & cand))
    branch = sorted(F & cand)
    cand -= F
    for v in branch:
        t = chosen | {v}
        if all(any(e & t == {u} for e in family) for u in chosen):
            _mmcs(family, t, [e for e in missed if v not in e], cand, out)
        cand.add(v)


def faces_of(facets) -> set:
    """Every subset of every facet, the empty face included, by
    itertools.combinations."""
    out = {frozenset()}
    for f in facets:
        elems = sorted(f)
        for k in range(1, len(elems) + 1):
            out.update(frozenset(c) for c in itertools.combinations(elems, k))
    return out


def facets_of(faces) -> set:
    fs = set(faces)
    return {f for f in fs if f and not any(f < g for g in fs)}


def _rank_rational(rows: list) -> int:
    """Row rank of an integer matrix by fraction-exact Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = mat[row][col]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank


def _det(mat: list) -> int:
    """Exact determinant by cofactor expansion along the first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * a * _det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, a in enumerate(mat[0])
        if a
    )


def invariant_factors(mat: list) -> list:
    """Nonzero invariant factors of an integer matrix, ascending.

    From the determinantal divisors: d_k is the gcd of all k x k minors,
    and the k-th invariant factor is d_k / d_(k-1) for as long as d_k is
    nonzero.  Every minor is expanded exactly, so this is only for
    matrices up to about 5 x 5.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                d = gcd(d, _det([[mat[r][c] for c in cs] for r in rs]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def invariant_factors_by_elimination(mat: list) -> list:
    """Nonzero invariant factors of an integer matrix, ascending, by the
    textbook dense reduction with row and column swaps.

    Move an entry of least absolute value in the remaining block to its
    corner and clear the corner's row and column by integer division,
    until no remainder is left; if the corner then fails to divide some
    entry of the block, add that entry's row to the corner's row and go
    on.  Each finished corner divides everything after it, so the corners
    already form the divisibility chain.
    """
    a = [list(row) for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    factors = []
    for t in range(min(rows, cols)):
        while True:
            nonzero = [
                (abs(a[i][j]), i, j)
                for i in range(t, rows)
                for j in range(t, cols)
                if a[i][j]
            ]
            if not nonzero:
                return factors
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, rows):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, cols):
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1 :]):
                continue
            bad = next(
                (i for i in range(t + 1, rows) for x in a[i][t + 1 :] if x % p),
                None,
            )
            if bad is None:
                factors.append(abs(p))
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
    return factors


def boundary_matrix(faces, k: int) -> list:
    """Dense matrix of the boundary map from k-faces to (k-1)-faces.

    Rows are the (k-1)-faces and columns the k-faces, each as an ascending
    vertex tuple and listed in ascending order; deleting the i-th vertex of
    a column's face gives the entry (-1) ** i in that face's row.
    """
    lower = sorted(tuple(sorted(f)) for f in faces if len(f) == k)
    upper = sorted(tuple(sorted(f)) for f in faces if len(f) == k + 1)
    index = {f: i for i, f in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        for i in range(len(face)):
            rows[index[face[:i] + face[i + 1 :]]][j] = (-1) ** i
    return rows


def betti_numbers(faces) -> dict:
    """Reduced rational Betti numbers of a complex given by its face set.

    The face set must be downward closed and contain the empty face.
    Uses the augmented chain complex with exact fraction arithmetic; no
    integer normal forms anywhere.
    """
    top = max(len(f) for f in faces) - 1
    ranks = {k: _rank_rational(boundary_matrix(faces, k)) for k in range(top + 1)}
    return {
        k: sum(len(f) == k + 1 for f in faces) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(-1, top + 1)
    }


def torsion(faces) -> dict:
    """Reduced integer torsion of a complex given by its face set.

    Maps each dimension k - 1 with torsion to the invariant factors above 1
    of the k-th boundary matrix, found by the textbook dense reduction.
    """
    out = {}
    for k in range(max(len(f) for f in faces)):
        factors = invariant_factors_by_elimination(boundary_matrix(faces, k))
        tors = tuple(x for x in factors if x > 1)
        if tors:
            out[k - 1] = tors
    return out


def chain_distance(edges, F, G) -> float:
    """Shortest proper-chain length between two edges, by full enumeration.

    A proper chain is a sequence of distinct edges E_0..E_n with distinct
    pivots x_k in E_{k-1} & E_k and |E_i & E_{i+1}| = |E_{i+1}| - 1.
    """
    es = [frozenset(e) for e in edges]
    F = frozenset(F)
    G = frozenset(G)
    if F == G:
        return 0
    others = [e for e in es if e not in (F, G)]
    for n in range(1, len(es)):
        for middle in itertools.permutations(others, n - 1):
            seq = [F, *middle, G]
            if any(
                len(seq[i] & seq[i + 1]) != len(seq[i + 1]) - 1
                for i in range(n)
            ):
                continue
            pools = [sorted(seq[k - 1] & seq[k]) for k in range(1, n + 1)]
            for choice in itertools.product(*pools):
                if len(set(choice)) == n:
                    return n
    return INF


def max_far_apart(edges, d) -> int:
    """Most edges pairwise at chain_distance >= d + 1, by trying every
    subfamily from the largest down; 0 when there are no edges."""
    es = [frozenset(e) for e in edges]
    near = {
        (a, b)
        for a, b in itertools.combinations(range(len(es)), 2)
        if chain_distance(es, es[a], es[b]) <= d
    }
    for r in range(len(es), 0, -1):
        for sub in itertools.combinations(range(len(es)), r):
            if not any(p in near for p in itertools.combinations(sub, 2)):
                return r
    return 0


def chain_walk(edges, start, cap) -> list:
    """Every proper chain from the edge start with at most cap pivots, as
    (edges, pivots) tuples, in the order of a depth-first search that
    extends a chain by each new edge in the given order and then by each
    of its pivots in ascending order.  The same edge sequence appears once
    per pivot choice."""
    es = [frozenset(e) for e in edges]
    out = []

    def grow(seq, pivots):
        out.append((tuple(seq), tuple(pivots)))
        if len(pivots) == cap:
            return
        for e in es:
            if e in seq or len(seq[-1] & e) != len(e) - 1:
                continue
            for x in sorted(seq[-1] & e):
                if x not in pivots:
                    grow(seq + [e], pivots + [x])

    grow([frozenset(start)], [])
    return out


def first_shortest_chains(edges, F) -> dict:
    """Map each edge G that a proper chain from F reaches to the first
    chain of least length from F to G in chain_walk's order, as (edges,
    pivots)."""
    firsts = {}
    for chain in chain_walk(edges, F, len(edges) - 1):
        G = chain[0][-1]
        if G not in firsts or len(chain[1]) < len(firsts[G][1]):
            firsts[G] = chain
    return firsts


def has_pivots(seq) -> bool:
    """Whether some distinct pivots make the edge sequence a proper chain."""
    n = len(seq) - 1
    if any(len(seq[i] & seq[i + 1]) != len(seq[i + 1]) - 1 for i in range(n)):
        return False
    pools = [sorted(seq[k - 1] & seq[k]) for k in range(1, n + 1)]
    return any(len(set(c)) == n for c in itertools.product(*pools))


def irredundant(seq) -> bool:
    """Whether no strict subsequence of the edge sequence, keeping its first
    and last edge in order, is a proper chain."""
    seq = [frozenset(e) for e in seq]
    return not any(
        has_pivots((seq[0], *mid, seq[-1]))
        for r in range(len(seq) - 2)
        for mid in itertools.combinations(seq[1:-1], r)
    )


def max_irredundant_occurrences(edges, v) -> int:
    """Most edges containing v in any proper irredundant chain.

    Enumerates every sequence of distinct edges; one is a proper chain when
    some choice of distinct pivots fits it, and irredundant when no strict
    subsequence keeping its first and last edge is a proper chain.
    """
    es = [frozenset(e) for e in edges]
    best = 0
    for k in range(1, len(es) + 1):
        for seq in itertools.permutations(es, k):
            count = sum(1 for e in seq if v in e)
            if count <= best or not has_pivots(seq):
                continue
            if irredundant(seq):
                best = count
    return best


def total_domination(vertices, edges) -> float:
    """Total domination number of a graph; INF when some vertex has no
    neighbor."""
    vs = sorted(vertices)
    nbrs = {v: set() for v in vs}
    for e in edges:
        a, b = sorted(e)
        nbrs[a].add(b)
        nbrs[b].add(a)
    if any(not nbrs[v] for v in vs):
        return INF
    for r in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            s = set(sub)
            if all(nbrs[v] & s for v in vs):
                return r
    return INF


def covered(vertices, faces, A) -> set:
    """Vertices v covered by A: some face sigma inside A has sigma + {v}
    outside the complex."""
    face_set = set(faces)
    inside = [f for f in face_set if f <= frozenset(A)]
    out = set()
    for v in sorted(vertices):
        for sigma in inside:
            if v not in sigma and frozenset(sigma | {v}) not in face_set:
                out.add(v)
                break
    return out


def strong_dominating_number(vertices, faces) -> float:
    """Smallest |A| whose covered-vertex set is everything, by definition.
    INF when no A at all works."""
    vs = sorted(vertices)
    face_set = set(faces)
    for r in range(len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            if covered(vs, face_set, sub) == set(vs):
                return r
    return INF
