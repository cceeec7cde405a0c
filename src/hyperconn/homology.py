"""Exact reduced integer homology of simplicial complexes.

Conventions
-----------
* The augmented chain complex is used, so dimension -1 (the empty face) is
  a real chain group and the profile of the complex {empty} has a single
  free generator in dimension -1.
* Faces are oriented by the ascending order of their int vertices.  In
  reduced_homology a face is a vertex mask of hypergraph._bitsets, so
  ascending vertices are ascending bits, and the incidence [s : s - w] is
  (-1)^i when w is the i-th vertex of s, counted from 0.
* All arithmetic is over Python ints, so ranks and torsion are exact; no
  floating point or fixed-width overflow anywhere.
* A matrix is a list of sparse {col: value} rows without zero entries,
  row i for the i-th (k-1)-cell and column j for the j-th k-cell of d_k.
* reduced_homology never lists the faces.  A decision tree on the minimal
  non-faces matches all faces but a few critical ones, and only the
  boundary maps between critical cells go to Smith form: the matching-tree
  method of Bousquet-Melou, Linusson and Nevo (J. Algebraic Combin. 27,
  2008) with Forman's discrete Morse theory (Adv. Math. 134, 1998).

Matching-tree lemma.  Let delta be a complex on V.  A node (A, B) is a
face A and a set B disjoint from it; the faces at the node are the faces
s with A <= s and s & B empty, the minimal non-faces N meeting B are dead
and the others live, and the vertices in neither A nor B are free.  The
tree starts at (empty, empty), and a node
(i) puts into B every free x with a live N <= A + x, then
(ii) is a leaf that toggles x, matching s to s + x for each face s at the
     node without x, when some free x is in no live N (the lowest such),
(iii) is a leaf whose one face A is critical when no vertex is free, and
(iv) otherwise splits on the free p in the most live N (the lowest on
     ties), into "out" (A, B + p) and then "in" (A + p, B).
Then each face is at exactly one leaf, the toggles are an acyclic matching
of the faces of delta, and the Morse complex on the critical cells has
the reduced integral homology of delta, torsion included.

Proof.  (a) A face s at a node misses each x of (i), as N <= A + x would lie
in s; so s stays at the node, goes on to exactly one child of a split (out
when p is not in s), and at a leaf of (iii) is A itself.  A stays a face: p
joins A only after (i), when no live N lies in A + p, and a dead N meets B,
which A + p misses.  (b) At a leaf of (ii), for a face s without x, any
N <= s + x would miss B, so be live, so miss x and lie in s; so s + x is a
face at the leaf, and the toggle is a perfect matching of the faces at the
leaf by pairs of incidence +-1.  (c) A gradient path is s_0, t_0, s_1, t_1,
... with t_i = s_i + x matched to s_i and s_(i+1) a boundary face of t_i
other than s_i.  Order the leaves by the tree, each out-subtree first.  For
faces s <= t the leaf of s comes no later than that of t, as their paths
part at a split on a p in t - s, where s goes out.  So the leaf of s_(i+1)
comes no later than that of t_i, which is that of s_i; if it is the same,
s_(i+1) = t_i - w with w != x holds x, is matched down, and the path ends.
So the leaf moves strictly earlier at each step that goes on, and no
gradient path closes up (the cluster lemma of Jonsson, Simplicial Complexes
of Graphs, LNM 1928, 2008).  (d) The flow of a face f is f if f is
critical, 0 if f is matched to a smaller face, and -[g : f] times the sum
of [g : h] times the flow of h over the boundary faces h != f of g if f is
matched to g; by (c) it is a finite sum over gradient paths.  The Morse
boundary of a critical cell c is the sum of [c : f] times the flow of f
over its boundary faces f.  Eliminating one pair (f, g), [g : f] = e, is
Gaussian elimination: in the bases with f replaced by dg and each other
cell c of g's dimension by c - e [c : f] g, delta is the direct sum of
0 -> Zg -> Z dg -> 0, which is exact, and of the other cells, each term
[c : f] f of their boundaries replaced by -e [c : f] times dg less its f
term (the cells above lose their g terms, as d d = 0).  Eliminating the
pairs in turn replaces each matched-up face by its flow.  No pair's own
incidence changes, as that would take a gradient path from the pair back
to itself, which (c) rules out.  What is left is the Morse complex, with
the homology of delta over Z (Forman).

The connectivity number conn_h is the largest k such that the reduced
homology vanishes in every dimension from -1 through k: -2 when homology is
already nonzero in dimension -1 (only for {empty}), infinite when every
dimension vanishes (for example any cone).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import SimplicialComplex, _minimal_nonfaces
from .extnat import INF, ExtNat
from .hypergraph import _ones
from .limits import _check_vertex_cap

__all__ = [
    "HomologyProfile",
    "smith_diagonal",
    "reduced_homology",
    "conn_h",
]


def smith_diagonal(rows: list[dict[int, int]]) -> list[int]:
    """Nonzero diagonal of a Smith normal form of an integer matrix.

    The matrix is a list of rows, each a {col: value} dict with the zero
    entries omitted.  Returns positive ints normalized so each divides the
    next.  The input is not modified.

    Elimination runs on copies of the nonempty rows, with an index of the
    rows meeting each column.  The pivot p is an entry of least absolute
    value, the first unit in row order when there is one.  Row operations
    empty its column; once that column holds only p, a column operation
    against it changes the pivot row alone, so that row is reduced mod p.
    Any nonzero remainder, in the column or in the row, is smaller than
    |p|, so the next search finds a smaller pivot; otherwise p joins the
    diagonal.
    """
    rows = {i: dict(row) for i, row in enumerate(rows) if row}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    diag: list[int] = []
    while rows:
        pivot = None
        for i, row in rows.items():
            j, a = min(row.items(), key=lambda e: abs(e[1]))
            if pivot is None or abs(a) < abs(pivot[2]):
                pivot = (i, j, a)
                if abs(a) == 1:
                    break
        i, j, p = pivot
        prow = rows[i]
        for k in [k for k in cols[j] if k != i]:
            row = rows[k]
            q = row[j] // p  # nonzero, as |p| is least
            for c, a in prow.items():
                v = row.get(c, 0) - q * a
                if v:
                    row[c] = v
                    cols[c].add(k)
                elif c in row:
                    del row[c]
                    cols[c].discard(k)
            if not row:
                del rows[k]
        if len(cols[j]) > 1:
            continue
        for c in [c for c in prow if c != j]:
            v = prow[c] % p
            if v:
                prow[c] = v
            else:
                del prow[c]
                cols[c].discard(i)
        if len(prow) == 1:
            diag.append(abs(p))
            del rows[i]
            del cols[j]
    return _normalize_divisibility(diag)


def _normalize_divisibility(diag: list[int]) -> list[int]:
    # replace pairs (a, b) by (gcd, lcm) until each entry divides the next;
    # the direct sum of cyclic groups is unchanged.  Units divide every
    # entry, so they go first and stay out of the quadratic pass
    units = [x for x in diag if x == 1]
    d = [x for x in diag if x > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
    return units + sorted(d)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers and torsion, dimension -1 through dim."""

    dim: int
    betti: dict
    torsion: dict

    def betti_at(self, k: int) -> int:
        return self.betti.get(k, 0)

    def torsion_at(self, k: int) -> tuple:
        return self.torsion.get(k, ())

    def is_trivial_at(self, k: int) -> bool:
        return self.betti_at(k) == 0 and not self.torsion_at(k)

    def is_trivial(self) -> bool:
        return all(self.is_trivial_at(k) for k in range(-1, self.dim + 1))

    def connectivity(self) -> ExtNat:
        for k in range(-1, self.dim + 1):
            if not self.is_trivial_at(k):
                return k - 1
        return INF

    def describe(self) -> str:
        lines = []
        for k in range(-1, self.dim + 1):
            t = ",".join(f"Z/{d}" for d in self.torsion_at(k))
            lines.append(
                f"dim {k}: betti {self.betti_at(k)}" + (f" torsion {t}" if t else "")
            )
        return "\n".join(lines)


def _matching_tree(delta: SimplicialComplex, cap: int | None = None) -> tuple:
    """(tree, critical cells) of the matching-tree lemma of the module
    docstring, vertices and non-faces numbered by _bitsets.  A split is a
    tuple (p, out, in) of the bit of p and the two subtrees, a toggle leaf
    the bit of x, and a critical leaf 0; the critical cells are vertex
    masks, in leaf order."""
    _, nonfaces, occ = _minimal_nonfaces(delta, cap)
    crit: list[int] = []
    return _grow(occ, crit, 0, (1 << len(occ)) - 1, (1 << len(nonfaces)) - 1, 0), crit


def _grow(occ: list[int], crit: list[int], a: int, free: int, live: int, p: int):
    """The subtree of the node whose face is a and whose B is every vertex
    in neither a nor free, with live non-faces live (occ[x]: the non-faces
    through x), appending its critical cells to crit.  p is the bit just
    put into a, or 0.  Rule (i) has work only below "in": no N is a single
    vertex, and below "out" each live N keeps the free vertices it had,
    never one alone after the parent's rule (i).  Below "in", the N through
    p with one free vertex left are found by ORing occ over the free
    vertices into once and twice.  Recursion is one level per split."""
    if p:
        once = twice = 0
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            o = occ[low.bit_length() - 1]
            twice |= once & o
            once |= o
        single = live & occ[p.bit_length() - 1] & once & ~twice
        rest = free if single else 0
        while rest:
            low = rest & -rest
            rest ^= low
            o = occ[low.bit_length() - 1]
            if o & single:
                free ^= low
                live &= ~o
    best = most = 0
    rest = free
    while rest:
        low = rest & -rest
        rest ^= low
        c = (occ[low.bit_length() - 1] & live).bit_count()
        if not c:
            return low
        if c > most:
            best, most = low, c
    if not best:
        crit.append(a)
        return 0
    free ^= best
    out = _grow(occ, crit, a, free, live & ~occ[best.bit_length() - 1], 0)
    return (best, out, _grow(occ, crit, a | best, free, live, best))


def _boundary(face: int):
    """(face - w, [face : face - w]) for each vertex bit w of face, ascending."""
    for k, i in enumerate(_ones(face)):
        yield face ^ 1 << i, -1 if k & 1 else 1


def _flow(tree, f: int, index: dict, flows: dict) -> dict:
    """The flow of the face f (module docstring, (d)) as {index[c]: coeff}
    over the critical cells c of its size, cached in flows.  On an explicit
    stack, a face matched up waits for the flows of its partner's other
    boundary faces, which by acyclicity never wait on it."""
    stack = [f]
    while stack:
        g = stack[-1]
        if g in flows:
            stack.pop()
            continue
        node = tree
        while type(node) is tuple:
            node = node[2] if g & node[0] else node[1]
        if not node:
            flows[g] = {index[g]: 1}
        elif g & node:
            flows[g] = {}
        else:
            up = g | node
            todo = [h for h, _ in _boundary(up) if h != g and h not in flows]
            if todo:
                stack += todo
                continue
            e = -1 if (up & (node - 1)).bit_count() & 1 else 1
            acc: dict[int, int] = {}
            for h, s in _boundary(up):
                if h != g:
                    for i, a in flows[h].items():
                        acc[i] = acc.get(i, 0) - e * s * a
            flows[g] = {i: a for i, a in acc.items() if a}
        stack.pop()
    return flows[f]


def _morse_rows(tree, lower: list[int], upper: list[int]) -> list[dict[int, int]]:
    """The Morse boundary from the critical cells upper to the critical
    cells lower, one {col: value} row per lower cell, columns ascending."""
    rows: list[dict[int, int]] = [{} for _ in lower]
    if not lower:
        return rows
    index = {c: i for i, c in enumerate(lower)}
    flows: dict[int, dict] = {}
    for j, c in enumerate(upper):
        col: dict[int, int] = {}
        for f, s in _boundary(c):
            for i, a in _flow(tree, f, index, flows).items():
                col[i] = col.get(i, 0) + s * a
        for i, a in col.items():
            if a:
                rows[i][j] = a
    return rows


def reduced_homology(delta: SimplicialComplex, cap: int | None = None) -> HomologyProfile:
    """Profile of reduced integer homology groups of the complex: those of
    _morse_profile, listed through delta.dim, the one value that needs the
    facets.  Raises CapacityExceeded when the vertex count is over the cap
    (default 25), before any other work."""
    morse = _morse_profile(delta, cap)
    betti = {k: morse.betti_at(k) for k in range(-1, delta.dim + 1)}
    return HomologyProfile(dim=delta.dim, betti=betti, torsion=morse.torsion)


def _morse_profile(delta: SimplicialComplex, cap: int | None) -> HomologyProfile:
    """The reduced homology of delta through its largest critical cell's
    dimension, above which every group vanishes, read without the facets.
    Each Morse boundary map d_0, ..., d_top of the matching tree (module
    docstring) goes through smith_diagonal once: Betti numbers come from
    the ranks of consecutive maps, torsion from the Smith diagonal of the
    map one dimension up.  Asserted: the maps compose to zero, d_k d_(k+1)
    = 0, as the lemma makes them a chain complex; a necessary check only,
    the tests compare profiles with oracles.
    """
    _check_vertex_cap(len(delta.vertices), cap)
    tree, crit = _matching_tree(delta, cap)
    top = max((c.bit_count() for c in crit), default=0) - 1
    cells = [[c for c in crit if c.bit_count() == k] for k in range(top + 2)]
    maps = [_morse_rows(tree, cells[k], cells[k + 1]) for k in range(top + 1)]
    for d, d_up in zip(maps, maps[1:]):
        for row in d:
            comp: dict[int, int] = {}
            for i, a in row.items():
                for j, b in d_up[i].items():
                    comp[j] = comp.get(j, 0) + a * b
            assert not any(comp.values()), "Morse boundaries do not compose to 0"
    smith = {k: smith_diagonal(rows) for k, rows in enumerate(maps)}
    betti: dict[int, int] = {}
    torsion: dict[int, tuple] = {}
    for k in range(-1, top + 1):
        below, above = smith.get(k, ()), smith.get(k + 1, ())
        betti[k] = len(cells[k + 1]) - len(below) - len(above)
        tors = tuple(x for x in above if x > 1)
        if tors:
            torsion[k] = tors
    return HomologyProfile(dim=top, betti=betti, torsion=torsion)


def conn_h(delta: SimplicialComplex) -> ExtNat:
    """Largest k with vanishing reduced homology through dimension k.

    Values: -2 for {empty}, -1 for a disconnected nonempty complex, INF
    when every reduced homology group vanishes.  The facets are not read.
    """
    return _morse_profile(delta, None).connectivity()
