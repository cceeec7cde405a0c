"""Exact reduced integer homology of simplicial complexes.

Conventions
-----------
* The augmented chain complex is used, so dimension -1 (the empty face) is
  a real chain group and the profile of the complex {empty} has a single
  free generator in dimension -1.
* Faces are oriented by the ascending order of their int vertices.  In
  reduced_homology a face is a vertex mask of complexes._face_levels, so
  ascending vertices are ascending bits.
* All arithmetic is over Python ints, so ranks and torsion are exact; no
  floating point or fixed-width overflow anywhere.
* A matrix is a list of sparse {col: value} rows without zero entries;
  boundary rows are built that way, row i for the i-th (k-1)-face and
  column j for the j-th k-face of the k-th boundary map d_k.
* reduced_homology first removes coreduction pairs, by the coreduction
  lemma below (Mrozek and Batko, "Coreduction homology algorithm",
  Discrete Comput. Geom. 41, 2009): one vertex's star in a single sweep
  (the sweep lemma), then a queue.  The faces the sweep removes are never
  built (the enumeration lemma), and boundary rows are built only on the
  faces left.

Coreduction lemma.  Let b be a k-cell of a chain complex of free modules
with bases whose column in d_k is e * e_a, for a (k-1)-cell a and a unit
e = +-1.  Delete a and b and restrict every boundary map to the cells
left: row a and column b go from d_k, row b from d_(k+1), column a from
d_(k-1).  The result is a chain complex with the same homology in every
dimension.

Proof.  This is Gaussian elimination on the pivot d_k(a, b) = e, whose
column holds nothing else, so its Schur complement is zero.  In bases:
replace each k-cell c other than b by c' = c - e d_k(a, c) b, so d c' is
d c with its a-entry made 0.  For a (k+1)-cell z, write d z in the new
basis: each c' has the coefficient c had, and b some coefficient t.  As
no d c' meets a and d b = e a, the a-entry of d d z = 0 is e t, so t = 0.
And d a = e d d b = 0.  So the complex is the direct sum of
0 -> Zb -> Za -> 0, whose map is a unit and which has no homology, and of
the other cells with every map restricted; the homology of a direct sum
is the direct sum of the homologies.

In reduced_homology the cells are all faces, the empty face included,
and every incidence is +-1.  After any number of pairs are removed, the
column of a face in a restricted map holds one +-1 per live boundary face,
so a face with exactly one live boundary face is a b of the lemma.  Pair
by pair, what is left carries the restricted maps, is a chain complex and
has the reduced homology, torsion included, of the whole complex.  Each
pair takes one face from each of two adjacent dimensions, so the Euler
characteristic is unchanged as well.  No free-face (elementary)
reduction is used.

Sweep lemma.  Let v be a vertex of the complex, and take the faces s of
lk v (the faces without v for which s + v is a face), the empty face
first, by increasing size.  Removing each s together with s + v, in that
order, removes coreduction pairs one at a time, and it leaves the faces
of delta - v outside lk v.

Proof.  When s comes up, s and s + v are both live: a face of lk v is
removed only at its own turn, and s + v only with s, as every face with
v is t + v for exactly one face t of lk v.  The boundary faces of s + v
are s and, for each w in s, (s - w) + v.  Each s - w lies in lk v, since
(s - w) + v lies in s + v, and it is smaller than s, so (s - w) + v went
at the turn of s - w.  So s is the one live boundary face of s + v, and
(s, s + v) is a pair (a, b) of the lemma above.  What is left misses
every face with v and every face of lk v, and keeps the rest: the
closed star of v, a cone and so acyclic, goes whole.

Enumeration lemma.  Let K be the faces of delta that lie in no facet
through v.  (a) K is what the sweep leaves.  (b) K is closed upward in
delta, and a face of K that is not a facet is a boundary face of a face
of K one vertex larger.  So a pass from the facets not through v down, one
size at a time, that keeps the boundary faces lying in K and expands only
those, reaches every face of K and builds no other face than K and the
boundary faces of K.  (c) A face t lies in a facet through v exactly when
the AND over the vertices u of t of occ[u], the facets through v that
hold u as bits, is nonzero.

Proof.  (a) A face f lies in a facet through v exactly when f + v is a
face: such a facet holds f + v, and a facet holding the face f + v is one
through v.  So f is outside K exactly when f holds v or f is in lk v.
(b) If f is in K and f lies in a face g, then g is in K, as a facet
through v that held g would hold f.  A face g of K that is not a facet
lies in some facet F, F is not through v since g is in K, and for w in
F - g the face g + w lies in F and, holding g, is in K.  The facets of
delta in K are those not through v, where the pass starts, so by
induction down from the largest size it reaches every face of K.  (c) Bit j
of the AND is set exactly when the j-th facet through v holds every
vertex of t.  For the empty face the AND is over no vertex, so it is
every facet through v, and the empty face is never in K.
The pass walks the whole boundary of each face of K, so at the same time
it counts the live boundary faces of each, those in K, and lists the
cofaces in K of each.

The connectivity number conn_h is the largest k such that the reduced
homology vanishes in every dimension from -1 through k: -2 when homology is
already nonzero in dimension -1 (only for {empty}), infinite when every
dimension vanishes (for example any cone).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from math import gcd

from .complexes import SimplicialComplex, _face_levels
from .extnat import INF, ExtNat

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


def _star_facets(delta: SimplicialComplex) -> list:
    """The facets through v, the vertex in the most top-level faces (the
    lowest on ties); none for {empty}."""
    size = delta.dim + 1
    top = Counter(chain.from_iterable(f for f in delta.facets if len(f) == size))
    if not top:
        return []
    v = max(sorted(top), key=top.__getitem__)
    return [f for f in delta.facets if v in f]


def _coreduce(delta: SimplicialComplex, cap: int | None) -> list[list[int]]:
    """The faces that coreduction leaves, by level, each level ascending.

    The sweep of the star of v, the vertex of _star_facets, comes first,
    and no face it removes is built: _face_levels enumerates only the faces
    of delta inside no facet through v, with each one's count of live
    boundary faces and list of cofaces (the sweep and enumeration lemmas
    of the module docstring).
    Then any face with exactly one live boundary face is removed together
    with that face, and the counts of the live cofaces of both go down,
    visited in ascending order.
    Faces are taken first in, first out, as their counts reach 1, starting
    from the faces the sweep left with count 1 in ascending mask order; on
    the homology-large bench pool that order left 599 faces, against 851
    when they were queued level by level in set order.  By the coreduction
    lemma, what is left has the reduced homology of the whole complex
    under the restricted boundaries.
    """
    levels, up = _face_levels(delta, cap, _star_facets(delta))
    live: dict[int, int] = {}
    for level in levels:
        live.update(level)
    queue = deque(sorted(f for f, c in live.items() if c == 1))
    while queue:
        b = queue.popleft()
        if live.get(b) != 1:
            continue
        rest = b
        while b ^ (rest & -rest) not in live:
            rest &= rest - 1
        a = b ^ (rest & -rest)
        for x in (b, a):
            del live[x]
            for y in up[x]:
                c = live.get(y)
                if c is not None:
                    live[y] = c - 1
                    if c == 2:
                        queue.append(y)
    out: list[list[int]] = [[] for _ in levels]
    for f in live:
        out[f.bit_count()].append(f)
    for fs in out:
        fs.sort()
    return out


def _boundary_rows(lower: list[int], upper: list[int]) -> list[dict[int, int]]:
    # column j is upper[j], so each row's columns are inserted ascending;
    # a boundary face missing from lower is left out, as the restriction
    index = {f: i for i, f in enumerate(lower)}
    rows: list[dict[int, int]] = [{} for _ in lower]
    for j, face in enumerate(upper):
        rest, sign = face, 1
        while rest:
            low = rest & -rest
            i = index.get(face ^ low)
            if i is not None:
                rows[i][j] = sign
            rest ^= low
            sign = -sign
    return rows


def reduced_homology(delta: SimplicialComplex, cap: int | None = None) -> HomologyProfile:
    """Profile of reduced integer homology groups of the complex.

    Raises CapacityExceeded when the vertex count is over the cap (default
    25), before any face is built.  The faces are coreduced first (the
    coreduction lemma of the module docstring).  On the faces left, each
    boundary map d_0, ..., d_top goes through smith_diagonal once: Betti
    numbers come from the ranks of consecutive maps, torsion from the
    Smith diagonal of the map one dimension up.

    One internal check is asserted: on the faces left, the restricted maps
    compose to zero, d_k d_(k+1) = 0 for every k, so what goes to Smith
    form is a chain complex.  That holds when the enumeration kept a set
    closed upward in delta (its maps are those of the quotient of delta
    by the rest, a subcomplex) and the queue removed only pairs of the
    coreduction lemma.  It is a necessary condition only, as a wrong pair
    breaks it only where a live face still meets the pair; the tests
    compare profiles with independent oracles.  No Euler characteristic
    check is made: on the faces enumerated, whose reduced Euler
    characteristic the sweep lemma makes that of delta, it would hold by
    construction.
    """
    live = _coreduce(delta, cap)
    top = delta.dim
    maps = [_boundary_rows(live[k], live[k + 1]) for k in range(top + 1)]
    for d, d_up in zip(maps, maps[1:]):
        for row in d:
            comp: dict[int, int] = {}
            for i, a in row.items():
                for j, b in d_up[i].items():
                    comp[j] = comp.get(j, 0) + a * b
            assert not any(comp.values()), "restricted boundaries do not compose to 0"
    smith = {k: smith_diagonal(rows) for k, rows in enumerate(maps)}
    betti: dict[int, int] = {}
    torsion: dict[int, tuple] = {}
    for k in range(-1, top + 1):
        below, above = smith.get(k, ()), smith.get(k + 1, ())
        betti[k] = len(live[k + 1]) - len(below) - len(above)
        tors = tuple(x for x in above if x > 1)
        if tors:
            torsion[k] = tors
    return HomologyProfile(dim=top, betti=betti, torsion=torsion)


def conn_h(delta: SimplicialComplex) -> ExtNat:
    """Largest k with vanishing reduced homology through dimension k.

    Values: -2 for {empty}, -1 for a disconnected nonempty complex, INF
    when every reduced homology group vanishes.
    """
    return reduced_homology(delta).connectivity()
