"""Exact reduced integer homology of simplicial complexes.

Conventions
-----------
* The augmented chain complex is used, so dimension -1 (the empty face) is
  a real chain group and the profile of the complex {empty} has a single
  free generator in dimension -1.
* Faces are oriented by the ascending order of their int vertices.  In
  reduced_homology a face is a vertex mask, vertex i of the sorted vertex
  set being bit i, so ascending vertices are ascending bits.
* All arithmetic is over Python ints, so ranks and torsion are exact; no
  floating point or fixed-width overflow anywhere.
* A matrix is a list of sparse {col: value} rows without zero entries;
  boundary rows are built that way, row i for the i-th (k-1)-face and
  column j for the j-th k-face of the k-th boundary map d_k.
* reduced_homology first removes coreduction pairs, by the coreduction
  lemma below (Mrozek and Batko, "Coreduction homology algorithm",
  Discrete Comput. Geom. 41, 2009), and builds boundary rows only on the
  faces left.
* It then eliminates d_top, ..., d_0 in that order and leaves out of
  each d_k the k-faces that the elimination of d_(k+1) cleared, by the
  clearing lemma below.  This is the clearing of Chen and Kerber,
  "Persistent homology computation with a twist" (EuroCG 2011), also in
  Bauer, Kerber and Reininghaus, "Clear and compress: computing
  persistent homology in chunks" (2014), kept exact over the integers by
  clearing only rows that a unit certifies.

Clearing lemma.  Let A and B be integer matrices with BA = 0, the rows of
A indexing the columns of B.  Eliminate A as _eliminate does, and let
P = {s_1, ..., s_m} be the rows on which it pivots on a unit, in pivot
order, before its first non-unit pivot.  Then B and B without the columns
P have the same image, so the same rank and Smith diagonal (both are read
off the cokernel of B).

Proof.  Column operations keep im A.  A unit pivot (s_i, j) finishes in
its own step: its row operations clear column j except at s_i, and the
row reduces to its pivot entry; a finished row is never changed again and
is the source of no later row operation.  Let v be column j of the working
matrix, finished rows included, when s_i is chosen: v(s_i) = +-1, and
v(s_h) = 0 for h < i because row s_h holds only its own pivot, in a column
that s_h alone meets.  Undo the row operations of steps i-1, ..., 1 in
that order: step h added multiples of row s_h, and no later step changed
entry s_h, so each undo adds 0 to v and v itself lies in im A.  Call it
c_i.  The m x m matrix (c_i(s_h)) is triangular with diagonal +-1, so
integer combinations of the c_i give, for each s in P, some c in im A with
c|_P = e_s.  As Bc = 0, B e_s is an integer combination of the columns of
B outside P.

Past a non-unit pivot an undo can add to a finished row: for A = (2, 3)^T
and B = (3, -2), the pivot 2 leaves 1 in row 1, yet B without column 1
has image 3Z, not Z.  So a row is cleared only on a unit, before any
non-unit.  In reduced_homology, B = d_k and A is d_(k+1) less the columns
cleared one dimension up, on the faces coreduction left; by induction
from the top, A has the image of d_(k+1), and d_k A = 0.  So every map is
eliminated on columns with the image of the full map, and every rank and
Smith diagonal, hence every Betti number and torsion group, is that of
the full boundary maps on those faces.

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
characteristic is unchanged as well.  The clearing lemma needs only
BA = 0, so it applies on what is left.  No free-face (elementary)
reduction is used.

The connectivity number conn_h is the largest k such that the reduced
homology vanishes in every dimension from -1 through k: -2 when homology is
already nonzero in dimension -1 (only for {empty}), infinite when every
dimension vanishes (for example any cone).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .complexes import SimplicialComplex
from .errors import CapacityExceeded
from .extnat import INF, ExtNat
from .limits import vertex_cap

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
    """
    return _eliminate(rows)[0]


def _eliminate(rows: list[dict[int, int]]) -> tuple[list[int], set[int]]:
    """The Smith diagonal of smith_diagonal and the clearing rows: the rows
    where a unit pivot finished before the first non-unit pivot.

    Elimination runs on copies of the nonempty rows, with an index of the
    rows meeting each column.  The pivot p is an entry of least absolute
    value, the first unit in row order when there is one.  Row operations
    clear its column; once that column holds only p, a column operation
    against it changes the pivot row alone, so that row is reduced mod p.
    Any nonzero remainder, in the column or in the row, is smaller than
    |p|, so the next search finds a smaller pivot; otherwise p joins the
    diagonal.  A unit pivot always finishes in its own step.
    """
    rows = {i: dict(row) for i, row in enumerate(rows) if row}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    diag: list[int] = []
    unit_rows: set[int] = set()
    units_only = True
    while rows:
        pivot = None
        for i, row in rows.items():
            j, a = min(row.items(), key=lambda e: abs(e[1]))
            if pivot is None or abs(a) < abs(pivot[2]):
                pivot = (i, j, a)
                if abs(a) == 1:
                    break
        i, j, p = pivot
        if abs(p) != 1:
            units_only = False
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
            if units_only:
                unit_rows.add(i)
            del rows[i]
            cols[j].clear()
    return _normalize_divisibility(diag), unit_rows


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


def _face_levels(delta: SimplicialComplex, cap: int | None) -> list[set[int]]:
    """The faces of delta as vertex masks, vertex i of sorted(delta.vertices)
    as bit i; level k holds the faces of k vertices, from the facets down.
    Raises CapacityExceeded above the vertex cap before enumerating."""
    n = len(delta.vertices)
    if n > vertex_cap(cap):
        raise CapacityExceeded(f"{n} vertices exceeds the face enumeration cap")
    index = {v: i for i, v in enumerate(sorted(delta.vertices))}
    levels: list[set[int]] = [set() for _ in range(delta.dim + 2)]
    levels[0].add(0)
    for f in delta.facets:
        levels[len(f)].add(sum(1 << index[v] for v in f))
    for k in range(len(levels) - 1, 1, -1):
        below = levels[k - 1]
        for f in levels[k]:
            rest = f
            while rest:
                low = rest & -rest
                below.add(f ^ low)
                rest ^= low
    return levels


def _coreduce(levels: list[set[int]]) -> list[list[int]]:
    """The faces that coreduction leaves, by level, each level ascending.

    A face is live until removed; live[f] counts its live boundary faces.
    The first vertex goes first, so it pairs with the empty face; after
    that, any face with exactly one live boundary face is removed together
    with that face, and the counts of the live cofaces of both go down.
    Faces are taken first in, first out, as their counts reach 1, so the
    pairing grows outward from the first vertex; taken last in, first out,
    they left about nine times as many faces on the homology-large bench
    pool.  By the coreduction lemma of the module docstring, what is left
    has the reduced homology of the whole complex under the restricted
    boundaries.
    """
    live = {f: k for k, level in enumerate(levels) for f in level}
    full = (1 << len(levels[1])) - 1 if len(levels) > 1 else 0
    queue = deque([1] if full else [])
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
            rest = full & ~x
            while rest:
                low = rest & -rest
                rest ^= low
                y = x | low
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
    coreduction lemma of the module docstring).  On the faces left, Betti
    numbers come from the ranks of consecutive boundary maps, torsion from
    the Smith diagonal of the boundary one dimension up.  The maps are
    eliminated from the top dimension down, each without the columns the
    one above cleared (the clearing lemma), which leaves every rank and
    diagonal as it is.  A reduced Euler characteristic identity between
    all faces and the Betti numbers is asserted as an internal sanity
    check.
    """
    levels = _face_levels(delta, cap)
    live = _coreduce(levels)
    top = delta.dim
    smith: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for k in range(top, -1, -1):
        upper = [f for i, f in enumerate(live[k + 1]) if i not in cleared]
        smith[k], cleared = _eliminate(_boundary_rows(live[k], upper))
    betti: dict[int, int] = {}
    torsion: dict[int, tuple] = {}
    for k in range(-1, top + 1):
        below, above = smith.get(k, ()), smith.get(k + 1, ())
        betti[k] = len(live[k + 1]) - len(below) - len(above)
        tors = tuple(x for x in above if x > 1)
        if tors:
            torsion[k] = tors
    euler_faces = sum((-1) ** (k - 1) * len(fs) for k, fs in enumerate(levels))
    euler_betti = sum((-1) ** k * b for k, b in betti.items())
    assert euler_faces == euler_betti, "Euler characteristic mismatch"
    return HomologyProfile(dim=top, betti=betti, torsion=torsion)


def conn_h(delta: SimplicialComplex) -> ExtNat:
    """Largest k with vanishing reduced homology through dimension k.

    Values: -2 for {empty}, -1 for a disconnected nonempty complex, INF
    when every reduced homology group vanishes.
    """
    return reduced_homology(delta).connectivity()
