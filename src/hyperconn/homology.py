"""Exact reduced integer homology of simplicial complexes.

Conventions
-----------
* The augmented chain complex is used, so dimension -1 (the empty face) is
  a real chain group and the profile of the complex {empty} has a single
  free generator in dimension -1.
* Faces are oriented by the ascending order of their int vertices.
* All arithmetic is over Python ints, so ranks and torsion are exact; no
  floating point or fixed-width overflow anywhere.
* A matrix is a list of sparse {col: value} rows without zero entries;
  boundary rows are built that way, row i for the i-th (k-1)-face and
  column j for the j-th k-face of the k-th boundary map d_k.
* reduced_homology eliminates d_top, ..., d_0 in that order and leaves out
  of each d_k the k-faces that the elimination of d_(k+1) cleared, by the
  lemma below.  This is the clearing of Chen and Kerber, "Persistent
  homology computation with a twist" (EuroCG 2011), also in Bauer, Kerber
  and Reininghaus, "Clear and compress: computing persistent homology in
  chunks" (2014), kept exact over the integers by clearing only rows
  that a unit certifies.

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
cleared one dimension up; by induction from the top, A has the image of
d_(k+1), and d_k A = 0.  So every map is eliminated on columns with the
image of the full map, and every rank and Smith diagonal, hence every
Betti number and torsion group, is that of the full boundary maps.

The connectivity number conn_h is the largest k such that the reduced
homology vanishes in every dimension from -1 through k: -2 when homology is
already nonzero in dimension -1 (only for {empty}), infinite when every
dimension vanishes (for example any cone).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import SimplicialComplex
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


def _boundary_rows(lower: list[tuple], upper: list[tuple]) -> list[dict[int, int]]:
    # column j is upper[j], so each row's columns are inserted ascending
    index = {f: i for i, f in enumerate(lower)}
    rows: list[dict[int, int]] = [{} for _ in lower]
    for j, face in enumerate(upper):
        for i in range(len(face)):
            rows[index[face[:i] + face[i + 1 :]]][j] = 1 if i % 2 == 0 else -1
    return rows


def reduced_homology(delta: SimplicialComplex, cap: int | None = None) -> HomologyProfile:
    """Profile of reduced integer homology groups of the complex.

    Betti numbers come from the ranks of consecutive boundary maps, torsion
    from the Smith diagonal of the boundary one dimension up.  The maps are
    eliminated from the top dimension down, each without the columns the
    one above cleared (the clearing lemma of the module docstring), which
    leaves every rank and diagonal as it is.  A reduced Euler
    characteristic identity is asserted as an internal sanity check.
    """
    by_dim: dict[int, list[tuple]] = {}
    for f in delta.faces(cap):
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for fs in by_dim.values():
        fs.sort()
    top = delta.dim
    smith: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for k in range(top, -1, -1):
        upper = [f for i, f in enumerate(by_dim[k]) if i not in cleared]
        smith[k], cleared = _eliminate(_boundary_rows(by_dim[k - 1], upper))
    betti: dict[int, int] = {}
    torsion: dict[int, tuple] = {}
    for k in range(-1, top + 1):
        below, above = smith.get(k, ()), smith.get(k + 1, ())
        betti[k] = len(by_dim[k]) - len(below) - len(above)
        tors = tuple(x for x in above if x > 1)
        if tors:
            torsion[k] = tors
    euler_faces = sum((-1) ** k * len(fs) for k, fs in by_dim.items())
    euler_betti = sum((-1) ** k * b for k, b in betti.items())
    assert euler_faces == euler_betti, "Euler characteristic mismatch"
    return HomologyProfile(dim=top, betti=betti, torsion=torsion)


def conn_h(delta: SimplicialComplex) -> ExtNat:
    """Largest k with vanishing reduced homology through dimension k.

    Values: -2 for {empty}, -1 for a disconnected nonempty complex, INF
    when every reduced homology group vanishes.
    """
    return reduced_homology(delta).connectivity()
