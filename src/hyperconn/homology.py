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
  boundary rows are built that way.  Smith normal form eliminates over
  them, pivoting on an entry of least absolute value (a unit when there is
  one), and reduces a finished pivot's row mod the pivot.

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
    next.  The input is not modified: elimination runs on copies of the
    nonempty rows, with an index of the rows meeting each column.  The
    pivot p is an entry of least absolute value, the first unit in row
    order when there is one.  Row operations clear its column; once that
    column holds only p, a column operation against it changes the pivot
    row alone, so that row is reduced mod p.  Any nonzero remainder, in the
    column or in the row, is smaller than |p|, so the next search finds a
    smaller pivot; otherwise p joins the diagonal.
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
            cols[j].clear()
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
    from the Smith diagonal of the boundary one dimension up.  A reduced
    Euler characteristic identity is asserted as an internal sanity check.
    """
    by_dim: dict[int, list[tuple]] = {}
    for f in delta.faces(cap):
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    for fs in by_dim.values():
        fs.sort()
    top = delta.dim
    smith = {
        k: smith_diagonal(_boundary_rows(by_dim[k - 1], by_dim[k]))
        for k in range(top + 1)
    }
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
