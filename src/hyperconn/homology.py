"""Exact reduced integer homology of simplicial complexes.

Conventions
-----------
* The augmented chain complex is used, so dimension -1 (the empty face) is
  a real chain group and the profile of the complex {empty} has a single
  free generator in dimension -1.
* Faces are oriented by the ascending order of their int vertices.
* All arithmetic is over Python ints, so ranks and torsion are exact; no
  floating point or fixed-width overflow anywhere.

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


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Nonzero diagonal of a Smith normal form of an integer matrix.

    Returns positive ints normalized so each divides the next.  The input
    is not modified.  Elimination picks the entry of least absolute value
    as pivot, which keeps intermediate growth small in practice.
    """
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag: list[int] = []
    r = 0
    c = 0
    while r < rows and c < cols:
        if not _pivot_least(m, r, c):
            break
        while True:
            p = m[r][c]
            dirty = False
            for i in range(r + 1, rows):
                a = m[i][c]
                if a:
                    q = a // p
                    if q:
                        mr = m[r]
                        mi = m[i]
                        for j in range(c, cols):
                            mi[j] -= q * mr[j]
                    if m[i][c]:
                        dirty = True
            for j in range(c + 1, cols):
                a = m[r][j]
                if a:
                    q = a // p
                    if q:
                        for i in range(r, rows):
                            m[i][j] -= q * m[i][c]
                    if m[r][j]:
                        dirty = True
            if not dirty:
                break
            # a remainder smaller than |p| appeared; make it the new pivot
            _pivot_least(m, r, c)
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    return _normalize_divisibility(diag)


def _pivot_least(m: list[list[int]], r: int, c: int) -> bool:
    """Swap the first entry of least nonzero |a|, in row-major order over
    rows r.. and columns c.., to (r, c); False when that block is zero."""
    pi = pj = -1
    best = 0
    for i in range(r, len(m)):
        mi = m[i]
        for j in range(c, len(mi)):
            a = mi[j]
            if a and (best == 0 or abs(a) < best):
                best = abs(a)
                pi, pj = i, j
                if best == 1:
                    break
        if best == 1:
            break
    if best == 0:
        return False
    if pi != r:
        m[r], m[pi] = m[pi], m[r]
    if pj != c:
        for row in m:
            row[c], row[pj] = row[pj], row[c]
    return True


def _normalize_divisibility(diag: list[int]) -> list[int]:
    # replace pairs (a, b) by (gcd, lcm) until each entry divides the next;
    # the direct sum of cyclic groups is unchanged
    d = [x for x in diag if x != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
    return sorted(d)


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


def _boundary_matrix(lower: list[tuple], upper: list[tuple]) -> list[list[int]]:
    index = {f: i for i, f in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for j, face in enumerate(upper):
        for i, v in enumerate(face):
            sub = face[:i] + face[i + 1 :]
            mat[index[sub]][j] = 1 if i % 2 == 0 else -1
    return mat


def reduced_homology(delta: SimplicialComplex, cap: int | None = None) -> HomologyProfile:
    """Profile of reduced integer homology groups of the complex.

    Betti numbers come from the ranks of consecutive boundary maps, torsion
    from the Smith diagonal of the boundary one dimension up.  A reduced
    Euler characteristic identity is asserted as an internal sanity check.
    """
    by_dim: dict[int, list[tuple]] = {-1: [()]}
    for f in sorted(delta.faces(cap), key=lambda s: (len(s), tuple(sorted(s)))):
        if f:
            by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    top = delta.dim
    ranks: dict[int, int] = {}
    smith: dict[int, list[int]] = {}
    for k in range(0, top + 1):
        mat = _boundary_matrix(by_dim[k - 1], by_dim[k])
        d = smith_diagonal(mat)
        ranks[k] = len(d)
        smith[k] = d
    betti: dict[int, int] = {}
    torsion: dict[int, tuple] = {}
    for k in range(-1, top + 1):
        nk = len(by_dim.get(k, ()))
        betti[k] = nk - ranks.get(k, 0) - ranks.get(k + 1, 0)
        tors = tuple(x for x in smith.get(k + 1, ()) if x > 1)
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
