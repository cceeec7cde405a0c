"""The recursive connectivity invariant psi of a hypergraph.

Definition (extended naturals):

    psi(C) = 0                      if V is empty
    psi(C) = infinity               if V is nonempty and C has no edges
    psi(C) = max over edges F of
                 min( psi(C - F),  psi(C : F) + |F| - 1 )   otherwise

where C - F deletes the edge F and C : F is the contraction residual.  The
solver below evaluates this exactly.  Internally a state is a pair of
bitmasks (vertex mask, sorted tuple of edge masks), and every state is
compact: its k vertices sit on bits 0..k-1 in vertex order, so its key is
exactly _encode(H)[:2] of the hypergraph H it stands for.  The root from
_encode is compact and deleting an edge keeps the vertex mask; the two steps
that drop vertices, the contraction residual and the component split,
relabel their result onto the low bits (_compact).  That relabelling keeps
vertex order, so it keeps the sorted order of the edge masks (two masks
compare by their highest differing bit, which stays highest) and maps an
antichain to an antichain (it is a bijection that keeps inclusion both
ways); the search visits children in the same order as it would on
uncompacted states.

Isomorphic states share one table entry.  A state that is neither a base
case nor has an isolated vertex, and is not split into components, is
renumbered in breadth-first order (_relabelled), and its key aliases the
entry of that relabelled key.  This needs no canonical form: two states
with equal relabelled keys are both isomorphic to the hypergraph that key
stands for, psi is defined structurally, so it does not change under
relabelling, and so every stored [lo, hi] is a proven fact about every
state sharing it.
Isomorphic states may still get different relabelled keys; they then only
share less.  No state shares an entry with one of its ancestors in the
search, since every child has fewer edges on the same vertices or fewer
vertices.  The search itself runs in each state's own labelling, so child
order and witnesses do not change; a shared entry only makes bounds, and
so cuts, arrive earlier.  On the cycle C_n the n root children are one path
cut at n places and share one entry.  The table keeps proven [lo, hi]
bounds per state and the search runs with a value window, so
uninformative branches are cut without ever changing the result:

* a child whose capped value m1 = psi(C:F) + |F| - 1 cannot beat the best
  min found so far is skipped (its min is at most m1);
* the deletion branch is evaluated with the window (best, m1): any value
  at least m1 makes the min exactly m1, any value at most best cannot win.

Children are visited in edge order, and each child's cap is the exact
value of its contraction residual, looked up in or added to the same table
(an empty residual has value 0, a one-vertex residual is infinite).
Stored bounds are window-independent facts, so entries can be reused by
later queries at any window.

Every state's edge masks form an antichain: the input Hypergraph rejects
comparable edges, deleting an edge keeps an antichain, a contraction keeps
only minimal sets, a component split takes subsets and compaction keeps
inclusion.  The residual C : F drops F and every vertex x with {x} = e - F
for some edge e, and keeps as edges the minimal diffs e - F of size at
least two.  Two consequences make
it cost O(m t) for the t edges meeting F ("touched"), not O(m^2):

* an untouched edge is its own diff, and the only diffs that can lie
  inside it are touched diffs, so it survives exactly when it contains no
  minimal touched diff (a singleton one included);
* a touched diff e - F never contains an untouched edge u (u would lie
  inside e), so minimality among the touched diffs alone decides it.

Two value-preserving shortcuts, both provable from the recursion alone by
induction (deletion and contraction commute with them edge by edge):

* a hypergraph with an isolated vertex has psi = infinity, because every
  recursion leaf below it is the edgeless-on-nonempty base;
* psi adds up over connected components (every child splits the same way,
  and min/max distribute over the per-component sum).  _components finds
  them in one pass over the edges.  When a state of several components is
  first met, every component but one with the most edges is solved
  exactly (sum v; an infinite v settles the state), and the entry keeps v
  and that last compacted component.  The search then searches the last
  one with the window (alpha - v, beta - v); its bounds plus v are the
  state's, and the window contract carries over through the sum.

psi_naive is a direct transcription of the recursion with no table, no
ordering, no cuts and no shortcuts, kept as an independent oracle; the
test suite pins the two against each other on pools that include isolated
vertices and disconnected instances.  The recursion is the one of Aharoni,
Berger and Ziv ("Independent systems of representatives in weighted
graphs", Combinatorica 27, 2007), which defines the graph case.
"""

from __future__ import annotations

import functools
import operator

from .errors import BudgetExceeded, DepthExceeded, ValidationError
from .extnat import INF, ExtNat
from .hypergraph import Hypergraph, _bitsets
from .limits import psi_budget

__all__ = ["PsiSolver", "psi", "psi_naive", "psi_witness", "degree_bound"]


def _encode(C: Hypergraph) -> tuple:
    """Bitmask state of a hypergraph plus each edge's mask in C.edges order."""
    order, masks, _ = _bitsets(C.vertices, C.edges)
    return (1 << len(order)) - 1, tuple(sorted(masks)), masks


def _cover(edges) -> int:
    """Union of the edge masks."""
    return functools.reduce(operator.or_, edges, 0)


def _compact(vmask: int, edges) -> tuple:
    """The state relabelled onto bits 0..k-1 in vertex order, k = |vmask|.

    Every edge must lie inside vmask.  The relabelling is order-preserving,
    so sorted edges stay sorted."""
    out = edges
    while vmask & (vmask + 1):
        # close the highest gap [lo, hi) of clear bits below a set bit: the
        # bits above it move down as one block
        hi = (~vmask & ((1 << vmask.bit_length()) - 1)).bit_length()
        lo = (vmask & ((1 << hi) - 1)).bit_length()
        keep = (1 << lo) - 1
        vmask = vmask & keep | vmask >> hi << lo
        out = [e & keep | e >> hi << lo for e in out] if lo else [e >> hi for e in out]
    return vmask, tuple(out)


def _components(edges) -> list:
    """Vertex masks of the connected components of a nonempty edge list,
    merged edge by edge.  The component the last edge joined is kept
    apart, so an edge that meets only it, or nothing, costs O(1) mask
    operations; only an edge meeting an older component rescans them."""
    done = []
    older = 0  # union of done
    cur = edges[0]
    for e in edges[1:]:
        if e & older:
            done.append(cur)
            keep = []
            for c in done:
                if c & e:
                    e |= c
                else:
                    keep.append(c)
            done = keep
            older = _cover(done)
            cur = e
        elif e & cur:
            cur |= e
        else:
            done.append(cur)
            older |= cur
            cur = e
    done.append(cur)
    return done


def _relabelled(vmask: int, edges: tuple) -> tuple:
    """The compact state renumbered in breadth-first order.

    The search starts at the first vertex of least degree and takes
    neighbours in label order; when it runs out it restarts at the next
    unseen vertex of least degree, so disconnected states are covered.
    Returns the key unchanged when that order is the identity."""
    k = vmask.bit_length()
    degree = [0] * k
    nbrs = [0] * k
    for e in edges:
        m = e
        while m:
            b = (m & -m).bit_length() - 1
            degree[b] += 1
            nbrs[b] |= e
            m &= m - 1
    order = []
    seen = 0
    for s in sorted(range(k), key=degree.__getitem__):
        if seen >> s & 1:
            continue
        seen |= 1 << s
        i = len(order)
        order.append(s)
        while i < len(order):
            m = nbrs[order[i]] & ~seen
            seen |= m
            while m:
                order.append((m & -m).bit_length() - 1)
                m &= m - 1
            i += 1
    if order == list(range(k)):
        return vmask, edges
    bit = [0] * k
    for new, old in enumerate(order):
        bit[old] = 1 << new
    out = []
    for e in edges:
        r = 0
        while e:
            r |= bit[(e & -e).bit_length() - 1]
            e &= e - 1
        out.append(r)
    out.sort()
    return vmask, tuple(out)


def _query(method):
    """Report a cutoff of a psi query as a resource error.  The table holds
    only proven bounds, so it stays valid for later queries, and a budget
    cutoff carries the [lo, hi] it had proven for C (psi >= 0 always)."""

    @functools.wraps(method)
    def guarded(self, C: Hypergraph, *args):
        try:
            return method(self, C, *args)
        except RecursionError:
            raise DepthExceeded("recursion depth exceeded") from None
        except BudgetExceeded as exc:
            ent = self.table.get(_encode(C)[:2], (0, INF))
            exc.bounds = (max(ent[0], 0), ent[1])
            raise

    return guarded


def _no_descent(cap_preservation: bool) -> None:
    """The keyword is kept for old callers; only False is accepted."""
    if cap_preservation:
        raise ValidationError(
            "cap_preservation: descent mode was removed; psi is always exact"
        )


class PsiSolver:
    """Exact psi evaluation over bitmask states with a shared window table."""

    def __init__(
        self,
        budget: int | None = None,
        decompose_components: bool = True,
        cap_preservation: bool = False,
    ):
        _no_descent(cap_preservation)
        self.budget = psi_budget(budget)
        self.nodes = 0
        self.decompose_components = decompose_components
        # (vertex mask, edge mask tuple) -> [lo, hi], or [lo, hi, v, last]
        # for a state split into components: v is the exact sum of all but
        # the compacted component last
        self.table: dict[tuple, list] = {}

    @_query
    def value(self, C: Hypergraph) -> ExtNat:
        vmask, edges, _fmasks = _encode(C)
        return self._val(vmask, edges)

    @_query
    def at_least(self, C: Hypergraph, k: ExtNat) -> bool:
        """Whether psi(C) >= k, decided by the window (k - 1, k)."""
        return self._reaches(*_encode(C)[:2], k)

    @_query
    def argmax_edge(self, C: Hypergraph):
        """First edge in canonical order attaining the outer max, or None
        at a base case."""
        if not C.vertices or not C.edges:
            return None
        vmask, edges, fmasks = _encode(C)
        v = self._val(vmask, edges)
        # F attains v exactly when both branches of its min reach v, since
        # no edge's min exceeds the max
        for F, fmask in zip(C.edges, fmasks):
            i = edges.index(fmask)
            m1 = self._contract_value(vmask, edges, i) + len(F) - 1
            if m1 >= v and self._reaches(vmask, edges[:i] + edges[i + 1 :], v):
                return F
        raise AssertionError("no argmax edge found")

    def _reaches(self, vmask: int, edges: tuple, k: ExtNat) -> bool:
        """Whether the state's psi is at least k, by the window (k - 1, k),
        or at INF, which no finite window separates, by the exact value."""
        if k == INF:
            return self._val(vmask, edges) == INF
        return self._search(vmask, edges, k - 1, k)[0] >= k

    def _val(self, vmask: int, edges: tuple) -> ExtNat:
        """Exact value: the search with the full window."""
        lo, hi = self._search(vmask, edges, -1, INF)
        assert lo == hi, "full-window search must be exact"
        return lo

    def _entry(self, vmask: int, edges: tuple) -> list:
        """The table's [lo, hi] for a state, made on first sight."""
        key = (vmask, edges)
        ent = self.table.get(key)
        if ent is None:
            ent = self.table[key] = self._new_entry(vmask, edges)
        return ent

    def _new_entry(self, vmask: int, edges: tuple) -> list:
        if vmask == 0:
            return [0, 0]
        if not edges:
            return [INF, INF]
        comps = _components(edges)
        if vmask & ~_cover(comps):
            return [INF, INF]
        if self.decompose_components and len(comps) > 1:
            parts = [_compact(c, [e for e in edges if e & c]) for c in comps]
            # a component with the most edges goes last: only it is
            # searched with a window (module docstring)
            parts.sort(key=lambda p: len(p[1]))
            v = sum(self._val(*p) for p in parts[:-1])
            return [INF, INF] if v == INF else [-1, INF, v, parts[-1]]
        # an unsettled state shares the entry of its relabelled key, a
        # proven fact about every isomorphic state (module docstring)
        return self.table.setdefault(_relabelled(vmask, edges), [-1, INF])

    def _contract_value(self, vmask: int, edges: tuple, i: int) -> ExtNat:
        """psi of the contraction residual by the i-th edge."""
        f = edges[i]
        nf = ~f
        singles = 0
        minimal = []
        # only the diffs of edges meeting f need the minimality scan (see
        # the module docstring); ascending popcount, since only a strictly
        # smaller set can dominate; f's own diff is 0, first and a no-op
        for d in sorted([e & nf for e in edges if e & f], key=int.bit_count):
            if d & singles:
                continue
            for s in minimal:
                if s & d == s:
                    break
            else:
                if d & (d - 1):
                    minimal.append(d)
                else:
                    singles |= d
        hit = f | singles
        cedges = [e for e in edges if not e & hit]
        if minimal:
            cedges = [e for e in cedges if all(s & e != s for s in minimal)]
            cedges += minimal
            cedges.sort()
        vp = vmask & nf & ~singles
        # a minimal diff of size >= 2 cannot meet F or a neighbor vertex
        assert not _cover(cedges) & ~vp
        return self._val(*_compact(vp, cedges))

    def _search(self, vmask: int, edges: tuple, alpha: ExtNat, beta: ExtNat) -> tuple:
        """Window evaluation returning proven bounds (lo, hi).

        Contract: lo <= psi <= hi always; if psi <= alpha then hi <= alpha;
        if psi >= beta then lo >= beta; if alpha < psi < beta then
        lo == hi == psi.
        """
        ent = self._entry(vmask, edges)
        lo, hi = ent[0], ent[1]
        if lo == hi or lo >= beta or hi <= alpha:
            return (lo, hi)
        if len(ent) > 2:
            v, last = ent[2], ent[3]
            lo, hi = self._search(*last, alpha - v, beta - v)
            ent[0], ent[1] = v + lo, v + hi
            return (ent[0], ent[1])
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"psi node budget {self.budget} exhausted")
        r = ent[0]
        u_acc: ExtNat = -1
        cut = False
        for i, f in enumerate(edges):
            a = r if r > alpha else alpha
            m1 = self._contract_value(vmask, edges, i) + f.bit_count() - 1
            if m1 <= a:
                if m1 > u_acc:
                    u_acc = m1
                continue
            b = m1 if m1 < beta else beta
            d_lo, d_hi = self._search(vmask, edges[:i] + edges[i + 1 :], a, b)
            min_lo = d_lo if d_lo < m1 else m1
            min_hi = d_hi if d_hi < m1 else m1
            if min_hi > u_acc:
                u_acc = min_hi
            if min_lo > r:
                # stored at once, so a budget cutoff further on keeps it
                r = ent[0] = min_lo
            if r >= beta:
                cut = True
                break
        if not cut and u_acc < ent[1]:
            ent[1] = u_acc
        return (ent[0], ent[1])


def psi(
    C: Hypergraph,
    budget: int | None = None,
    solver: PsiSolver | None = None,
    cap_preservation: bool = False,
) -> ExtNat:
    """Exact value of the recursive invariant (0, positive int, or INF)."""
    _no_descent(cap_preservation)
    s = solver if solver is not None else PsiSolver(budget)
    return s.value(C)


def psi_witness(
    C: Hypergraph,
    budget: int | None = None,
    solver: PsiSolver | None = None,
    cap_preservation: bool = False,
) -> tuple:
    """(psi value, an edge achieving the outer max, or None at a base case).

    The witness is the first edge in canonical order whose min matches the
    value, so it is deterministic.
    """
    _no_descent(cap_preservation)
    s = solver if solver is not None else PsiSolver(budget)
    return (s.value(C), s.argmax_edge(C))


def psi_naive(C: Hypergraph) -> ExtNat:
    """Plain unmemoized recursion; the oracle the solver is tested against."""
    return _naive(C, [0], psi_budget())


def _naive(H: Hypergraph, count: list, limit: int) -> ExtNat:
    """psi_naive of H; count[0] holds the nodes visited so far."""
    count[0] += 1
    if count[0] > limit:
        raise BudgetExceeded(f"psi_naive node budget {limit} exhausted")
    if not H.vertices:
        return 0
    if not H.edges:
        return INF
    best: ExtNat = -1
    for F in H.edges:
        deleted = _naive(H.delete_edge(F), count, limit)
        m = min(deleted, _naive(H.contract(F), count, limit) + len(F) - 1)
        if m > best:
            best = m
    return best


def degree_bound(C: Hypergraph) -> ExtNat:
    """Degree-based lower-bound input: infinity for a nonempty edgeless
    hypergraph, otherwise floor((n - 1) / (2 * max_degree) + 1).

    The max degree convention (1 on the empty vertex set) makes the
    formula return 0 there, matching psi.
    """
    if C.vertices and not C.edges:
        return INF
    delta = C.max_degree()
    return (C.order - 1 + 2 * delta) // (2 * delta)
