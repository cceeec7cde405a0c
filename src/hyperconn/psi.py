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
uncompacted states.  psi is defined structurally, so it does not change
under relabelling, and every stored bound is a proven fact about every
hypergraph its key stands for: order-isomorphic states, such as one path
segment at any offset, share one table entry.  The table keeps proven
[lo, hi] bounds per state and the search runs with a value window, so
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
  and min/max distribute over the per-component sum).

psi_naive is a direct transcription of the recursion with no table, no
ordering, no cuts and no shortcuts, kept as an independent oracle; the
test suite pins the two against each other on pools that include isolated
vertices and disconnected instances.

Descent mode (cap_preservation=True) switches to a single-path algorithm
for instances whose deletion lattice is too large for the window search.
It rests on one extra reduction step, stated for an edge F of C with
capped branch value cap_F = psi(C:F) + |F| - 1:

    if cap_F exceeds psi(C), or cap_F is infinite, then
    psi(C - F) = psi(C).

The <= direction when psi(C) is finite is a theorem (a larger deletion
value would push the min term for F, and hence the max, above psi(C)).
The >= direction is an assumption validated on tens of thousands of
random instances with zero violations; it is off by default and every
result produced with it on is cross-checked against psi_naive in the
test suite.  Each descent step certifies its precondition at run time:

* all capped branches finite with maximum M: psi <= M always holds, and
  a window probe decides psi >= M.  A positive probe returns M exactly
  with no assumption used; a negative probe proves psi < M = cap of the
  chosen edge, so the deletion step applies;
* some capped branch infinite: the precondition is vacuous (either psi
  is finite and the cap exceeds it, or psi is infinite and deleting the
  edge keeps it infinite, the validated infinite case).

Each step removes one edge, so the walk ends at a base case or at an
all-finite state settled by the probe.
"""

from __future__ import annotations

import functools
import operator

from .errors import BudgetExceeded, DepthExceeded
from .extnat import INF, ExtNat
from .hypergraph import Hypergraph
from .limits import psi_budget

__all__ = ["PsiSolver", "psi", "psi_naive", "psi_witness", "degree_bound"]


def _encode(C: Hypergraph) -> tuple:
    """Bitmask state of a hypergraph plus each edge's mask in C.edges order."""
    vlist = sorted(C.vertices)
    index = {v: i for i, v in enumerate(vlist)}
    vmask = (1 << len(vlist)) - 1
    masks = []
    for e in C.edges:
        m = 0
        for v in e:
            m |= 1 << index[v]
        masks.append(m)
    return vmask, tuple(sorted(masks)), masks


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


def _component_mask(edges: tuple) -> int:
    """Vertex mask of the connected component containing the first edge."""
    comp = edges[0]
    pending = list(edges[1:])
    changed = True
    while changed:
        changed = False
        rest = []
        for e in pending:
            if e & comp:
                comp |= e
                changed = True
            else:
                rest.append(e)
        pending = rest
    return comp


def _query(method):
    """Report a cutoff of a psi query as a resource error.  The table holds
    only proven bounds, so it stays valid for later queries, and a budget
    cutoff carries the [lo, hi] it had proven for C (psi >= 0 always)."""

    @functools.wraps(method)
    def guarded(self, C: Hypergraph):
        try:
            return method(self, C)
        except RecursionError:
            raise DepthExceeded("recursion depth exceeded") from None
        except BudgetExceeded as exc:
            lo, hi = self.table.get(_encode(C)[:2], (0, INF))
            exc.bounds = (max(lo, 0), hi)
            raise

    return guarded


class PsiSolver:
    """Exact psi evaluation over bitmask states with a shared window table."""

    def __init__(
        self,
        budget: int | None = None,
        decompose_components: bool = True,
        cap_preservation: bool = False,
    ):
        self.budget = psi_budget(budget)
        self.nodes = 0
        self.decompose_components = decompose_components
        self.cap_preservation = bool(cap_preservation)
        # (vertex mask, edge mask tuple) -> [lo, hi]
        self.table: dict[tuple, list] = {}

    @_query
    def value(self, C: Hypergraph) -> ExtNat:
        vmask, edges, _fmasks = _encode(C)
        return self._val(vmask, edges)

    @_query
    def argmax_edge(self, C: Hypergraph):
        """First edge in canonical order attaining the outer max, or None
        at a base case."""
        if not C.vertices or not C.edges:
            return None
        vmask, edges, fmasks = _encode(C)
        v = self._val(vmask, edges)
        # F attains v exactly when both branches of its min reach v, since
        # no edge's min exceeds the max.  The window probe (v - 1, v) decides
        # the deletion branch; v = INF has no such window, and descent mode
        # evaluates the branch exactly
        exact = v == INF or self.cap_preservation
        for F, fmask in zip(C.edges, fmasks):
            i = edges.index(fmask)
            rest = edges[:i] + edges[i + 1 :]
            m1 = self._contract_value(vmask, edges, i) + len(F) - 1
            if m1 >= v and (
                self._val(vmask, rest) >= v
                if exact
                else self._search(vmask, rest, v - 1, v)[0] >= v
            ):
                return F
        raise AssertionError("no argmax edge found")

    def _val(self, vmask: int, edges: tuple) -> ExtNat:
        """Exact value: descent when the preserving-deletion step is
        enabled, otherwise the proven full-window search."""
        if self.cap_preservation:
            return self._value_descent(vmask, edges)
        lo, hi = self._search(vmask, edges, -1, INF)
        assert lo == hi, "full-window search must be exact"
        return lo

    def _new_entry(self, vmask: int, edges: tuple) -> list:
        if vmask == 0:
            return [0, 0]
        if not edges:
            return [INF, INF]
        if vmask & ~_cover(edges):
            return [INF, INF]
        if self.decompose_components and len(edges) > 1:
            comp = _component_mask(edges)
            if comp != vmask:
                inside = _compact(comp, [e for e in edges if e & comp])
                outside = _compact(vmask & ~comp, [e for e in edges if not e & comp])
                v = self._val(*inside) + self._val(*outside)
                return [v, v]
        return [-1, INF]

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

    def _value_descent(self, vmask: int, edges: tuple) -> ExtNat:
        """Exact value by preserving deletions; see the module docstring
        for the assumption this mode adds and how each step certifies
        its precondition."""
        key = (vmask, edges)
        ent = self.table.get(key)
        if ent is not None and ent[0] == ent[1]:
            return ent[0]
        v = self._descend(vmask, edges)
        ent = self.table.get(key)
        if ent is None:
            self.table[key] = [v, v]
        else:
            # window bounds and descent values must agree
            assert ent[0] <= v <= ent[1]
            ent[0] = v
            ent[1] = v
        return v

    def _descend(self, vmask: int, edges: tuple) -> ExtNat:
        lo, hi = self._new_entry(vmask, edges)
        if lo == hi:
            return lo
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"psi node budget {self.budget} exhausted")
        best_cap = -1
        best_i = -1
        for i, f in enumerate(edges):
            cap = self._contract_value(vmask, edges, i) + f.bit_count() - 1
            if cap == INF:
                # an infinite capped branch makes its deletion preserving
                # whether the value is finite or not
                return self._value_descent(vmask, edges[:i] + edges[i + 1 :])
            if cap > best_cap:
                best_cap = cap
                best_i = i
        # every capped branch is finite, so the value is at most best_cap;
        # the window probe decides whether it is attained
        lo, _hi = self._search(vmask, edges, best_cap - 1, best_cap)
        if lo >= best_cap:
            return best_cap
        # the probe proved the value below best_cap, so deleting the
        # maximizing edge is preserving
        return self._value_descent(vmask, edges[: best_i] + edges[best_i + 1 :])

    def _search(self, vmask: int, edges: tuple, alpha: ExtNat, beta: ExtNat) -> tuple:
        """Window evaluation returning proven bounds (lo, hi).

        Contract: lo <= psi <= hi always; if psi <= alpha then hi <= alpha;
        if psi >= beta then lo >= beta; if alpha < psi < beta then
        lo == hi == psi.
        """
        key = (vmask, edges)
        ent = self.table.get(key)
        if ent is None:
            ent = self._new_entry(vmask, edges)
            self.table[key] = ent
        lo, hi = ent[0], ent[1]
        if lo == hi or lo >= beta or hi <= alpha:
            return (lo, hi)
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
    s = solver if solver is not None else PsiSolver(budget, cap_preservation=cap_preservation)
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
    s = solver if solver is not None else PsiSolver(budget, cap_preservation=cap_preservation)
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
