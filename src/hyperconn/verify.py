"""Randomized and exhaustive verification suites for the package invariants.

Each suite pairs a deterministic instance generator with a pure per-instance
check.  Instances are drawn sequentially from a stream seeded by
``f"{seed}:{suite_name}"``, each hypergraph stored as the JSON document the
CLI reads, ``{"vertices": ids, "edges": [edge, ...]}``, so a report is
bit-identical across runs with the same seed and across worker counts, and
any recorded counterexample replays on its own: through ``replay``, or as
JSON piped into ``hyperconn psi -``.

Checks may be evaluated in parallel (``workers > 1``); results are folded in
generation order, which keeps the report independent of scheduling.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .chains import c_max_disjoint, hypergraph_geq, is_properly_connected
from .complexes import (
    SimplicialComplex,
    complex_union,
    full_simplex,
    independence_complex,
    join,
    link,
    minimal_nonfaces,
)
from .domination import epsilon, gamma_tilde
from .errors import NotTriangulated, ValidationError
from .extnat import INF, ceil_half, parse_ext
from .fixtures import fixture
from .generators import (
    all_graphs,
    chordal_graphs,
    random_hypergraph,
    random_uniform_hypergraph,
    random_triangulated_uniform,
)
from .homology import conn_h, reduced_homology
from .homotopy import (
    build_counterexample_family,
    homotopy_type_triangulated,
    max_dimension_bound,
)
from .hypergraph import Hypergraph
from .psi import PsiSolver, degree_bound, psi, psi_naive

__all__ = [
    "SuiteResult",
    "VerificationReport",
    "SUITE_NAMES",
    "run",
    "run_suite",
    "replay",
]


def _doc(H: Hypergraph) -> dict:
    return {"vertices": sorted(H.vertices), "edges": [sorted(e) for e in H.edges]}


def _hypergraph(doc) -> Hypergraph:
    """The hypergraph of an instance document; anything else, such as the
    text instance of an older report, raises ValidationError."""
    try:
        if isinstance(doc, dict) and doc.keys() == {"vertices", "edges"}:
            return Hypergraph(doc["vertices"], doc["edges"])
    except TypeError:
        pass
    raise ValidationError(f"instance is not a vertices/edges document: {doc!r}")


def _ok(checks: int) -> dict:
    return {"ok": True, "checks": checks, "detail": None}


def _fail(checks: int, detail: str) -> dict:
    return {"ok": False, "checks": checks, "detail": detail}


# ---------------------------------------------------------------------------
# fixtures suite: the bundled acyclic complex and the named registry


def _gen_fixtures(rng, samples, max_vertices):
    return [{"which": "lutz-acyclic"}, {"which": "registry"}]


def _check_fixtures(payload):
    if payload["which"] == "lutz-acyclic":
        delta = fixture("lutz-acyclic")
        if len(delta.vertices) != 10:
            return _fail(1, f"expected 10 vertices, got {len(delta.vertices)}")
        if len(delta.facets) != 31:
            return _fail(2, f"expected 31 facets, got {len(delta.facets)}")
        prof = reduced_homology(delta)
        if not prof.is_trivial():
            return _fail(3, "reduced homology is not zero: " + prof.describe())
        return _ok(3)
    checks = 0
    for name, order, size in [
        ("c4", 4, 4),
        ("c5", 5, 5),
        ("path(4)", 4, 3),
        ("complete(4,2)", 4, 6),
        ("counterexample(3)", None, None),
    ]:
        H = fixture(name)
        checks += 1
        if order is not None and (len(H.vertices) != order or len(H.edges) != size):
            return _fail(checks, f"fixture {name}: unexpected shape")
    return _ok(checks)


# ---------------------------------------------------------------------------
# ground-truth suite: pinned values plus agreement with the naive recursion


_GROUND_TRUTH = [
    ({"vertices": [], "edges": []}, "0"),
    ({"vertices": [1, 2, 3], "edges": []}, "inf"),
    ({"vertices": [1, 2], "edges": [[1, 2]]}, "1"),
    ({"vertices": [1, 2, 3, 4], "edges": [[1, 2], [3, 4]]}, "2"),
]


def _gen_ground_truth(rng, samples, max_vertices):
    out = [{"instance": t, "expect": e} for t, e in _GROUND_TRUTH]
    for name, expect in [("c4", "1"), ("c5", "2"), ("path(4)", "inf")]:
        out.append({"instance": _doc(fixture(name)), "expect": expect})
    mv = min(max_vertices, 7)
    while len(out) < samples + len(_GROUND_TRUTH) + 3:
        H = random_hypergraph(rng, mv)
        if len(H.edges) > 5:
            continue
        out.append({"instance": _doc(H), "expect": None})
    return out


def _check_ground_truth(payload):
    H = _hypergraph(payload["instance"])
    a = psi(H)
    b = psi_naive(H)
    if a != b:
        return _fail(1, f"solver disagreement: window={a} naive={b}")
    if payload["expect"] is not None and a != parse_ext(payload["expect"]):
        return _fail(2, f"expected {payload['expect']}, computed {a}")
    return _ok(2)


# ---------------------------------------------------------------------------
# conn-bound suite: homological connectivity against the recursive bound


def _need_three_vertices(suites: str, max_vertices: int) -> None:
    if max_vertices < 3:
        raise ValidationError(
            f"{suites}: 3-uniform samples need --max-vertices >= 3,"
            f" got {max_vertices}"
        )


def _gen_conn_bound(rng, samples, max_vertices):
    if samples:
        # only the random samples are 3-uniform, so --samples 0 is accepted
        _need_three_vertices("conn-bound and domination", max_vertices)
    out = []
    for n in range(1, min(6, max_vertices) + 1):
        for G in all_graphs(n):
            out.append({"instance": _doc(G)})
    for _ in range(samples):
        H = random_uniform_hypergraph(rng, min(max_vertices, 8), 3, max_edges=12)
        out.append({"instance": _doc(H)})
    return out


def _check_conn_bound(payload):
    H = _hypergraph(payload["instance"])
    p = psi(H)
    ch = conn_h(independence_complex(H))
    if not ch >= p - 2:
        return _fail(1, f"connectivity {ch} < bound {p} - 2")
    return _ok(1)


# ---------------------------------------------------------------------------
# structural suite: contraction/deletion identities on the complex side


def _gen_structural(rng, samples, max_vertices):
    if max_vertices < 2:
        # one vertex carries no edge, so no instance would ever be kept
        raise ValidationError(f"need at least 2 vertices, got {max_vertices}")
    out = []
    while len(out) < samples:
        H = random_hypergraph(rng, min(max_vertices, 8))
        if not H.edges:
            continue
        out.append(
            {"instance": _doc(H), "edge": rng.randrange(len(H.edges))}
        )
    return out


def _check_structural(payload):
    H = _hypergraph(payload["instance"])
    F = H.edges[payload["edge"]]
    dele = H.delete_edge(F)
    cont = H.contract(F)
    ind = independence_complex(H)
    ind_d = independence_complex(dele)
    ind_c = independence_complex(cont)
    if ind_c != link(ind_d, F):
        return _fail(1, "contraction complex differs from the link")
    if ind_d != complex_union(ind, join(full_simplex(F), ind_c)):
        return _fail(2, "deletion complex differs from the cone-union form")
    if len(dele.edges) != len(H.edges) - 1:
        return _fail(3, "deletion did not drop exactly one edge")
    if len(cont.edges) > len(H.edges) - 1:
        return _fail(4, "contraction has too many edges")
    return _ok(4)


# ---------------------------------------------------------------------------
# mayer-vietoris suite: Betti numbers of the three associated complexes


def _check_mayer_vietoris(payload):
    H = _hypergraph(payload["instance"])
    F = H.edges[payload["edge"]]
    pa = reduced_homology(independence_complex(H))
    pb = reduced_homology(independence_complex(H.delete_edge(F)))
    pc = reduced_homology(independence_complex(H.contract(F)))
    shift = len(F) - 1
    checks = 0
    for i in range(-1, pa.dim + 1):
        checks += 1
        if pa.betti_at(i) > pb.betti_at(i) + pc.betti_at(i - shift):
            return _fail(
                checks,
                f"betti {i}: {pa.betti_at(i)} > "
                f"{pb.betti_at(i)} + {pc.betti_at(i - shift)}",
            )
    return _ok(checks)


# ---------------------------------------------------------------------------
# join-additivity suite: the bound is additive over joins of complexes


def _gen_join(rng, samples, max_vertices):
    out = []
    mv = min(max_vertices, 6)
    while len(out) < samples:
        a = random_hypergraph(rng, mv)
        b = random_hypergraph(rng, mv)
        if len(a.edges) > 4 or len(b.edges) > 4:
            continue
        off = max(a.vertices, default=0) + 1 - min(b.vertices, default=1)
        b = Hypergraph(
            (v + off for v in b.vertices),
            [frozenset(v + off for v in e) for e in b.edges],
        )
        out.append({"c1": _doc(a), "c2": _doc(b)})
    return out


def _check_join(payload):
    a = _hypergraph(payload["c1"])
    b = _hypergraph(payload["c2"])
    # component decomposition inside the solver would assume the identity
    # under test, so it stays off for all three evaluations
    pa = psi(a, solver=PsiSolver(decompose_components=False))
    pb = psi(b, solver=PsiSolver(decompose_components=False))
    joined = minimal_nonfaces(
        join(independence_complex(a), independence_complex(b))
    )
    pj = psi(joined, solver=PsiSolver(decompose_components=False))
    if pj != pa + pb:
        return _fail(1, f"join value {pj} != {pa} + {pb}")
    return _ok(1)


# ---------------------------------------------------------------------------
# domination suite: domination-style lower bounds and the graph oracle


def _total_domination_number(G: Hypergraph):
    """Brute-force total domination number of a graph; INF when a vertex
    has no neighbor at all."""
    nb = {v: set() for v in G.vertices}
    for e in G.edges:
        u, v = sorted(e)
        nb[u].add(v)
        nb[v].add(u)
    verts = sorted(G.vertices)
    if any(not nb[v] for v in verts):
        return INF
    for size in range(1, len(verts) + 1):
        for S in itertools.combinations(verts, size):
            s = set(S)
            if all(nb[v] & s for v in verts):
                return size
    return INF


def _check_domination(payload):
    H = _hypergraph(payload["instance"])
    ind = independence_complex(H)
    g = gamma_tilde(ind)
    n = len(H.vertices)
    delta = H.max_degree() if H.edges else 0
    checks = 1
    if delta == 0:
        if H.vertices and g != INF:
            return _fail(checks, f"edgeless but domination number {g}")
    elif g * delta < n:
        return _fail(checks, f"gamma {g} * degree {delta} < order {n}")
    ch = conn_h(ind)
    k = ceil_half(g)  # k_bound(H), from the domination number in hand
    eps = epsilon(H)
    p = psi(H)
    checks += 1
    if not ch >= k - 2:
        return _fail(checks, f"connectivity {ch} < {k} - 2")
    checks += 1
    if not ch >= eps - 2:
        return _fail(checks, f"connectivity {ch} < epsilon {eps} - 2")
    for label, val in [("k", k), ("epsilon", eps), ("degree", degree_bound(H))]:
        checks += 1
        if not val <= p:
            return _fail(checks, f"{label} bound {val} exceeds value {p}")
    if H.edges and H.uniform_size() == 2:
        checks += 1
        gt = _total_domination_number(H)
        if g != gt:
            return _fail(checks, f"gamma {g} != total domination {gt}")
    return _ok(checks)


# ---------------------------------------------------------------------------
# properly-connected suite: contraction characterizations and chain counts


def _gen_properly_connected(rng, samples, max_vertices):
    if samples:
        _need_three_vertices("properly-connected", max_vertices)
    out = []
    for n in range(1, min(6, max_vertices) + 1):
        for G in all_graphs(n):
            if G.edges and is_properly_connected(G):
                out.append({"instance": _doc(G)})
    for _ in range(max(samples // 4, 10) if samples else 0):
        H = random_triangulated_uniform(rng, 3, min(max_vertices, 8))
        out.append({"instance": _doc(H)})
    return out


def _check_properly_connected(payload):
    H = _hypergraph(payload["instance"])
    if not is_properly_connected(H):
        return _fail(1, "instance is not properly connected")
    checks = 1
    c_full = c_max_disjoint(H)
    for F in H.edges:
        cont = H.contract(F)
        away = H.induced(H.vertices - F - H.neighbor_set(F))
        geq = hypergraph_geq(H, F)
        checks += 1
        if not (cont == away == geq):
            return _fail(checks, f"contraction characterizations differ at {sorted(F)}")
        checks += 1
        if cont.edges and not c_full >= c_max_disjoint(cont) + 1:
            return _fail(checks, f"disjoint-chain count did not drop at {sorted(F)}")
        checks += 1
        if not is_properly_connected(cont):
            return _fail(checks, f"contraction at {sorted(F)} not properly connected")
    return _ok(checks)


# ---------------------------------------------------------------------------
# triangulated-homotopy suite: synthesized wedge types against homology


def _gen_triangulated(rng, samples, max_vertices):
    if samples:
        _need_three_vertices("triangulated-homotopy", max_vertices)
    out = []
    for n in range(1, min(7, max_vertices) + 1):
        for G in chordal_graphs(n):
            out.append({"instance": _doc(G)})
    # 4-uniform draws come after the 3-uniform ones, so a seed draws the
    # same 3-uniform instances as before they were added; below four
    # vertices there is no 4-uniform instance to draw
    draws = [3] * samples + [4] * (samples // 2 if max_vertices >= 4 else 0)
    for d in draws:
        H = random_triangulated_uniform(rng, d, min(max_vertices, 8))
        out.append({"instance": _doc(H)})
    return out


def _check_triangulated(payload):
    H = _hypergraph(payload["instance"])
    try:
        t = homotopy_type_triangulated(H)
    except NotTriangulated as exc:
        return _fail(1, f"homotopy synthesis rejected the instance: {exc}")
    prof = reduced_homology(independence_complex(H))
    if prof.torsion:
        return _fail(2, "independence complex has torsion")
    expected = {
        k: prof.betti_at(k) for k in range(-1, prof.dim + 1) if prof.betti_at(k)
    }
    if t.betti_profile() != expected:
        return _fail(
            3, f"wedge profile {t.betti_profile()} != homology profile {expected}"
        )
    checks = 3
    if H.edges and t.spheres:
        checks += 1
        bound = max_dimension_bound(H)
        top = max(t.spheres)
        if top > bound:
            return _fail(checks, f"sphere dimension {top} exceeds bound {bound}")
    checks += 1
    p = psi(H)
    ch = prof.connectivity()
    if p != ch + 2:
        return _fail(checks, f"bound {p} != connectivity {ch} + 2")
    return _ok(checks)


# ---------------------------------------------------------------------------
# splitting-family suite: the two pinned values of the gap family, each
# certified as a closed interval.  The window probe proves the lower end; the
# conn-bound theorem, psi <= conn_h(Ind) + 2, gives the upper end.


def _gen_splitting_family(rng, samples, max_vertices):
    return [{"k": 3}]


def _check_splitting_family(payload):
    F = build_counterexample_family(payload["k"])
    m = max(F.vertices)
    joined = Hypergraph(
        set(F.vertices) | {m + 1, m + 2},
        list(F.edges) + [frozenset({m + 1, m + 2})],
    )
    # one solver, so the F component of the join reuses F's entry
    solver = PsiSolver()
    pinned = [("family", F, 2), ("family plus an edge", joined, 3)]
    for checks, (name, H, value) in enumerate(pinned, 1):
        if not solver.at_least(H, value):
            return _fail(checks, f"{name}: window probe psi >= {value} failed")
        top = conn_h(independence_complex(H)) + 2
        if top > value:
            return _fail(checks, f"{name}: upper end conn_h + 2 = {top} > {value}")
    return _ok(2)


# ---------------------------------------------------------------------------
# harness


_SUITES = {
    "fixtures": (_gen_fixtures, _check_fixtures),
    "ground-truth": (_gen_ground_truth, _check_ground_truth),
    "conn-bound": (_gen_conn_bound, _check_conn_bound),
    "structural": (_gen_structural, _check_structural),
    "mayer-vietoris": (_gen_structural, _check_mayer_vietoris),
    "join-additivity": (_gen_join, _check_join),
    "domination": (_gen_conn_bound, _check_domination),
    "properly-connected": (_gen_properly_connected, _check_properly_connected),
    "triangulated-homotopy": (_gen_triangulated, _check_triangulated),
    "splitting-family": (_gen_splitting_family, _check_splitting_family),
}

SUITE_NAMES = tuple(_SUITES)

# instances per pool task; a suite of at most one chunk would keep only one
# pool process busy, so it runs in the calling process instead
_CHUNK = 8


def _run_check(item):
    name, payload = item
    return _SUITES[name][1](payload)


@dataclass(frozen=True)
class SuiteResult:
    """Aggregated outcome of one suite run."""

    name: str
    instances: int
    checks: int
    failures: int
    first_failure: dict | None
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        """Canonical form; timing is display-only and excluded."""
        return {
            "name": self.name,
            "instances": self.instances,
            "checks": self.checks,
            "failures": self.failures,
            "first_failure": self.first_failure,
        }


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    results: tuple

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "suites": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_lines(self) -> list:
        lines = []
        for r in self.results:
            status = "PASS" if r.ok else "FAIL"
            lines.append(
                f"{r.name:<22} {status}  instances={r.instances}"
                f" checks={r.checks} failures={r.failures}"
                f" ({r.elapsed:.2f}s)"
            )
            if r.first_failure is not None:
                lines.append(f"  first failure: {r.first_failure['detail']}")
                lines.append(
                    "  payload: " + json.dumps(r.first_failure["payload"])
                )
        lines.append(
            f"overall {'PASS' if self.ok else 'FAIL'} seed={self.seed}"
        )
        return lines


def _suite(name: str) -> tuple:
    if name not in _SUITES:
        raise ValidationError(f"unknown suite {name!r}; known: {', '.join(_SUITES)}")
    return _SUITES[name]


def run_suite(
    name: str,
    seed: int = 0,
    samples: int = 200,
    max_vertices: int = 8,
    workers: int = 1,
) -> SuiteResult:
    """Run one named suite and aggregate its outcomes in generation order.

    Raises ValidationError, before any instance is drawn, for an unknown
    name, negative samples or fewer than one worker.  The pool starts at
    most one process per CPU, whatever workers asks for, and only when the
    instances fill more than one chunk; the outcome does not depend on the
    worker count."""
    gen, _check = _suite(name)
    if samples < 0:
        raise ValidationError(f"samples must be >= 0, got {samples}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    rng = random.Random(f"{seed}:{name}")
    start = time.perf_counter()
    payloads = gen(rng, samples, max_vertices)
    items = [(name, p) for p in payloads]
    if workers > 1 and len(items) > _CHUNK:
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            outcomes = list(pool.map(_run_check, items, chunksize=_CHUNK))
    else:
        outcomes = [_run_check(it) for it in items]
    checks = 0
    failures = 0
    first = None
    for payload, out in zip(payloads, outcomes):
        checks += out["checks"]
        if not out["ok"]:
            failures += 1
            if first is None:
                first = {"suite": name, "payload": payload, "detail": out["detail"]}
    return SuiteResult(
        name=name,
        instances=len(payloads),
        checks=checks,
        failures=failures,
        first_failure=first,
        elapsed=time.perf_counter() - start,
    )


def run(
    seed: int = 0,
    samples: int = 200,
    max_vertices: int = 8,
    suites=None,
    workers: int = 1,
) -> VerificationReport:
    """Run the selected suites (all by default) under one seed."""
    names = list(SUITE_NAMES) if suites is None else list(suites)
    for n in names:
        _suite(n)
    results = tuple(
        run_suite(n, seed=seed, samples=samples, max_vertices=max_vertices,
                  workers=workers)
        for n in names
    )
    return VerificationReport(seed=seed, results=results)


def replay(failure: dict) -> dict:
    """Re-run the check recorded in a failure entry; returns the outcome."""
    return _run_check((failure["suite"], failure["payload"]))
