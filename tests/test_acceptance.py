"""Acceptance gate: ten binding criteria, one test (and one report line) each.

Every criterion runs the corresponding verification suite at its stated
scale and asserts zero violations, plus any stated runtime ceiling.  Each
test records a one-line summary with scale and timing; conftest replays the
collected lines after the run so they appear even under output capture.
"""

import time

from hyperconn import (
    Hypergraph,
    PsiSolver,
    build_counterexample_family,
    psi,
    reduced_homology,
)
from hyperconn.fixtures import lutz_acyclic_complex
from hyperconn.verify import run_suite

SEED = 20260823

REPORT_LINES = []


def _report(num, label, result, elapsed, extra=""):
    status = "PASS" if result.ok else "FAIL"
    line = (
        f"criterion {num:02d} {label}: {status} "
        f"[instances={result.instances} checks={result.checks} "
        f"failures={result.failures} {elapsed:.1f}s]{extra}"
    )
    REPORT_LINES.append(line)
    print(line, flush=True)
    if result.first_failure is not None:
        for detail in (
            f"  first failure: {result.first_failure['detail']}",
            f"  payload: {result.first_failure['payload']}",
        ):
            REPORT_LINES.append(detail)
            print(detail, flush=True)
    assert result.ok, line


def test_criterion_01_fixture_homology():
    start = time.perf_counter()
    delta = lutz_acyclic_complex()
    assert len(delta.vertices) == 10
    assert len(delta.facets) == 31
    prof = reduced_homology(delta)
    assert prof.is_trivial()
    r = run_suite("fixtures", seed=SEED)
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    _report(1, "fixture-homology", r, elapsed)


def test_criterion_02_ground_truth_and_naive_agreement():
    start = time.perf_counter()
    r = run_suite("ground-truth", seed=SEED, samples=500, max_vertices=7)
    elapsed = time.perf_counter() - start
    assert r.instances >= 500
    assert elapsed < 60
    _report(2, "ground-truth-values", r, elapsed)


def test_criterion_03_connectivity_bound():
    start = time.perf_counter()
    r = run_suite("conn-bound", seed=SEED, samples=300, max_vertices=8)
    elapsed = time.perf_counter() - start
    # exhaustive graphs on 1..6 vertices plus the random 3-uniform pool
    assert r.instances >= 208 + 300
    assert elapsed < 600
    _report(3, "connectivity-bound", r, elapsed)


def test_criterion_04_structural_identities():
    start = time.perf_counter()
    r = run_suite("structural", seed=SEED, samples=300, max_vertices=8)
    elapsed = time.perf_counter() - start
    assert r.instances >= 300
    _report(4, "structural-identities", r, elapsed)


def test_criterion_05_betti_rank_inequality():
    start = time.perf_counter()
    r = run_suite("mayer-vietoris", seed=SEED, samples=300, max_vertices=8)
    elapsed = time.perf_counter() - start
    assert r.instances >= 300
    _report(5, "betti-inequality", r, elapsed)


def test_criterion_06_join_additivity():
    start = time.perf_counter()
    r = run_suite("join-additivity", seed=SEED, samples=100)
    elapsed = time.perf_counter() - start
    assert r.instances >= 100
    _report(6, "join-additivity", r, elapsed)


def test_criterion_07_domination_bounds():
    start = time.perf_counter()
    r = run_suite("domination", seed=SEED, samples=300, max_vertices=8)
    elapsed = time.perf_counter() - start
    assert r.instances >= 208 + 300
    _report(7, "domination-bounds", r, elapsed)


def test_criterion_08_contraction_characterizations():
    start = time.perf_counter()
    r = run_suite("properly-connected", seed=SEED, samples=100, max_vertices=8)
    elapsed = time.perf_counter() - start
    assert r.instances >= 100
    _report(8, "contraction-laws", r, elapsed)


def test_criterion_09_triangulated_homotopy():
    start = time.perf_counter()
    r = run_suite("triangulated-homotopy", seed=SEED, samples=50, max_vertices=8)
    elapsed = time.perf_counter() - start
    # all chordal graphs on 1..7 vertices plus at least 50 constructed
    assert r.instances >= 531 + 50
    assert elapsed < 900
    _report(9, "triangulated-homotopy", r, elapsed)


def test_criterion_10_gap_family_values():
    start = time.perf_counter()
    r = run_suite("splitting-family", seed=SEED)
    # the suite certifies psi(family(3)) == 2 and == 3 after adding an edge
    # by window probes and conn_h + 2; recompute both here by the exact
    # search, on one shared solver, so the acceptance stands on its own
    F = build_counterexample_family(3)
    solver = PsiSolver()
    assert psi(F, solver=solver) == 2
    m = max(F.vertices)
    joined = Hypergraph(
        set(F.vertices) | {m + 1, m + 2},
        list(F.edges) + [frozenset({m + 1, m + 2})],
    )
    assert psi(joined, solver=solver) == 3
    # the apex variant of PAPER.md and demo 06: one new vertex joins every
    # edge, and the value rises to 3
    apex = Hypergraph(set(F.vertices) | {m + 1}, [E | {m + 1} for E in F.edges])
    assert psi(apex, solver=solver) == 3
    elapsed = time.perf_counter() - start
    _report(10, "gap-family-values", r, elapsed)
