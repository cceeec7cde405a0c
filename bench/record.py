"""Record the expected outputs the benchmark checks against.

Draws the pool instances from the library's random generators, runs them
and the ladder instances through the library at the current commit, and
writes ``bench/expected/<workload>.json`` with each pool instance's
vertices and edges, which the benchmark builds its inputs from.  The cost
stored per pool entry (seconds, or the face count for homology) orders the
pool into strata; it is not compared with anything.

    python3 bench/record.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

import provenance
import workloads as wl

POOL_SIZES = {
    "psi-scale": 120,
    "homology-large": 400,  # generator seeds tried; the face band admits about 1 in 6
    "triangulated": 80,
    "verify-small": 48,
}


def _timed(fn, repeats: int = 3):
    """Output and the least of several timings, the estimate of an
    instance's cost that is least disturbed by other load."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        sec = time.perf_counter() - t0
        best = sec if best is None else min(best, sec)
    return out, best


def _entry(g, H, cost, **fields):
    return {
        "g": g,
        "vertices": sorted(H.vertices),
        "edges": [sorted(e) for e in H.edges],
        "cost": cost,
        **fields,
    }


# pool generators; each instance is a pure function of its generator seed


def psi_pool_instance(hc, g: int):
    """3-uniform on 8-9 vertices, at most 1.5 n edges, no isolated vertex."""
    rng = random.Random(f"psi-pool:{g}")
    while True:
        H = hc.random_uniform_hypergraph(rng, 9, 3, max_edges=13)
        if H.order >= 8 and len(H.edges) <= 1.5 * H.order and not H.has_isolated_vertex:
            return H


def homology_pool_instance(hc, g: int):
    """3-uniform on 12-13 vertices with n to 2n edges, no isolated vertex.
    The pool keeps the seeds whose complexes fall in HOMOLOGY_FACES."""
    rng = random.Random(f"homology-pool:{g}")
    while True:
        n = rng.randint(12, 13)
        H = hc.random_uniform_hypergraph(rng, n, 3, min_edges=n, max_edges=2 * n)
        if H.order >= 12 and not H.has_isolated_vertex:
            return H


def triangulated_pool_instance(hc, g: int):
    """The 3-uniform growth model without its recognizer checks, 6-9
    vertices, so positive and negative instances mix."""
    rng = random.Random(f"triangulated-pool:{g}")
    cap = 6 + g % 4
    while True:
        H = hc.random_triangulated_uniform(rng, 3, cap, verify=False)
        if H.order >= 6:
            return H


def record_psi_scale(hc) -> dict:
    ladder = {}
    for kind, n in sorted(set(wl.PSI_LADDER) | set(wl.PSI_LADDER_SMALL)):
        ladder[f"{kind}{n}"] = wl.psi_output(hc, wl.ladder_instance(hc, kind, n))
    pool = []
    for g in range(POOL_SIZES["psi-scale"]):
        H = psi_pool_instance(hc, g)
        out, sec = _timed(lambda: wl.psi_output(hc, H))
        pool.append(_entry(g, H, round(sec, 5), out=out))
    return {"ladder": ladder, "pool": pool}


def record_homology_large(hc) -> dict:
    lo, hi = wl.HOMOLOGY_FACES
    pool = []
    for g in range(POOL_SIZES["homology-large"]):
        H = homology_pool_instance(hc, g)
        faces = len(hc.independence_complex(H).faces())
        if not lo <= faces <= hi:
            continue
        profile, sec = _timed(lambda: wl.homology_output(hc, H, False))
        conn = wl.homology_output(hc, H, True)
        pool.append(_entry(g, H, faces, seconds=round(sec, 5), profile=profile, conn=conn))
        print(f"homology pool {g}: {faces} faces {sec:.2f}s", file=sys.stderr)
    lutz = hc.reduced_homology(hc.fixture("lutz-acyclic")).describe()
    return {"lutz-acyclic": lutz, "pool": pool}


def record_triangulated(hc) -> dict:
    pool = []
    for g in range(POOL_SIZES["triangulated"]):
        H = triangulated_pool_instance(hc, g)
        out, sec = _timed(lambda: wl.triangulated_output(hc, H))
        pool.append(_entry(g, H, round(sec, 5), out=out))
    graphs = {str(n): wl.graphs_summary(list(hc.all_graphs(n))) for n in (5, 6)}
    return {"graphs": graphs, "pool": pool}


def record_verify_small(hc) -> dict:
    from hyperconn import cli

    def run_seed(g):
        counts = {}
        for suite in wl.VERIFY_SUITES:
            code, ok, instances, checks = wl.verify_output(cli, suite, g, 2)
            if code != 0 or not ok:
                raise SystemExit(f"suite {suite} seed {g} failed at this commit")
            counts[suite] = [instances, checks]
        return counts

    pool = []
    for g in range(POOL_SIZES["verify-small"]):
        counts, sec = _timed(lambda: run_seed(g), repeats=2)
        pool.append({"g": g, "cost": round(sec, 5), "counts": counts})
    return {"pool": pool}


def write_expected(path: str, data: dict) -> None:
    """JSON with one pool entry per line, so the files stay short and
    diff entry by entry."""
    parts = []
    for key, value in sorted(data.items()):
        if key == "pool":
            rows = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in value)
            text = f"[\n{rows}\n ]"
        else:
            text = json.dumps(value, sort_keys=True)
        parts.append(f" {json.dumps(key)}: {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


RECORDERS = {
    "psi-scale": record_psi_scale,
    "homology-large": record_homology_large,
    "triangulated": record_triangulated,
    "verify-small": record_verify_small,
}


def main(argv: list) -> int:
    root = provenance.repo_root()
    provenance.use_checkout_source(root)
    import hyperconn as hc

    os.makedirs(wl.EXPECTED_DIR, exist_ok=True)
    for name in argv or wl.WORKLOADS:
        data = {"recorded_from": provenance.describe(root), **RECORDERS[name](hc)}
        path = os.path.join(wl.EXPECTED_DIR, f"{name}.json")
        write_expected(path, data)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    provenance.clear_env()
    sys.exit(main(sys.argv[1:]))
