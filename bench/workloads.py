"""The four benchmark workloads.

Each workload turns a seed into a fixed list of calls into the public API
of ``hyperconn``.  A call returns a plain, comparable value; its check
compares that value with a closed form, an oracle, or the value recorded
from the library in ``bench/expected/<workload>.json`` (regenerate with
``python3 bench/record.py``).

Seeded instances come from recorded pools.  A pool is a list of instances
drawn once from the library's random generators and stored with their
edges, expected outputs and a cost: the least of a few timings, or for
homology the face count, which predicts dense Smith time better than a
timing on a shared machine.  The inputs are built from the stored edges,
so they do not depend on the generators of the commit under test.  A run
seed picks one instance from each cost stratum of the pool (see
stratified_picks), so every seed gets new inputs with the same mix of
small and large ones.
The run-to-run spread of the timings then measures the program, not the
luck of the draw.

The functions are always looked up on the module objects at call time
(``hc.psi_witness``), so the traced pass sees calls the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

WORKLOADS = ("psi-scale", "homology-large", "triangulated", "verify-small")

# light verification suites, in the harness's own order
VERIFY_SUITES = (
    "fixtures",
    "ground-truth",
    "conn-bound",
    "structural",
    "mayer-vietoris",
    "join-additivity",
    "domination",
    "splitting-family",
)

# psi-scale ladder: (kind, n).  Cycles and paths have closed forms; paths
# with n = 1 mod 3 have value inf.  Tight cycles build the largest tables.
PSI_LADDER = (
    ("cycle", 18), ("cycle", 30), ("cycle", 42),
    ("path", 22), ("path", 37), ("path", 48),
    ("tight", 12), ("tight", 14), ("tight", 16),
)
PSI_LADDER_SMALL = (("cycle", 12), ("path", 13), ("tight", 12))

# face-count band of the homology pool: dense Smith time grows about as
# faces^2.6, so a wider band would make the per-seed spread of a pass
# larger than the benchmark's bound allows
HOMOLOGY_FACES = (1400, 1800)

# instances drawn per pass from each pool (full scale, reduced scale)
PICKS = {
    "psi-scale": (10, 3),
    "homology-large": (5, 2),
    "triangulated": (20, 4),
    "verify-small": (4, 1),
}


class Call:
    """One timed call: layer it enters, label, thunk, and expected value
    (or a function of the output returning an error string or None)."""

    __slots__ = ("layer", "label", "run", "expect")

    def __init__(self, layer, label, run, expect):
        self.layer = layer
        self.label = label
        self.run = run
        self.expect = expect

    def check(self, out) -> str | None:
        if isinstance(out, Failure):
            return out.detail
        if callable(self.expect):
            return self.expect(out)
        if out != self.expect:
            return f"got {out!r}, expected {self.expect!r}"
        return None


class Failure:
    """Marks a call that raised; kept as the call's output."""

    def __init__(self, exc: BaseException):
        self.detail = f"{type(exc).__name__}: {exc}"


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def stratified_picks(pool: list, k: int, rng: random.Random) -> list:
    """k entries of the pool, the same mix of costs for every seed.

    An entry costing at least an equal share of the pool's total cost
    (counted again after each such entry is set aside) is picked for every
    seed, so the heaviest instances are always measured.  The rest, ordered
    by cost, are cut into strata of equal size and one entry is drawn from
    each."""
    ranked = sorted(pool, key=lambda e: (e["cost"], e["g"]))
    fixed = []
    while len(fixed) < k - 1:
        rest = ranked[: len(ranked) - len(fixed)]
        if rest[-1]["cost"] < sum(e["cost"] for e in rest) / (k - len(fixed)):
            break
        fixed.append(rest[-1])
    rest = ranked[: len(ranked) - len(fixed)]
    m, n = k - len(fixed), len(rest)
    return [rng.choice(rest[j * n // m : (j + 1) * n // m]) for j in range(m)] + fixed[::-1]


def edges_of(H) -> list:
    return sorted(sorted(e) for e in H.edges)


# ---------------------------------------------------------------------------
# instances


def tight_cycle(hc, n: int):
    """The tight 3-uniform cycle: edges {i, i+1, i+2} mod n."""
    return hc.Hypergraph(
        range(1, n + 1), [{i, i % n + 1, (i + 1) % n + 1} for i in range(1, n + 1)]
    )


def ladder_instance(hc, kind: str, n: int):
    from hyperconn import fixtures

    if kind == "cycle":
        return fixtures.cycle_hypergraph(n)
    if kind == "path":
        return fixtures.path_hypergraph(n)
    return tight_cycle(hc, n)


def pool_instance(hc, entry: dict):
    return hc.Hypergraph(entry["vertices"], entry["edges"])


# ---------------------------------------------------------------------------
# output normalisation shared with record.py


def psi_output(hc, H) -> list:
    solver = hc.PsiSolver()
    value, witness = hc.psi_witness(H, solver=solver)
    return [str(value), None if witness is None else sorted(witness)]


def homology_output(hc, H, use_conn: bool) -> str:
    K = hc.independence_complex(H)
    if use_conn:
        return str(hc.conn_h(K))
    return hc.reduced_homology(K).describe()


def triangulated_output(hc, H) -> list:
    pc = hc.is_properly_connected(H)
    tri = hc.is_triangulated(H)
    if not (pc and tri):
        return [pc, tri, None, None]
    wedge = hc.homotopy_type_triangulated(H).describe()
    geq = hc.hypergraph_geq(H, H.edges[0])
    return [pc, tri, wedge, edges_of(geq)]


def verify_argv(suite: str, seed: int, workers: int) -> list:
    return [
        "verify", "--suite", suite, "--seed", str(seed), "--samples", "8",
        "--max-vertices", "6", "--workers", str(workers), "--json",
    ]


def verify_output(cli, suite: str, seed: int, workers: int) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(verify_argv(suite, seed, workers))
    report = json.loads(buf.getvalue())
    (res,) = report["suites"]
    return [code, report["ok"], res["instances"], res["checks"]]


def graphs_summary(graphs: list) -> list:
    """[count, digest] of graphs on vertices 1..n that does not depend on
    which member of an isomorphism class stands for it, nor on the order:
    each graph's canonical form is its least edge bitmask over all
    relabellings of the vertices."""
    forms = []
    for G in graphs:
        n = max(G.vertices)
        bit = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
        edges = [tuple(v - 1 for v in sorted(e)) for e in G.edges]
        best = None
        for perm in itertools.permutations(range(n)):
            mask = 0
            for a, b in edges:
                x, y = perm[a], perm[b]
                mask |= 1 << bit[(x, y) if x < y else (y, x)]
            if best is None or mask < best:
                best = mask
        forms.append(best)
    text = ",".join(map(str, sorted(forms)))
    return [len(forms), hashlib.sha256(text.encode()).hexdigest()]


def _graphs_check(recorded: list):
    """all_graphs must yield one graph per isomorphism class, the classes
    recorded; computed once per process, after the first timed pass."""
    seen = {}

    def check(graphs):
        if "summary" not in seen:
            seen["summary"] = graphs_summary(graphs)
        got = seen["summary"]
        if got != recorded:
            return (
                f"all_graphs gave {got[0]} graphs, digest {got[1][:12]}; "
                f"recorded {recorded[0]}, digest {recorded[1][:12]}"
            )
        return None

    return check


# ---------------------------------------------------------------------------
# workload builders: (hc, seed, small) -> list[Call]


def _closed_form(kind: str, n: int):
    if kind == "cycle":
        return str(math.ceil((n - 1) / 3))
    if kind == "path":
        return "inf" if n % 3 == 1 else str(math.ceil(n / 3))
    return None


def _ladder_check(closed, recorded):
    """Value against the closed form where there is one, else against the
    recorded value; witness against the recorded witness."""

    def check(out):
        want = closed if closed is not None else recorded[0]
        if out[0] != want:
            return f"psi {out[0]}, expected {want}"
        if out[1] != recorded[1]:
            return f"witness {out[1]}, recorded {recorded[1]}"
        return None

    return check


def build_psi_scale(hc, seed: int, small: bool) -> list:
    exp = load_expected("psi-scale")
    calls = []
    for kind, n in PSI_LADDER_SMALL if small else PSI_LADDER:
        H = ladder_instance(hc, kind, n)
        calls.append(
            Call(
                "psi",
                f"{kind}{n}",
                lambda H=H: psi_output(hc, H),
                _ladder_check(_closed_form(kind, n), exp["ladder"][f"{kind}{n}"]),
            )
        )
    rng = random.Random(f"psi-scale:{seed}")
    pool = exp["pool"]
    if small:
        pool = sorted(pool, key=lambda e: e["cost"])[: len(pool) // 4]
    for e in stratified_picks(pool, PICKS["psi-scale"][small], rng):
        H = pool_instance(hc, e)
        calls.append(Call("psi", f"pool{e['g']}", lambda H=H: psi_output(hc, H), e["out"]))
    return calls


def build_homology_large(hc, seed: int, small: bool) -> list:
    exp = load_expected("homology-large")
    rng = random.Random(f"homology-large:{seed}")
    pool = exp["pool"]
    if small:
        pool = sorted(pool, key=lambda e: e["cost"])[: len(pool) // 4]
    calls = []
    # strata alternate between the full profile and conn_h, so every seed
    # gets the same mix of the two calls at each size
    for j, e in enumerate(stratified_picks(pool, PICKS["homology-large"][small], rng)):
        H = pool_instance(hc, e)
        use_conn = j % 2 == 1
        calls.append(
            Call(
                "homology",
                f"pool{e['g']}",
                lambda H=H, c=use_conn: homology_output(hc, H, c),
                e["conn"] if use_conn else e["profile"],
            )
        )
    lutz = hc.fixture("lutz-acyclic")
    calls.append(
        Call(
            "homology",
            "lutz-acyclic",
            lambda: hc.reduced_homology(lutz).describe(),
            exp["lutz-acyclic"],
        )
    )
    return calls


def build_triangulated(hc, seed: int, small: bool) -> list:
    exp = load_expected("triangulated")
    rng = random.Random(f"triangulated:{seed}")
    pool = exp["pool"]
    if small:
        pool = sorted(pool, key=lambda e: e["cost"])[: len(pool) // 4]
    calls = []
    for e in stratified_picks(pool, PICKS["triangulated"][small], rng):
        H = pool_instance(hc, e)
        calls.append(
            Call("chains", f"pool{e['g']}", lambda H=H: triangulated_output(hc, H), e["out"])
        )
    n = 5 if small else 6
    graphs = list(hc.all_graphs(n))
    calls.append(
        Call(
            "generators",
            f"all_graphs({n})",
            lambda: graphs,
            _graphs_check(exp["graphs"][str(n)]),
        )
    )
    for i, G in enumerate(graphs):
        chordal = hc.is_chordal(G)
        calls.append(
            Call("chains", f"graph{i}", lambda G=G: hc.is_triangulated(G), chordal)
        )
    return calls


def build_verify_small(hc, seed: int, small: bool, workers: int = 2) -> list:
    from hyperconn import cli

    exp = load_expected("verify-small")
    rng = random.Random(f"verify-small:{seed}")
    calls = []
    for e in stratified_picks(exp["pool"], PICKS["verify-small"][small], rng):
        for suite in VERIFY_SUITES:
            want = [0, True] + e["counts"][suite]
            calls.append(
                Call(
                    "verify",
                    f"{suite}@{e['g']}",
                    lambda s=suite, k=e["g"]: verify_output(cli, s, k, workers),
                    want,
                )
            )
    return calls


BUILDERS = {
    "psi-scale": build_psi_scale,
    "homology-large": build_homology_large,
    "triangulated": build_triangulated,
    "verify-small": build_verify_small,
}
