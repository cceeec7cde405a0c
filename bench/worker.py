"""One benchmark process: import hyperconn, build a workload, run it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--small] [--setup-only]

Untraced (--trace 0): repeats the workload's fixed list of calls until its
passes have taken S seconds and reports the wall and CPU seconds of every
pass, the set-up seconds of fresh interpreters started between passes, the
peak resident memory of this process and its children, and the outcome of
every call.

--setup-only imports the package and builds the inputs, then exits: the
process whose run time is one set-up sample.

Traced (--trace 1): an untraced pass, the traced pass(es), and a second
untraced pass, then the per-layer self times and counts (see tracing.py).
For verify-small, pool children cannot return spans, so the layer spans
come from a pass at --workers 1, and the suite and parent-side spans from
a pass at --workers 2, the worker count of the untraced passes.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import provenance
import workloads as wl
from tracing import Tracer, timed_pool_class

OUT_DIR = os.path.join(provenance.repo_root(), ".bench_out")
# fresh interpreters timed per run for setup_s (one at reduced scale)
SETUP_SAMPLES = 20


def _cpu() -> float:
    """User plus system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def time_setup(args) -> float:
    """Seconds for a fresh interpreter to import the package and build the
    workload's inputs."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    if args.small:
        argv.append("--small")
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak of this process and of its largest child: pool children, and
    set-up samples, which build a subset of what this process builds."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tally:
    """Outcomes of every call run, checked after each pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.errors: dict = {}

    def run_pass(self, calls: list) -> tuple:
        """(wall s, cpu s, outputs) of one pass; outputs checked after timing."""
        outs = []
        c0 = _cpu()
        t0 = time.perf_counter()
        for call in calls:
            try:
                outs.append(call.run())
            except Exception as exc:  # recorded as a failed call, run goes on
                outs.append(wl.Failure(exc))
        wall = time.perf_counter() - t0
        cpu = _cpu() - c0
        self.attempted += len(calls)
        for call, out in zip(calls, outs):
            detail = call.check(out)
            if detail is not None:
                self.failed += 1
                self.errors[call.layer] = self.errors.get(call.layer, 0) + 1
                if len(self.failures) < 5:
                    self.failures.append(f"{call.label}: {detail}")
        return wall, cpu, outs

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "errors": self.errors,
        }


def build(hc, args, workers: int = 2) -> list:
    if args.workload == "verify-small":
        return wl.build_verify_small(hc, args.seed, args.small, workers)
    return wl.BUILDERS[args.workload](hc, args.seed, args.small)


def counting_replacements(tracer: Tracer) -> dict:
    """Counters recorded at the psi and homology boundaries.  The psi
    stand-in creates the solver psi would create, so it can read its node
    count and table size; the values returned are unchanged."""
    # the package's "psi" attribute is the function, so fetch the module
    psi_mod = sys.modules["hyperconn.psi"]
    counts = tracer.counts

    def psi_counted(orig, C, budget=None, solver=None, cap_preservation=False):
        s = solver
        if s is None:
            s = psi_mod.PsiSolver(budget, cap_preservation=cap_preservation)
        nodes0, table0 = s.nodes, len(s.table)
        try:
            return orig(C, budget, s, cap_preservation)
        finally:
            counts["psi.nodes"] += s.nodes - nodes0
            counts["psi.table_entries"] += len(s.table) - table0

    def smith_counted(orig, mat):
        counts["homology.smith_calls"] += 1
        counts["homology.matrix_entries"] += len(mat) * (len(mat[0]) if mat else 0)
        return orig(mat)

    def homology_counted(orig, delta, cap=None):
        out = orig(delta, cap)
        counts["complexes.faces"] += len(delta.faces(cap))  # cached by the call
        return out

    return {
        ("psi", "psi"): psi_counted,
        ("psi", "psi_witness"): psi_counted,
        ("homology", "smith_diagonal"): smith_counted,
        ("homology", "reduced_homology"): homology_counted,
    }


def traced(tracer: Tracer, fn, *rebinds):
    """fn() with every public function rebound to tracer's wrappers."""
    tracer.install(counting_replacements(tracer))
    for mod, attr, value in rebinds:
        tracer.rebind(mod, attr, value)
    try:
        return fn()
    finally:
        tracer.uninstall()


def layer_summary(tracers: list) -> dict:
    """Self seconds and span counts per span name, summed over tracers."""
    total: dict = {}
    for tr in tracers:
        for name, (sec, n) in tr.self_times().items():
            acc = total.setdefault(name, [0.0, 0])
            acc[0] += sec
            acc[1] += n
    return total


def untraced_main(hc, args) -> dict:
    calls = build(hc, args)
    tally = Tally()
    walls, cpus, setup = [], [], []
    samples = 1 if args.small else SETUP_SAMPLES
    while not walls or sum(walls) < args.seconds:
        wall, cpu, _outs = tally.run_pass(calls)
        walls.append(wall)
        cpus.append(cpu)
        # set-up samples are spread over the run in step with the passes:
        # this host has fast and slow spells of a few seconds, and samples
        # taken together at the start would all fall into one of them
        while len(setup) < samples * min(1.0, sum(walls) / args.seconds):
            setup.append(time_setup(args))
    return {
        "passes": len(walls),
        "calls_per_pass": len(calls),
        "wall_s": walls,
        "cpu_s": cpus,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
        **tally.as_dict(),
    }


def traced_main(hc, args, setup_tracer: Tracer) -> dict:
    verify = args.workload == "verify-small"
    calls = build(hc, args)
    tally = Tally()
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    os.makedirs(OUT_DIR, exist_ok=True)

    base = [tally.run_pass(calls)[0]]
    suite_wall = parent_share = None
    if verify:
        suites = Tracer()
        pool = (sys.modules["hyperconn.verify"], "ProcessPoolExecutor", timed_pool_class(suites))
        compared = traced(suites, lambda: tally.run_pass(calls), pool)[0]
        suites.write_spans(f"{stem}.suites.spans.tsv.gz")
        suite_wall = sum(suites.span_seconds("verify.run_suite"))
        pooled = sum(suites.span_seconds("verify.pool"))
        parent_share = (suite_wall - pooled) / suite_wall
        base.append(tally.run_pass(calls)[0])
        calls = build(hc, args, workers=1)

    layers = Tracer()
    wall, _cpu, outs = traced(layers, lambda: tally.run_pass(calls))
    if not verify:
        compared = wall
        base.append(tally.run_pass(calls)[0])
    else:
        for out in outs:
            if isinstance(out, list):
                layers.counts["verify.instances"] += out[2]
                layers.counts["verify.checks"] += out[3]
    setup_tracer.write_spans(f"{stem}.setup.spans.tsv.gz")
    layers.write_spans(f"{stem}.pass.spans.tsv.gz")

    untraced_wall = sum(base) / len(base)
    return {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": wall,
        "overhead_s": compared - untraced_wall,
        "overhead_note": (
            "traced --workers 2 pass minus untraced --workers 2 passes; layer "
            "spans from a separate --workers 1 pass"
            if verify else "traced pass minus untraced passes"
        ),
        "suite_wall_s": suite_wall,
        "parent_share": parent_share,
        "import_s": setup_tracer.top_level_seconds(".import"),
        "self_times": layer_summary([setup_tracer, layers]),
        "pass_self_times": layer_summary([layers]),
        "counts": dict(setup_tracer.counts + layers.counts),
        **tally.as_dict(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced-scale inputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    provenance.clear_env()
    root = provenance.repo_root()
    setup_tracer = Tracer() if args.trace else None
    if setup_tracer is not None:
        setup_tracer.trace_imports()
    provenance.use_checkout_source(root)
    import hyperconn as hc

    if args.workload == "verify-small" or args.trace:
        # the traced run loads the package the way the hyperconn command
        # does, so every layer's import is on the record
        import hyperconn.cli  # noqa: F401
    provenance.check_loaded_from(root, hc)

    if args.setup_only:
        build(hc, args)
        return 0
    if setup_tracer is None:
        result = untraced_main(hc, args)
    else:
        setup_tracer.stop_import_tracing()
        # input generation is traced too: it is where the generators work
        traced(setup_tracer, lambda: build(hc, args))
        result = traced_main(hc, args, setup_tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
