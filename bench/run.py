"""Benchmark for hyperconn: psi search, Smith-form homology, chain
recognition and the parallel verification harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each was chosen):
  psi-scale       psi_witness on cycles, paths, tight cycles and a seeded pool
  homology-large  independence complexes with 1,400-1,800 faces, Smith form
  triangulated    proper connectivity, triangulated recognition, wedge types
  verify-small    `hyperconn verify` on the eight light suites, --workers 2

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced pass.  Every call's output is
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every HYPERCONN_* variable is
unset first.  Reports and span files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import provenance
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
TIME_LIMIT = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ERROR_LAYERS = (
    "psi", "homology", "complexes", "chains", "homotopy", "generators",
    "domination", "formats", "verify", "cli",
)

# name -> (unit, better)
PER_LAYER = {
    "psi.busy_s": ("s", "lower"),
    "psi.calls": ("count", "lower"),
    "psi.nodes": ("count", "lower"),
    "psi.table_entries": ("count", "lower"),
    "homology.busy_s": ("s", "lower"),
    "homology.smith_share": ("ratio", "lower"),
    "homology.smith_calls": ("count", "lower"),
    "homology.matrix_entries": ("count", "lower"),
    "complexes.busy_s": ("s", "lower"),
    "complexes.faces": ("count", "lower"),
    "chains.busy_s": ("s", "lower"),
    "chains.irredundant_calls": ("count", "lower"),
    "chains.shortest_chain_calls": ("count", "lower"),
    "chains.decomposition_calls": ("count", "lower"),
    "homotopy.busy_s": ("s", "lower"),
    "homotopy.calls": ("count", "lower"),
    "generators.busy_s": ("s", "lower"),
    "generators.calls": ("count", "lower"),
    "domination.busy_s": ("s", "lower"),
    "formats.busy_s": ("s", "lower"),
    "formats.calls": ("count", "lower"),
    "verify.busy_s": ("s", "lower"),
    "verify.instances": ("count", "higher"),
    "verify.checks": ("count", "higher"),
    "verify.parent_share": ("ratio", "lower"),
    "cli.busy_s": ("s", "lower"),
    "package.import_s": ("s", "lower"),
    **{f"{layer}.errors": ("count", "lower") for layer in ERROR_LAYERS},
    "trace.overhead_s": ("s", "lower"),
}


class BenchError(Exception):
    pass


def _run_worker(argv: list, deadline: float) -> str:
    """Run a worker in its own process group; its stdout on success."""
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv],
        cwd=provenance.repo_root(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker exceeded the time limit")
    finally:
        # pool children left behind by a crashed worker
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _last_json(out: str) -> dict:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def layer_metrics(res: dict) -> tuple:
    """(per-layer metric values, derived figures for the report)."""
    st = res["self_times"]
    counts = res["counts"]
    busy: dict = {}
    for name, (sec, _n) in st.items():
        layer = name.split(".", 1)[0]
        busy[layer] = busy.get(layer, 0.0) + sec

    def spans(name):
        return st.get(name, [0.0, 0])

    smith = spans("homology.smith_diagonal")[0]
    homology_total = busy.get("homology", 0.0)
    m = {
        "psi.busy_s": busy.get("psi", 0.0),
        "psi.calls": counts.get("psi.calls", 0),
        "psi.nodes": counts.get("psi.nodes", 0),
        "psi.table_entries": counts.get("psi.table_entries", 0),
        "homology.busy_s": homology_total - smith,
        "homology.smith_share": smith / homology_total if homology_total else 0.0,
        "homology.smith_calls": counts.get("homology.smith_calls", 0),
        "homology.matrix_entries": counts.get("homology.matrix_entries", 0),
        "complexes.busy_s": busy.get("complexes", 0.0),
        "complexes.faces": counts.get("complexes.faces", 0),
        "chains.busy_s": busy.get("chains", 0.0),
        "chains.irredundant_calls": spans("chains.is_irredundant")[1],
        "chains.shortest_chain_calls": spans("chains.shortest_chain")[1],
        "chains.decomposition_calls": spans("chains.find_decomposition_vertex")[1],
        "homotopy.busy_s": busy.get("homotopy", 0.0),
        "homotopy.calls": counts.get("homotopy.calls", 0),
        "generators.busy_s": busy.get("generators", 0.0),
        "generators.calls": counts.get("generators.calls", 0),
        "domination.busy_s": busy.get("domination", 0.0),
        "formats.busy_s": busy.get("formats", 0.0),
        "formats.calls": counts.get("formats.calls", 0),
        "verify.busy_s": busy.get("verify", 0.0),
        "verify.instances": counts.get("verify.instances", 0),
        "verify.checks": counts.get("verify.checks", 0),
        "verify.parent_share": res["parent_share"] or 0.0,
        "cli.busy_s": busy.get("cli", 0.0),
        "package.import_s": res["import_s"],
        **{f"{layer}.errors": res["errors"].get(layer, 0) for layer in ERROR_LAYERS},
        "trace.overhead_s": res["overhead_s"],
    }
    psi_calls_s = busy.get("psi", 0.0) - spans("psi.import")[0]
    nodes = counts.get("psi.nodes", 0)
    derived = {
        "homology.smith_busy_s": (smith, "s"),
        "psi.us_per_node": (psi_calls_s / nodes * 1e6 if nodes else None, "us"),
    }
    return m, derived


def pass_shares(res: dict) -> list:
    """Self time of the traced pass per layer, largest first, as
    (layer, seconds, share of the pass's traced self time)."""
    busy: dict = {}
    for name, (sec, _n) in res["pass_self_times"].items():
        key = "homology.smith" if name == "homology.smith_diagonal" else name.split(".", 1)[0]
        busy[key] = busy.get(key, 0.0) + sec
    total = sum(busy.values()) or 1.0
    return sorted(((k, v, v / total) for k, v in busy.items()), key=lambda r: -r[1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true", help="reduced-scale inputs")
    args = ap.parse_args()

    deadline = time.monotonic() + TIME_LIMIT
    removed = provenance.clear_env()
    root = provenance.repo_root()
    prov = provenance.describe(root)
    argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.small:
        argv.append("--small")
    try:
        res = _last_json(_run_worker(argv, deadline))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    lines = [
        f"hyperconn benchmark: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} seconds={args.seconds}",
        f"provenance: git_sha={prov['git_sha']} src_sha256={prov['src_sha256'][:16]} "
        f"python={prov['python']} nproc={prov['nproc']}",
        "environment: every HYPERCONN_* variable unset before the run "
        f"(removed: {', '.join(removed) if removed else 'none were set'})",
    ]
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics, derived = layer_metrics(res)
        units = {k: u for k, (u, _b) in PER_LAYER.items()}
        lines.append(
            f"traced pass: untraced wall {res['untraced_wall_s']:.4f} s, traced wall "
            f"{res['traced_wall_s']:.4f} s, overhead {res['overhead_s']:.4f} s "
            f"({res['overhead_note']})"
        )
        for name, (value, unit) in derived.items():
            shown = "n/a (no psi nodes)" if value is None else f"{value:.6g} {unit}"
            lines.append(f"  {name:<30} {shown}")
        lines.append("self time of the traced pass by layer:")
        for key, sec, share in pass_shares(res):
            lines.append(f"  {key:<16} {sec:10.4f} s  {100 * share:5.1f} %")
    else:
        metrics = {
            # per-pass means: on a shared host a run's passes jump between
            # speed levels, and the mean moves less between runs than the
            # median does; the median is then taken across runs
            "wall_s": statistics.fmean(res["wall_s"]),
            "cpu_s": statistics.fmean(res["cpu_s"]),
            "setup_s": statistics.median(res["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        lines.append(
            f"{res['passes']} passes of {res['calls_per_pass']} calls; wall_s and "
            f"cpu_s are means per pass, setup_s the median of {len(res['setup_s'])} "
            "fresh interpreters timed between passes"
        )
    lines.append(
        f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:.6g}"
    )
    for detail in res["failures"]:
        lines.append(f"  FAILED {detail}")
    for name, value in metrics.items():
        lines.append(f"  {name:<30} {value!r:>24} {units[name]}")

    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    detail_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"args": vars(args), "provenance": prov, "env_removed": removed,
             "worker": res, "report": report},
            fh, indent=1,
        )
    lines.append(f"details: {os.path.relpath(detail_path, root)}")
    print("\n".join(lines))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
